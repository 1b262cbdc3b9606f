import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pptatlas import extremal as ex
from pptatlas import qstate as qs
from pptatlas.errors import BadArity, MaxIterations, NotPpt

from conftest import ghz_vector, is_product_certificate, random_separable, random_unit


def range_projector(mat: np.ndarray) -> np.ndarray:
    """Projector onto the eigenvectors of a Hermitian matrix whose eigenvalues
    exceed 1e-8 of the largest magnitude."""
    w, v = np.linalg.eigh(mat)
    vk = v[:, np.abs(w) > 1e-8 * np.abs(w).max()]
    return vk @ vk.conj().T


class TestFaceSolutionSpace:
    def test_rejects_npt_state(self):
        with pytest.raises(NotPpt):
            ex.face_solution_space(qs.projector(ghz_vector()))


class TestIsExtremal:
    def test_pure_product_extremal(self):
        state = qs.projector(np.eye(8)[0])
        assert ex.face_solution_space(state).dimension == 0
        assert ex.is_extremal(state) is True

    def test_mixture_of_two_products_not_extremal(self, rng):
        state = random_separable(rng, 2)
        assert ex.is_extremal(state) is False
        assert ex.face_solution_space(state).dimension >= 1

    def test_maximally_mixed_face_dimension(self):
        assert ex.face_solution_space(np.eye(8) / 8).dimension == 63

    def test_upb_state_extremal(self):
        from pptatlas.prodvec import upb_standard, upb_state

        state = upb_state(upb_standard(np.pi / 4, np.pi / 4, np.pi / 4))
        assert ex.is_extremal(state)

    def test_face_basis_properties(self, rng):
        """Every face direction is traceless, the directions are orthonormal,
        and each transpose of a direction lies in the range of the matching
        transpose of the state: P_i sigma^Ti P_i = sigma^Ti."""
        state = random_separable(rng, 3)
        space = ex.face_solution_space(state)
        assert space.dimension >= 1
        projectors = [range_projector(pt) for pt in qs.all_ptransposes(state.mat)]
        for direction in space.basis:
            assert abs(np.trace(direction).real) < 1e-10
            for k, proj in enumerate(projectors):
                pt = qs.ptranspose_mat(direction, k)
                assert np.linalg.norm(proj @ pt @ proj - pt) < 1e-8
        gram = np.einsum("dab,eba->de", space.basis, space.basis).real
        assert np.abs(gram - np.eye(space.dimension)).max() < 1e-9


class TestLineSearchAndDescent:
    def test_descent_from_maximally_mixed(self, rng):
        endpoint = ex.descend_to_extremal(np.eye(8) / 8, rng)
        profile = qs.ppt_profile(endpoint)
        assert profile.is_ppt
        assert profile.square_sum <= 193
        assert ex.is_extremal(endpoint)

    def test_descent_fixes_pure_product(self, rng):
        state = qs.projector(np.eye(8)[0])
        endpoint = ex.descend_to_extremal(state, rng)
        assert np.abs(endpoint.mat - state.mat).max() < 1e-12

    def test_descent_monotone_square_sum(self, rng):
        """The sorted profile square-sum never increases along a walk."""
        state = qs.random_ppt_state(rng)
        space = ex.face_solution_space(state)
        prev = space.profile.square_sum
        for _ in range(6):
            if space.dimension == 0:
                break
            sigma = ex._random_direction(space, rng)
            _, nxt = ex.line_search_to_boundary(space.state, sigma)
            space = ex.face_solution_space(nxt)
            assert space.profile.square_sum <= prev
            prev = space.profile.square_sum

    def test_line_search_output_is_ppt(self, rng):
        state = qs.random_ppt_state(rng)
        space = ex.face_solution_space(state)
        sigma = ex._random_direction(space, rng)
        eps, boundary = ex.line_search_to_boundary(state, sigma)
        assert eps > 0
        assert min(np.linalg.eigvalsh(m).min()
                   for m in qs.all_ptransposes(boundary.mat)) >= -1e-9


    def test_descent_raises_when_every_direction_fails(self, rng, monkeypatch):
        """A boundary step of zero along every direction leaves the face
        dimension where it is, and the descent gives up with MaxIterations."""
        calls = []

        def no_step(rho, sigma, tolerances):
            calls.append(sigma)
            return 0.0, rho

        monkeypatch.setattr(ex, "line_search_to_boundary", no_step)
        with pytest.raises(MaxIterations, match="face dimension stuck at 63"):
            ex.descend_to_extremal(np.eye(8) / 8, rng)
        assert len(calls) == ex._MAX_DIRECTION_RETRIES


class TestSeparabilityProbe:
    def test_mixture_of_two_products_separable(self, rng):
        probe = ex.separability_probe(random_separable(rng, 2), rng)
        assert probe.verdict == "separable_evidence"
        assert is_product_certificate(probe.endpoints)
        assert probe.reconstruction_error < 1e-8

    def test_mixture_of_three_products_separable(self, rng):
        probe = ex.separability_probe(random_separable(rng, 3), rng)
        assert probe.verdict == "separable_evidence"

    def test_certificate_covers_returned_endpoints(self):
        """The reported error is that of the merged endpoints returned: on
        this mixture a tree whose leaves rebuild it to 1e-9 merges into
        endpoints that rebuild it only to ~6e-8, and must not certify."""
        rng = np.random.default_rng([211, 3, 99])
        weights = rng.random(3) + 0.2
        weights /= weights.sum()
        mat = np.zeros((8, 8), dtype=complex)
        for w in weights:
            x, y, z = (random_unit(rng, 2) for _ in range(3))
            v = qs.kron3(x, y, z)
            mat += w * np.outer(v, v.conj())
        mat = mat / np.trace(mat).real
        probe = ex.separability_probe(qs.HermitianOperator(mat), rng, n_trials=4)
        assert probe.verdict == "separable_evidence"
        rebuilt = sum(ep.weight * ep.state.mat for ep in probe.endpoints)
        err = np.linalg.norm(rebuilt - mat)
        assert err <= 1.01 * probe.reconstruction_error
        assert err < 1e-8

    def test_extremal_mixed_state_entangled_immediately(self):
        from pptatlas.rank4 import construct_type2

        state, _ = construct_type2(0.6 + 0.8j)
        probe = ex.separability_probe(state, np.random.default_rng(0))
        assert (probe.verdict, probe.endpoints, probe.trees) == ("inconclusive", [], 0)

    def test_decomposition_weights_sum_to_one(self, rng):
        probe = ex.separability_probe(random_separable(rng, 2), rng)
        assert abs(sum(ep.weight for ep in probe.endpoints) - 1.0) < 1e-10

    def test_entangled_rank5555_probe(self):
        """An entangled rank-5555 state sits on a 1-dim face; the probe walks
        to a pure product at one end and a mixed rank-4444 extremal state at
        the other (criterion 11 checks those ends), so it never certifies."""
        from pptatlas import ranksearch as rs

        for seed in range(40):
            rng = np.random.default_rng(1100 + seed)
            found = rs.solve_targets(rs.RankTargetProblem((5, 5, 5, 5)), rng,
                                     restarts=6, require_exact=True)
            if not found.success:
                continue
            if ex.face_solution_space(found.state).dimension != 1:
                continue
            probe = ex.separability_probe(found.state, rng)
            assert probe.verdict == "inconclusive" and not probe.endpoints
            return
        pytest.fail("no entangled rank-5555 state found in the seed range")

    @settings(max_examples=12, deadline=None, database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3))
    def test_certificate_or_nothing(self, seed, products):
        """A certified result is a decomposition into pure product states
        with positive weights summing to 1 that rebuilds the state to its
        reported error, below 1e-8; an inconclusive one has no endpoints."""
        rng = np.random.default_rng(seed)
        state = random_separable(rng, products)
        probe = ex.separability_probe(state, rng, n_trials=4)
        assert probe.verdict in ("separable_evidence", "inconclusive")
        if probe.verdict == "inconclusive":
            assert probe.endpoints == [] and probe.reconstruction_error is None
            return
        assert is_product_certificate(probe.endpoints)
        assert all(ep.weight > 0 for ep in probe.endpoints)
        rebuilt = sum(ep.weight * ep.state.mat for ep in probe.endpoints)
        err = np.linalg.norm(rebuilt - state.normalized().mat)
        assert np.isclose(err, probe.reconstruction_error, rtol=1e-6, atol=1e-15)
        assert err < 1e-8


class TestRankSquareBound:
    def test_three_qubits_bound(self):
        assert ex.rank_square_bound([8, 8, 8, 8]) == (193, 256, False)
        assert ex.rank_square_bound([5, 6, 8, 8]) == (193, 189, True)
        assert ex.rank_square_bound([1, 1, 1, 1]) == (193, 4, True)

    def test_general_formula(self):
        bound = ex.rank_square_bound([3, 3], n_parties=2, total_dim=9)
        assert bound.bound == 82

    def test_bad_arity(self):
        with pytest.raises(BadArity):
            ex.rank_square_bound([4, 4, 4])
        with pytest.raises(BadArity):
            ex.rank_square_bound([0, 4, 4, 4])

