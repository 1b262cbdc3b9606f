import numpy as np
import pytest

from pptatlas import extremal as ex
from pptatlas import qstate as qs
from pptatlas.errors import BadArity, NotPpt

from conftest import ghz_vector, random_separable, random_unit


class TestFaceOperators:
    def test_maximally_mixed_gives_identity_maps(self):
        ops = ex.face_operators(np.eye(8) / 8)
        for k in range(4):
            assert np.abs(ops.operators[k] - np.eye(64)).max() < 1e-12

    def test_idempotent_and_symmetric(self, rng):
        ops = ex.face_operators(qs.random_ppt_state(rng))
        for k in range(4):
            mat = ops.operators[k]
            assert np.abs(mat @ mat - mat).max() < 1e-9
            assert np.abs(mat - mat.T).max() < 1e-12

    def test_state_is_eigenvector_of_combined(self, rng):
        state = qs.random_ppt_state(rng)
        ops = ex.face_operators(state)
        coords = qs.mat_to_coords(state.normalized().mat)
        assert np.abs(ops.combined @ coords - 4.0 * coords).max() < 1e-8

    def test_rank_of_each_operator(self, rng):
        state = qs.random_ppt_state(rng)
        ops = ex.face_operators(state)
        for k in range(4):
            m = ops.profile.ranks[k]
            evs = np.linalg.eigvalsh(ops.operators[k])
            assert int(round(evs.sum())) == m * m

    def test_rejects_npt_state(self):
        with pytest.raises(NotPpt):
            ex.face_operators(qs.projector(ghz_vector()))


class TestIsExtremal:
    def test_pure_product_extremal(self):
        result = ex.is_extremal(qs.projector(np.eye(8)[0]))
        assert result.extremal and result.face_dimension == 0

    def test_pure_product_eigenvalue_four_simple(self):
        ops = ex.face_operators(qs.projector(np.eye(8)[0]))
        evs = np.linalg.eigvalsh(ops.combined)
        assert np.count_nonzero(np.abs(evs - 4.0) < 1e-9) == 1

    def test_mixture_of_two_products_not_extremal(self, rng):
        state = random_separable(rng, 2)
        result = ex.is_extremal(state)
        assert not result.extremal
        assert result.face_dimension >= 1

    def test_maximally_mixed_face_dimension(self):
        assert ex.is_extremal(np.eye(8) / 8).face_dimension == 63

    def test_upb_state_extremal(self):
        from pptatlas.prodvec import upb_standard, upb_state

        state = upb_state(upb_standard(np.pi / 4, np.pi / 4, np.pi / 4))
        assert ex.is_extremal(state).extremal

    def test_face_basis_properties(self, rng):
        state = random_separable(rng, 3)
        space = ex.face_solution_space(state)
        assert space.dimension >= 1
        ops = ex.face_operators(state)
        for direction in space.basis:
            assert abs(np.trace(direction).real) < 1e-10
            coords = qs.mat_to_coords(direction)
            for k in range(4):
                mapped = qs.coords_to_mat(ops.operators[k] @ coords)
                assert np.linalg.norm(mapped - direction) < 1e-8
        gram = np.einsum("dab,eba->de", space.basis, space.basis).real
        assert np.abs(gram - np.eye(space.dimension)).max() < 1e-9


class TestLineSearchAndDescent:
    def test_descent_from_maximally_mixed(self, rng):
        endpoint = ex.descend_to_extremal(np.eye(8) / 8, rng)
        profile = qs.ppt_profile(endpoint)
        assert profile.is_ppt
        assert profile.square_sum <= 193
        assert ex.is_extremal(endpoint).extremal

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


class TestSeparabilityProbe:
    def test_mixture_of_two_products_separable(self, rng):
        probe = ex.separability_probe(random_separable(rng, 2), rng)
        assert probe.verdict == "separable_evidence"
        assert all(ep.pure and ep.product for ep in probe.endpoints)
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

    def test_rank_two_or_three_leaf_is_not_entanglement(self):
        """A PPT state of rank 2 or 3 is separable. On this six-product
        mixture some probe leaves read as mixed extremal states of rank 2 or
        3; they must not be reported as entanglement."""
        state = random_separable(np.random.default_rng(0), 6)
        probe = ex.separability_probe(state, np.random.default_rng(0), n_trials=4)
        assert probe.verdict != "entangled_evidence"

    def test_extremal_mixed_state_entangled_immediately(self):
        from pptatlas.rank4 import construct_type2

        state, _ = construct_type2(0.6 + 0.8j)
        probe = ex.separability_probe(state, np.random.default_rng(0))
        assert probe.verdict == "entangled_evidence"
        assert not probe.caveat

    def test_decomposition_weights_sum_to_one(self, rng):
        probe = ex.separability_probe(random_separable(rng, 2), rng)
        assert abs(sum(ep.weight for ep in probe.endpoints) - 1.0) < 1e-10

    def test_entangled_rank5555_probe(self):
        """An entangled rank-5555 state sits on a 1-dim face; the probe walks
        to a pure product at one end and a mixed rank-4444 extremal state at
        the other, reporting entanglement with the false-negative caveat."""
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
            assert probe.verdict == "entangled_evidence"
            assert probe.caveat
            assert any(ep.profile.ranks == (4, 4, 4, 4) for ep in probe.endpoints)
            return
        pytest.fail("no entangled rank-5555 state found in the seed range")


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


class TestSymmetricStates:
    def test_transpose_sum_method(self, rng):
        state = ex.symmetric_state(rng)
        for k in (1, 2, 3):
            assert np.array_equal(qs.ptranspose_mat(state.mat, k), state.mat)
        assert np.abs(state.mat.imag).max() == 0.0
        profile = qs.ppt_profile(state)
        assert profile.is_ppt and profile.ranks == (8, 8, 8, 8)

    def test_rank_targeted_4_extremal(self, rng):
        for _ in range(3):
            state = ex.symmetric_state(rng, rank=4)
            assert qs.ppt_profile(state).ranks == (4, 4, 4, 4)
            assert ex.is_extremal(state).extremal

    def test_rank_targeted_7_not_extremal(self, rng):
        state = ex.symmetric_state(rng, rank=7)
        assert qs.ppt_profile(state).ranks == (7, 7, 7, 7)
        assert not ex.is_extremal(state).extremal

    def test_symmetric_states_equal_their_transposes(self, rng):
        state = ex.symmetric_state(rng, rank=5)
        for k in (1, 2, 3):
            assert np.array_equal(qs.ptranspose_mat(state.mat, k), state.mat)
