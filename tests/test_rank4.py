import numpy as np
import pytest
import scipy.linalg

from pptatlas import extremal as ex
from pptatlas import invariants as inv
from pptatlas import prodvec as pv
from pptatlas import qstate as qs
from pptatlas import rank4 as r4
from pptatlas.errors import DegenerateDraw, InvalidParameter, NotRank4

from conftest import ZeroRng

# allowed two-product support patterns of the u columns, one row per column
# index, each entry a (k, l, m, n) combination
ALLOWED_SUPPORTS = {
    1: ["1221", "1331", "1441", "2332", "2442", "3443"],
    2: ["1122", "1342", "1432", "2341", "2431", "3344"],
    3: ["1133", "1243", "1423", "2134", "2244", "3241"],
    4: ["1144", "1234", "1324", "2143", "2233", "3142"],
}


def _reference_pencil_columns(psi, bipartition):
    """One frame's unit pencil columns, or None for a degenerate pencil."""
    top, bottom = pv._ROW_SPLITS[bipartition]
    a_mat, b_mat = psi[top, :], psi[bottom, :]
    try:
        _, vr = np.linalg.eig(np.linalg.solve(b_mat, a_mat))
    except np.linalg.LinAlgError:
        try:
            _, vr = scipy.linalg.eig(a_mat, b_mat)
        except (np.linalg.LinAlgError, ValueError):
            return None
    if not np.all(np.isfinite(vr)):
        return None
    phis = psi @ vr
    norms = np.linalg.norm(phis, axis=0)
    if norms.min() < 1e-10:
        return None
    return phis / norms


def _reference_match_columns(new, ref):
    if ref is None:
        return new
    overlap = np.abs(ref.conj().T @ new)
    order = [0, 0, 0, 0]
    for _ in range(4):
        i, j = np.unravel_index(int(np.argmax(overlap)), overlap.shape)
        order[i] = j
        overlap[i, :] = -1.0
        overlap[:, j] = -1.0
    return new[:, order]


def _reference_projector_coords(cols):
    projs = np.einsum("ic,jc->cij", cols, cols.conj())
    return np.einsum("kab,cba->ck", qs.hermitian_basis(), projs).real


class _ReferenceResidual:
    """The compatibility residual one parameter vector at a time, with the
    projector coordinates as einsums: the reference for the stacked one."""

    def __init__(self, signs):
        self.signs = np.asarray(signs, dtype=float)
        self.reference = {bp: None for bp in pv.BIPARTITIONS}

    def __call__(self, theta, update_reference=False):
        frame = (theta[:32] + 1j * theta[32:64]).reshape(8, 4)
        psi, _ = np.linalg.qr(frame)
        logw = r4._WEIGHT_CAP * np.tanh(theta[64:] / r4._WEIGHT_CAP)
        vecs = {}
        for bp in pv.BIPARTITIONS:
            cols = _reference_pencil_columns(psi, bp)
            if cols is None:
                return None
            vecs[bp] = _reference_match_columns(cols, self.reference[bp])
        if update_reference:
            self.reference = dict(vecs)
        coords = {bp: _reference_projector_coords(vecs[bp]) for bp in pv.BIPARTITIONS}
        combo = (self.signs * np.exp(logw)) @ coords["1|23"]
        combo = combo / np.linalg.norm(combo)
        residuals = []
        for bp in ("2|13", "3|12"):
            qb, _ = np.linalg.qr(coords[bp].T)
            residuals.append(combo - qb @ (qb.T @ combo))
        barriers = []
        for bp in pv.BIPARTITIONS:
            det = max(np.linalg.det(vecs[bp].conj().T @ vecs[bp]).real, 1e-300)
            barriers.append(0.5 * max(0.0, r4._GRAM_LOG_FLOOR - np.log10(det)))
        if np.all(self.signs > 0):
            evs = np.linalg.eigvalsh(np.einsum("k,kab->ab", combo, qs.hermitian_basis()))
            ev4 = max(abs(float(evs[4])), 1e-300)
            barriers.append(0.5 * max(0.0, np.log10(r4._RANK_FLOOR) - np.log10(ev4)))
        return np.concatenate([residuals[0], residuals[1], np.array(barriers)])


def _search_point(seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.standard_normal(64), 0.3 * rng.standard_normal(4)])


class TestCompatibilityResidual:
    @pytest.mark.parametrize("signs", [(1, 1, 1, 1), (1, 1, -1, 1)])
    def test_stack_rows_match_reference(self, signs):
        theta = _search_point(7)
        stacked = r4._CompatibilityResidual(np.array(signs))
        reference = _ReferenceResidual(np.array(signs))
        r0, payload = stacked(theta[None], update_reference=True)
        assert np.abs(r0[0] - reference(theta, update_reference=True)).max() < 1e-13
        for block, bp in zip(payload[2:], pv.BIPARTITIONS):
            assert np.abs(block[0] - reference.reference[bp]).max() < 1e-13
        probes = theta + r4._JACOBIAN_STEP * np.eye(68)
        rows, _ = stacked(probes)
        assert rows.shape == (68, r0.shape[1])
        for row, probe in zip(rows, probes):
            assert np.abs(row - reference(probe)).max() < 1e-13

    def test_jacobian_matches_column_by_column(self):
        theta = _search_point(8)
        step = r4._JACOBIAN_STEP
        stacked = r4._CompatibilityResidual(np.ones(4))
        reference = _ReferenceResidual(np.ones(4))
        r = stacked(theta[None], update_reference=True)[0][0]
        r_ref = reference(theta, update_reference=True)
        jac = ((stacked(theta + step * np.eye(68))[0] - r) / step).T
        jac_ref = np.zeros_like(jac)
        for j in range(68):
            shift = np.zeros(68)
            shift[j] = step
            jac_ref[:, j] = (reference(theta + shift) - r_ref) / step
        assert np.abs(jac - jac_ref).max() < 1e-6

    def test_one_degenerate_member_breaks_the_stack(self):
        theta = _search_point(9)
        stacked = r4._CompatibilityResidual(np.ones(4))
        assert stacked(theta[None], update_reference=True) is not None
        probes = theta + r4._JACOBIAN_STEP * np.eye(68)
        assert stacked(probes) is not None
        # a non-finite frame: its pencils have no finite eigenvectors
        probes[17, 3] = np.nan
        assert _ReferenceResidual(np.ones(4))(probes[17]) is None
        assert stacked(probes) is None

    def test_singular_member_falls_back_alone(self):
        """A frame whose 1|23 pencil has a singular bottom block makes the
        stacked solve raise; the stack is then solved member by member and
        agrees with the reference."""
        theta = _search_point(10)
        frame = (theta[:32] + 1j * theta[32:64]).reshape(8, 4)
        frame[4:, 0] = 0.0          # first column lies in |0> x C^4
        singular = np.concatenate([frame.real.ravel(), frame.imag.ravel(), theta[64:]])
        probes = np.stack([theta, singular, theta + 1e-3])
        stacked = r4._CompatibilityResidual(np.ones(4))
        rows, _ = stacked(probes)
        reference = _ReferenceResidual(np.ones(4))
        for row, probe in zip(rows, probes):
            assert np.abs(row - reference(probe)).max() < 1e-13


class TestClassifyType:
    def test_type2_construction_classifies_ii(self):
        state, _ = r4.construct_type2(0.7 + 0.3j)
        assert r4.classify_type(state) == "II"

    def test_upb_state_classifies_i(self):
        state = pv.upb_state(pv.upb_standard(np.pi / 4, np.pi / 4, np.pi / 4))
        assert r4.classify_type(state) == "I"

    def test_type1_construction_classifies_i(self, rng):
        state, _ = r4.construct_type1(rng)
        assert r4.classify_type(state) == "I"
        assert inv.fingerprint(state).i2 > 1e-6

    def test_rejects_wrong_rank(self, rng):
        with pytest.raises(NotRank4):
            r4.classify_type(np.eye(8) / 8)


class TestTypeTwo:
    def test_t_equal_one_closed_forms(self):
        state, params = r4.construct_type2(1.0)
        assert params.lambdas == (4.0, 4.0, 1.0, 1.0)
        assert abs(params.normalization - 1 / 32) < 1e-12
        assert abs(state.trace() - 1.0) < 1e-12

    def test_three_decompositions_agree(self):
        for t in (0.7 + 0.3j, -0.4 + 1.2j, 2.0 - 0.5j):
            e, f, g = r4.type2_product_bases(t)
            lambdas, norm = r4.type2_weights(t)
            builds = [
                sum(norm * lambdas[i] * np.outer(m[:, i], m[:, i].conj())
                    for i in range(4))
                for m in (e, f, g)
            ]
            assert np.abs(builds[0] - builds[1]).max() < 1e-10
            assert np.abs(builds[0] - builds[2]).max() < 1e-10

    def test_profile_ppt_extremal(self):
        state, _ = r4.construct_type2(0.6 + 0.8j)
        profile = qs.ppt_profile(state)
        assert profile.ranks == (4, 4, 4, 4)
        assert profile.is_ppt
        assert ex.is_extremal(state).extremal

    def test_u_columns_pairwise_form_orthogonal(self):
        u = r4._type2_u(0.3 - 0.9j)
        form = np.kron(qs.EPSILON, qs.EPSILON)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert abs(u[:, i] @ form @ u[:, j]) < 1e-12

    def test_range_isotropic(self):
        state, _ = r4.construct_type2(0.7 + 0.3j)
        e_mat = qs.invariant_tensor_E()
        _, v = np.linalg.eigh(state.mat)
        rng_vecs = v[:, 4:]
        worst = max(abs(rng_vecs[:, i] @ e_mat @ rng_vecs[:, j])
                    for i in range(4) for j in range(4))
        assert worst < 1e-12

    def test_u_columns_are_two_product_combinations(self):
        """Each u column decomposes as two products of the standard
        quadruples in all six allowed index patterns."""
        t = 0.7 + 0.3j
        u = r4._type2_u(t)
        y = r4._standard_two_vectors(t)
        z = r4._standard_two_vectors(t)
        for i, patterns in ALLOWED_SUPPORTS.items():
            for pattern in patterns:
                k, l, m, n = (int(c) - 1 for c in pattern)
                basis = np.column_stack([np.kron(y[:, k], z[:, l]),
                                         np.kron(y[:, m], z[:, n])])
                coef, *_ = np.linalg.lstsq(basis, u[:, i - 1], rcond=None)
                assert np.linalg.norm(basis @ coef - u[:, i - 1]) < 1e-9, (i, pattern)

    def test_fingerprint_matches_conjugate_parameter(self):
        t = 0.7 + 0.3j
        state_t, _ = r4.construct_type2(t)
        state_tc, _ = r4.construct_type2(np.conj(t))
        fp_pt = inv.fingerprint(qs.partial_transpose(state_t, 1))
        fp_tc = inv.fingerprint(state_tc)
        assert inv.fingerprints_close(fp_pt, fp_tc, rtol=1e-8)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            r4.construct_type2(0.0)
        with pytest.raises(InvalidParameter):
            r4.construct_type2(-1.0)


class TestTypeTwoWitness:
    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_all_four_sign_choices(self, signs):
        w_mat, b = r4.type2_pt_witness(0.6 + 0.8j, signs)
        assert b > 0
        assert w_mat.shape == (2, 2)

    def test_relation_holds_explicitly(self):
        t = 0.6 + 0.8j
        state, _ = r4.construct_type2(t)
        w_mat, b = r4.type2_pt_witness(t, (1, 1))
        v = qs.kron3(np.eye(2), w_mat, w_mat)
        lhs = b * v @ qs.ptranspose_mat(state.mat, 1) @ v.conj().T
        assert np.abs(lhs - state.mat.conj()).max() < 1e-8

    def test_real_parameter_state_is_real(self):
        state, _ = r4.construct_type2(1.7)
        assert np.abs(state.mat.imag).max() < 1e-12
        # the witness relation holds on the three branches that exist there
        for signs in ((1, 1), (1, -1), (-1, 1)):
            r4.type2_pt_witness(1.7, signs)

    def test_degenerate_witness_branches_raise(self):
        """On the real axis exactly one sign branch collapses to the zero
        matrix ((-1,-1) for t > 0, (+1,-1) for -1 < t < 0); it is reported
        instead of silently returning an unusable witness."""
        from pptatlas.errors import ConstructionError

        with pytest.raises(ConstructionError):
            r4.type2_pt_witness(1.7, (-1, -1))
        with pytest.raises(ConstructionError):
            r4.type2_pt_witness(-0.45, (1, -1))
        for signs in ((1, 1), (-1, 1), (-1, -1)):
            r4.type2_pt_witness(-0.45, signs)


class TestTypeOne:
    def test_draws_satisfy_family_properties(self, rng):
        for _ in range(20):
            state, params = r4.construct_type1(rng)
            mat = state.mat
            assert np.abs(mat.imag).max() < 1e-12
            for k in (1, 2, 3):
                assert np.abs(qs.ptranspose_mat(mat, k) - mat).max() < 1e-10
            profile = qs.ppt_profile(state)
            assert profile.is_ppt and profile.ranks == (4, 4, 4, 4)
            assert ex.is_extremal(state).extremal
            assert abs(params.t1.imag if isinstance(params.t1, complex) else 0.0) == 0.0

    def test_quadruple_parameters_real(self, rng):
        state, _ = r4.construct_type1(rng)
        t_x, t_y, t_z = r4.quadruple_parameters(state, rng=rng)
        for value in (t_x, t_y, t_z):
            assert abs(value.imag) < 1e-7 * (1.0 + abs(value))

    def test_parameter_count_is_seven(self):
        counts = [r4.type1_parameter_count(np.random.default_rng(50 + k))
                  for k in range(3)]
        assert counts == [7, 7, 7]

    def test_parameter_count_raises_on_degenerate_generator(self):
        with pytest.raises(DegenerateDraw):
            r4.type1_parameter_count(ZeroRng())

    def test_state_rebuilt_from_rescaled_columns(self, rng):
        state, params = r4.construct_type1(rng)
        u = params.u
        t1 = params.t1
        u1, u2, u3, u4 = (u[:, i] for i in range(4))
        block_a = np.outer(u1, u1) + np.outer(u3, u3) + t1 ** 2 * np.outer(u4, u4)
        block_b = -np.outer(u3, u3) + t1 * np.outer(u4, u4)
        block_c = np.outer(u2, u2) + np.outer(u3, u3) + np.outer(u4, u4)
        rho = np.block([[block_a, block_b], [block_b, block_c]])
        rho /= np.trace(rho)
        assert np.abs(rho - state.mat).max() < 1e-12


class TestIsotropicSubspace:
    def test_all_products_vanish(self, rng):
        basis = r4.isotropic_subspace(rng)
        e_mat = qs.invariant_tensor_E()
        worst = max(abs(basis.psi[:, i] @ e_mat @ basis.psi[:, j])
                    for i in range(4) for j in range(4))
        assert worst < 1e-12

    def test_complement_vectors(self, rng):
        basis = r4.isotropic_subspace(rng)
        e_mat = qs.invariant_tensor_E()
        phi = np.column_stack([e_mat @ basis.psi[:, i].conj() for i in range(4)])
        assert np.abs(phi.conj().T @ basis.psi).max() < 1e-12
        assert np.abs(phi.conj().T @ phi - np.eye(4)).max() < 1e-12
        worst = max(abs(phi[:, i] @ e_mat @ phi[:, j]) for i in range(4) for j in range(4))
        assert worst < 1e-12

    def test_type2_range_is_isotropic(self):
        state, _ = r4.construct_type2(0.4 + 1.1j)
        e_mat = qs.invariant_tensor_E()
        _, v = np.linalg.eigh(state.mat)
        rng_vecs = v[:, 4:]
        worst = max(abs(rng_vecs[:, i] @ e_mat @ rng_vecs[:, j])
                    for i in range(4) for j in range(4))
        assert worst < 1e-10


class TestBiseparableTriple:
    def test_type2_state_triple(self, rng):
        state, _ = r4.construct_type2(0.7 + 0.3j)
        triple = r4.biseparable_triple(state, rng=rng)
        assert triple.weights_e.min() > 0
        assert triple.weights_f.min() > 0
        assert triple.weights_g.min() > 0
        assert triple.max_disagreement() < 1e-8
        rebuilt = triple.reconstructions()[0]
        assert np.abs(rebuilt - state.mat).max() < 1e-8

    def test_spans_agree(self, rng):
        state, _ = r4.construct_type1(rng)
        triple = r4.biseparable_triple(state, rng=rng)
        for cols in (triple.f, triple.g):
            # principal angles between the e-span and the other spans vanish
            qe, _ = np.linalg.qr(triple.e)
            qo, _ = np.linalg.qr(cols)
            angles = np.linalg.svd(qe.conj().T @ qo, compute_uv=False)
            assert np.abs(angles - 1.0).max() < 1e-7


class TestConstructBiseparable:
    def test_single_run_contract(self):
        result = r4.construct_biseparable(np.random.default_rng(500))
        state, triple = result
        profile = qs.ppt_profile(state)
        assert profile.ranks == (4, 4, 4, 4)
        assert profile.is_ppt
        assert ex.is_extremal(state).extremal
        assert max(result.singular_values) < 1e-9
        assert triple.max_disagreement() < 1e-8
        assert result.classification in ("I", "II")
        probe = ex.separability_probe(state, np.random.default_rng(0))
        assert probe.verdict == "entangled_evidence"

    def test_rejections_account_for_every_attempt(self):
        result = r4.construct_biseparable(np.random.default_rng(500))
        assert set(result.rejections) == set(r4._REJECTIONS)
        assert sum(result.rejections.values()) == result.attempts - 1
        assert (result.rejections["sign_gate"]
                == result.sign_decisions - result.sign_accepted)

    def test_generic_subspace_has_no_dependence(self, rng):
        """Without minimization the two dependence tests fail by a wide margin."""
        from pptatlas.rank4 import _dependence_singular_values, BiseparableTriple

        basis = pv.SubspaceBasis.from_columns(
            rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4)))
        cols = {}
        for bipartition in pv.BIPARTITIONS:
            found = pv.product_vectors_in_subspace(basis, bipartition)
            cols[bipartition] = np.column_stack(
                [tr.full / np.linalg.norm(tr.full) for tr in found])
        triple = BiseparableTriple(cols["1|23"], cols["2|13"], cols["3|12"],
                                   np.ones(4), np.ones(4), np.ones(4))
        state, _ = r4.construct_type2(1.0)  # placeholder, not used by the svd helper
        s1, s2 = _dependence_singular_values(state, triple)
        # order 1e-1 for generic subspaces
        assert min(s1, s2) > 1e-2

    def test_mixed_sign_orientation_is_realizable(self):
        """Searches with a mixed sign pattern converge: the matrix is then
        biseparable in two ways but cannot be positive semidefinite."""
        rng = np.random.default_rng(11)
        _, f = r4.compatible_subspace_search(rng, np.array([1.0, 1.0, -1.0, 1.0]),
                                             inner_restarts=4)
        assert f < 3e-8
