import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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


# forward-difference step for the nearby probe points of the stack tests
_STEP = 1e-7


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
        probes = theta + _STEP * np.eye(68)
        rows, _ = stacked(probes)
        assert rows.shape == (68, r0.shape[1])
        for row, probe in zip(rows, probes):
            assert np.abs(row - reference(probe)).max() < 1e-13

    def test_jacobian_matches_column_by_column(self):
        theta = _search_point(8)
        step = _STEP
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
        probes = theta + _STEP * np.eye(68)
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


def _central_jacobian(reference, theta, h=1e-6):
    """Central differences of the reference residual, matched against the
    columns the reference holds."""
    cols = []
    for j in range(68):
        shift = np.zeros(68)
        shift[j] = h
        cols.append((reference(theta + shift) - reference(theta - shift)) / (2 * h))
    return np.array(cols).T


def _assert_jacobian_matches(signs, theta, r, jac, payload):
    reference = _ReferenceResidual(np.array(signs))
    reference.reference = dict(zip(pv.BIPARTITIONS, payload[2:]))
    assert np.abs(r - reference(theta)).max() < 1e-13
    expected = _central_jacobian(reference, theta)
    assert np.abs(jac - expected).max() < 1e-6 * np.abs(expected).max()


def _repeated_eigenvalue_frame(seed):
    """Parameters whose 1|23 pencil has the eigenvalue 1 twice: the first
    two frame columns are (|0> + |1>) x (random vector of C^4)."""
    rng = np.random.default_rng(seed)
    frame = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    frame[4:, :2] = frame[:4, :2]
    return np.concatenate([frame.real.ravel(), frame.imag.ravel(), np.zeros(4)])


class TestCompatibilityJacobian:
    @pytest.mark.parametrize("signs", [(1, 1, 1, 1), (1, 1, -1, 1)])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_central_differences(self, signs, seed):
        theta = _search_point(100 + seed)
        residual = r4._CompatibilityResidual(np.array(signs))
        r, jac, payload = residual.linearize(theta)
        assert jac.shape == (r.size, 68)
        _assert_jacobian_matches(signs, theta, r, jac, payload)

    def test_matches_central_differences_with_rank_barrier_active(self):
        """At points the search visits the rank barrier is often active;
        take the first one whose barrier is far from its kink at 0."""
        visited = []
        linearize = r4._CompatibilityResidual.linearize

        def spy(self, theta):
            out = linearize(self, theta)
            visited.append((theta.copy(), out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(r4._CompatibilityResidual, "linearize", spy)
            r4.compatible_subspace_search(np.random.default_rng(3), np.ones(4),
                                          inner_restarts=1)
        active = [(theta, out) for theta, out in visited if out[0][-1] > 1e-3]
        assert active
        theta, (r, jac, payload) = active[0]
        assert np.abs(jac[-1]).max() > 0
        _assert_jacobian_matches((1, 1, 1, 1), theta, r, jac, payload)

    def test_matches_central_differences_with_gram_barriers_active(self, monkeypatch):
        # the Gram determinant of unit columns is at most 1, so a floor of 0
        # makes all three barriers active
        monkeypatch.setattr(r4, "_GRAM_LOG_FLOOR", 0.0)
        for signs in ((1, 1, 1, 1), (1, 1, -1, 1)):
            theta = _search_point(110)
            residual = r4._CompatibilityResidual(np.array(signs))
            r, jac, payload = residual.linearize(theta)
            assert np.all(r[128:131] > 0)
            _assert_jacobian_matches(signs, theta, r, jac, payload)

    def test_repeated_pencil_eigenvalue_refuses_the_jacobian(self):
        theta = _repeated_eigenvalue_frame(4)
        residual = r4._CompatibilityResidual(np.ones(4))
        r, jac, _ = residual.linearize(theta)
        assert np.all(np.isfinite(r))
        assert jac is None
        # a step away the gap is open again
        assert residual.linearize(theta + 1e-3 * _search_point(5))[1] is not None

    def test_refused_jacobian_ends_the_restart(self):
        frame = _repeated_eigenvalue_frame(4)
        rows = r4._CompatibilityResidual(np.ones(4))(frame[None])[0]
        start = (frame[:32] + 1j * frame[32:64]).reshape(8, 4)
        payload, f, restart = r4.compatible_subspace_search(
            np.random.default_rng(0), np.ones(4), start_frame=start, inner_restarts=1)
        assert restart == 0
        assert f == float(rows[0] @ rows[0])
        assert np.array_equal(payload[0], np.linalg.qr(start)[0])

    def test_singular_gram_is_a_rejected_point(self, monkeypatch):
        """A projector Gram system that cannot be solved makes the point
        degenerate instead of raising."""
        solve = np.linalg.solve

        def singular_gram(a, b):
            if not np.iscomplexobj(a) and a.shape[-3:] == (2, 4, 4):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        theta = _search_point(12)
        residual = r4._CompatibilityResidual(np.ones(4))
        monkeypatch.setattr(np.linalg, "solve", singular_gram)
        assert residual(theta[None]) is None
        assert residual.linearize(theta) is None


class TestCompatibilitySearchCalls:
    def test_one_point_per_call_and_one_linearization_per_step(self):
        """No evaluation stacks probe points: every call evaluates one point,
        and each linearization after a restart's first follows at least one
        trial (so there is one per iteration)."""
        events = []
        call, linearize = r4._CompatibilityResidual.__call__, r4._CompatibilityResidual.linearize

        def spy_call(self, thetas, update_reference=False):
            events.append((id(self), "trial", len(thetas)))
            return call(self, thetas, update_reference)

        def spy_linearize(self, theta):
            events.append((id(self), "linearize", theta.ndim))
            return linearize(self, theta)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(r4._CompatibilityResidual, "__call__", spy_call)
            mp.setattr(r4._CompatibilityResidual, "linearize", spy_linearize)
            r4.compatible_subspace_search(np.random.default_rng(1), np.ones(4))
        assert all(size == 1 for _, kind, size in events if kind == "trial")
        assert all(ndim == 1 for _, kind, ndim in events if kind == "linearize")
        restarts = {}
        for owner, kind, _ in events:
            restarts.setdefault(owner, []).append(kind)
        for kinds in restarts.values():
            assert kinds[0] == "linearize"
            linearizations = [i for i, kind in enumerate(kinds) if kind == "linearize"]
            assert len(linearizations) <= 31
            assert all(b - a > 1 for a, b in zip(linearizations, linearizations[1:]))
        assert sum(kinds.count("linearize") for kinds in restarts.values()) > 2


_finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def _hermitian_matrices(draw):
    parts = draw(st.lists(_finite, min_size=128, max_size=128))
    raw = np.array(parts[:64]).reshape(8, 8) + 1j * np.array(parts[64:]).reshape(8, 8)
    return raw + raw.conj().T


class TestHermitianCoords:
    @settings(max_examples=60, deadline=None, database=None)
    @given(_hermitian_matrices())
    def test_gather_equals_mat_to_coords(self, mat):
        expected = qs.mat_to_coords(mat)
        assert np.abs(r4._hermitian_coords(mat) - expected).max() <= 1e-13 * (
            1.0 + np.abs(expected).max())

    @settings(max_examples=60, deadline=None, database=None)
    @given(_hermitian_matrices())
    def test_norm_is_frobenius(self, mat):
        norm = np.linalg.norm(mat)
        assert abs(np.linalg.norm(r4._hermitian_coords(mat)) - norm) <= 1e-13 * (1.0 + norm)

    def test_stack_reads_each_member(self, rng):
        mats = rng.standard_normal((2, 3, 8, 8)) + 1j * rng.standard_normal((2, 3, 8, 8))
        mats = mats + np.swapaxes(mats.conj(), -1, -2)
        coords = r4._hermitian_coords(mats)
        assert coords.shape == (2, 3, 64)
        assert np.abs(coords[1, 2] - qs.mat_to_coords(mats[1, 2])).max() < 1e-13


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
        assert not result.isotropic_start

    def test_start_kind_is_recorded(self):
        """Type II states come from isotropic starts and, more rarely, from
        random frames; the construction says which."""
        isotropic = r4.construct_biseparable(np.random.default_rng(503))
        assert isotropic.isotropic_start and isotropic.classification == "II"
        random_frame = r4.construct_biseparable(np.random.default_rng(515))
        assert not random_frame.isotropic_start and random_frame.classification == "II"

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
        _, f, _ = r4.compatible_subspace_search(rng, np.array([1.0, 1.0, -1.0, 1.0]),
                                                inner_restarts=4)
        assert f < 3e-8
