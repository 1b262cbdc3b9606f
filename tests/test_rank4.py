import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pptatlas import extremal as ex
from pptatlas import invariants as inv
from pptatlas import prodvec as pv
from pptatlas import qstate as qs
from pptatlas import rank4 as r4
from pptatlas.errors import DegenerateDraw, InvalidParameter, MaxIterations, NotRank4

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
    """The compatibility residual one bipartition at a time, with the
    projector coordinates as einsums and the leftovers as QR projections:
    the reference for the package's one."""

    def __init__(self):
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
        combo = np.exp(logw) @ coords["1|23"]
        combo = combo / np.linalg.norm(combo)
        residuals = []
        for bp in ("2|13", "3|12"):
            qb, _ = np.linalg.qr(coords[bp].T)
            residuals.append(combo - qb @ (qb.T @ combo))
        barriers = []
        for bp in pv.BIPARTITIONS:
            det = max(np.linalg.det(vecs[bp].conj().T @ vecs[bp]).real, 1e-300)
            barriers.append(0.5 * max(0.0, r4._GRAM_LOG_FLOOR - np.log10(det)))
        evs = np.linalg.eigvalsh(np.einsum("k,kab->ab", combo, qs.hermitian_basis()))
        ev4 = max(abs(float(evs[4])), 1e-300)
        barriers.append(0.5 * max(0.0, np.log10(r4._RANK_FLOOR) - np.log10(ev4)))
        return np.concatenate([residuals[0], residuals[1], np.array(barriers)])


def _reference_jacobian(point):
    """The Jacobian along 36 stacked real directions, the 4 log-weights
    among them as all-zero frame moves, each pushed through every stage:
    the reference for the package's one."""
    frame = point.frame
    psi, vecs, eigvals, eigvecs = frame.psi, frame.vecs, frame.eigvals, frame.eigvecs
    gaps = eigvals[:, None, :] - eigvals[:, :, None]
    off = ~np.eye(4, dtype=bool)
    rel_gap = (np.abs(gaps[:, off]).min(axis=1) / np.abs(eigvals).max(axis=1)).min()
    if not rel_gap >= r4._PENCIL_GAP_FLOOR:
        raise np.linalg.LinAlgError(f"relative pencil eigenvalue gap {rel_gap:.1e}")
    perp = np.linalg.qr(psi, mode="complete")[0][:, 4:]
    inv_gaps = np.zeros_like(gaps)
    inv_gaps[:, off] = 1.0 / gaps[:, off]
    phis = psi @ eigvecs
    u_mat = np.linalg.inv(np.take_along_axis(phis, r4._BOTTOM_ROWS[:, :, None], axis=1))
    y_mat = np.linalg.inv(frame.upper) @ eigvecs
    u_top, u_bottom = u_mat @ perp[r4._TOP_ROWS], u_mat @ perp[r4._BOTTOM_ROWS]
    inner = inv_gaps[..., None] * (u_top[:, :, None] - eigvals[:, None, :, None]
                                   * u_bottom[:, :, None])
    k_mat = perp.T[:, :, None] + np.einsum("kxi,kijb->kbxj", phis, inner)
    dphi = (k_mat[:, :, None] * y_mat[:, None, :, None, :]).reshape(3, 16, 8, 4)
    dphi = np.concatenate([dphi, 1j * dphi, np.zeros((3, 4, 8, 4))], axis=1)
    n_par = dphi.shape[1]
    radial = (vecs.conj()[:, None] * dphi).sum(axis=-2).real
    dvecs = (dphi - vecs[:, None] * radial[..., None, :]) / frame.norms[:, None, None, :]

    e, de, logw = vecs[0], dvecs[0], point.logw
    weighted = np.exp(logw)
    half = ((de * weighted).reshape(-1, 4) @ e.conj().T).reshape(n_par, 8, 8)
    dm = half + r4._adjoint(half)
    dm[32:] += ((weighted * (1.0 - (logw / r4._WEIGHT_CAP) ** 2))[:, None, None]
                * (e.T[:, :, None] * e.T.conj()[:, None, :]))
    mhat, scale = point.mhat, point.scale
    dscale = (dm.reshape(n_par, -1) @ mhat.conj().ravel()).real
    dmhat = (dm - mhat * dscale[:, None, None]) / scale

    others, dothers = vecs[1:], dvecs[1:]
    overlap, coef = frame.overlap[1:], point.coef
    dfdag_f = (r4._adjoint(dothers).reshape(2, -1, 8) @ others).reshape(2, n_par, 4, 4)
    dgram = 2.0 * (overlap.conj()[:, None] * (dfdag_f + r4._adjoint(dfdag_f))).real
    drhs = 2.0 * (dothers.conj() * (mhat @ others)[:, None]).sum(axis=-2).real
    dmhat_f = (dmhat.reshape(-1, 8) @ np.concatenate(others, axis=1)).reshape(
        n_par, 8, 2, 4).transpose(2, 0, 1, 3)
    drhs += (others.conj()[:, None] * dmhat_f).sum(axis=-2).real
    dcoef = np.einsum("kij,ktj->kti", np.linalg.inv(np.abs(overlap) ** 2),
                      drhs - np.einsum("ktij,kj->kti", dgram, coef))
    half = ((dothers * coef[:, None, None, :]).reshape(2, -1, 4)
            @ r4._adjoint(others)).reshape(2, n_par, 8, 8)
    projs = np.swapaxes(others, 1, 2)
    projs = (projs[..., :, None] * projs.conj()[..., None, :]).reshape(2, 4, -1)
    dleft = (dmhat - half - r4._adjoint(half)
             - (dcoef @ projs).reshape(2, n_par, 8, 8))
    jac = [np.swapaxes(qs.mat_to_coords(dleft), 1, 2).reshape(-1, n_par)]

    r = point.residuals
    gram_active = r[128:131] > 0
    dlogdet = np.zeros((3, n_par))
    if gram_active.any():
        vdv = r4._adjoint(vecs[gram_active])[:, None] @ dvecs[gram_active]
        g_inv = np.linalg.inv(frame.overlap[gram_active])
        dlogdet[gram_active] = 2.0 * np.einsum("kij,ktji->kt", g_inv, vdv).real
    jac.append(-0.5 * dlogdet / np.log(10.0))
    drank = np.zeros((1, n_par))
    if r[-1] > 0:
        w, u = np.linalg.eigh(mhat)
        dlam = (dmhat.reshape(n_par, -1) @ np.outer(u[:, 4].conj(), u[:, 4]).ravel()).real
        drank[0] = -0.5 * dlam / (w[4] * np.log(10.0))
    jac.append(drank)
    basis = np.zeros((36, 68))
    frame_rows = basis[:16, :64].reshape(4, 4, 2, 8, 4)
    for c in range(4):
        frame_rows[:, c, 0, :, c], frame_rows[:, c, 1, :, c] = perp.real.T, perp.imag.T
    basis[16:32, :32], basis[16:32, 32:64] = -basis[:16, 32:64], basis[:16, :32]
    basis[32:, 64:] = np.eye(4)
    return np.concatenate(jac), basis


# step to the nearby probe points, whose columns are matched to the first one's
_STEP = 1e-7


def _search_point(seed):
    rng = np.random.default_rng(seed)
    return np.concatenate([rng.standard_normal(64), 0.3 * rng.standard_normal(4)])


class TestCompatibilityResidual:
    def test_rows_match_reference(self):
        theta = _search_point(7)
        residual = r4._CompatibilityResidual()
        reference = _ReferenceResidual()
        point = residual._evaluate(theta, True)
        assert point.residuals.shape == (132,)
        assert np.abs(point.residuals - reference(theta, update_reference=True)).max() < 1e-13
        for block, bp in zip(point.payload[2:], pv.BIPARTITIONS):
            assert np.abs(block - reference.reference[bp]).max() < 1e-13
        for probe in theta + _STEP * np.eye(68):
            rows = residual._evaluate(probe, False).residuals
            assert np.abs(rows - reference(probe)).max() < 1e-13

    def test_nan_frame_is_degenerate(self):
        theta = _search_point(9)
        residual = r4._CompatibilityResidual()
        assert residual._evaluate(theta, True) is not None
        # a non-finite frame: its pencils have no finite eigenvectors
        theta[3] = np.nan
        assert _ReferenceResidual()(theta) is None
        assert residual._evaluate(theta, False) is None

    def test_singular_member_falls_back_alone(self):
        """A frame whose 1|23 pencil has a singular bottom block makes the
        stacked solve of its three pencils raise; they are then solved one by
        one and agree with the reference. The singular pencil's eigenvectors
        come in another solver's order, so both sides match columns to
        theta's."""
        theta = _search_point(10)
        frame = (theta[:32] + 1j * theta[32:64]).reshape(8, 4)
        frame[4:, 0] = 0.0          # first column lies in |0> x C^4
        singular = np.concatenate([frame.real.ravel(), frame.imag.ravel(), theta[64:]])
        residual = r4._CompatibilityResidual()
        residual._evaluate(theta, True)
        reference = _ReferenceResidual()
        reference(theta, update_reference=True)
        for probe in (theta, singular, theta + 1e-3):
            rows = residual._evaluate(probe, False).residuals
            assert np.abs(rows - reference(probe)).max() < 1e-13


def _central_jacobian(reference, theta, directions, h=1e-6):
    """Central differences of the reference residual along each row of
    directions, matched against the columns the reference holds."""
    return np.array([(reference(theta + h * d) - reference(theta - h * d)) / (2 * h)
                     for d in directions]).T


def _vertical_directions(theta):
    """The 32 directions dX = psi W in theta (W = e_b e_c^T, then i e_b e_c^T)
    that move the frame within its span."""
    psi = np.linalg.qr((theta[:32] + 1j * theta[32:64]).reshape(8, 4))[0]
    rows = []
    for w in np.concatenate([np.eye(16), 1j * np.eye(16)]):
        dx = psi @ w.reshape(4, 4)
        rows.append(np.concatenate([dx.real.ravel(), dx.imag.ravel(), np.zeros(4)]))
    return np.array(rows)


def _linearize(residual, theta):
    """(point, J, basis) at theta, whose columns become the reference."""
    point = residual._evaluate(theta, True)
    return (point, *residual.jacobian(point))


def _theta_of(point):
    """Parameters of a point, rebuilt from its frame QR and its capped
    log-weights."""
    frame = point.frame.psi @ point.frame.upper
    raw = r4._WEIGHT_CAP * np.arctanh(point.logw / r4._WEIGHT_CAP)
    return np.concatenate([frame.real.ravel(), frame.imag.ravel(), raw])


def _assert_jacobian_matches(theta, point, jac, basis):
    """J matches central differences of the reference along the 36 search
    directions; with the 32 vertical directions they are orthonormal, and
    along the vertical ones the residual does not move. J and its basis also
    match the stage-by-stage reference Jacobian at the same point.

    The residual is exactly invariant along a vertical direction, so a
    difference there measures rounding noise over 2h. With h = 1e-3 that
    sits about three decades below the bound; with h = 1e-6 the rank-barrier
    row, whose 1/lambda_4 factor amplifies eigvalsh noise, reaches 0.8 of it."""
    reference = _ReferenceResidual()
    reference.reference = dict(zip(pv.BIPARTITIONS, point.payload[2:]))
    assert np.abs(point.residuals - reference(theta)).max() < 1e-13
    assert basis.shape == (36, 68) and jac.shape == (len(point.residuals), 36)
    vertical = _vertical_directions(theta)
    directions = np.vstack([basis, vertical])
    assert np.abs(directions @ directions.T - np.eye(68)).max() < 1e-12
    expected = _central_jacobian(reference, theta, basis)
    scale = np.abs(expected).max()
    assert np.abs(jac - expected).max() < 1e-6 * scale
    assert np.abs(_central_jacobian(reference, theta, vertical, h=1e-3)).max() < 1e-8 * scale
    expected_jac, expected_basis = _reference_jacobian(point)
    assert np.array_equal(basis, expected_basis)
    assert np.abs(jac - expected_jac).max() <= 1e-12 * np.abs(expected_jac).max()


def _repeated_eigenvalue_frame(seed):
    """Parameters whose 1|23 pencil has the eigenvalue 1 twice: the first
    two frame columns are (|0> + |1>) x (random vector of C^4)."""
    rng = np.random.default_rng(seed)
    frame = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    frame[4:, :2] = frame[:4, :2]
    return np.concatenate([frame.real.ravel(), frame.imag.ravel(), np.zeros(4)])


class TestCompatibilityJacobian:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_central_differences(self, seed):
        theta = _search_point(100 + seed)
        _assert_jacobian_matches(theta, *_linearize(r4._CompatibilityResidual(), theta))

    def test_matches_central_differences_with_rank_barrier_active(self):
        """At points the search differentiates the rank barrier is often
        active; take the first one whose barrier is far from its kink at 0."""
        visited = []
        jacobian = r4._CompatibilityResidual.jacobian

        def spy(self, point):
            out = jacobian(self, point)
            visited.append((point, out))
            return out

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(r4._CompatibilityResidual, "jacobian", spy)
            r4.compatible_subspace_search(np.random.default_rng(3))
        active = [(point, out) for point, out in visited if point.residuals[-1] > 1e-3]
        assert active
        point, (jac, basis) = active[0]
        assert np.abs(jac[-1]).max() > 0
        _assert_jacobian_matches(_theta_of(point), point, jac, basis)

    def test_matches_central_differences_with_gram_barriers_active(self, monkeypatch):
        # the Gram determinant of unit columns is at most 1, so a floor of 0
        # makes all three barriers active
        monkeypatch.setattr(r4, "_GRAM_LOG_FLOOR", 0.0)
        theta = _search_point(110)
        point, jac, basis = _linearize(r4._CompatibilityResidual(), theta)
        assert np.all(point.residuals[128:131] > 0)
        _assert_jacobian_matches(theta, point, jac, basis)

    def test_repeated_pencil_eigenvalue_refuses_the_jacobian(self):
        theta = _repeated_eigenvalue_frame(4)
        residual = r4._CompatibilityResidual()
        point = residual._evaluate(theta, True)
        assert np.all(np.isfinite(point.residuals))
        with pytest.raises(np.linalg.LinAlgError, match="pencil eigenvalue gap"):
            residual.jacobian(point)
        # a step away the gap is open again
        _linearize(residual, theta + 1e-3 * _search_point(5))

    def test_refused_jacobian_ends_the_restart(self, monkeypatch):
        frame = _repeated_eigenvalue_frame(4)
        rows = r4._CompatibilityResidual()._evaluate(frame, False).residuals
        start = (frame[:32] + 1j * frame[32:64]).reshape(8, 4)
        monkeypatch.setattr(r4, "_SEARCH_RESTARTS", 1)
        search = r4.compatible_subspace_search(np.random.default_rng(0), start_frame=start)
        assert search.restart == 0
        assert search.f == float(rows @ rows)
        assert np.array_equal(search.payload[0], np.linalg.qr(start)[0])
        assert (search.jacobians, search.evaluations) == (1, 1)

    def test_singular_gram_is_a_rejected_point(self, monkeypatch):
        """A projector Gram system that cannot be solved makes the point
        degenerate instead of raising."""
        solve = np.linalg.solve

        def singular_gram(a, b):
            if not np.iscomplexobj(a) and a.shape[-3:] == (2, 4, 4):
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        theta = _search_point(12)
        residual = r4._CompatibilityResidual()
        monkeypatch.setattr(np.linalg, "solve", singular_gram)
        assert residual._evaluate(theta, True) is None

    def test_accept_equals_a_fresh_evaluation(self):
        """Recentring the log-weights of an evaluated trial reuses its frame
        half: the point, its payload and the new reference equal those of a
        full evaluation at the recentred parameters, bit for bit."""
        theta = _search_point(13)
        fresh, reused = (r4._CompatibilityResidual() for _ in range(2))
        for residual in (fresh, reused):
            residual._evaluate(theta, True)
        trial = theta + 1e-2 * _search_point(14)
        moved = trial.copy()
        moved[64:] -= moved[64:].mean()
        expected = fresh._evaluate(moved, True)
        got = reused.accept(reused._evaluate(trial, False), moved)
        assert np.array_equal(got.residuals, expected.residuals)
        assert all(np.array_equal(a, b) for a, b in zip(got.payload, expected.payload))
        assert np.array_equal(reused.reference, fresh.reference)


def _reference_matching_order(new, ref):
    """The pairing loop: four passes, each taking the largest remaining
    overlap of every block, the first in row-major order among equal ones."""
    overlap = np.abs(r4._adjoint(ref) @ new)
    rows = np.arange(len(overlap))
    order = np.zeros((len(overlap), 4), dtype=int)
    for _ in range(4):
        i, j = np.divmod(overlap.reshape(-1, 16).argmax(axis=1), 4)
        order[rows, i] = j
        overlap[rows, i, :] = -1.0
        overlap[rows, :, j] = -1.0
    return order


def _unit_columns(rng, shape=(3, 8, 4)):
    cols = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return cols / np.linalg.norm(cols, axis=-2, keepdims=True)


class TestColumnMatching:
    @settings(max_examples=300, deadline=None, database=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.booleans())
    def test_one_gather_follows_the_pairing_loop(self, seed, repeated, permuted):
        """The matched order, and vecs, norms, eigvals and eigvecs reordered
        by it, equal the pairing loop's and its four take_along_axis calls,
        bit for bit: on random stacks, with a repeated column (tied overlaps
        in every row) and with a reference that is a column permutation of
        the input (one overlap of 1 per row)."""
        rng = np.random.default_rng(seed)
        vecs = _unit_columns(rng)
        if repeated:
            k, i, j = rng.integers(3), *rng.choice(4, size=2, replace=False)
            vecs[k, :, j] = vecs[k, :, i]
        ref = np.stack([v[:, rng.permutation(4)] for v in vecs]) if permuted else _unit_columns(rng)
        norms = rng.random((3, 4))
        eigvals = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        eigvecs = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        order = _reference_matching_order(vecs, ref)
        assert np.array_equal(r4._matching_order(vecs, ref), order)
        expected = (np.take_along_axis(vecs, order[:, None, :], axis=-1),
                    np.take_along_axis(norms, order, axis=-1),
                    np.take_along_axis(eigvals, order, axis=-1),
                    np.take_along_axis(eigvecs, order[:, None, :], axis=-1))
        got = r4._matched_columns(vecs, norms, eigvals, eigvecs, ref)
        for a, b in zip(got, expected):
            assert a.dtype == b.dtype and a.tobytes() == np.ascontiguousarray(b).tobytes()

    def test_ties_break_as_the_pairing_loop(self):
        """Equal overlaps in one row pair with the first column, and the
        fallback loop runs when two rows share their largest column."""
        vecs = np.tile(np.eye(8, 4, dtype=complex), (3, 1, 1))
        vecs[0, :, 1] = vecs[0, :, 0]                 # block 0: two equal columns
        ref = vecs[:, :, [1, 0, 3, 2]]
        order = _reference_matching_order(vecs, ref)
        assert np.array_equal(r4._matching_order(vecs, ref), order)
        assert order[0].tolist() == [0, 1, 3, 2] and order[1].tolist() == [1, 0, 3, 2]


class TestSpanInvariance:
    @settings(max_examples=40, deadline=None, database=None)
    @given(st.integers(0, 2 ** 16), st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32))
    def test_residual_sees_only_the_span(self, seed, entries):
        """With the column-matching reference fixed, the frame X G gives the
        residual of X, for well-conditioned G in GL(4, C): the fact that lets
        the Jacobian drop the 32 vertical directions."""
        g = np.array(entries[:16]).reshape(4, 4) + 1j * np.array(entries[16:]).reshape(4, 4)
        assume(np.linalg.cond(g) < 30)
        theta = _search_point(seed)
        residual = r4._CompatibilityResidual()
        rows = residual._evaluate(theta, True).residuals
        frame = (theta[:32] + 1j * theta[32:64]).reshape(8, 4) @ g
        moved = np.concatenate([frame.real.ravel(), frame.imag.ravel(), theta[64:]])
        assert np.abs(residual._evaluate(moved, False).residuals - rows).max() < 1e-10


def _spied_search(seed: int, stall_from: int = r4._STALL_FROM):
    """compatible_subspace_search(default_rng(seed)) with the stall rule
    starting at iteration stall_from, and its evaluate, accept and jacobian
    calls as (kind, theta, point) events, one list per restart."""
    events = []
    cls = r4._CompatibilityResidual
    evaluate, accept, jacobian = cls._evaluate, cls.accept, cls.jacobian

    def spy_evaluate(self, theta, update_reference):
        point = evaluate(self, theta, update_reference)
        events.append((self, "evaluate", theta.copy(), point))
        return point

    def spy_accept(self, point, theta):
        moved = accept(self, point, theta)
        events.append((self, "accept", theta.copy(), moved))
        return moved

    def spy_jacobian(self, point):
        events.append((self, "jacobian", None, point))
        return jacobian(self, point)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cls, "_evaluate", spy_evaluate)
        mp.setattr(cls, "accept", spy_accept)
        mp.setattr(cls, "jacobian", spy_jacobian)
        mp.setattr(r4, "_STALL_FROM", stall_from)
        search = r4.compatible_subspace_search(np.random.default_rng(seed))
    restarts = {}
    for owner, *event in events:
        restarts.setdefault(id(owner), []).append(event)
    return search, list(restarts.values()), events


def _reached(restart):
    """The points a restart reached, start first, and f at each."""
    points = [restart[0][2]] + [point for kind, _, point in restart if kind == "accept"]
    return points, [float(p.residuals @ p.residuals) for p in points]


def _stall_fires(history, k):
    """The stall rule, restated: from iteration _STALL_FROM on, f at the point
    of iteration k fell by less than _STALL_MIN_DECADES over _STALL_WINDOW."""
    return k >= r4._STALL_FROM and (np.log10(history[k - r4._STALL_WINDOW])
                                    - np.log10(history[k])) < r4._STALL_MIN_DECADES


class TestCompatibilitySearchCalls:
    def test_one_point_per_call_and_one_linearization_per_step(self):
        """Every evaluation is one new point; an accepted point is the trial
        just evaluated, with its log-weights recentred; a restart takes at
        most 30 Jacobians, each at a distinct point it reached where the stall
        rule did not fire, and none at a last point that converged, ended the
        30th iteration or stalled. A stalled restart ends with f above the
        target. Seed 0 has one converged and one stalled restart, and the
        search counts them so."""
        search, restarts, events = _spied_search(0)
        ends = []
        for restart in restarts:
            evaluated = [theta for kind, theta, _ in restart if kind == "evaluate"]
            assert all(theta.shape == (68,) for theta in evaluated)
            assert len({theta[:64].tobytes() for theta in evaluated}) == len(evaluated)
            for before, (kind, theta, _) in zip(restart, restart[1:]):
                if kind == "accept":
                    assert before[0] == "evaluate"
                    assert np.array_equal(theta[:64], before[1][:64])
                    assert abs(theta[64:].sum()) < 1e-12
            reached, history = _reached(restart)
            differentiated = [point for kind, _, point in restart if kind == "jacobian"]
            assert len(differentiated) <= r4._SEARCH_MAX_ITERATIONS
            assert all(any(p is q for q in reached) for p in differentiated)
            assert len({id(p) for p in differentiated}) == len(differentiated)
            assert not any(_stall_fires(history, k) for k, p in enumerate(reached)
                           if any(p is q for q in differentiated))
            last, k = reached[-1], len(reached) - 1
            if history[-1] < r4._SEARCH_F_TARGET:
                end = "converged"
            elif k == r4._SEARCH_MAX_ITERATIONS:
                end = "capped"
            elif _stall_fires(history, k):
                end = "stalled"
            else:
                continue
            assert not any(p is last for p in differentiated)
            ends.append(end)
        assert sorted(ends) == ["converged", "stalled"]
        assert search.restart_ends == dict(dict.fromkeys(r4._RESTART_ENDS, 0),
                                           converged=1, stalled=1)
        assert search.jacobians == sum(kind == "jacobian" for _, kind, *_ in events)
        assert search.evaluations == sum(kind == "evaluate" for _, kind, *_ in events)

    def test_stall_rule_cuts_a_capped_restart_before_the_cap(self):
        """Without the stall rule, seed 0's first restart runs all 30
        iterations and ends above the target. With it, the same path stops
        at the first point where f fell by less than a factor of 2 over 4
        iterations, well before iteration 30, and saves the rest of its
        Jacobians; the converged second restart is the same."""
        cut, (stalled, converged), _ = _spied_search(0)
        full, (capped, converged_full), _ = _spied_search(0, r4._SEARCH_MAX_ITERATIONS + 1)
        assert full.restart_ends["capped"] == 1 and cut.restart_ends["stalled"] == 1
        _, history = _reached(stalled)
        _, full_history = _reached(capped)
        k = len(history) - 1
        assert r4._STALL_FROM <= k < r4._SEARCH_MAX_ITERATIONS
        assert len(full_history) == r4._SEARCH_MAX_ITERATIONS + 1
        assert history == full_history[:k + 1]
        assert _stall_fires(history, k)
        assert not any(_stall_fires(history, j) for j in range(k))
        assert min(full_history) > r4._SEARCH_F_TARGET
        assert _reached(converged)[1] == _reached(converged_full)[1]
        assert cut.f == full.f and cut.restart == full.restart == 1
        assert full.jacobians - cut.jacobians == r4._SEARCH_MAX_ITERATIONS - k


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
        t_x, t_y, t_z = r4.quadruple_parameters(state)
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

    def test_null_spaces_bit_equal_scipy(self):
        """The same draws on scipy's null_space of the same constraint rows
        give the same basis, bit for bit."""
        e_mat = qs.invariant_tensor_E()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            cols = []
            for _ in range(4):
                if cols:
                    rows = []
                    for c in cols:
                        rows.append(c.conj())
                        rows.append(e_mat.T @ c)
                    null = scipy.linalg.null_space(np.array(rows))
                else:
                    null = np.eye(8, dtype=complex)
                coeff = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
                vec = null @ coeff
                cols.append(vec / np.linalg.norm(vec))
            basis = r4.isotropic_subspace(np.random.default_rng(seed))
            assert np.array_equal(basis.psi, pv.SubspaceBasis(np.column_stack(cols)).psi)

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
        triple = r4.biseparable_triple(state)
        assert triple.weights_e.min() > 0
        assert triple.weights_f.min() > 0
        assert triple.weights_g.min() > 0
        assert triple.max_disagreement() < 1e-8
        rebuilt = triple.reconstructions()[0]
        assert np.abs(rebuilt - state.mat).max() < 1e-8

    def test_spans_agree(self, rng):
        state, _ = r4.construct_type1(rng)
        triple = r4.biseparable_triple(state)
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

    def test_work_counts_sum_over_searches(self):
        searches = []
        search = r4.compatible_subspace_search

        def spy(*args, **kwargs):
            searches.append(search(*args, **kwargs))
            return searches[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(r4, "compatible_subspace_search", spy)
            result = r4.construct_biseparable(np.random.default_rng(500))
        assert result.jacobians == sum(s.jacobians for s in searches) > 0
        assert result.evaluations == sum(s.evaluations for s in searches) > result.jacobians
        assert result.restart_ends == {end: sum(s.restart_ends[end] for s in searches)
                                       for end in r4._RESTART_ENDS}
        assert result.restart_ends["converged"] == 1

    def test_criterion_04_leading_seeds_keep_their_path(self):
        """Criterion 04's seeds 0, 1 and 2 accept at these attempts with these
        rejections, Jacobians and residual evaluations, and their restarts end
        so. A search change that moves them changes the path or the work along
        it, and a time gained that way is luck, not speed."""
        # attempts, the sign_gate, search_not_converged and nonextremal
        # rejections, the Jacobians and evaluations, then the converged and
        # stalled restarts
        expected = [(19, 15, 2, 1, 79, 192, 2, 6), (55, 52, 1, 1, 76, 168, 2, 4),
                    (21, 17, 2, 1, 59, 135, 2, 4)]
        for child, (attempts, sign_gate, not_converged, nonextremal, jacobians,
                    evaluations, converged, stalled) in zip(np.random.SeedSequence(404).spawn(3),
                                                            expected):
            result = r4.construct_biseparable(np.random.default_rng(child))
            assert (result.attempts, result.jacobians, result.evaluations) == (
                attempts, jacobians, evaluations)
            assert result.rejections == dict(
                dict.fromkeys(r4._REJECTIONS, 0), sign_gate=sign_gate,
                search_not_converged=not_converged, nonextremal=nonextremal)
            assert result.restart_ends == dict(
                dict.fromkeys(r4._RESTART_ENDS, 0), converged=converged, stalled=stalled)

    def test_gives_up_after_the_attempt_cap(self, monkeypatch):
        """When no search converges, every attempt is rejected at the sign gate
        or as not converged, and MaxIterations lists those rejections."""
        calls = []

        def never_converges(rng, start_frame=None):
            calls.append(start_frame)
            return r4.CompatibilitySearch(None, np.inf, None, 0, 1,
                                          dict.fromkeys(r4._RESTART_ENDS, 0))

        monkeypatch.setattr(r4, "compatible_subspace_search", never_converges)
        with pytest.raises(MaxIterations) as caught:
            r4.construct_biseparable(np.random.default_rng(0))
        message = str(caught.value)
        assert f"within {r4._CONSTRUCTION_MAX_ATTEMPTS} attempts" in message
        rejections = dict(dict.fromkeys(r4._REJECTIONS, 0),
                          sign_gate=r4._CONSTRUCTION_MAX_ATTEMPTS - len(calls),
                          search_not_converged=len(calls))
        assert f"rejections {rejections}" in message
        assert 0 < len(calls) < r4._CONSTRUCTION_MAX_ATTEMPTS

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
        s1, s2 = _dependence_singular_values(triple)
        # order 1e-1 for generic subspaces
        assert min(s1, s2) > 1e-2
