"""Construction and classification of rank-4444 entangled PPT states.

Every rank-4 PPT state of three qubits is biseparable across all three
bipartitions: it can be written as a positive combination of the four
bipartite product vectors of its range, in three different ways. Two classes
exist: type I has a strictly positive quadratic Lorentz invariant and a real
standard form symmetric under all partial transpositions; type II has a
vanishing invariant and an isotropic range (the antisymmetric scalar product
psi^T E phi vanishes identically on it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .config import DEFAULT
from .errors import (
    ConstructionError,
    DegenerateDraw,
    InvalidParameter,
    MaxIterations,
    NotRank4,
)
from .extremal import is_extremal
from .invariants import quadratic_invariant
from .prodvec import _ROW_SPLITS, BIPARTITIONS, SubspaceBasis, product_vectors_in_subspace
from .qstate import (
    DIM,
    EPSILON,
    HermitianOperator,
    _as_matrix,
    hermitian_basis,
    invariant_tensor_E,
    kron3,
    mat_to_coords,
    ppt_profile,
    split_product,
)
from .ranksearch import RankTargetProblem, refine_block

# the symmetric bilinear form u^T (eps x eps) v on C^4
_EE = np.kron(EPSILON, EPSILON)


def _form(u: np.ndarray) -> complex:
    return u @ _EE @ u


def _projector_coords(cols: np.ndarray) -> np.ndarray:
    """Hermitian-basis coordinates Tr(B_k P) of the projector P onto each
    column of a stack of 8xc frames, shape (..., 8, c) -> (..., c, 64).

    For a Hermitian P, Tr(B_k P) is the sum of B_k[a, b] conj(P[a, b]), so
    the coordinates are one matmul against the flattened basis.
    """
    v = np.swapaxes(cols, -1, -2)
    projs_conj = v.conj()[..., :, None] * v[..., None, :]
    flat = projs_conj.reshape(*projs_conj.shape[:-2], DIM * DIM)
    return (flat @ hermitian_basis().reshape(DIM * DIM, DIM * DIM).T).real


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify_type(rho, tol: float = DEFAULT.rank_tol,
                  i2_zero_tol: float = DEFAULT.i2_zero_tol) -> str:
    """'I' or 'II' by the quadratic invariant; raises NotRank4 otherwise."""
    profile = ppt_profile(rho, tol)
    if not profile.is_ppt or profile.ranks != (4, 4, 4, 4):
        raise NotRank4(f"profile is {profile.ranks}, is_ppt={profile.is_ppt}")
    mat = _as_matrix(rho)
    i2 = quadratic_invariant(mat)
    tr = float(np.trace(mat).real)
    return "II" if i2 < i2_zero_tol * tr * tr else "I"


# ---------------------------------------------------------------------------
# isotropic subspaces (type II ranges)
# ---------------------------------------------------------------------------

def isotropic_subspace(rng: np.random.Generator) -> SubspaceBasis:
    """Random 4-dim subspace on which psi^T E phi vanishes identically.

    Vectors are drawn one at a time; each new vector is confined to the
    null space of the accumulated orthogonality and isotropy constraints,
    whose dimension steps down 8, 6, 4, 2. The complement vectors E psi*
    are orthonormal and span the (equally isotropic) orthogonal subspace.
    """
    e_mat = invariant_tensor_E()
    cols: list[np.ndarray] = []
    for _ in range(4):
        if cols:
            rows = []
            for c in cols:
                rows.append(c.conj())
                rows.append(e_mat.T @ c)
            null = scipy.linalg.null_space(np.array(rows))
        else:
            null = np.eye(DIM, dtype=complex)
        coeff = rng.standard_normal(null.shape[1]) + 1j * rng.standard_normal(null.shape[1])
        vec = null @ coeff
        cols.append(vec / np.linalg.norm(vec))
    return SubspaceBasis(np.column_stack(cols))


# ---------------------------------------------------------------------------
# type II: explicit one-parameter family
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeIIParams:
    """Parameter and derived weights of the type II standard form."""

    t: complex
    lambdas: tuple[float, float, float, float]
    normalization: float


def _standard_two_vectors(t: complex) -> np.ndarray:
    return np.array([[1, 0, 1, t], [0, 1, -1, 1]], dtype=complex)


def _type2_u(t: complex) -> np.ndarray:
    return np.array(
        [[0, t, t, t], [1, 0, 1, -t], [-1, 0, 1, -t], [0, 1, -1, -1]],
        dtype=complex,
    )


def type2_weights(t: complex) -> tuple[np.ndarray, float]:
    at2 = abs(t) ** 2
    a1t2 = abs(1 + t) ** 2
    lambdas = np.array([at2 * a1t2, a1t2, at2, 1.0])
    norm = 1.0 / (5 * at2 ** 2 + 10 * at2 + 1 + (3 * at2 + 1) * a1t2)
    return lambdas, norm


def _check_parameter(t: complex) -> complex:
    t = complex(t)
    if abs(t) < 1e-12 or abs(1 + t) < 1e-12:
        raise InvalidParameter(f"t = {t} lies on the excluded locus {{0, -1}}")
    return t


def construct_type2(t: complex) -> tuple[HermitianOperator, TypeIIParams]:
    """Rank-4444 extremal PPT state with vanishing quadratic invariant.

    The state is assembled three ways, from the product bases of all three
    bipartitions, and the constructor fails loudly if they disagree.
    """
    e, f, g = type2_product_bases(t)
    t = complex(t)
    lambdas, norm = type2_weights(t)
    builds = [
        sum(norm * lambdas[i] * np.outer(m[:, i], m[:, i].conj()) for i in range(4))
        for m in (e, f, g)
    ]
    for other in builds[1:]:
        if np.abs(builds[0] - other).max() > 1e-8:
            raise ConstructionError(
                "the three biseparable decompositions disagree beyond 1e-8"
            )
    state = HermitianOperator(builds[0])
    params = TypeIIParams(t=t, lambdas=tuple(lambdas), normalization=norm)
    return state, params


def type2_product_bases(t: complex) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The displayed e, f, g column matrices of the type II standard form."""
    t = _check_parameter(t)
    x = _standard_two_vectors(t)
    u = _type2_u(t)
    e = np.column_stack([np.kron(x[:, i], u[:, i]) for i in range(4)])
    f = np.column_stack([split_product(x[:, i], u[:, i]) for i in range(4)])
    g = np.column_stack([np.kron(u[:, i], x[:, i]) for i in range(4)])
    return e, f, g


def type2_pt_witness(t: complex, signs: tuple[int, int] = (1, 1)
                     ) -> tuple[np.ndarray, float]:
    """2x2 matrix W with (W x W) u_i proportional to u_i*, and the positive b
    realizing b (1 x W x W) rho^T1 (1 x W x W)^dag = rho*.

    The partial transpose of the type II state is therefore equivalent to the
    standard form at the conjugated parameter. Four sign choices, four W's.
    """
    t = _check_parameter(t)
    e1, e2 = signs
    if e1 not in (-1, 1) or e2 not in (-1, 1):
        raise InvalidParameter(f"signs must be +-1, got {signs}")
    at = abs(t)
    a1t = abs(1 + t)
    tc = np.conj(t)
    w_mat = np.array(
        [
            [-e1 * tc * (1 - e1 * at + e2 * a1t), at * (tc + e1 * at)],
            [at + e1 * tc, at * (1 - e1 * at + e2 * a1t)],
        ],
        dtype=complex,
    )
    u = _type2_u(t)
    if np.abs(w_mat).max() < 1e-10:
        # for real t in (-1, 0) one sign branch collapses to the zero matrix
        raise ConstructionError(
            f"the witness matrix degenerates for t = {t}, signs {signs}"
        )
    big = np.kron(w_mat, w_mat)
    ratios = []
    for i in range(4):
        lhs = big @ u[:, i]
        rhs = u[:, i].conj()
        k = int(np.argmax(np.abs(rhs)))
        c = lhs[k] / rhs[k]
        if abs(c) < 1e-10 or np.abs(lhs - c * rhs).max() > 1e-9 * max(1.0, abs(c)):
            raise ConstructionError(f"(W x W) u_{i+1} is not proportional to its conjugate")
        ratios.append(c)
    mags = [abs(c) for c in ratios]
    if max(mags) - min(mags) > 1e-9 * max(mags):
        raise ConstructionError("the four proportionality constants differ in magnitude")
    b = 1.0 / mags[0] ** 2
    state, _ = construct_type2(t)
    v = kron3(np.eye(2), w_mat, w_mat)
    lhs = b * v @ np.asarray(state.ptranspose(1).mat) @ v.conj().T
    if np.abs(lhs - state.mat.conj()).max() > 1e-8:
        raise ConstructionError("partial-transpose equivalence failed beyond 1e-8")
    return w_mat, float(b)


# ---------------------------------------------------------------------------
# type I: real symmetric construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypeIParams:
    """Rescaled column matrix u and the standard-form parameter t1 of the
    first-factor quadruple fixed by the construction."""

    u: np.ndarray
    t1: float


def _type1_rescaled(u: np.ndarray, guard: float = 1e-6
                    ) -> tuple[np.ndarray, float] | None:
    """The columns of u with the first two rescaled, and t1.

    t1 is the ratio of the third and fourth column forms; the first two
    columns are rescaled so the bilinear-form conditions hold. Returns None
    when a needed quadratic form or rescaling factor is within `guard` of
    zero (too close to a sign-flip branch for stable derivatives).
    """
    u = np.asarray(u, dtype=float).reshape(4, 4)
    u1, u2, u3, u4 = (u[:, i].copy() for i in range(4))
    forms = [_form(c).real for c in (u1, u2, u3, u4)]
    if min(abs(v) for v in forms) < guard:
        return None
    t1 = forms[2] / forms[3]
    for col, square in ((u1, -(forms[2] + t1 ** 2 * forms[3]) / forms[0]),
                        (u2, -(forms[2] + forms[3]) / forms[1])):
        if abs(square) < guard:
            return None
        if square < 0:
            # flipping the first two components flips the sign of the form
            col[:2] *= -1.0
        col *= np.sqrt(abs(square))
    return np.column_stack([u1, u2, u3, u4]), float(t1)


def _type1_state(u_scaled: np.ndarray, t1: float) -> np.ndarray:
    """The unit-trace type I matrix of rescaled columns and t1."""
    u1, u2, u3, u4 = u_scaled.T
    block_a = np.outer(u1, u1) + np.outer(u3, u3) + t1 ** 2 * np.outer(u4, u4)
    block_b = -np.outer(u3, u3) + t1 * np.outer(u4, u4)
    block_c = np.outer(u2, u2) + np.outer(u3, u3) + np.outer(u4, u4)
    rho = np.block([[block_a, block_b], [block_b, block_c]])
    return rho / np.trace(rho)


def _type1_from_matrix(u: np.ndarray, guard: float = 1e-6) -> np.ndarray | None:
    """Deterministic core of the type I construction: R^(4x4) -> rho, or None
    near a sign-flip branch (see _type1_rescaled)."""
    rescaled = _type1_rescaled(u, guard)
    return None if rescaled is None else _type1_state(*rescaled)


def quadruple_parameters(rho, rng: np.random.Generator | None = None
                         ) -> tuple[complex, complex, complex]:
    """Standard-form parameters of the three 2-vector quadruples extracted
    from the range of a rank-4444 state (pencil ordering convention)."""
    from .prodvec import standard_form_quadruple

    basis = SubspaceBasis.range_of(
        rho if isinstance(rho, HermitianOperator) else HermitianOperator(rho)
    )
    params = []
    for bipartition, slot in (("1|23", "factor1"), ("2|13", "factor2"), ("3|12", "factor3")):
        triples = product_vectors_in_subspace(basis, bipartition, rng=rng)
        quad = np.column_stack([getattr(tr, slot) for tr in triples])
        params.append(standard_form_quadruple(quad).t)
    return tuple(params)


_TYPE1_MAX_DRAWS = 200


def construct_type1(rng: np.random.Generator) -> tuple[HermitianOperator, TypeIParams]:
    """Random member of the real completely-symmetric rank-4444 family.

    A random real 4x4 matrix of columns is adjusted so the three bilinear-form
    conditions hold: t1 is fixed by the ratio of the third and fourth column
    forms, and the first two columns are rescaled (with a sign fix flipping
    their first two components when the square is negative). The result is
    real, equal to all its partial transposes, PSD of rank 4, and extremal.
    Draws whose quadratic invariant falls below 1e-6 of the squared trace are
    redrawn as degenerate (they sit too close to the vanishing-invariant
    stratum to classify robustly). Raises DegenerateDraw after
    _TYPE1_MAX_DRAWS draws.
    """
    for _ in range(_TYPE1_MAX_DRAWS):
        rescaled = _type1_rescaled(rng.standard_normal((4, 4)))
        if rescaled is None:
            continue
        u_scaled, t1 = rescaled
        state = HermitianOperator(_type1_state(u_scaled, t1))
        profile = ppt_profile(state)
        if profile.ranks != (4, 4, 4, 4):
            continue
        if quadratic_invariant(state) <= 1e-6:
            continue
        return state, TypeIParams(u=u_scaled, t1=t1)
    raise DegenerateDraw(f"no usable draw within {_TYPE1_MAX_DRAWS} tries")


def _sl_orbit_tangents(rho: np.ndarray) -> np.ndarray:
    """Trace-projected tangents of the local-transformation orbit at rho,
    one row per generator of the three traceless factor algebras."""
    from .qstate import PAULI

    rows = []
    for slot in range(3):
        for p in (1, 2, 3):
            for mult in (1.0, 1j):
                ops = [np.eye(2, dtype=complex)] * 3
                ops[slot] = mult * PAULI[p]
                gen = kron3(*ops)
                delta = gen @ rho + rho @ gen.conj().T
                delta = delta - np.trace(delta).real * rho
                rows.append(mat_to_coords(delta))
    return np.array(rows)


def type1_parameter_count(rng: np.random.Generator, step: float = 1e-6,
                          rank_rtol: float = 1e-7) -> int:
    """Number of continuous parameters of the type I family modulo local
    unit-determinant transformations, measured at one random sample point.

    Computed as rank([construction Jacobian; orbit tangents]) minus
    rank(orbit tangents); the singular-value gap between genuine directions
    and finite-difference noise is several orders of magnitude. A draw near a
    sign-flip branch is redrawn; raises DegenerateDraw after
    _TYPE1_MAX_DRAWS draws.
    """

    def _rank(mat: np.ndarray) -> int:
        svs = np.linalg.svd(mat, compute_uv=False)
        return int(np.count_nonzero(svs > rank_rtol * svs[0]))

    for _ in range(_TYPE1_MAX_DRAWS):
        draw = rng.standard_normal(16)
        if _type1_from_matrix(draw.reshape(4, 4), guard=1e-2) is None:
            continue
        cols = []
        for j in range(16):
            shift = np.zeros(16)
            shift[j] = step
            plus = _type1_from_matrix((draw + shift).reshape(4, 4), guard=1e-7)
            minus = _type1_from_matrix((draw - shift).reshape(4, 4), guard=1e-7)
            if plus is None or minus is None:
                break
            cols.append(mat_to_coords((plus - minus) / (2 * step)))
        else:
            jac = np.array(cols)
            orbit = _sl_orbit_tangents(_type1_from_matrix(draw.reshape(4, 4)))
            return _rank(np.vstack([jac, orbit])) - _rank(orbit)
    raise DegenerateDraw(f"no usable draw within {_TYPE1_MAX_DRAWS} tries")


# ---------------------------------------------------------------------------
# numerical biseparable construction
# ---------------------------------------------------------------------------

@dataclass
class BiseparableTriple:
    """The three product-vector bases of the range and their positive weights.

    Columns of e, f, g are unit vectors; the weights are scaled so that the
    state equals sum_i weights_e[i] e_i e_i^dag (and likewise for f and g).
    """

    e: np.ndarray
    f: np.ndarray
    g: np.ndarray
    weights_e: np.ndarray
    weights_f: np.ndarray
    weights_g: np.ndarray

    def reconstructions(self) -> list[np.ndarray]:
        out = []
        for mat, w in ((self.e, self.weights_e), (self.f, self.weights_f),
                       (self.g, self.weights_g)):
            out.append(sum(w[i] * np.outer(mat[:, i], mat[:, i].conj()) for i in range(4)))
        return out

    def max_disagreement(self) -> float:
        builds = self.reconstructions()
        return max(float(np.abs(builds[0] - b).max()) for b in builds[1:])


def biseparable_triple(rho, rng: np.random.Generator | None = None) -> BiseparableTriple:
    """Extract the three biseparable decompositions of a rank-4444 PPT state.

    The product vectors of each bipartition are found in the range and the
    weights by least squares; all twelve weights must come out at least 1e-8.
    """
    state = rho if isinstance(rho, HermitianOperator) else HermitianOperator(rho)
    basis = SubspaceBasis.range_of(state)
    target = mat_to_coords(state.mat)
    mats, weights = [], []
    for bipartition in BIPARTITIONS:
        triples = product_vectors_in_subspace(basis, bipartition, rng=rng)
        cols = np.column_stack([tr.full / np.linalg.norm(tr.full) for tr in triples])
        coords = _projector_coords(cols)
        w, residual, *_ = np.linalg.lstsq(coords.T, target, rcond=None)
        rebuilt = coords.T @ w
        if np.linalg.norm(rebuilt - target) > 1e-7:
            raise ConstructionError(
                f"bipartition {bipartition}: state is not a combination of its "
                "four range product vectors"
            )
        if w.min() < 1e-8:
            raise ConstructionError(
                f"bipartition {bipartition}: weights are not all positive ({w})"
            )
        mats.append(cols)
        weights.append(w)
    return BiseparableTriple(mats[0], mats[1], mats[2], weights[0], weights[1], weights[2])


def _pencil_eigenvectors(a_mat: np.ndarray, b_mat: np.ndarray) -> np.ndarray | None:
    """Eigenvectors of a stack of 4x4 pencils (a, b), or None when any member
    is degenerate (non-finite eigenvectors, or no eigensolver succeeds).

    A stack whose solve or eig fails is solved member by member; a single
    member whose b is singular goes to the generalized eigensolver.
    """
    try:
        _, vr = np.linalg.eig(np.linalg.solve(b_mat, a_mat))
    except np.linalg.LinAlgError:
        if len(a_mat) > 1:
            parts = [_pencil_eigenvectors(a_mat[i:i + 1], b_mat[i:i + 1])
                     for i in range(len(a_mat))]
            if any(part is None for part in parts):
                return None
            return np.concatenate(parts)
        try:
            _, vr = scipy.linalg.eig(a_mat[0], b_mat[0])
        except (np.linalg.LinAlgError, ValueError):
            return None
        vr = vr[None]
    if not np.all(np.isfinite(vr)):
        return None
    return vr


def _pencil_columns(psi: np.ndarray) -> np.ndarray | None:
    """Unit-normalized pencil solution vectors of a stack of 8x4 frames, one
    8x4 block per bipartition: (n, 8, 4) -> (n, 3, 8, 4). None when any
    pencil is degenerate (see _pencil_eigenvectors, or a column norm below
    1e-10)."""
    rows = [_ROW_SPLITS[bp] for bp in BIPARTITIONS]
    a_mat = np.stack([psi[:, top, :] for top, _ in rows], axis=1)
    b_mat = np.stack([psi[:, bottom, :] for _, bottom in rows], axis=1)
    vr = _pencil_eigenvectors(a_mat.reshape(-1, 4, 4), b_mat.reshape(-1, 4, 4))
    if vr is None:
        return None
    phis = psi[:, None] @ vr.reshape(a_mat.shape)
    norms = np.linalg.norm(phis, axis=-2)
    if norms.min() < 1e-10:
        return None
    return phis / norms[..., None, :]


def _match_columns(new: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Columns of each 8x4 block of new (..., 8, 4) reordered to follow the
    matching block of ref, pairing the largest remaining overlaps first."""
    overlap = np.abs(np.swapaxes(ref.conj(), -1, -2) @ new)
    flat = overlap.reshape(-1, 4, 4)
    rows = np.arange(len(flat))
    order = np.zeros((len(flat), 4), dtype=int)
    for _ in range(4):
        i, j = np.divmod(flat.reshape(-1, 16).argmax(axis=1), 4)
        order[rows, i] = j
        flat[rows, i, :] = -1.0
        flat[rows, :, j] = -1.0
    return np.take_along_axis(new, order.reshape(*new.shape[:-2], 1, 4), axis=-1)


_WEIGHT_CAP = 1.5          # log-weight bound; blocks weight-collapse cheats
_SEARCH_F_TARGET = 3e-8    # residual square sum of a converged compatibility search
_CONSTRUCTION_MAX_ATTEMPTS = 400
_GRAM_LOG_FLOOR = -3.0     # barrier floor for the product-basis Gram determinant
_RANK_FLOOR = 3e-3         # barrier floor for the 4th eigenvalue of the candidate
_JACOBIAN_STEP = 1e-7      # forward-difference step of the search Jacobian


class _CompatibilityResidual:
    """Residual whose zeros are subspaces carrying a rank-4 matrix with the
    prescribed sign pattern that is simultaneously a combination of the
    product bases of all three bipartitions.

    Parameters are a raw 8x4 frame (orthonormalized by QR) plus four bounded
    log-weights, 68 reals. Barrier components keep the search off the
    degenerate strata (collapsing weights, coinciding product vectors, rank
    drop) whose zeros would otherwise dominate.

    The residual is evaluated on a stack of parameter vectors (n, 68) at
    once, with one stacked call per linear-algebra step; a single point is a
    stack of one.
    """

    def __init__(self, signs: np.ndarray):
        self.signs = np.asarray(signs, dtype=float)
        # matched pencil columns (3, 8, 4) of the last reference point
        self.reference: np.ndarray | None = None

    def __call__(self, thetas: np.ndarray, update_reference: bool = False):
        """(residuals (n, m), payload) for thetas (n, 68), or None when any
        member of the stack is degenerate. The payload (psi, logw, e, f, g)
        is stacked along the first axis; update_reference takes member 0's
        columns as the reference for column matching."""
        n = len(thetas)
        frames = (thetas[:, :32] + 1j * thetas[:, 32:64]).reshape(n, DIM, 4)
        psi, _ = np.linalg.qr(frames)
        logw = _WEIGHT_CAP * np.tanh(thetas[:, 64:] / _WEIGHT_CAP)
        vecs = _pencil_columns(psi)
        if vecs is None:
            return None
        if self.reference is not None:
            vecs = _match_columns(vecs, self.reference)
        if update_reference:
            self.reference = vecs[0]
        coords = _projector_coords(vecs)
        combo = ((self.signs * np.exp(logw))[:, None, :] @ coords[:, 0])[:, 0]
        combo = combo / np.linalg.norm(combo, axis=1, keepdims=True)
        # distance of combo from the spans of the 2|13 and 3|12 projectors
        qb, _ = np.linalg.qr(np.swapaxes(coords[:, 1:], -1, -2))
        inside = qb @ (np.swapaxes(qb, -1, -2) @ combo[:, None, :, None])
        residuals = (combo[:, None, :] - inside[..., 0]).reshape(n, -1)
        gram = np.swapaxes(vecs.conj(), -1, -2) @ vecs
        det = np.maximum(np.linalg.det(gram).real, 1e-300)
        barriers = [0.5 * np.maximum(0.0, _GRAM_LOG_FLOOR - np.log10(det))]
        if np.all(self.signs > 0):
            basis = hermitian_basis().reshape(DIM * DIM, DIM * DIM)
            mats = (combo @ basis).reshape(n, DIM, DIM)
            ev4 = np.maximum(np.abs(np.linalg.eigvalsh(mats)[:, 4]), 1e-300)
            rank_barrier = 0.5 * np.maximum(0.0, np.log10(_RANK_FLOOR) - np.log10(ev4))
            barriers.append(rank_barrier[:, None])
        payload = (psi, logw, vecs[:, 0], vecs[:, 1], vecs[:, 2])
        return np.concatenate([residuals, *barriers], axis=1), payload


def compatible_subspace_search(rng: np.random.Generator, signs,
                               start_frame: np.ndarray | None = None,
                               inner_restarts: int = 2):
    """Levenberg-damped search for a subspace compatible with the given sign
    pattern, at most 30 iterations per restart; returns (payload, f) with f
    below _SEARCH_F_TARGET on success."""
    best_payload, best_f = None, np.inf
    for restart in range(inner_restarts):
        residual = _CompatibilityResidual(np.asarray(signs))
        if start_frame is not None and restart == 0:
            theta = np.concatenate(
                [start_frame.real.ravel(), start_frame.imag.ravel(), np.zeros(4)]
            )
        else:
            theta = np.concatenate([rng.standard_normal(64), np.zeros(4)])
        out = residual(theta[None], update_reference=True)
        if out is None:
            continue
        r, payload = out[0][0], tuple(p[0] for p in out[1])
        f = float(r @ r)
        damping = 1e-6
        n = theta.size
        for _ in range(30):
            if f < _SEARCH_F_TARGET:
                break
            # forward differences, all probes in one stack; one degenerate
            # probe breaks the Jacobian
            probes = residual(theta + _JACOBIAN_STEP * np.eye(n))
            if probes is None:
                break
            jac = ((probes[0] - r) / _JACOBIAN_STEP).T
            normal = jac.T @ jac
            rhs = -jac.T @ r
            accepted = False
            for _ in range(25):
                try:
                    step = np.linalg.solve(normal + damping * np.eye(n), rhs)
                except np.linalg.LinAlgError:
                    damping *= 10.0
                    continue
                trial = residual((theta + step)[None])
                if trial is not None and float(trial[0][0] @ trial[0][0]) < f:
                    theta = theta + step
                    theta[64:] -= theta[64:].mean()
                    out = residual(theta[None], update_reference=True)
                    r, payload = out[0][0], tuple(p[0] for p in out[1])
                    f = float(r @ r)
                    damping = max(damping / 5.0, 1e-10)
                    accepted = True
                    break
                damping *= 7.0
            if not accepted:
                break
        if f < best_f:
            best_payload, best_f = payload, f
        if best_f < _SEARCH_F_TARGET:
            break
    return best_payload, best_f


@dataclass
class BiseparableConstruction:
    """Outcome of the randomized biseparable construction, unpacking as the
    (state, triple) pair; attempt bookkeeping rides along for statistics."""

    state: HermitianOperator
    triple: BiseparableTriple
    attempts: int
    sign_decisions: int
    sign_accepted: int
    classification: str
    singular_values: tuple[float, float]
    # rejected attempts by reason (see _REJECTIONS); they sum to attempts - 1
    rejections: dict[str, int]

    def __iter__(self):
        return iter((self.state, self.triple))


# why construct_biseparable turns an attempt down, in the order it checks
_REJECTIONS = ("sign_gate", "search_not_converged", "pin_failed", "pin_moved",
               "profile", "nonextremal", "triple", "dependence")


def _dependence_singular_values(state: HermitianOperator,
                                triple: BiseparableTriple) -> tuple[float, float]:
    """Smallest singular values of the two 64x8 dependence matrices formed by
    the unit-column projector stacks (e with f, and e with g)."""
    ce, cf, cg = (_projector_coords(cols) for cols in (triple.e, triple.f, triple.g))
    s1 = np.linalg.svd(np.vstack([ce, cf]).T, compute_uv=False)[-1]
    s2 = np.linalg.svd(np.vstack([ce, cg]).T, compute_uv=False)[-1]
    return float(s1), float(s2)


def construct_biseparable(rng: np.random.Generator) -> BiseparableConstruction:
    """Random rank-4444 extremal PPT state via the biseparability compatibility
    search, together with its three product decompositions.

    Each attempt draws a sign pattern for the four weights of the first
    decomposition; only the all-equal pattern can give a positive
    semidefinite state, so one attempt in eight survives the sign gate
    (sign_accepted / sign_decisions tracks the rate). One attempt in 16
    starts from a random isotropic subspace, which is where the
    vanishing-invariant (type II) solutions live. Candidates are pinned to
    the exact rank-4444 manifold before validation; outputs are extremal and
    entangled. Every turned-down attempt is counted under its reason in
    `rejections`. Raises MaxIterations after 400 attempts.
    """
    attempts = 0
    sign_decisions = 0
    sign_accepted = 0
    rejections = dict.fromkeys(_REJECTIONS, 0)
    problem = RankTargetProblem((4, 4, 4, 4))
    for _ in range(_CONSTRUCTION_MAX_ATTEMPTS):
        attempts += 1
        raw = rng.integers(0, 2, size=4) * 2 - 1
        signs = raw if raw[0] > 0 else -raw
        use_isotropic = bool(rng.random() < 1.0 / 16.0)
        start = isotropic_subspace(rng).psi if use_isotropic else None
        sign_decisions += 1
        if not np.all(signs > 0):
            rejections["sign_gate"] += 1
            continue
        sign_accepted += 1
        payload, f = compatible_subspace_search(rng, signs, start_frame=start)
        if payload is None or f > _SEARCH_F_TARGET:
            rejections["search_not_converged"] += 1
            continue
        psi, logw, pe, pf, pg = payload
        weights = np.exp(logw)
        candidate = sum(
            weights[i] * np.outer(pe[:, i], pe[:, i].conj()) for i in range(4)
        )
        candidate = HermitianOperator(candidate).normalized()
        x, f_pin, _ = refine_block(problem, mat_to_coords(candidate.mat),
                                   f_target=1e-24, max_iters=40)
        if f_pin > 1e-20:
            rejections["pin_failed"] += 1
            continue
        state = problem.rho(x)
        if state.trace() < 0:
            state = HermitianOperator(-state.mat)
        state = state.normalized()
        if np.linalg.norm(state.mat - candidate.mat) > 1e-2:
            rejections["pin_moved"] += 1
            continue
        profile = ppt_profile(state)
        if not profile.is_ppt or profile.ranks != (4, 4, 4, 4):
            rejections["profile"] += 1
            continue
        if not is_extremal(state).extremal:
            # a nonextremal rank-4 PPT state is separable, outside this target
            rejections["nonextremal"] += 1
            continue
        try:
            triple = biseparable_triple(state, rng=rng)
        except ConstructionError:
            rejections["triple"] += 1
            continue
        s1, s2 = _dependence_singular_values(state, triple)
        if max(s1, s2) > 1e-9:
            rejections["dependence"] += 1
            continue
        classification = classify_type(state)
        return BiseparableConstruction(
            state=state,
            triple=triple,
            attempts=attempts,
            sign_decisions=sign_decisions,
            sign_accepted=sign_accepted,
            classification=classification,
            singular_values=(s1, s2),
            rejections=rejections,
        )
    raise MaxIterations(
        f"no accepted construction within {_CONSTRUCTION_MAX_ATTEMPTS} attempts; "
        f"rejections {rejections}")


__all__ = [
    "BiseparableConstruction",
    "BiseparableTriple",
    "TypeIIParams",
    "TypeIParams",
    "biseparable_triple",
    "classify_type",
    "compatible_subspace_search",
    "construct_biseparable",
    "construct_type1",
    "construct_type2",
    "isotropic_subspace",
    "quadruple_parameters",
    "type1_parameter_count",
    "type2_product_bases",
    "type2_pt_witness",
    "type2_weights",
]
