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
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import (
    ConstructionError,
    DegenerateDraw,
    InvalidParameter,
    MaxIterations,
    NotRank4,
)
from .extremal import is_extremal
from .invariants import i2_vanishes, quadratic_invariant
from .prodvec import (
    _ROW_SPLITS,
    BIPARTITIONS,
    SubspaceBasis,
    _pencil_eigs,
    product_vectors_in_subspace,
    standard_form_quadruple,
)
from .qstate import (
    DIM,
    EPSILON,
    PAULI,
    HermitianOperator,
    _as_matrix,
    _coordinate_gather,
    invariant_tensor_E,
    kron3,
    mat_to_coords,
    ppt_profile,
    ptranspose_mat,
    split_product,
)
from .ranksearch import RankTargetProblem, _block_residual_jacobian, refine_block, rho_state

# the symmetric bilinear form u^T (eps x eps) v on C^4
_EE = np.kron(EPSILON, EPSILON)


def _form(u: np.ndarray) -> complex:
    return u @ _EE @ u


def _upper_entries() -> tuple[np.ndarray, ...]:
    """Row and column (36,) of the upper-triangle entries that mat_to_coords
    reads, and the index (64,) of each coordinate in the flat real view of
    those entries, with its scale."""
    index, scale = _coordinate_gather()
    entry, part = np.divmod(index, 2)
    upper, position = np.unique(entry, return_inverse=True)
    return *np.divmod(upper, DIM), 2 * position + part, scale


_UPPER_ROW, _UPPER_COL, _UPPER_COORD, _UPPER_SCALE = _upper_entries()
# the upper entries, then their mirrors
_MIRRORED_ROW = np.concatenate([_UPPER_ROW, _UPPER_COL])
_MIRRORED_COL = np.concatenate([_UPPER_COL, _UPPER_ROW])


def _upper_to_coords(entries: np.ndarray) -> np.ndarray:
    """hermitian_basis() coordinates (..., 64) of Hermitian matrices given by
    their entries (..., 36) at _UPPER_ROW, _UPPER_COL."""
    return np.ascontiguousarray(entries).view(float)[..., _UPPER_COORD] * _UPPER_SCALE


def _weighted_projector_sum(cols: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_i weights[i] c_i c_i^dag over the four columns c_i of an 8x4 matrix."""
    return sum(weights[i] * np.outer(cols[:, i], cols[:, i].conj()) for i in range(4))


def _projector_coords(cols: np.ndarray) -> np.ndarray:
    """Hermitian-basis coordinates of the projector onto each column of a
    stack of 8xc frames, shape (..., 8, c) -> (..., c, 64)."""
    v = np.swapaxes(cols, -1, -2)
    return _upper_to_coords(v[..., _UPPER_ROW] * v.conj()[..., _UPPER_COL])


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _rank4_matrix(rho, tolerances: Tolerances) -> np.ndarray:
    """rho's matrix; raises NotRank4 unless rho is PPT with profile 4444."""
    profile = ppt_profile(rho, tolerances)
    if not profile.is_ppt or profile.ranks != (4, 4, 4, 4):
        raise NotRank4(f"profile is {profile.ranks}, is_ppt={profile.is_ppt}")
    return _as_matrix(rho)


def classify_type(rho, tolerances: Tolerances = DEFAULT) -> str:
    """'I' or 'II' by the quadratic invariant; raises NotRank4 otherwise."""
    mat = _rank4_matrix(rho, tolerances)
    i2 = quadratic_invariant(mat)
    tr = float(np.trace(mat).real)
    return "II" if i2_vanishes(i2, tr, tolerances) else "I"


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
            # null space: right singular vectors past the singular values
            # above max(M, N) eps s_max, in C order: null @ coeff rounds by
            # memory layout, and the tests hold these draws bit-equal to a
            # C-order reference null space
            constraints = np.array(rows)
            _, sing, vh = np.linalg.svd(constraints)
            cut = max(constraints.shape) * np.finfo(float).eps * sing[0]
            null = np.ascontiguousarray(vh[int(np.sum(sing > cut)):].conj().T)
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
    builds = [_weighted_projector_sum(m, norm * lambdas) for m in (e, f, g)]
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
    lhs = b * v @ ptranspose_mat(state.mat, 1) @ v.conj().T
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


# a quadratic form or rescaling factor of the type I construction this close
# to zero puts the draw too near a sign-flip branch
_TYPE1_BRANCH_GUARD = 1e-6


def _type1_rescaled(u: np.ndarray) -> tuple[np.ndarray, float] | None:
    """The columns of u with the first two rescaled, and t1.

    t1 is the ratio of the third and fourth column forms; the first two
    columns are rescaled so the bilinear-form conditions hold. Returns None
    when a needed quadratic form or rescaling factor is within
    _TYPE1_BRANCH_GUARD of zero.
    """
    u = np.asarray(u, dtype=float).reshape(4, 4)
    u1, u2, u3, u4 = (u[:, i].copy() for i in range(4))
    forms = [_form(c).real for c in (u1, u2, u3, u4)]
    if min(abs(v) for v in forms) < _TYPE1_BRANCH_GUARD:
        return None
    t1 = forms[2] / forms[3]
    for col, square in ((u1, -(forms[2] + t1 ** 2 * forms[3]) / forms[0]),
                        (u2, -(forms[2] + forms[3]) / forms[1])):
        if abs(square) < _TYPE1_BRANCH_GUARD:
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


def _range_product_vectors(rho) -> tuple[HermitianOperator, dict[str, list]]:
    """rho as a HermitianOperator, and the four product vectors of each
    bipartition in its range."""
    state = rho if isinstance(rho, HermitianOperator) else HermitianOperator(rho)
    basis = SubspaceBasis.range_of(state)
    return state, {bipartition: product_vectors_in_subspace(basis, bipartition)
                   for bipartition in BIPARTITIONS}


def quadruple_parameters(rho) -> tuple[complex, complex, complex]:
    """Standard-form parameters of the three 2-vector quadruples extracted
    from the range of a rank-4444 state (pencil ordering convention)."""
    _, products = _range_product_vectors(rho)
    params = []
    for slot, triples in enumerate(products.values(), start=1):
        quad = np.column_stack([getattr(tr, f"factor{slot}") for tr in triples])
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


# singular values at or below this fraction of the largest of their matrix
# count as zero in family_dimension
_FAMILY_RANK_RTOL = 1e-8


class FamilyDimension(NamedTuple):
    """Real dimension of the rank-4444 PPT states through a state, modulo
    local unit-determinant transformations and scale, and the gap that
    decided it: the largest singular value counted as zero and the smallest
    one kept, each relative to the largest of its matrix."""

    count: int
    largest_null: float
    smallest_kept: float


def family_dimension(rho, tolerances: Tolerances = DEFAULT) -> FamilyDimension:
    """Number of real parameters of the rank-4444 family through rho, modulo
    local SL(2,C)^3 and scale: 7 on the type I family, 2 (one complex t) on
    type II. Raises NotRank4 unless rho is PPT with profile 4444.

    The tangent space at rho of the states with profile 4444 is the null
    space of the subspace-block Jacobian that ranksearch refines with; it
    holds the local orbit tangents and rho itself, and the count is its
    dimension minus their rank, both at the relative cut _FAMILY_RANK_RTOL.
    """
    mat = _rank4_matrix(rho, tolerances)
    mat = mat / np.trace(mat).real
    x = mat_to_coords(mat)
    _, jac = _block_residual_jacobian(RankTargetProblem((4, 4, 4, 4)), x)
    tangent = np.linalg.svd(jac, compute_uv=False)
    orbit = np.linalg.svd(np.vstack([_sl_orbit_tangents(mat), x]), compute_uv=False)
    tangent, orbit = tangent / tangent[0], orbit / orbit[0]
    count = (np.count_nonzero(tangent <= _FAMILY_RANK_RTOL)
             - np.count_nonzero(orbit > _FAMILY_RANK_RTOL))
    values = np.concatenate([tangent, orbit])
    null = values <= _FAMILY_RANK_RTOL
    return FamilyDimension(int(count), float(values[null].max(initial=0.0)),
                           float(values[~null].min()))


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
        return [_weighted_projector_sum(self.e, self.weights_e),
                _weighted_projector_sum(self.f, self.weights_f),
                _weighted_projector_sum(self.g, self.weights_g)]

    def max_disagreement(self) -> float:
        builds = self.reconstructions()
        return max(float(np.abs(builds[0] - b).max()) for b in builds[1:])


def biseparable_triple(rho, rng=None) -> BiseparableTriple:
    """Extract the three biseparable decompositions of a rank-4444 PPT state.

    The product vectors of each bipartition are found in the range and the
    weights by least squares; all twelve weights must come out at least 1e-8.
    The extraction is deterministic and never reads `rng`. The keyword stays
    only because the benchmark (`perfbench/`) still passes it, and goes once
    that stops.
    """
    state, products = _range_product_vectors(rho)
    target = mat_to_coords(state.mat)
    mats, weights = [], []
    for bipartition, triples in products.items():
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


def _matching_order(new: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Column order (k, 4) that makes each 8x4 block of new (k, 8, 4) follow
    the matching block of ref: greedy pairing, the largest remaining overlap
    first and, among equal ones, the first in row-major order.

    When the first largest overlap of each row of a block lies in a column of
    its own, as it nearly always does one damped step from the reference,
    greedy pairing takes exactly those: every row keeps its first largest
    entry until it is paired, so the largest remaining entry is always one of
    them. Only the other blocks run the pairing loop."""
    overlap = np.abs(_adjoint(ref) @ new)
    order = overlap.argmax(axis=-1)
    for k, row in enumerate(order.tolist()):
        if len(set(row)) < 4:
            order[k] = _greedy_pairing(overlap[k])
    return order


def _greedy_pairing(overlap: np.ndarray) -> np.ndarray:
    """Greedy column order (4,) of one 4x4 overlap block, which it overwrites."""
    order = np.zeros(4, dtype=int)
    for _ in range(4):
        i, j = divmod(int(overlap.argmax()), 4)
        order[i] = j
        overlap[i, :] = overlap[:, j] = -1.0
    return order


# flat indices of column 0 of each row of a (3, 14, 4) column stack
_GATHER = 56 * np.arange(3)[:, None, None] + 4 * np.arange(14)[:, None]


def _matched_columns(vecs: np.ndarray, norms: np.ndarray, eigvals: np.ndarray,
                     eigvecs: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, ...]:
    """vecs (3, 8, 4), norms (3, 4), eigvals (3, 4) and eigvecs (3, 4, 4) with
    their columns in _matching_order(vecs, reference), moved by one gather."""
    stack = np.concatenate([vecs, eigvecs, eigvals[:, None], norms[:, None]], axis=1)
    stack = stack.ravel()[_GATHER + _matching_order(vecs, reference)[:, None, :]]
    return stack[:, :8], stack[:, 13].real, stack[:, 12], stack[:, 8:12]


def _adjoint(mats: np.ndarray) -> np.ndarray:
    return np.swapaxes(mats.conj(), -1, -2)


_WEIGHT_CAP = 1.5          # log-weight bound; blocks weight-collapse cheats
_SEARCH_F_TARGET = 3e-8    # residual square sum of a converged compatibility search
_SEARCH_MAX_ITERATIONS = 30
_SEARCH_RESTARTS = 2       # restarts per compatibility search, the first from start_frame
# a restart has stalled when, from iteration _STALL_FROM on, f fell by less than
# _STALL_MIN_DECADES (about a factor of 2) over the last _STALL_WINDOW iterations:
# at that rate f ~ 1e-4 would need more than 40 further iterations to converge
_STALL_FROM = 10
_STALL_WINDOW = 4
_STALL_MIN_DECADES = 0.3
_CONSTRUCTION_MAX_ATTEMPTS = 400
_GRAM_LOG_FLOOR = -3.0     # barrier floor for the product-basis Gram determinant
_RANK_FLOOR = 3e-3         # barrier floor for the 4th eigenvalue of the candidate
_PENCIL_GAP_FLOOR = 1e-8   # smallest relative pencil-eigenvalue gap the Jacobian accepts

# pencil blocks of the frame rows, one per bipartition: (3, 4) row indices
_TOP_ROWS = np.array([_ROW_SPLITS[bp][0] for bp in BIPARTITIONS])
_BOTTOM_ROWS = np.array([_ROW_SPLITS[bp][1] for bp in BIPARTITIONS])
_SPLIT_ROWS = np.stack([_TOP_ROWS, _BOTTOM_ROWS], axis=2)      # (3, 4, 2)
_PENCILS = np.arange(3)[:, None]
_COLS = np.arange(4)                                           # pencil column j
_PHASES = np.array([1.0, 1j])[:, None, None]

_IDENTITY = np.eye(4)
_OFF_DIAGONAL = ~np.eye(4, dtype=bool)


def _basis_index() -> np.ndarray:
    """Where each entry of the Jacobian's direction basis (36, 68) comes from
    in [0, 1, P, -P], P the flat (Re, Im) view of the 8x4 complement basis:
    row 4b + c is dX = P e_b e_c^T, row 16 + 4b + c is i P e_b e_c^T, as
    (Re X, Im X), and row 32 + i is the log-weight i."""
    index = np.zeros((36, 68), dtype=np.intp)
    b, c, x = np.indices((4, 4, DIM))
    row, col, re = 4 * b + c, 4 * x + c, 2 + 2 * (4 * x + b)
    index[row, col], index[row, 32 + col] = re, re + 1
    index[16 + row, col], index[16 + row, 32 + col] = 65 + re, re
    index[32 + np.arange(4), 64 + np.arange(4)] = 1
    return index


_BASIS_INDEX = _basis_index()


class _Frame(NamedTuple):
    """The frame half of an evaluation: what depends only on theta[:64] and
    the column-matching reference. Pencil quantities are in matched column
    order, one row per bipartition."""

    psi: np.ndarray          # orthonormal frame, (8, 4)
    upper: np.ndarray        # R of the frame QR, (4, 4)
    eigvals: np.ndarray      # pencil eigenvalues, (3, 4)
    eigvecs: np.ndarray      # pencil eigenvectors, (3, 4, 4)
    norms: np.ndarray        # pencil column norms before normalizing, (3, 4)
    vecs: np.ndarray         # unit pencil columns e, f, g, (3, 8, 4)
    overlap: np.ndarray      # column overlaps V^dag V per bipartition, (3, 4, 4)
    gram: np.ndarray         # Gram-determinant barriers, (3,)


class _Point(NamedTuple):
    """One evaluation: the frame half, then the candidate half, with the
    intermediates the Jacobian reuses."""

    frame: _Frame
    logw: np.ndarray         # capped log-weights, (4,)
    mhat: np.ndarray         # normalized candidate E diag(w) E^dag / norm, (8, 8)
    scale: float             # its Frobenius norm before normalizing
    coef: np.ndarray         # 2|13 and 3|12 projector coefficients, (2, 4)
    residuals: np.ndarray    # (132,)

    @property
    def payload(self) -> tuple:     # psi, logw, e, f, g
        return self.frame.psi, self.logw, *self.frame.vecs


class _CompatibilityResidual:
    """Residual whose zeros are subspaces carrying a rank-4 positive
    combination of the 1|23 product basis that is simultaneously a
    combination of the product bases of the other two bipartitions.

    Parameters are a raw 8x4 frame X (orthonormalized by QR) plus four
    bounded log-weights, 68 reals. The candidate is M = E diag(w) E^dag over
    the unit 1|23 pencil columns E, normalized to unit Frobenius norm. Its
    distance from the span of the projectors f_j f_j^dag (and likewise g) is
    the leftover M - sum_j c_j f_j f_j^dag, with c solving the 4x4 Gram
    system |F^dag F|^2 c = diag(F^dag M F); each leftover contributes its 64
    hermitian_basis() coordinates. Barrier components keep the search off
    the degenerate strata (collapsing weights, coinciding product vectors,
    rank drop) whose zeros would otherwise dominate.

    The residual sees the frame only through its span (pencil columns move
    covariantly with the frame and enter through projectors and overlap
    moduli), so the 32 vertical directions dX = psi W are null. _jacobian
    differentiates along the other 36, orthonormal in theta: dX = P Z, with
    P an orthonormal basis of span(psi)^perp and Z complex 4x4, and the four
    log-weights. All four stay: the weight scaling M's normalization ignores
    is a common shift of theta[64:] only where the tanh cap acts equally.

    _evaluate evaluates one theta (68,); accept recomputes only the candidate
    half of an evaluation (_Point, by _weigh). The instance holds only the
    column-matching reference.
    """

    def __init__(self):
        # matched pencil columns (3, 8, 4) of the last reference point
        self.reference: np.ndarray | None = None

    def accept(self, point: _Point, theta: np.ndarray) -> _Point:
        """The point at theta (68,), point with other log-weights, whose columns
        become the reference; not degenerate, for its frame half is point's."""
        self.reference = point.frame.vecs
        return _weigh(point.frame, theta)

    def _evaluate(self, theta: np.ndarray, update_reference: bool) -> _Point | None:
        """The point at theta (68,), or None when it is degenerate: a
        degenerate pencil, a column norm below 1e-10, or a singular projector
        Gram matrix. update_reference takes its columns as the reference for
        column matching."""
        psi, upper = np.linalg.qr((theta[:32] + 1j * theta[32:64]).reshape(DIM, 4))
        pencils = _pencil_eigs(psi[_TOP_ROWS], psi[_BOTTOM_ROWS])
        if pencils is None:
            return None
        eigvals, eigvecs = pencils
        phis = psi @ eigvecs
        norms = np.linalg.norm(phis, axis=-2)
        if norms.min() < 1e-10:
            return None
        vecs = phis / norms[:, None, :]
        if self.reference is not None:
            vecs, norms, eigvals, eigvecs = _matched_columns(vecs, norms, eigvals, eigvecs,
                                                             self.reference)
        if update_reference:
            self.reference = vecs
        overlap = _adjoint(vecs) @ vecs
        det = np.maximum(np.linalg.det(overlap).real, 1e-300)
        gram = 0.5 * np.maximum(0.0, _GRAM_LOG_FLOOR - np.log10(det))
        return _weigh(_Frame(psi, upper, eigvals, eigvecs, norms, vecs, overlap, gram), theta)


def _weigh(frame: _Frame, theta: np.ndarray) -> _Point | None:
    """The candidate half at theta's log-weights; None for a singular Gram system."""
    logw = _WEIGHT_CAP * np.tanh(theta[64:] / _WEIGHT_CAP)
    e, others = frame.vecs[0], frame.vecs[1:]
    mats = (e * np.exp(logw)) @ _adjoint(e)
    scale = np.linalg.norm(mats, axis=(-2, -1))
    mhat = mats / scale
    rhs = np.einsum("kaj,kaj->kj", others.conj(), mhat @ others).real
    try:
        coef = np.linalg.solve(np.abs(frame.overlap[1:]) ** 2, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        return None
    left = mhat - (others * coef[:, None, :]) @ _adjoint(others)
    ev4 = np.maximum(np.abs(np.linalg.eigvalsh(mhat)[4]), 1e-300)
    rank_barrier = 0.5 * np.maximum(0.0, np.log10(_RANK_FLOOR) - np.log10(ev4))
    residuals = np.concatenate([mat_to_coords(left).ravel(), frame.gram, [rank_barrier]])
    return _Point(frame, logw, mhat, scale, coef, residuals)


def _jacobian(point: _Point) -> tuple[np.ndarray, np.ndarray]:
    """(J, basis) at point: the rows of basis (36, 68) are the directions
    in theta, and J = dr/ds (m, 36) along them, so a step s moves theta
    by s @ basis. Tangents carry the bipartition first.

    Raises LinAlgError when the derivative of a pencil eigenvector is not
    trustworthy: when min |l_i - l_j| / max |l_k| over the eigenvalues l
    of each pencil is below _PENCIL_GAP_FLOOR (the derivative divides by
    l_j - l_i), or when a matrix it inverts (R of the frame, B V of a
    pencil (A, B) with eigenvectors V, a Gram matrix) is singular.
    """
    frame = point.frame
    psi, vecs, eigvals, eigvecs = frame.psi, frame.vecs, frame.eigvals, frame.eigvecs
    gaps = eigvals[:, None, :] - eigvals[:, :, None]        # l_j - l_i
    rel_gap = (np.abs(gaps[:, _OFF_DIAGONAL]).min(axis=1) / np.abs(eigvals).max(axis=1)).min()
    if not rel_gap >= _PENCIL_GAP_FLOOR:
        raise np.linalg.LinAlgError(f"relative pencil eigenvalue gap {rel_gap:.1e}")

    # X + t dX = (psi + t dX R^-1) R and only the span matters, so the
    # step dX = P Z moves psi by P Z R^-1. For a pencil (A, B) of rows of
    # psi, C = B^-1 A = V L V^-1 and Phi = psi V:
    # V^-1 dC V = U (P_A Z Y - P_B Z Y L), with U = (B V)^-1, Y = R^-1 V
    # and P_A, P_B the rows of P in A and B; dV = V (F o V^-1 dC V) with
    # F_ij = 1 / (l_j - l_i); and dPhi = P Z Y + Phi (F o V^-1 dC V).
    # For Z = e_b e_c^T this factorizes as dPhi[x, j] = K[x, b, j] Y[c, j],
    # and along i Z, dPhi moves i times as far: the 16 complex directions
    # Z give all 32 real ones.
    perp = np.linalg.qr(psi, mode="complete")[0][:, 4:]
    inv_gaps = _OFF_DIAGONAL / (gaps + _IDENTITY)
    phis = psi @ eigvecs
    y_mat = np.linalg.solve(frame.upper, eigvecs)
    u_split = np.linalg.solve(phis[_PENCILS, _BOTTOM_ROWS],
                              perp[_SPLIT_ROWS].reshape(3, 4, 8))   # [U P_A, U P_B]
    inner = inv_gaps[:, :, None, :] * (u_split[..., :4, None] - eigvals[:, None, None, :]
                                       * u_split[..., 4:, None])
    k_mat = perp[:, :, None] + (phis @ inner.reshape(3, 4, 16)).reshape(3, DIM, 4, 4)

    # The unit columns v = phi / |phi| move along s Z, s = 1 or i, by
    # dv_j = (dphi_j - v_j Re(v_j^dag dphi_j)) / |phi_j| = a_cj K_bj - rho_bcj v_j,
    # with a_cj = s Y_cj / |phi_j| and rho_bcj = Re(a_cj v_j^dag K_bj): one
    # complex v_j^dag K_bj serves both. dv is never formed; its products
    # with W = V and W = mhat V are built from K^dag W and V^dag W.
    logw, mhat, coef = point.logw, point.mhat, point.coef
    w_mat = np.concatenate([vecs, mhat @ vecs], axis=2)             # W = [V, mhat V]
    kdag_w = (_adjoint(k_mat.reshape(3, DIM, 16)) @ w_mat).reshape(3, 4, 4, 8)
    vdag_w = _adjoint(vecs) @ w_mat
    y_unit = y_mat / frame.norms[:, None, :]
    a_dir = _PHASES * y_unit[:, None]                                 # (3, s, c, j)
    radial = kdag_w[:, None, :, None, _COLS, _COLS].conj() * a_dir[:, :, None]
    rho = radial.real                                                # (3, s, b, c, j)
    # dv^dag W for W = [V, mhat V], one row per direction: (3, 32, 4, 8)
    dvdag_w = (a_dir.conj()[:, :, None, :, :, None] * kdag_w[:, None, :, None]
               - rho[..., None] * vdag_w[:, None, None, None]).reshape(3, 32, 4, 8)

    # Everything else is in hermitian_basis() coordinates, where the trace
    # form Tr(A B) of Hermitian matrices is a dot product. A frame
    # direction moves the product V D V^dag of a bipartition's columns by
    # H + H^dag, H = dV D V^dag = sum_j d_j a_cj K_bj v_j^dag - d_j rho_bcj v_j v_j^dag:
    # D = diag(w) for the candidate M = E diag(w) E^dag, diag(c) for the
    # fitted combinations of the other two. The coordinates read only the
    # upper triangle of H + H^dag. The log-weights move only M, through
    # the tanh cap: dw_i = w_i (1 - (logw_i / cap)^2).
    weights = np.exp(logw)
    diag = np.concatenate([weights[None], coef])
    # K_bj v_j^dag at the upper entries and at their mirrors: (3, j, b, 72)
    mirrored = (k_mat.transpose(0, 3, 2, 1)[..., _MIRRORED_ROW]
                * np.swapaxes(vecs.conj(), 1, 2)[:, :, None, _MIRRORED_COL])
    upper = ((diag[:, None, None] * a_dir).reshape(3, 8, 4)
             @ mirrored.reshape(3, 4, -1)).reshape(3, 2, 4, 4, 72)  # (3, s, c, b, 72)
    upper = np.swapaxes(upper[..., :36] + upper[..., 36:].conj(), 2, 3)
    projs = _projector_coords(vecs)                                   # (3, 4, 64)
    moved = (_upper_to_coords(upper).reshape(3, 32, 64)
             - 2.0 * (diag[:, None, None, None] * rho).reshape(3, 32, 4) @ projs)
    dm = np.concatenate([moved[0], (weights * (1.0 - (logw / _WEIGHT_CAP) ** 2))[:, None]
                         * projs[0]])
    # M's normalization: mhat = M / |M|, d|M| = <mhat, dM>
    mhat_coords = mat_to_coords(mhat)
    dmhat = (dm - (dm @ mhat_coords)[:, None] * mhat_coords) / point.scale

    # the leftovers mhat - F diag(c) F^dag, with |F^dag F|^2 c = diag(F^dag mhat F);
    # d|F^dag F|^2 = 2 (T + T^T) with T = Re(conj(F^dag F) o dF^dag F)
    overlap = frame.overlap[1:]
    half_dgram = (overlap.conj()[:, None] * dvdag_w[1:, :, :, :4]).real
    drhs = dmhat @ np.swapaxes(projs[1:], 1, 2)
    dgram_coef = ((half_dgram + np.swapaxes(half_dgram, 2, 3)).reshape(2, -1, 4)
                  @ coef[:, :, None]).reshape(2, 32, 4)
    drhs[:, :32] += 2.0 * (dvdag_w[1:, :, _COLS, 4 + _COLS].real - dgram_coef)
    dcoef = drhs @ np.swapaxes(np.linalg.inv(np.abs(overlap) ** 2), 1, 2)
    dleft = dmhat - dcoef @ projs[1:]
    dleft[:, :32] -= moved[1:]
    jac = [np.swapaxes(dleft, 1, 2).reshape(-1, 36)]

    # the barriers, only where active: d ln det G = 2 Re Tr(G^-1 V^dag dV)
    r = point.residuals
    gram_active = r[128:131] > 0
    dlogdet = np.zeros((3, 36))
    if gram_active.any():
        # V^dag dV is the adjoint of dV^dag V
        g_inv = np.linalg.inv(frame.overlap[gram_active])
        dlogdet[gram_active, :32] = 2.0 * np.einsum(
            "kij,ktij->kt", g_inv, dvdag_w[gram_active, :, :, :4].conj()).real
    jac.append(-0.5 * dlogdet / np.log(10.0))
    drank = np.zeros((1, 36))
    if r[-1] > 0:
        w, u = np.linalg.eigh(mhat)
        dlam = dmhat @ mat_to_coords(np.outer(u[:, 4], u[:, 4].conj()))
        drank[0] = -0.5 * dlam / (w[4] * np.log(10.0))
    jac.append(drank)
    flat_perp = np.ascontiguousarray(perp).view(float).ravel()
    basis = np.concatenate([[0.0, 1.0], flat_perp, -flat_perp])[_BASIS_INDEX]
    return np.concatenate(jac), basis


# how a restart of compatible_subspace_search ends
_RESTART_ENDS = ("converged", "stalled", "capped", "jacobian_refused", "no_decrease",
                 "degenerate_start")


class CompatibilitySearch(NamedTuple):
    """Outcome of compatible_subspace_search, with f at index 1.

    restart_ends counts the restarts run by how they ended (_RESTART_ENDS):
    converged below _SEARCH_F_TARGET; stalled (the stall rule); capped after
    _SEARCH_MAX_ITERATIONS iterations; jacobian_refused; no_decrease, when no
    damped trial lowered f; degenerate_start, when the start point could not
    be evaluated. Only a converged restart counts as success.
    """

    payload: tuple | None    # psi, logw, e, f, g at the best restart's last point
    f: float                 # below _SEARCH_F_TARGET on success
    restart: int | None      # the restart that produced the payload
    jacobians: int           # Jacobians asked for, over all restarts
    evaluations: int         # full residual evaluations: starts and trial points
    restart_ends: dict[str, int]


def _stalled(history: list[float]) -> bool:
    """Whether f, the values at the points reached so far, fell by less than
    _STALL_MIN_DECADES over the last _STALL_WINDOW iterations, from
    iteration _STALL_FROM on."""
    k = len(history) - 1
    return (k >= _STALL_FROM
            and np.log10(history[k - _STALL_WINDOW]) - np.log10(history[k]) < _STALL_MIN_DECADES)


def compatible_subspace_search(rng: np.random.Generator,
                               start_frame: np.ndarray | None = None) -> CompatibilitySearch:
    """Levenberg-damped search for a subspace carrying a positive combination
    of its product vectors in all three bipartitions, at most
    _SEARCH_RESTARTS (2) restarts of at most _SEARCH_MAX_ITERATIONS (30)
    iterations.

    Each iteration differentiates the current point along 36 directions
    (_jacobian), solves the 36x36 damped normal
    equations and maps the step back to the 68 raw parameters. Trials are
    single-point evaluations; recentring an accepted trial's log-weights
    reuses its frame half (accept). No Jacobian is taken where no step
    follows. A restart ends when f falls below _SEARCH_F_TARGET, when it has
    stalled (from iteration 10 on, f fell by less than a factor of 2 over the
    last 4 iterations; checked before the Jacobian), at the iteration cap,
    when no trial decreases f, or when the Jacobian is refused; only the
    first counts as converged (CompatibilitySearch.restart_ends). Restart 0
    starts from start_frame when one is given.
    """
    best_payload, best_f, best_restart = None, np.inf, None
    jacobians = evaluations = 0
    ends = dict.fromkeys(_RESTART_ENDS, 0)
    for restart in range(_SEARCH_RESTARTS):
        residual = _CompatibilityResidual()
        raw = (rng.standard_normal(64) if start_frame is None or restart
               else np.concatenate([start_frame.real.ravel(), start_frame.imag.ravel()]))
        theta = np.concatenate([raw, np.zeros(4)])
        point = residual._evaluate(theta, True)
        evaluations += 1
        if point is None:
            ends["degenerate_start"] += 1
            continue
        f = float(point.residuals @ point.residuals)
        history = [f]
        damping = 1e-6
        end = "capped"
        for _ in range(_SEARCH_MAX_ITERATIONS):
            if f < _SEARCH_F_TARGET:
                break
            if _stalled(history):
                end = "stalled"
                break
            jacobians += 1
            try:
                jac, basis = _jacobian(point)
            except np.linalg.LinAlgError:
                end = "jacobian_refused"
                break
            normal = jac.T @ jac
            rhs = -jac.T @ point.residuals
            for _ in range(25):
                try:
                    step = np.linalg.solve(normal + damping * np.eye(len(rhs)), rhs)
                except np.linalg.LinAlgError:
                    damping *= 10.0
                    continue
                trial_theta = theta + step @ basis
                trial = residual._evaluate(trial_theta, False)
                evaluations += 1
                if trial is not None and float(trial.residuals @ trial.residuals) < f:
                    theta = trial_theta
                    theta[64:] -= theta[64:].mean()
                    point = residual.accept(trial, theta)
                    f = float(point.residuals @ point.residuals)
                    history.append(f)
                    damping = max(damping / 5.0, 1e-10)
                    break
                damping *= 7.0
            else:
                end = "no_decrease"
                break
        ends["converged" if f < _SEARCH_F_TARGET else end] += 1
        if f < best_f:
            best_payload, best_f, best_restart = point.payload, f, restart
        if best_f < _SEARCH_F_TARGET:
            break
    return CompatibilitySearch(best_payload, best_f, best_restart, jacobians, evaluations, ends)


@dataclass
class BiseparableConstruction:
    """Outcome of the randomized biseparable construction: the state and its
    triple, with attempt bookkeeping for statistics."""

    state: HermitianOperator
    triple: BiseparableTriple
    attempts: int
    classification: str
    singular_values: tuple[float, float]
    # rejected attempts by reason (see _REJECTIONS); they sum to attempts - 1
    rejections: dict[str, int]
    # the accepted search started from a random isotropic subspace, not a random frame
    isotropic_start: bool
    # the work of all its compatibility searches, and how their restarts
    # ended (CompatibilitySearch)
    jacobians: int
    evaluations: int
    restart_ends: dict[str, int]

    @property
    def sign_accepted(self) -> int:
        """Attempts past the sign gate; every attempt draws a sign pattern first."""
        return self.attempts - self.rejections["sign_gate"]


# why construct_biseparable turns an attempt down, in the order it checks
_REJECTIONS = ("sign_gate", "search_not_converged", "pin_failed", "pin_moved",
               "profile", "nonextremal", "triple", "dependence")


def _dependence_singular_values(triple: BiseparableTriple) -> tuple[float, float]:
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
    (sign_accepted / attempts tracks the rate), and only those run the
    positive-weight compatibility search. One attempt in 16
    starts from a random isotropic subspace, which is where the
    vanishing-invariant (type II) solutions live; `isotropic_start` records
    whether the accepted state's search began there. Candidates are pinned to
    the exact rank-4444 manifold before validation; outputs are extremal and
    entangled. Every turned-down attempt is counted under its reason in
    `rejections`, and every restart of its searches under how it ended in
    `restart_ends`. Raises MaxIterations after 400 attempts.
    """
    rejections = dict.fromkeys(_REJECTIONS, 0)
    jacobians = evaluations = 0
    restart_ends = dict.fromkeys(_RESTART_ENDS, 0)
    problem = RankTargetProblem((4, 4, 4, 4))
    for attempts in range(1, _CONSTRUCTION_MAX_ATTEMPTS + 1):
        raw = rng.integers(0, 2, size=4) * 2 - 1
        signs = raw if raw[0] > 0 else -raw
        start = isotropic_subspace(rng).psi if rng.random() < 1.0 / 16.0 else None
        if not np.all(signs > 0):
            rejections["sign_gate"] += 1
            continue
        search = compatible_subspace_search(rng, start_frame=start)
        jacobians += search.jacobians
        evaluations += search.evaluations
        for end, count in search.restart_ends.items():
            restart_ends[end] += count
        if search.payload is None or search.f > _SEARCH_F_TARGET:
            rejections["search_not_converged"] += 1
            continue
        psi, logw, pe, pf, pg = search.payload
        candidate = HermitianOperator(_weighted_projector_sum(pe, np.exp(logw))).normalized()
        x, f_pin, _ = refine_block(problem, mat_to_coords(candidate.mat),
                                   f_target=1e-24, max_iters=40)
        if f_pin > 1e-20:
            rejections["pin_failed"] += 1
            continue
        state = rho_state(x)
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
        if not is_extremal(state):
            # a nonextremal rank-4 PPT state is separable, outside this target
            rejections["nonextremal"] += 1
            continue
        try:
            triple = biseparable_triple(state)
        except ConstructionError:
            rejections["triple"] += 1
            continue
        s1, s2 = _dependence_singular_values(triple)
        if max(s1, s2) > 1e-9:
            rejections["dependence"] += 1
            continue
        return BiseparableConstruction(
            state=state, triple=triple, attempts=attempts, classification=classify_type(state),
            singular_values=(s1, s2), rejections=rejections,
            isotropic_start=start is not None and search.restart == 0,
            jacobians=jacobians, evaluations=evaluations, restart_ends=restart_ends,
        )
    raise MaxIterations(
        f"no accepted construction within {_CONSTRUCTION_MAX_ATTEMPTS} attempts; "
        f"rejections {rejections}")


__all__ = [
    "BiseparableConstruction", "BiseparableTriple", "CompatibilitySearch",
    "FamilyDimension", "TypeIIParams", "TypeIParams", "biseparable_triple",
    "classify_type", "compatible_subspace_search", "construct_biseparable",
    "construct_type1", "construct_type2", "family_dimension", "isotropic_subspace",
    "quadruple_parameters", "type2_product_bases", "type2_pt_witness", "type2_weights",
]
