"""Independent checks of the states the benchmark's workloads produce.

Nothing here imports pptatlas. Partial transposes come from explicit index
bookkeeping, the Hermitian basis and the invariant tensor E are built here,
and every yes/no decision is read off a gap that the check reports. A check
raises CheckFailed with the measured numbers when its input is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DIM = 8
RANK_RTOL = 1e-8     # |eigenvalue| at or below this share of the largest is zero
RANK_GAP = 1e3       # smallest kept / largest discarded |eigenvalue| for a clear cut
PSD_TOL = 1e-9       # eigenvalues above -PSD_TOL count as nonnegative
FACE_RTOL = 1e-6     # singular values at or below this share of the largest are null
FACE_GAP = 1e3       # clear gap between the null and the nonnull singular values
PRODUCT_RTOL = 1e-6  # s1/s0 of a reshape at or below this is rank one
REBUILD_TOL = 1e-8   # max entry error of a rebuilt state
I2_ZERO = 1e-10      # |I2| / Tr^2 at or below this counts as vanishing

# which qubit a bipartition splits off (qubits are numbered 1..3, qubit 1 is
# the most significant bit of the 3-bit basis index)
BIPARTITION_QUBIT = {"1|23": 1, "2|13": 2, "3|12": 3}


class CheckFailed(Exception):
    """An output of the program failed an independent check."""


def _bits(index: int) -> list[int]:
    return [(index >> 2) & 1, (index >> 1) & 1, index & 1]


def _index(bits: list[int]) -> int:
    return 4 * bits[0] + 2 * bits[1] + bits[2]


def _transpose_permutation(subsystem: int) -> np.ndarray:
    """Flat-index map of the partial transpose on one qubit.

    out[r', c'] = mat[r, c], where r' and c' are r and c with the bits of the
    chosen qubit exchanged: the same bookkeeping as a six-fold loop over
    (i1, i2, i3, j1, j2, j3), done once and stored as a gather index.
    """
    perm = np.empty(DIM * DIM, dtype=np.intp)
    k = subsystem - 1
    for r in range(DIM):
        for c in range(DIM):
            row, col = _bits(r), _bits(c)
            row[k], col[k] = col[k], row[k]
            perm[DIM * _index(row) + _index(col)] = DIM * r + c
    return perm


_PERMUTATIONS = {k: _transpose_permutation(k) for k in (1, 2, 3)}


def partial_transpose(mats: np.ndarray, subsystem: int) -> np.ndarray:
    """Partial transpose on qubit 1, 2 or 3 (0: no transpose) of an 8x8
    matrix or of every matrix in a (..., 8, 8) stack."""
    mats = np.asarray(mats)
    if subsystem == 0:
        return mats.copy()
    flat = mats.reshape(mats.shape[:-2] + (DIM * DIM,))
    return flat[..., _PERMUTATIONS[subsystem]].reshape(mats.shape)


def hermitian_basis() -> np.ndarray:
    """Orthonormal basis of the 64-dimensional real space of 8x8 Hermitian
    matrices under <A, B> = Tr(AB)."""
    out = []
    for j in range(DIM):
        b = np.zeros((DIM, DIM), dtype=complex)
        b[j, j] = 1.0
        out.append(b)
    s = 1.0 / np.sqrt(2.0)
    for j in range(DIM):
        for k in range(j + 1, DIM):
            re = np.zeros((DIM, DIM), dtype=complex)
            re[j, k] = re[k, j] = s
            im = np.zeros((DIM, DIM), dtype=complex)
            im[j, k], im[k, j] = -1j * s, 1j * s
            out += [re, im]
    return np.array(out)


_BASIS = hermitian_basis()
_BASIS_PT = [partial_transpose(_BASIS, k) for k in range(4)]

_EPS = np.array([[0.0, 1.0], [-1.0, 0.0]])
E_TENSOR = np.kron(np.kron(_EPS, _EPS), _EPS)


# ---------------------------------------------------------------------------
# spectra of the partial transposes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Profile:
    """Ranks of rho, rho^T1, rho^T2, rho^T3 with the gap behind each cut.

    gaps[i] is the smallest kept |eigenvalue| over the largest discarded one
    (infinite when nothing is discarded); kernels[i] spans the discarded
    eigenvectors of transpose i.
    """

    ranks: tuple[int, int, int, int]
    gaps: tuple[float, float, float, float]
    min_eigenvalues: tuple[float, float, float, float]
    kernels: tuple[np.ndarray, ...]

    @property
    def square_sum(self) -> int:
        return sum(m * m for m in self.ranks)


def profile(mat: np.ndarray) -> Profile:
    """Rank profile of a state, normalized to unit trace first."""
    mat = np.asarray(mat, dtype=complex)
    mat = mat / np.trace(mat).real
    ranks, gaps, minima, kernels = [], [], [], []
    for k in range(4):
        w, v = np.linalg.eigh(partial_transpose(mat, k))
        mags = np.abs(w)
        kept = mags > RANK_RTOL * mags.max()
        ranks.append(int(kept.sum()))
        dropped = mags[~kept]
        gaps.append(float(mags[kept].min() / max(dropped.max(), 1e-300))
                    if dropped.size else float("inf"))
        minima.append(float(w.min()))
        kernels.append(v[:, ~kept])
    return Profile(tuple(ranks), tuple(gaps), tuple(minima), tuple(kernels))


def check_unit_trace_hermitian(mat: np.ndarray, tol: float = 1e-10) -> None:
    mat = np.asarray(mat)
    herm = float(np.abs(mat - mat.conj().T).max())
    trace = complex(np.trace(mat))
    if herm > tol or abs(trace - 1.0) > tol:
        raise CheckFailed(f"not a unit-trace Hermitian matrix: |A - A^dag| = {herm:.2e}, "
                          f"trace = {trace:.12g}")


def check_ppt(prof: Profile) -> None:
    """Every transpose (and rho itself) has minimum eigenvalue >= -PSD_TOL."""
    worst = min(prof.min_eigenvalues)
    if worst < -PSD_TOL:
        raise CheckFailed(f"not PPT: minimum eigenvalues {prof.min_eigenvalues}")


def check_profile(prof: Profile, targets) -> None:
    """Exactly the requested ranks, each read off a clear gap."""
    targets = tuple(int(m) for m in targets)
    if prof.ranks != targets:
        raise CheckFailed(f"profile {prof.ranks} is not the requested {targets}")
    if min(prof.gaps) < RANK_GAP:
        raise CheckFailed(f"rank cut is not clear: gaps {prof.gaps}")


# ---------------------------------------------------------------------------
# face dimension
# ---------------------------------------------------------------------------

def face_dimension(mat: np.ndarray) -> tuple[int, float]:
    """Dimension of the face of the unit-trace PPT set at rho, and the gap
    behind it.

    The face is spanned by the Hermitian sigma with sigma^Ti K_i = 0 for the
    kernel K_i of each rho^Ti (rho itself included, i = 0). Each constraint
    is linear in the 64 real coordinates of sigma; the null space of the
    stacked real system holds rho, so the face dimension is the nullity
    minus one. The gap is the smallest nonnull singular value over the
    largest null one.
    """
    prof = profile(mat)
    rows = []
    for k in range(4):
        kernel = prof.kernels[k]
        if kernel.shape[1] == 0:
            continue
        block = (_BASIS_PT[k] @ kernel).reshape(len(_BASIS), -1).T
        rows += [block.real, block.imag]
    if not rows:
        return len(_BASIS) - 1, float("inf")
    s = np.linalg.svd(np.vstack(rows), compute_uv=False)
    s = np.concatenate([s, np.zeros(len(_BASIS) - s.size)])
    null = s <= FACE_RTOL * s[0]
    nullity = int(null.sum())
    if nullity == 0:
        raise CheckFailed(f"rho is not in its own face: smallest singular value {s[-1]:.2e}")
    gap = float(s[~null].min() / max(s[null].max(), 1e-300)) if (~null).any() else float("inf")
    return nullity - 1, gap


def check_extremal(mat: np.ndarray) -> None:
    """Face dimension 0, read off a clear singular-value gap."""
    dim, gap = face_dimension(mat)
    if dim != 0 or gap < FACE_GAP:
        raise CheckFailed(f"face dimension {dim} (gap {gap:.2e}), expected 0 with a clear gap")


# ---------------------------------------------------------------------------
# product vectors and decompositions
# ---------------------------------------------------------------------------

def bipartite_reshape(vec: np.ndarray, qubit: int) -> np.ndarray:
    """The 2x4 matrix of a vector in C^8 with rows indexed by one qubit and
    columns by the other two, in their natural order."""
    vec = np.asarray(vec).reshape(DIM)
    others = [q for q in (1, 2, 3) if q != qubit]
    out = np.empty((2, 4), dtype=complex)
    for n in range(DIM):
        bits = _bits(n)
        out[bits[qubit - 1], 2 * bits[others[0] - 1] + bits[others[1] - 1]] = vec[n]
    return out


def product_ratio(vec: np.ndarray, qubit: int) -> float:
    """s1 / s0 of the bipartite reshape: zero exactly for a product vector."""
    s = np.linalg.svd(bipartite_reshape(vec, qubit), compute_uv=False)
    return float(s[1] / s[0])


def check_product_vector(vec: np.ndarray, bipartition: str) -> None:
    ratio = product_ratio(vec, BIPARTITION_QUBIT[bipartition])
    if ratio > PRODUCT_RTOL:
        raise CheckFailed(f"not a product vector across {bipartition}: s1/s0 = {ratio:.2e}")


def check_pure_product_state(mat: np.ndarray) -> None:
    """Rank one with a clear gap, and its vector is a product across every cut
    (a vector that factors off each single qubit is a full product)."""
    prof = profile(mat)
    if prof.ranks[0] != 1 or prof.gaps[0] < RANK_GAP:
        raise CheckFailed(f"not a pure state: rank {prof.ranks[0]}, gap {prof.gaps[0]:.2e}")
    _, v = np.linalg.eigh(np.asarray(mat))
    for bipartition in BIPARTITION_QUBIT:
        check_product_vector(v[:, -1], bipartition)


def check_rebuild(parts: list[np.ndarray], weights, mat: np.ndarray,
                  tol: float = REBUILD_TOL) -> None:
    """Positive weights whose combination of the parts gives mat within tol."""
    weights = np.asarray(weights, dtype=float)
    if weights.min() <= 0.0:
        raise CheckFailed(f"weights are not all positive: {weights}")
    rebuilt = sum(w * np.asarray(p) for w, p in zip(weights, parts))
    err = float(np.abs(rebuilt - np.asarray(mat)).max())
    if err > tol:
        raise CheckFailed(f"weighted parts rebuild the state only to {err:.2e} (tolerance {tol:.0e})")


def check_decomposition(vectors: np.ndarray, weights, mat: np.ndarray,
                        bipartition: str) -> None:
    """Columns are product vectors across the bipartition, the weights are
    positive, and sum_i w_i v_i v_i^dag rebuilds the state."""
    vectors = np.asarray(vectors)
    for i in range(vectors.shape[1]):
        check_product_vector(vectors[:, i], bipartition)
    parts = [np.outer(vectors[:, i], vectors[:, i].conj()) for i in range(vectors.shape[1])]
    check_rebuild(parts, weights, mat)


# ---------------------------------------------------------------------------
# quadratic invariant
# ---------------------------------------------------------------------------

def quadratic_invariant(mat: np.ndarray) -> float:
    """-(1/8) Tr(rho^T E rho E) with E = eps (x) eps (x) eps."""
    mat = np.asarray(mat)
    return float((-np.trace(mat.T @ E_TENSOR @ mat @ E_TENSOR) / 8.0).real)


def check_type_label(mat: np.ndarray, label: str) -> None:
    """Type I has a positive quadratic invariant, type II a vanishing one."""
    mat = np.asarray(mat)
    ratio = quadratic_invariant(mat) / np.trace(mat).real ** 2
    expected = "II" if abs(ratio) <= I2_ZERO else "I" if ratio > 0 else None
    if label != expected:
        raise CheckFailed(f"label {label!r} but I2/Tr^2 = {ratio:.3e}")
