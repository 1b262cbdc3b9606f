"""Core types and exact tensor operations on the three-qubit (8-dimensional) space.

Index convention: basis state |i1 i2 i3> sits at index 4*i1 + 2*i2 + i3, so
subsystem 1 is the most significant bit. All density matrices, projectors and
search directions are 8x8 complex Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import NotAState, SingularFactor

DIM = 8

# 2x2 Levi-Civita symbol; epsilon @ epsilon = -identity
EPSILON = np.array([[0.0, 1.0], [-1.0, 0.0]])

PAULI = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def kron3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.kron(np.kron(x, y), z)


class HermitianOperator:
    """An 8x8 complex Hermitian matrix.

    Construction symmetrizes via (M + M^dagger)/2 rather than rejecting,
    because iterative searches accumulate asymmetry at rounding level.
    Instances are immutable.
    """

    __slots__ = ("mat",)

    def __init__(self, mat) -> None:
        m = np.array(mat, dtype=complex)
        if m.shape != (DIM, DIM):
            raise ValueError(f"expected an 8x8 matrix, got shape {m.shape}")
        m = 0.5 * (m + m.conj().T)
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)

    def __setattr__(self, name, value):
        raise AttributeError("HermitianOperator is immutable")

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def normalized(self) -> "HermitianOperator":
        tr = self.trace()
        if abs(tr) < 1e-300:
            raise NotAState("trace is zero, cannot normalize")
        return HermitianOperator(self.mat / tr)

    def __repr__(self) -> str:
        return f"HermitianOperator(trace={self.trace():.6g})"


def _as_matrix(rho) -> np.ndarray:
    """Accept a HermitianOperator or a plain 8x8 array."""
    if isinstance(rho, HermitianOperator):
        return rho.mat
    return np.asarray(rho, dtype=complex)


# ---------------------------------------------------------------------------
# partial transpositions
# ---------------------------------------------------------------------------

def ptranspose_mat(mat: np.ndarray, subsystem: int) -> np.ndarray:
    """Partial transpose on one subsystem (1, 2 or 3) of an 8x8 matrix, or of
    every matrix in a (..., 8, 8) stack.

    Implemented as an exact entry permutation: each 8x8 matrix is viewed as a
    (2,2,2,2,2,2) tensor and the row/column axes of the chosen subsystem are
    swapped. subsystem=0 returns a copy of the input.
    """
    if subsystem == 0:
        return np.array(mat)
    if subsystem not in (1, 2, 3):
        raise ValueError(f"subsystem must be 0, 1, 2 or 3, got {subsystem}")
    m = np.asarray(mat)
    lead = m.shape[:-2]
    axes = list(range(len(lead) + 6))
    k = len(lead) + subsystem - 1
    axes[k], axes[k + 3] = axes[k + 3], axes[k]
    return m.reshape(*lead, 2, 2, 2, 2, 2, 2).transpose(axes).reshape(*lead, DIM, DIM)


def partial_transpose(rho, subsystem: int) -> HermitianOperator:
    """Partial transpose on subsystem i; an involution that preserves Hermiticity."""
    return HermitianOperator(ptranspose_mat(_as_matrix(rho), subsystem))


def all_ptransposes(mat: np.ndarray) -> list[np.ndarray]:
    """[rho, rho^T1, rho^T2, rho^T3]; the other four variants share their spectra."""
    m = np.asarray(mat)
    return [np.array(m)] + [ptranspose_mat(m, k) for k in (1, 2, 3)]


def transpose_spectra(mat: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of rho, rho^T1, rho^T2, rho^T3 as a (4, 8) array.

    One stacked eigvalsh call; bit-identical to calling eigvalsh per transpose.
    """
    return np.linalg.eigvalsh(np.stack(all_ptransposes(mat)))


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def split_product(y: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Split tensor product taking out the middle factor: x(x)y(x)z = y (x)_s (x(x)z).

    For y=(c,d) and v=(p,q,r,s) the result is (cp,cq,dp,dq,cr,cs,dr,ds).
    """
    y = np.asarray(y).reshape(2)
    v = np.asarray(v).reshape(4)
    out = np.empty(8, dtype=np.result_type(y.dtype, v.dtype, float))
    out[0:4] = np.kron(y, v[0:2])
    out[4:8] = np.kron(y, v[2:4])
    return out


def invariant_tensor_E() -> np.ndarray:
    """The antisymmetric tensor E = epsilon (x) epsilon (x) epsilon.

    Satisfies E^T = -E, E @ E = -identity, and V E V^T = E for any product of
    unit-determinant 2x2 factors V = V1 (x) V2 (x) V3.
    """
    return kron3(EPSILON, EPSILON, EPSILON)


# ---------------------------------------------------------------------------
# Pauli basis expansion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _pauli_triple_basis() -> np.ndarray:
    basis = np.zeros((4, 4, 4, DIM, DIM), dtype=complex)
    for a in range(4):
        for b in range(4):
            for c in range(4):
                basis[a, b, c] = kron3(PAULI[a], PAULI[b], PAULI[c])
    basis.flags.writeable = False
    return basis


def pauli_decompose(a) -> np.ndarray:
    """The real (4, 4, 4) coefficients a[l,m,n] = Tr(A sigma_l (x) sigma_m (x) sigma_n) / 8
    of the three-fold Pauli expansion of a Hermitian A, read-only."""
    mat = _as_matrix(a)
    coeffs = np.einsum("abcij,ji->abc", _pauli_triple_basis(), mat).real / DIM
    coeffs.flags.writeable = False
    return coeffs


# ---------------------------------------------------------------------------
# rank profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PptProfile:
    """Ranks of rho and its three partial transposes, with the rank-cut margins.

    margins[i] is the largest eigenvalue magnitude discarded as zero for
    transpose i; small margins mean the rank cut was unambiguous.
    """

    ranks: tuple[int, int, int, int]
    margins: tuple[float, float, float, float]
    tolerance: float
    is_ppt: bool
    # records written before the minima were stored read as zeros
    min_eigenvalues: tuple[float, float, float, float] = (0.0,) * 4

    @property
    def sorted_ranks(self) -> tuple[int, int, int, int]:
        return tuple(sorted(self.ranks))

    @property
    def key(self) -> str:
        return "".join(str(m) for m in self.sorted_ranks)

    @property
    def square_sum(self) -> int:
        return int(sum(m * m for m in self.ranks))


def ppt_profile(rho, tolerances: Tolerances = DEFAULT) -> PptProfile:
    """Rank profile (m0,m1,m2,m3) of rho, rho^T1, rho^T2, rho^T3.

    The input is normalized to unit trace first; raises NotAState if rho itself
    has an eigenvalue below -psd_tol after normalization. Rank counts
    eigenvalues exceeding rank_tol * (largest magnitude); is_ppt requires every
    eigenvalue of every transpose to be >= -psd_tol.
    """
    tol, psd_tol = tolerances.rank_tol, tolerances.psd_tol
    mat = _as_matrix(rho)
    tr = float(np.trace(mat).real)
    if abs(tr) < 1e-300:
        raise NotAState("matrix has zero trace")
    spectra = transpose_spectra(mat / tr)
    mags = np.abs(spectra)
    kept = mags > tol * mags.max(axis=1, keepdims=True)
    ranks = tuple(int(k) for k in kept.sum(axis=1))
    # the largest magnitude cut as zero, 0 when nothing was cut
    margins = tuple(float(m) for m in np.where(kept, 0.0, mags).max(axis=1))
    minima = tuple(float(m) for m in spectra.min(axis=1))

    if minima[0] < -psd_tol:
        raise NotAState(f"minimum eigenvalue {minima[0]:.3e} below -{psd_tol:.1e}")
    is_ppt = all(m >= -psd_tol for m in minima)
    return PptProfile(ranks, margins, tol, is_ppt, minima)


# ---------------------------------------------------------------------------
# local transformations
# ---------------------------------------------------------------------------

def product_transform(rho, v1: np.ndarray, v2: np.ndarray, v3: np.ndarray
                      ) -> HermitianOperator:
    """Conjugate rho by V1 (x) V2 (x) V3; raises SingularFactor on singular factors."""
    factors = [np.asarray(v, dtype=complex) for v in (v1, v2, v3)]
    for k, v in enumerate(factors, start=1):
        if abs(np.linalg.det(v)) < 1e-12:
            raise SingularFactor(f"factor {k} has |det| < 1.0e-12")
    big = kron3(*factors)
    return HermitianOperator(big @ _as_matrix(rho) @ big.conj().T)


# ---------------------------------------------------------------------------
# the Hermitian basis and coordinates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def hermitian_basis() -> np.ndarray:
    """The standard orthonormal basis of the 64-dimensional real Hermitian
    space under <A,B> = Tr(AB), read-only.

    Upper-triangle positions row by row: E_aa on the diagonal, and off it
    (E_ab + E_ba)/sqrt2 followed by i(E_ab - E_ba)/sqrt2.
    """
    val = 1.0 / np.sqrt(2)
    elements = []
    for a in range(DIM):
        diag = np.zeros((DIM, DIM), dtype=complex)
        diag[a, a] = 1.0
        elements.append(diag)
        for b in range(a + 1, DIM):
            b_re = np.zeros((DIM, DIM), dtype=complex)
            b_re[a, b] = b_re[b, a] = val
            b_im = np.zeros((DIM, DIM), dtype=complex)
            b_im[a, b], b_im[b, a] = 1j * val, -1j * val
            elements += [b_re, b_im]
    basis = np.array(elements)
    basis.flags.writeable = False
    return basis


@lru_cache(maxsize=DIM)
def coordinate_layout(n: int = DIM) -> tuple[np.ndarray, ...]:
    """The coordinates of n x n Hermitian matrices, in hermitian_basis()'s
    order when n = 8, as read-only arrays (rows, cols, upper, flat, scale).

    rows and cols list the upper-triangle entries row by row. Each diagonal
    entry gives one coordinate, its real part; each entry right of it gives
    two, its real and then its imaginary part. For each coordinate, upper
    and flat index the real view of the upper entries and of the whole
    matrix, and scale is 1 on the diagonal and 2 (1/sqrt2) off it: for
    Hermitian M, Tr(B_k M) = 2 Re(B_ab conj(M_ab)) off the diagonal.
    """
    rows, cols = np.triu_indices(n)
    diagonal = rows == cols
    entry = np.repeat(np.arange(rows.size), np.where(diagonal, 1, 2))
    # 1 on the second coordinate of an entry, its imaginary part
    part = np.concatenate([[0], entry[1:] == entry[:-1]]).astype(np.intp)
    upper = 2 * entry + part
    flat = 2 * (n * rows[entry] + cols[entry]) + part
    scale = np.where(diagonal[entry], 1.0, 2.0 * (1.0 / np.sqrt(2)))
    layout = rows, cols, upper, flat, scale
    for array in layout:
        array.flags.writeable = False
    return layout


def mat_to_coords(mats: np.ndarray) -> np.ndarray:
    """Coordinates Tr(B_k M) of n x n Hermitian matrices, (..., n, n) ->
    (..., n^2), read by index from their upper triangles; hermitian_basis()
    coordinates when n = 8."""
    mats = np.asarray(mats)
    n = mats.shape[-1]
    *_, flat_index, scale = coordinate_layout(n)
    flat = np.ascontiguousarray(mats, dtype=complex).view(float)
    return flat.reshape(*mats.shape[:-2], 2 * n * n)[..., flat_index] * scale


def upper_to_coords(entries: np.ndarray) -> np.ndarray:
    """hermitian_basis() coordinates (..., 64) of Hermitian matrices given by
    their upper-triangle entries (..., 36), in coordinate_layout()'s order."""
    *_, upper, _, scale = coordinate_layout()
    return np.ascontiguousarray(entries).view(float)[..., upper] * scale


def coords_to_mat(x: np.ndarray) -> np.ndarray:
    """The matrices sum_k x_k B_k over hermitian_basis(), (..., 64) -> (..., 8, 8)."""
    return np.einsum("...j,jab->...ab", np.asarray(x, dtype=float), hermitian_basis())


@lru_cache(maxsize=1)
def basis_ptransposes() -> np.ndarray:
    """hermitian_basis() and its partial transposes on subsystems 1, 2 and 3,
    (4, 64, 8, 8), read-only."""
    pts = np.stack([ptranspose_mat(hermitian_basis(), i) for i in range(4)])
    pts.flags.writeable = False
    return pts


# ---------------------------------------------------------------------------
# random states
# ---------------------------------------------------------------------------

def random_density(rng: np.random.Generator) -> HermitianOperator:
    """Random full-rank density matrix G G^dagger / Tr, Ginibre-induced."""
    g = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    m = g @ g.conj().T
    return HermitianOperator(m / np.trace(m).real)


# random PPT states sit at this fraction of the largest PPT mixing weight
PPT_INTERIOR = 0.95


def max_ppt_weight(sigma: np.ndarray) -> float:
    """Largest w in [0, 1] with (1 - w) 1/8 + w sigma PPT, for unit-trace sigma.

    The identity commutes with every partial transpose, so the mixture's
    transposes have eigenvalues (1 - w)/8 + w lambda; the smallest vanishes
    at w = 1 / (1 - 8 lambda_min).
    """
    lam_min = transpose_spectra(sigma).min()
    return 1.0 if lam_min >= 0.0 else 1.0 / (1.0 - DIM * lam_min)


def random_ppt_state(rng: np.random.Generator) -> HermitianOperator:
    """Random PPT state: a Ginibre state mixed toward 1/8 until all transposes
    are positive, backed off from the boundary by the factor PPT_INTERIOR."""
    sigma = random_density(rng).mat
    w = PPT_INTERIOR * max_ppt_weight(sigma)
    return HermitianOperator((1 - w) * np.eye(DIM) / DIM + w * sigma)


# ---------------------------------------------------------------------------
# product vectors
# ---------------------------------------------------------------------------

def rank1_split(vec: np.ndarray, left_dim: int, right_dim: int,
                tol: float = 1e-8) -> tuple[np.ndarray, np.ndarray] | None:
    """Factor vec as left (x) right if its (left_dim, right_dim) reshape is rank one."""
    m = np.asarray(vec, dtype=complex).reshape(left_dim, right_dim)
    u, s, vt = np.linalg.svd(m)
    if s[0] == 0.0 or s[1] > tol * s[0]:
        return None
    left = u[:, 0]
    mags = np.abs(left)
    idx = int(np.argmax(mags > 1e-12 * mags.max()))
    phase = left[idx] / mags[idx]
    left = left * phase.conjugate()
    right = m.T @ left.conjugate()
    return left, right


def factor_product_vector(psi: np.ndarray, tol: float = 1e-8
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Factors (x, y, z) of psi = x (x) y (x) z, or None if psi is not a
    product vector."""
    psi = np.asarray(psi, dtype=complex).reshape(DIM)
    first = rank1_split(psi, 2, 4, tol)
    if first is None:
        return None
    x, rest = first
    second = rank1_split(rest, 2, 2, tol)
    if second is None:
        return None
    return x, *second


def projector(psi: np.ndarray) -> HermitianOperator:
    """Unnormalized rank-one projector psi psi^dagger."""
    v = np.asarray(psi, dtype=complex).reshape(DIM)
    return HermitianOperator(np.outer(v, v.conj()))


__all__ = [
    "DIM",
    "EPSILON",
    "PAULI",
    "PPT_INTERIOR",
    "HermitianOperator",
    "PptProfile",
    "all_ptransposes",
    "basis_ptransposes",
    "coordinate_layout",
    "coords_to_mat",
    "factor_product_vector",
    "hermitian_basis",
    "invariant_tensor_E",
    "kron3",
    "mat_to_coords",
    "max_ppt_weight",
    "partial_transpose",
    "pauli_decompose",
    "ppt_profile",
    "product_transform",
    "projector",
    "ptranspose_mat",
    "random_density",
    "random_ppt_state",
    "rank1_split",
    "split_product",
    "transpose_spectra",
    "upper_to_coords",
]
