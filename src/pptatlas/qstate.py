"""Core types and exact tensor operations on the three-qubit (8-dimensional) space.

Index convention: basis state |i1 i2 i3> sits at index 4*i1 + 2*i2 + i3, so
subsystem 1 is the most significant bit. All density matrices, projectors and
search directions are 8x8 complex Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULT
from .errors import DegenerateDraw, NotAState, SingularFactor

DIM = 8
N_QUBITS = 3

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

    def ptranspose(self, subsystem: int) -> "HermitianOperator":
        return partial_transpose(self, subsystem)

    def transpose(self) -> "HermitianOperator":
        return HermitianOperator(self.mat.T)

    def __add__(self, other):
        return HermitianOperator(self.mat + _as_matrix(other))

    def __sub__(self, other):
        return HermitianOperator(self.mat - _as_matrix(other))

    def __mul__(self, scalar):
        return HermitianOperator(self.mat * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return HermitianOperator(self.mat / float(scalar))

    def __repr__(self) -> str:
        return f"HermitianOperator(trace={self.trace():.6g})"


def _as_matrix(rho) -> np.ndarray:
    """Accept a HermitianOperator or a plain 8x8 array."""
    if isinstance(rho, HermitianOperator):
        return rho.mat
    return np.asarray(rho, dtype=complex)


def eigh_fixed_phase(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with ascending eigenvalues and a fixed phase gauge.

    The first component of each eigenvector whose magnitude is non-negligible
    is made real and positive, so repeated runs produce identical vectors.
    """
    w, v = np.linalg.eigh(mat)
    v = np.array(v)
    for k in range(v.shape[1]):
        col = v[:, k]
        mags = np.abs(col)
        idx = int(np.argmax(mags > 1e-12 * mags.max()))
        phase = col[idx] / mags[idx]
        v[:, k] = col * phase.conjugate()
    return w, v


# ---------------------------------------------------------------------------
# partial transpositions
# ---------------------------------------------------------------------------

def ptranspose_mat(mat: np.ndarray, subsystem: int) -> np.ndarray:
    """Partial transpose of an 8x8 matrix on one subsystem (1, 2 or 3).

    Implemented as an exact entry permutation: the 8x8 matrix is viewed as a
    (2,2,2,2,2,2) tensor and the row/column axes of the chosen subsystem are
    swapped. subsystem=0 returns the input unchanged.
    """
    if subsystem == 0:
        return np.array(mat)
    if subsystem not in (1, 2, 3):
        raise ValueError(f"subsystem must be 0, 1, 2 or 3, got {subsystem}")
    t = np.asarray(mat).reshape(2, 2, 2, 2, 2, 2)
    axes = [0, 1, 2, 3, 4, 5]
    k = subsystem - 1
    axes[k], axes[k + 3] = axes[k + 3], axes[k]
    return t.transpose(axes).reshape(DIM, DIM)


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


def ptranspose_stack(stack: np.ndarray, subsystem: int) -> np.ndarray:
    """Partial transpose applied to every matrix in a (K, 8, 8) stack."""
    if subsystem == 0:
        return stack
    t = np.asarray(stack).reshape(-1, 2, 2, 2, 2, 2, 2)
    axes = [0, 1, 2, 3, 4, 5, 6]
    axes[subsystem], axes[subsystem + 3] = axes[subsystem + 3], axes[subsystem]
    return t.transpose(axes).reshape(-1, DIM, DIM)


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


@dataclass(frozen=True)
class LorentzTensor:
    """The 64 real coefficients of the three-fold Pauli expansion of a Hermitian matrix."""

    coeffs: np.ndarray  # shape (4, 4, 4), real


def pauli_decompose(a) -> LorentzTensor:
    """Coefficients a[l,m,n] = Tr(A sigma_l (x) sigma_m (x) sigma_n) / 8; real for Hermitian A."""
    mat = _as_matrix(a)
    coeffs = np.einsum("abcij,ji->abc", _pauli_triple_basis(), mat).real / DIM
    coeffs.flags.writeable = False
    return LorentzTensor(coeffs)


def pauli_reconstruct(t: LorentzTensor) -> HermitianOperator:
    mat = np.einsum("abc,abcij->ij", np.asarray(t.coeffs, dtype=float), _pauli_triple_basis())
    return HermitianOperator(mat)


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
    min_eigenvalues: tuple[float, float, float, float]

    @property
    def sorted_ranks(self) -> tuple[int, int, int, int]:
        return tuple(sorted(self.ranks))

    @property
    def key(self) -> str:
        return "".join(str(m) for m in self.sorted_ranks)

    @property
    def square_sum(self) -> int:
        return int(sum(m * m for m in self.ranks))

    @property
    def within_extremal_bound(self) -> bool:
        # 3 * 8^2 + 1 for the three-qubit system
        return self.square_sum <= 193


def ppt_profile(rho, tol: float = DEFAULT.rank_tol,
                psd_tol: float | None = None) -> PptProfile:
    """Rank profile (m0,m1,m2,m3) of rho, rho^T1, rho^T2, rho^T3.

    The input is normalized to unit trace first; raises NotAState if rho itself
    has an eigenvalue below -psd_tol after normalization. Rank counts
    eigenvalues exceeding tol * (largest magnitude); is_ppt requires every
    eigenvalue of every transpose to be >= -psd_tol.
    """
    if psd_tol is None:
        psd_tol = max(DEFAULT.psd_tol, tol * 0.1)
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


def random_unit_determinant(rng: np.random.Generator) -> np.ndarray:
    """Random 2x2 complex matrix scaled to unit determinant.

    Entries are bounded by 10 and the condition number by 8, so that
    quantities of fourth order in the transformed state stay numerically
    trustworthy; rejected draws are redrawn, and DegenerateDraw is raised
    after 100 rejections (about one draw in eleven is rejected).
    """
    for _ in range(100):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        det = np.linalg.det(g)
        if abs(det) < 1e-6:
            continue
        v = g / np.sqrt(det)
        if np.abs(v).max() <= 10.0 and np.linalg.cond(v) <= 8.0:
            return v
    raise DegenerateDraw("no bounded unit-determinant matrix in 100 draws")


# ---------------------------------------------------------------------------
# Hermitian bases, generic and transpose-symmetric
# ---------------------------------------------------------------------------

def _pt_position(i: int, j: int, k: int) -> tuple[int, int]:
    # swap bit k of the row and column indices (k = 1 is the most significant bit)
    b = 4 >> (k - 1)
    return (i & ~b) | (j & b), (j & ~b) | (i & b)


def _position_orbits(transpositions: tuple[int, ...]):
    """Orbits of matrix positions under the chosen partial transposes and
    Hermitian conjugation, tracking whether each member carries a conjugation.

    Yields (members, real_forced) with members a sorted list of
    ((i, j), conjugated) pairs relative to the orbit representative.
    """
    seen: set[tuple[int, int]] = set()
    orbits = []
    for i0 in range(DIM):
        for j0 in range(DIM):
            if (i0, j0) in seen:
                continue
            flags: dict[tuple[int, int], bool] = {(i0, j0): False}
            stack = [(i0, j0, False)]
            real_forced = False
            while stack:
                i, j, f = stack.pop()
                nexts = [(_pt_position(i, j, k), f) for k in transpositions]
                nexts.append(((j, i), not f))
                for pos, nf in nexts:
                    if pos in flags:
                        if flags[pos] != nf:
                            real_forced = True
                    else:
                        flags[pos] = nf
                        stack.append((pos[0], pos[1], nf))
            members = sorted(flags.items())
            seen.update(pos for pos, _ in members)
            orbits.append((members, real_forced))
    return orbits


@lru_cache(maxsize=8)
def invariant_hermitian_basis(transpositions: tuple[int, ...] = ()) -> np.ndarray:
    """Orthonormal basis of Hermitian matrices fixed by the given partial transposes.

    With no transpositions this is the standard 64-element Hermitian basis,
    orthonormal under <A,B> = Tr(AB). With (1, 2, 3) it spans the completely
    symmetric (hence real) subspace, of dimension 27; with (1, 2) the complex
    subspace of dimension 36. Basis elements are exactly invariant because
    entries within a position orbit are equal by construction.
    """
    elements = []
    for members, real_forced in _position_orbits(tuple(transpositions)):
        n = len(members)
        val = 1.0 / np.sqrt(n)
        b_re = np.zeros((DIM, DIM), dtype=complex)
        for (i, j), _ in members:
            b_re[i, j] = val
        elements.append(b_re)
        if not real_forced:
            b_im = np.zeros((DIM, DIM), dtype=complex)
            for (i, j), f in members:
                b_im[i, j] = -1j * val if f else 1j * val
            elements.append(b_im)
    basis = np.array(elements)
    basis.flags.writeable = False
    return basis


def hermitian_basis() -> np.ndarray:
    """The standard orthonormal basis of the 64-dimensional real Hermitian space."""
    return invariant_hermitian_basis(())


def mat_to_coords(mat: np.ndarray, basis: np.ndarray | None = None) -> np.ndarray:
    """Real coordinates Tr(B_k M) of a Hermitian matrix in an orthonormal basis."""
    if basis is None:
        basis = hermitian_basis()
    return np.einsum("kab,ba->k", basis, np.asarray(mat)).real


def coords_to_mat(x: np.ndarray) -> np.ndarray:
    """The Hermitian matrix with coordinates x in the standard basis."""
    return np.einsum("k,kab->ab", np.asarray(x, dtype=float), hermitian_basis())


def symmetrize_under_transposes(rho, transpositions: tuple[int, ...]) -> HermitianOperator:
    """Orthogonal projection onto the subspace fixed by the given partial transposes.

    Averages entries over position orbits, so the output equals each of its
    own listed partial transposes bit-exactly.
    """
    mat = _as_matrix(rho)
    mat = 0.5 * (mat + mat.conj().T)
    out = np.zeros_like(mat)
    for members, real_forced in _position_orbits(tuple(transpositions)):
        vals = [mat[i, j].conjugate() if f else mat[i, j] for (i, j), f in members]
        v = sum(vals) / len(vals)
        if real_forced:
            v = v.real
        for (i, j), f in members:
            out[i, j] = v.conjugate() if f else v
    return HermitianOperator(out)


# ---------------------------------------------------------------------------
# random states
# ---------------------------------------------------------------------------

def random_hermitian(rng: np.random.Generator) -> HermitianOperator:
    g = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    return HermitianOperator(0.5 * (g + g.conj().T))


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

@dataclass
class ProductVectorTriple:
    """A vector in C^8 known to factor across at least one bipartition.

    For a bipartite extraction the 2-dimensional factor sits in its slot
    (factor1 for 1|23, factor2 for 2|13, factor3 for 3|12) and `cofactor`
    holds the 4-dimensional complement; a fully factored vector has all three
    factors set and bipartition "full".
    """

    full: np.ndarray
    factor1: np.ndarray | None = None
    factor2: np.ndarray | None = None
    factor3: np.ndarray | None = None
    bipartition: str = "full"
    cofactor: np.ndarray | None = None
    pencil_eigenvalue: complex | None = None

    def product_residual(self) -> float:
        """Relative distance between `full` and the product of its three factors."""
        if self.factor1 is None or self.factor2 is None or self.factor3 is None:
            raise ValueError("not all three factors are set")
        rebuilt = kron3(self.factor1, self.factor2, self.factor3)
        return float(np.linalg.norm(self.full - rebuilt) / np.linalg.norm(self.full))


def product_vector(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> ProductVectorTriple:
    x, y, z = (np.asarray(a, dtype=complex).reshape(2) for a in (x, y, z))
    return ProductVectorTriple(full=kron3(x, y, z), factor1=x, factor2=y, factor3=z,
                               bipartition="full")


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


def factor_product_vector(psi: np.ndarray, tol: float = 1e-8) -> ProductVectorTriple | None:
    """Full 2x2x2 factorization of psi, or None if it is not a product vector."""
    psi = np.asarray(psi, dtype=complex).reshape(DIM)
    first = rank1_split(psi, 2, 4, tol)
    if first is None:
        return None
    x, rest = first
    second = rank1_split(rest, 2, 2, tol)
    if second is None:
        return None
    y, z = second
    return ProductVectorTriple(full=psi, factor1=x, factor2=y, factor3=z,
                               bipartition="full", cofactor=rest)


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
    "LorentzTensor",
    "PptProfile",
    "ProductVectorTriple",
    "all_ptransposes",
    "coords_to_mat",
    "eigh_fixed_phase",
    "factor_product_vector",
    "hermitian_basis",
    "invariant_hermitian_basis",
    "invariant_tensor_E",
    "kron3",
    "mat_to_coords",
    "max_ppt_weight",
    "partial_transpose",
    "pauli_decompose",
    "pauli_reconstruct",
    "ppt_profile",
    "product_transform",
    "product_vector",
    "projector",
    "ptranspose_mat",
    "random_density",
    "random_hermitian",
    "random_ppt_state",
    "random_unit_determinant",
    "rank1_split",
    "split_product",
    "symmetrize_under_transposes",
    "transpose_spectra",
]
