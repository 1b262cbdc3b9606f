"""Product vectors in four-dimensional subspaces, standard forms of 2-vector
quadruples, and unextendible product bases.

A vector phi = psi @ alpha in the span of four basis vectors factors across a
bipartition exactly when alpha solves a 4x4 generalized eigenvalue problem
built from two half-row slices of the 8x4 basis matrix; the eigenvalue is the
component ratio of the 2-dimensional factor. A generic four-dimensional
subspace contains exactly four such vectors per bipartition and no full
2x2x2 product vector at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateAngles, DegeneratePencil, DegenerateQuadruple, NotOrthonormal
from .qstate import (
    DIM,
    HermitianOperator,
    ProductVectorTriple,
    product_vector,
    rank1_split,
)

BIPARTITIONS = ("1|23", "2|13", "3|12")

# top/bottom row slices of the 8x4 basis matrix for each bipartition; the top
# rows multiply the first component of the extracted 2-vector
_ROW_SPLITS = {
    "1|23": ([0, 1, 2, 3], [4, 5, 6, 7]),
    "2|13": ([0, 1, 4, 5], [2, 3, 6, 7]),
    "3|12": ([0, 2, 4, 6], [1, 3, 5, 7]),
}

_SUBSPACE_TOL = 1e-9


@dataclass
class SubspaceBasis:
    """Orthonormal column basis of a four-dimensional subspace of C^8."""

    psi: np.ndarray  # (8, 4)

    def __post_init__(self) -> None:
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != (DIM, 4):
            raise ValueError(f"expected an 8x4 basis matrix, got {psi.shape}")
        gram = psi.conj().T @ psi
        if np.abs(gram - np.eye(4)).max() > 1e-9:
            # orthonormalize but preserve the span
            q, _ = np.linalg.qr(psi)
            psi = q[:, :4]
        self.psi = psi

    def projector(self) -> np.ndarray:
        return self.psi @ self.psi.conj().T

    @classmethod
    def from_columns(cls, columns) -> "SubspaceBasis":
        m = np.asarray(columns, dtype=complex).reshape(DIM, -1)
        q, r = np.linalg.qr(m)
        return cls(q[:, :4])

    @classmethod
    def kernel_of(cls, rho) -> "SubspaceBasis":
        mat = rho.mat if isinstance(rho, HermitianOperator) else np.asarray(rho)
        _, v = np.linalg.eigh(mat)
        return cls(v[:, :4])

    @classmethod
    def range_of(cls, rho) -> "SubspaceBasis":
        mat = rho.mat if isinstance(rho, HermitianOperator) else np.asarray(rho)
        _, v = np.linalg.eigh(mat)
        return cls(v[:, 4:])


def _factor_candidate(phi: np.ndarray, bipartition: str,
                      mu: complex) -> ProductVectorTriple | None:
    """Build a ProductVectorTriple from a pencil eigenvector image, or None if
    the vector does not factor cleanly.

    The bipartition's row split gives the 2x4 matrix whose rows index its
    2-dim factor; the 2x2 split of the cofactor fills the other two slots in
    subsystem order, when it is rank one."""
    nrm = np.linalg.norm(phi)
    if not np.isfinite(nrm) or nrm < 1e-12:
        return None
    phi = phi / nrm
    top_rows, bottom_rows = _ROW_SPLITS[bipartition]
    split = rank1_split(phi[top_rows + bottom_rows], 2, 4)
    if split is None:
        return None
    two, cof = split
    factors = list(rank1_split(cof, 2, 2) or (None, None))
    factors.insert(BIPARTITIONS.index(bipartition), two)
    return ProductVectorTriple(phi, *factors, bipartition=bipartition, cofactor=cof,
                               pencil_eigenvalue=mu)


def _ray_gap(a: np.ndarray, b: np.ndarray) -> float:
    """1 - |<a, b>| / (|a| |b|): 0 when a and b span one ray."""
    return 1.0 - abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b))


def _same_ray(a: np.ndarray, b: np.ndarray) -> bool:
    return _ray_gap(a, b) < 1e-8


def _distinct_factors(found: list[ProductVectorTriple], bipartition: str
                      ) -> list[ProductVectorTriple]:
    """found sorted by _mu_sort_key; DegeneratePencil when two of them share
    their two-dimensional factor a: then the subspace holds a (x) span(b1, b2),
    a continuum of product vectors, and any four of it would do."""
    found.sort(key=_mu_sort_key)
    slot = f"factor{BIPARTITIONS.index(bipartition) + 1}"
    for i in range(4):
        for j in range(i + 1, 4):
            gap = _ray_gap(getattr(found[i], slot), getattr(found[j], slot))
            if gap < 1e-8:
                raise DegeneratePencil(
                    f"product vectors {i + 1} and {j + 1} of bipartition {bipartition} share "
                    f"their {slot} (overlap gap {gap:.1e}): the subspace contains a "
                    "continuum of product vectors")
    return found


def _mu_sort_key(triple: ProductVectorTriple):
    mu = triple.pencil_eigenvalue
    if mu is None or not np.isfinite(mu):
        return (1, 0.0, 0.0)
    return (0, abs(mu), float(np.angle(mu)))


# fixed Mobius shift of the fallback pencil (a, b + c a): unit modulus keeps
# b + c a as well scaled as b, and -1/c = e^{i(pi-2)}, the one eigenvalue that
# makes b + c a singular, is no ratio a rational standard form produces
_PENCIL_SHIFT = np.exp(2j)


def _pencil_eigs(a_mat: np.ndarray, b_mat: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """Eigenvalues (N, 4) and eigenvectors (N, 4, 4) of a stack of 4x4
    pencils a v = mu b v, or None when any member is degenerate.

    The stack is solved as eig(solve(b, a)). A stack whose solve fails is
    solved member by member, and a member whose b is singular, or a stack
    whose eigenvectors are not finite, goes to the shifted pencil. A member
    is degenerate when its shifted pencil fails too.
    """
    try:
        w, vr = np.linalg.eig(np.linalg.solve(b_mat, a_mat))
    except np.linalg.LinAlgError:
        if len(a_mat) == 1:
            return _shifted_pencil_eigs(a_mat, b_mat)
        parts = [_pencil_eigs(a_mat[i:i + 1], b_mat[i:i + 1]) for i in range(len(a_mat))]
        if any(part is None for part in parts):
            return None
        return (np.concatenate([part[0] for part in parts]),
                np.concatenate([part[1] for part in parts]))
    if not np.all(np.isfinite(vr)):
        return _shifted_pencil_eigs(a_mat, b_mat)
    return w, vr


def _shifted_pencil_eigs(a_mat: np.ndarray, b_mat: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray] | None:
    """The pencils (a, b + c a) share their eigenvectors with (a, b), and
    their eigenvalues nu give mu = nu / (1 - c nu): infinite or beyond 1e12
    where b is singular. None when b + c a is singular too (mu = -1/c, or a
    singular pencil) or the eigenvectors are not finite."""
    try:
        nu, vr = np.linalg.eig(np.linalg.solve(b_mat + _PENCIL_SHIFT * a_mat, a_mat))
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(vr)):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        return nu / (1.0 - _PENCIL_SHIFT * nu), vr


def _factored_eigenvectors(psi: np.ndarray, bipartition: str,
                           pencil: tuple[np.ndarray, np.ndarray] | None
                           ) -> list[ProductVectorTriple]:
    """The distinct images psi v of one pencil's eigenvectors v that factor
    and lie in the subspace."""
    if pencil is None:
        return []
    w, vr = pencil[0][0], pencil[1][0]
    proj = psi @ psi.conj().T
    found: list[ProductVectorTriple] = []
    for k in range(4):
        triple = _factor_candidate(psi @ vr[:, k], bipartition, complex(w[k]))
        if triple is None:
            continue
        if np.linalg.norm(proj @ triple.full - triple.full) > _SUBSPACE_TOL:
            continue
        if any(_same_ray(triple.full, other.full) for other in found):
            continue
        found.append(triple)
    return found


def _solve_pencil(psi: np.ndarray, bipartition: str) -> list[ProductVectorTriple]:
    """Product vectors from the pencil of psi's half-row slices.

    eig(solve(b, a)) loses the finite eigenvalues when b is nearly singular,
    that is when a product vector of the subspace nearly has a vanishing
    lower half (mu near infinity, as in standard forms). So when fewer than
    four of its vectors factor, the shifted pencil is solved too, and the
    longer list wins.
    """
    top_rows, bottom_rows = _ROW_SPLITS[bipartition]
    a_mat, b_mat = psi[None, top_rows], psi[None, bottom_rows]
    found = _factored_eigenvectors(psi, bipartition, _pencil_eigs(a_mat, b_mat))
    if len(found) < 4:
        shifted = _shifted_pencil_eigs(a_mat, b_mat)
        found = max(found, _factored_eigenvectors(psi, bipartition, shifted), key=len)
    return found


def product_vectors_in_subspace(basis: SubspaceBasis, bipartition: str
                                ) -> list[ProductVectorTriple]:
    """Product vectors of the given bipartition inside a 4-dim subspace.

    One deterministic pass: the generalized eigenvalue problem of the two
    half-row slices, and its shifted pencil when fewer than four
    eigenvectors factor. A generic subspace yields exactly four vectors,
    with four distinct two-dimensional factors. A subspace that holds a
    continuum of product vectors raises DegeneratePencil: fewer than four
    vectors factor when the pencil is singular (the 2|13 and 3|12 pencils
    of |0> (x) C^4 give none), and two of the four share their
    two-dimensional factor a when the continuum is a (x) span(b1, b2) (the
    1|23 pencil of |0> (x) C^4 has one eigenvalue four times).
    """
    if bipartition not in _ROW_SPLITS:
        raise ValueError(f"bipartition must be one of {BIPARTITIONS}, got {bipartition!r}")
    found = _solve_pencil(basis.psi, bipartition)
    if len(found) < 4:
        raise DegeneratePencil(
            f"only {len(found)} product vectors found for bipartition {bipartition}")
    return _distinct_factors(found, bipartition)


def full_product_vectors_in_subspace(basis: SubspaceBasis) -> list[ProductVectorTriple]:
    """The 2x2x2 product vectors in the subspace: the 1|23 product vectors
    of the one pencil pass whose cofactor splits too. Generic subspaces
    contain none. Raises DegeneratePencil where product_vectors_in_subspace
    does for 1|23: a continuum a (x) span(b1, b2) holds full product
    vectors, so an empty list would be wrong."""
    candidates = product_vectors_in_subspace(basis, "1|23")
    return [c for c in candidates
            if c.factor1 is not None and c.factor2 is not None and c.factor3 is not None
            and c.product_residual() < 1e-8]


# ---------------------------------------------------------------------------
# standard forms of quadruples of 2-vectors
# ---------------------------------------------------------------------------

def _det2(p: np.ndarray, q: np.ndarray) -> complex:
    return p[0] * q[1] - p[1] * q[0]


def cross_ratio_parameter(x: np.ndarray) -> complex:
    """t = -det(x1,x3)det(x2,x4) / (det(x1,x4)det(x2,x3)); invariant under any
    common nonsingular transform and per-column rescaling."""
    x = np.asarray(x, dtype=complex).reshape(2, 4)
    num = _det2(x[:, 0], x[:, 2]) * _det2(x[:, 1], x[:, 3])
    den = _det2(x[:, 0], x[:, 3]) * _det2(x[:, 1], x[:, 2])
    return -num / den


@dataclass
class QuadrupleStandardForm:
    """Reduction of four pairwise-independent 2-vectors to the one-parameter
    standard form with columns (1,0), (0,1), (1,-1), (t,1)."""

    t: complex
    transform: np.ndarray      # 2x2; transform @ x_i is proportional to column i

    @property
    def standard_columns(self) -> np.ndarray:
        return np.array([[1, 0, 1, self.t], [0, 1, -1, 1]], dtype=complex)


def standard_form_quadruple(x: np.ndarray) -> QuadrupleStandardForm:
    """Reduce a generic quadruple of 2-vectors to standard form.

    Raises DegenerateQuadruple when some pair is (nearly) parallel, i.e. a
    pairwise determinant of the unit-normalized columns falls below 1e-10.
    """
    x = np.asarray(x, dtype=complex).reshape(2, 4).copy()
    x /= np.linalg.norm(x, axis=0, keepdims=True)
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(_det2(x[:, i], x[:, j])) < 1e-10:
                raise DegenerateQuadruple(f"columns {i+1} and {j+1} are nearly parallel")

    a, b = x[:, 0]
    c, d = x[:, 1]
    u_mat = np.array([[d, -c], [-b, a]])
    y = u_mat @ x
    t1 = y[1, 2] / y[0, 2]
    t2 = y[0, 3] / y[1, 3]
    v_mat = np.array([[-t1, 0.0], [0.0, 1.0]])
    transform = v_mat @ u_mat
    t_columns = -t1 * t2
    t_formula = cross_ratio_parameter(x)
    if abs(t_columns - t_formula) > 1e-6 * max(1.0, abs(t_formula)):
        raise DegenerateQuadruple(
            f"inconsistent parameter extraction: {t_columns} vs {t_formula}"
        )
    return QuadrupleStandardForm(t=t_formula, transform=transform)


def alternative_parameters(t: complex) -> tuple[complex, complex]:
    """Parameters of the two alternative standard forms: t' = -1-t, t'' = -1-1/t."""
    return -1.0 - t, -1.0 - 1.0 / t


def orthogonalizable_pairing(t: complex) -> tuple[str, float] | None:
    """For an effectively real parameter, the unique pairing of the four
    vectors that a linear transformation can make real and pairwise
    orthogonal, with the positive parameter realizing it.

    Among near-real candidates the one closest to the real axis wins.
    Returns None when no candidate is effectively real and positive.
    """
    t_prime, t_second = alternative_parameters(t)
    candidates = [("(12)(34)", t), ("(13)(24)", t_prime), ("(14)(23)", t_second)]
    viable = [
        (pairing, value)
        for pairing, value in candidates
        if abs(value.imag) < 1e-9 * (1.0 + abs(value)) and value.real > 0.0
    ]
    if not viable:
        return None
    pairing, value = min(viable, key=lambda pv: abs(pv[1].imag) / (1.0 + abs(pv[1])))
    return pairing, float(value.real)


def orthogonal_form(sf: QuadrupleStandardForm) -> tuple[np.ndarray, np.ndarray]:
    """Real pairwise-orthogonal form for real t > 0: columns (1,0), (0,1),
    (1,-sqrt(t)), (sqrt(t),1), reached from the standard form by diag(1, sqrt(t))."""
    t = sf.t
    if abs(t.imag) > 1e-9 * (1.0 + abs(t)) or t.real <= 0.0:
        raise DegenerateQuadruple(f"orthogonal form requires real positive t, got {t}")
    root = np.sqrt(t.real)
    w = np.array([[1.0, 0.0, 1.0, root], [0.0, 1.0, -root, 1.0]])
    return w, np.diag([1.0, root]) @ sf.transform


# ---------------------------------------------------------------------------
# unextendible product bases
# ---------------------------------------------------------------------------

def upb_standard(theta1: float, theta2: float, theta3: float) -> list[ProductVectorTriple]:
    """The four orthonormal product vectors of the angle-parametrized UPB.

    Each pair is orthogonal in exactly one slot: pairs (1,2) and (3,4) in the
    first factor, (1,3) and (2,4) in the second, (1,4) and (2,3) in the third.
    """
    angles = (theta1, theta2, theta3)
    if any(min(abs(np.sin(th)), abs(np.cos(th))) < 1e-9 for th in angles):
        raise DegenerateAngles(f"angles {angles} make some factor pair parallel")
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    c3, s3 = np.cos(theta3), np.sin(theta3)
    x = np.array([[1, 0, c1, s1], [0, 1, -s1, c1]], dtype=float)
    y = np.array([[1, c2, 0, s2], [0, -s2, 1, c2]], dtype=float)
    z = np.array([[1, c3, s3, 0], [0, -s3, c3, 1]], dtype=float)
    return [product_vector(x[:, i], y[:, i], z[:, i]) for i in range(4)]


def upb_state(upb: list[ProductVectorTriple]) -> HermitianOperator:
    """Normalized projector onto the orthogonal complement of the UPB span:
    rho = (1 - sum psi_i psi_i^dag) / 4, a rank-4 extremal PPT state whose
    range contains no product vector."""
    if len(upb) != 4:
        raise NotOrthonormal(f"a three-qubit UPB has four vectors, got {len(upb)}")
    vecs = np.column_stack([np.asarray(tr.full, dtype=complex) for tr in upb])
    vecs /= np.linalg.norm(vecs, axis=0, keepdims=True)
    gram = vecs.conj().T @ vecs
    if np.abs(gram - np.eye(4)).max() > 1e-10:
        raise NotOrthonormal(
            f"vectors are not orthonormal (max deviation {np.abs(gram - np.eye(4)).max():.2e})"
        )
    return HermitianOperator((np.eye(DIM) - vecs @ vecs.conj().T) / 4.0)


__all__ = [
    "BIPARTITIONS",
    "QuadrupleStandardForm",
    "SubspaceBasis",
    "alternative_parameters",
    "cross_ratio_parameter",
    "full_product_vectors_in_subspace",
    "orthogonal_form",
    "orthogonalizable_pairing",
    "product_vectors_in_subspace",
    "standard_form_quadruple",
    "upb_standard",
    "upb_state",
]
