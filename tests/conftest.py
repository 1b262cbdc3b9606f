import numpy as np
import pytest
from hypothesis import strategies as st

from pptatlas.errors import DegenerateDraw
from pptatlas.qstate import (
    DIM,
    HermitianOperator,
    coords_to_mat,
    factor_product_vector,
    kron3,
    ppt_profile,
    projector,
    random_ppt_state,
    transpose_spectra,
)

SQRT2 = np.sqrt(2.0)
SQRT3 = np.sqrt(3.0)


def ghz_vector() -> np.ndarray:
    v = np.zeros(8)
    v[0] = v[7] = 1.0
    return v / SQRT2


def w_vector() -> np.ndarray:
    v = np.zeros(8)
    v[1] = v[2] = v[4] = 1.0
    return v / SQRT3


def random_hermitian(rng) -> HermitianOperator:
    """Hermitian part of a complex Ginibre matrix."""
    g = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    return HermitianOperator(0.5 * (g + g.conj().T))


def block_jacobian_diagonal(problem, x) -> np.ndarray:
    """The rows of ranksearch's block-residual Jacobian that differentiate the
    diagonal entries of each zero-target block, in eigen_residual's order.
    Away from eigenvalue crossings they are the derivatives of the lowest
    eigenvalues (first-order perturbation theory)."""
    from pptatlas.ranksearch import _block_residual_jacobian

    _, jac = _block_residual_jacobian(problem, x)
    rows, start = [], 0
    for m in problem.targets:
        z = DIM - m
        for k in range(z):
            # the block lists (k, k), then Re and Im of (k, l) for l > k
            rows.append(start)
            start += 1 + 2 * (z - 1 - k)
    return jac[rows]


def lowest_eigenvalue_gap(problem, x) -> float:
    """Smallest gap among the 9-m_i lowest eigenvalues of each transpose of
    rho(x): the zeroed ones and the first kept one. Perturbation theory, and
    so block_jacobian_diagonal, is reliable only where it is not tiny."""
    gaps = [np.diff(evs[:DIM - m + 1]).min()
            for evs, m in zip(transpose_spectra(coords_to_mat(x)), problem.targets)
            if m < DIM]
    return float(min(gaps, default=np.inf))


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_product_vector(rng):
    return kron3(random_unit(rng, 2), random_unit(rng, 2), random_unit(rng, 2))


def random_unit_determinant(rng) -> np.ndarray:
    """Random 2x2 complex matrix scaled to unit determinant, for random local
    SL transforms.

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


def random_separable(rng, k):
    """Random mixture of k pure product states, unit trace."""
    weights = rng.random(k) + 0.2
    weights /= weights.sum()
    mat = sum(w * projector(random_product_vector(rng)).mat for w in weights)
    return HermitianOperator(mat)


def is_product_certificate(endpoints) -> bool:
    """Whether probe endpoints form a decomposition into pure product states,
    checked without the probe's own leaf test: each endpoint has rank one and
    its top eigenvector factors into three qubits, and the weights sum to 1."""
    for ep in endpoints:
        if ppt_profile(ep.state).ranks[0] != 1:
            return False
        if factor_product_vector(np.linalg.eigh(ep.state.mat)[1][:, -1]) is None:
            return False
    return bool(endpoints) and abs(sum(ep.weight for ep in endpoints) - 1.0) < 1e-10


@st.composite
def ppt_states(draw):
    """A random PPT state of one of several profiles, seeded by hypothesis:
    an interior random_ppt_state (8888) or a mixture of 1 to 6 random
    product states."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    products = draw(st.integers(0, 6))
    return random_ppt_state(rng) if products == 0 else random_separable(rng, products)


_angles = st.floats(0.0, 2 * np.pi, allow_nan=False, allow_infinity=False)


@st.composite
def unitaries(draw):
    """A 2x2 unitary e^(ia) [[e^(ib) cos t, e^(ic) sin t], [-e^(-ic) sin t, e^(-ib) cos t]]."""
    a, b, c, t = (draw(_angles) for _ in range(4))
    return np.exp(1j * a) * np.array([[np.exp(1j * b) * np.cos(t), np.exp(1j * c) * np.sin(t)],
                                      [-np.exp(-1j * c) * np.sin(t), np.exp(-1j * b) * np.cos(t)]])


def reference_partial_transpose(mat: np.ndarray, subsystem: int) -> np.ndarray:
    """Independent partial transpose: explicit index bookkeeping, no reshapes."""
    out = np.empty_like(np.asarray(mat, dtype=complex))
    for i1 in range(2):
        for i2 in range(2):
            for i3 in range(2):
                for j1 in range(2):
                    for j2 in range(2):
                        for j3 in range(2):
                            row = [i1, i2, i3]
                            col = [j1, j2, j3]
                            k = subsystem - 1
                            row[k], col[k] = col[k], row[k]
                            r = 4 * row[0] + 2 * row[1] + row[2]
                            c = 4 * col[0] + 2 * col[1] + col[2]
                            out[r, c] = mat[4 * i1 + 2 * i2 + i3, 4 * j1 + 2 * j2 + j3]
    return out


class ZeroRng:
    """Generator stand-in whose normal draws are all zero. It raises after
    `limit` calls, so an unbounded draw loop fails instead of hanging."""

    def __init__(self, limit: int = 10_000) -> None:
        self.calls = 0
        self.limit = limit

    def standard_normal(self, size=None):
        self.calls += 1
        if self.calls > self.limit:
            raise RuntimeError(f"unbounded loop: {self.limit} draws from the stub")
        return np.zeros(size)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
