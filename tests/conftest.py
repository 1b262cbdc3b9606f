import numpy as np
import pytest

from pptatlas.qstate import HermitianOperator, kron3, projector

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


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_product_vector(rng):
    return kron3(random_unit(rng, 2), random_unit(rng, 2), random_unit(rng, 2))


def random_separable(rng, k):
    """Random mixture of k pure product states, unit trace."""
    weights = rng.random(k) + 0.2
    weights /= weights.sum()
    mat = sum(w * projector(random_product_vector(rng)).mat for w in weights)
    return HermitianOperator(mat)


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
