"""Lorentz invariants of three-qubit density matrices.

A product transformation by unit-determinant 2x2 factors acts on the Pauli
coefficient tensor as three independent Lorentz transformations, one per
slot, and partial transpositions act as parity inversions. The quadratic
invariant and the four independent quartic invariants below are therefore
constant on SL(x)SL(x)SL equivalence classes and under all partial
transposes. Each tensor slot carries its own Lorentz index, so indices only
ever contract against the same slot position.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import InvariantMismatch
from .qstate import _as_matrix, invariant_tensor_E, pauli_decompose

# metric signature (+,-,-,-) applied per slot
_METRIC_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])


def _lower_all(a: np.ndarray) -> np.ndarray:
    s = _METRIC_SIGNS
    return a * s[:, None, None] * s[None, :, None] * s[None, None, :]


def _quadratic_forms(mat: np.ndarray, a: np.ndarray) -> tuple[float, float]:
    e = invariant_tensor_E()
    trace_form = float((-np.trace(mat.T @ e @ mat @ e) / 8.0).real)
    contraction_form = float(np.einsum("mnl,mnl->", a, _lower_all(a)))
    return trace_form, contraction_form


def quadratic_invariant_forms(rho) -> tuple[float, float]:
    """The quadratic invariant computed two independent ways:
    -(1/8) Tr(rho^T E rho E) and the metric contraction of the Pauli tensor."""
    mat = _as_matrix(rho)
    return _quadratic_forms(mat, pauli_decompose(mat))


def _checked_quadratic(mat: np.ndarray, a: np.ndarray) -> float:
    trace_form, contraction_form = _quadratic_forms(mat, a)
    scale = float(np.sum(a * a)) + 1e-300
    if abs(trace_form - contraction_form) > 1e-10 * scale:
        raise InvariantMismatch(
            f"trace form {trace_form:.16e} vs contraction form {contraction_form:.16e}"
        )
    return trace_form


def quadratic_invariant(rho) -> float:
    """Quadratic Lorentz invariant, nonnegative for positive semidefinite input.

    The trace form and the contraction form are cross-checked against each
    other at 1e-10 relative to the tensor's magnitude scale.
    """
    mat = _as_matrix(rho)
    return _checked_quadratic(mat, pauli_decompose(mat))


def i2_vanishes(i2: float, trace: float, tolerances: Tolerances) -> bool:
    """Whether the quadratic invariant counts as zero: i2 below
    i2_zero_tol * trace^2. This is the type I / type II decision."""
    return i2 < tolerances.i2_zero_tol * trace * trace


# contraction patterns of the four independent quartic invariants; each of the
# six summation indices appears once per slot position in two factors
_QUARTIC_PATTERNS = (
    "mnl,mng,abg,abl",
    "mnl,mbl,abg,ang",
    "mnl,mbg,abg,anl",
    "mnl,mbg,ang,abl",
)


def _quartics(a: np.ndarray) -> tuple[float, float, float, float]:
    s = _METRIC_SIGNS
    values = []
    for pattern in _QUARTIC_PATTERNS:
        indices = sorted(set(pattern.replace(",", "")))
        subscripts = pattern + "," + ",".join(indices) + "->"
        values.append(float(np.einsum(subscripts, a, a, a, a, *([s] * len(indices)))))
    return tuple(values)


def quartic_invariants(rho) -> tuple[float, float, float, float]:
    """The four independent quartic Lorentz invariants of the Pauli tensor.

    Every summation index pairs one upper and one lower position, so the
    metric contributes exactly one sign factor per index; the contraction is
    evaluated Euclidean-style with those factors attached.
    """
    return _quartics(pauli_decompose(rho))


@dataclass(frozen=True)
class InvariantFingerprint:
    """Scale-aware invariant summary used to compare equivalence classes.

    When i2 is large enough the four quartics are normalized by i2**2, which
    cancels any scalar rescaling of the state. When i2 vanishes (within
    i2_zero_tol relative to the squared trace) that ratio is undefined; the
    quartics are then normalized by trace**4 instead and `degenerate` is set.
    """

    i2: float
    i41: float
    i42: float
    i43: float
    i44: float
    normalized_quartics: tuple[float, float, float, float]
    degenerate: bool
    trace: float

    @property
    def quartics(self) -> tuple[float, float, float, float]:
        return (self.i41, self.i42, self.i43, self.i44)


def fingerprint(rho, tolerances: Tolerances = DEFAULT) -> InvariantFingerprint:
    """Invariant fingerprint of a nonzero Hermitian matrix; the Pauli tensor
    is decomposed once and shared by the quadratic and quartic invariants."""
    mat = _as_matrix(rho)
    tr = float(np.trace(mat).real)
    a = pauli_decompose(mat)
    i2 = _checked_quadratic(mat, a)
    quartics = _quartics(a)
    degenerate = i2_vanishes(i2, tr, tolerances)
    denom = tr ** 4 if degenerate else i2 * i2
    normalized = tuple(q / denom for q in quartics)
    return InvariantFingerprint(i2, *quartics, normalized_quartics=normalized,
                                degenerate=degenerate, trace=tr)


def fingerprints_close(f1: InvariantFingerprint, f2: InvariantFingerprint,
                       rtol: float = 1e-8) -> bool:
    """Whether two fingerprints are compatible with one equivalence class.

    Only quantities invariant under both rescaling and local transformations
    are compared: the quartic-over-i2-squared ratios when i2 is healthy, and
    the direction of the quartic vector when it vanishes (the trace is not a
    transform invariant, so trace-normalized values cannot be compared).
    """
    if f1.degenerate != f2.degenerate:
        return False
    if not f1.degenerate:
        a = np.array(f1.normalized_quartics)
        b = np.array(f2.normalized_quartics)
        scale = max(np.abs(a).max(), np.abs(b).max(), 1e-300)
        return np.abs(a - b).max() <= rtol * scale
    a = np.array(f1.quartics)
    b = np.array(f2.quartics)
    sa, sb = np.abs(a).max(), np.abs(b).max()
    if sa < 1e-300 or sb < 1e-300:
        return sa < 1e-300 and sb < 1e-300
    return np.abs(a / sa - b / sb).max() <= rtol


__all__ = [
    "InvariantFingerprint",
    "fingerprint",
    "fingerprints_close",
    "i2_vanishes",
    "quadratic_invariant",
    "quadratic_invariant_forms",
    "quartic_invariants",
]
