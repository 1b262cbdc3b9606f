"""The run tolerances of the four threshold decisions, collected in one value.

A run builds one Tolerances (the CLI from its --tol-* flags and PPTATLAS_TOL_*
variables) and every package function that makes one of these decisions
takes it whole as its `tolerances` argument, defaulting to DEFAULT.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # eigenvalues below rank_tol * (largest eigenvalue) count as zero
    rank_tol: float = 1e-8
    # eigenvalues above -psd_tol count as nonnegative
    psd_tol: float = 1e-9
    # quadratic invariant below i2_zero_tol * (trace)^2 counts as vanishing
    i2_zero_tol: float = 1e-10
    # eigenvalues of the combined face operator within this window of 4 count
    # as face directions; genuine directions sit at machine precision while
    # boundary-curvature artifacts were observed no closer than ~5e-7
    face_eig_window: float = 1e-9


DEFAULT = Tolerances()
