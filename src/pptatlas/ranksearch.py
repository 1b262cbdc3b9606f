"""Search for PPT states with a prescribed rank profile (m0,m1,m2,m3).

A candidate is written as rho(x) = sum_j x_j M_j over the 64-element
Hermitian basis. The residual mu(x) collects the 8-m_i lowest eigenvalues of
each partial transpose; rho(x) has the requested profile exactly when
mu(x) = 0, and positivity of the retained spectrum is then automatic because
the zeroed eigenvalues are the lowest ones. The one solver is a
Levenberg-damped Gauss-Newton refinement of the subspace-block residual (the
CLI's `--method cg`), restarted from random PPT states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import NotAState
from .qstate import (
    DIM,
    HermitianOperator,
    PptProfile,
    basis_ptransposes,
    coords_to_mat,
    mat_to_coords,
    ppt_profile,
    ptranspose_mat,
    random_ppt_state,
    transpose_spectra,
)

# the search coordinates x, one per hermitian_basis() element
N_PARAMETERS = DIM * DIM


@dataclass
class RankTargetProblem:
    """Rank targets of a search over the Hermitian basis, hermitian_basis()."""

    targets: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        targets = tuple(int(m) for m in self.targets)
        if len(targets) != 4 or any(m < 1 or m > DIM for m in targets):
            raise ValueError(f"targets must be four ranks in 1..8, got {targets}")
        self.targets = targets


def eigen_residual(problem: RankTargetProblem, x: np.ndarray) -> np.ndarray:
    """The 8-m_i lowest eigenvalues of each partial transpose, concatenated."""
    spectra = transpose_spectra(coords_to_mat(x))
    return np.concatenate([evs[:DIM - m] for evs, m in zip(spectra, problem.targets)])


def objective(problem: RankTargetProblem, x: np.ndarray) -> float:
    mu = eigen_residual(problem, x)
    return float(mu @ mu)


@dataclass
class RankSearchResult:
    state: HermitianOperator | None
    objective: float
    attempts: int
    evaluations: int
    success: bool
    profile: PptProfile | None = None


def _random_start(rng: np.random.Generator) -> np.ndarray:
    """Coordinates of a random PPT state, scaled to unit Frobenius norm.

    Starting PPT keeps the trivial full-rank targets feasible.
    """
    x = mat_to_coords(random_ppt_state(rng).mat)
    return x / np.linalg.norm(coords_to_mat(x))


def _validate(problem: RankTargetProblem, x: np.ndarray, tolerances: Tolerances):
    """Profile check after convergence; accepts exact targets or a dominated profile.

    A point whose rho is itself indefinite, or traceless, fails like any other
    non-PPT point.
    """
    state = HermitianOperator(coords_to_mat(x))
    if state.trace() < 0:
        state = HermitianOperator(-state.mat)
    try:
        state = state.normalized()
        profile = ppt_profile(state, tolerances)
    except NotAState:
        return None, None
    if not profile.is_ppt:
        return None, None
    dominated = all(r <= m for r, m in zip(profile.ranks, problem.targets))
    if not dominated:
        return None, None
    return state, profile


def _block_residual_jacobian(problem: RankTargetProblem, x: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Residual and Jacobian of the zero-target subspace blocks.

    For each transpose the residual collects every entry of the Hermitian
    block V0^dag rho^Ti V0, where V0 spans the 8-m_i lowest eigenvectors.
    Unlike the sorted-eigenvalue list this is smooth through eigenvalue
    crossings, which removes the convergence plateau when several
    eigenvalues reach zero together; the block vanishes exactly when the
    lowest eigenvalues do.
    """
    mat = coords_to_mat(x)
    res, rows = [], []
    for i in range(4):
        z = DIM - problem.targets[i]
        if z == 0:
            continue
        pt = ptranspose_mat(mat, i)
        _, v = np.linalg.eigh(pt)
        v0 = v[:, :z]
        block = v0.conj().T @ pt @ v0
        dblock = np.einsum("ak,jab,bl->jkl", v0.conj(), basis_ptransposes()[i], v0)
        res.append(mat_to_coords(block))
        rows.append(mat_to_coords(dblock).T)
    if not res:
        return np.zeros(0), np.zeros((0, N_PARAMETERS))
    return np.concatenate(res), np.concatenate(rows)


# eigenvalue square sum at which a search counts as converged, and the one
# a converged point is polished to
_F_TARGET = 1e-18
_POLISH_TARGET = 1e-26


def refine_block(problem: RankTargetProblem, x0: np.ndarray,
                 max_iters: int = 120, f_target: float = _F_TARGET
                 ) -> tuple[np.ndarray, float, int]:
    """Levenberg-damped Gauss-Newton on the subspace-block residual.

    Progress is measured by the eigenvalue square sum f, the objective, not
    by the block residual. Returns (x, f, evaluations).
    """
    x = x0 / np.linalg.norm(coords_to_mat(x0))
    f = objective(problem, x)
    evals = 1
    lam = 1e-8
    for _ in range(max_iters):
        if f < f_target:
            break
        r, b_mat = _block_residual_jacobian(problem, x)
        if r.size == 0:
            break
        a_mat = b_mat.T @ b_mat
        rhs = -b_mat.T @ r
        accepted = False
        for _ in range(30):
            dx = np.linalg.solve(a_mat + lam * np.eye(a_mat.shape[0]), rhs)
            xt = x + dx
            nrm = np.linalg.norm(coords_to_mat(xt))
            if nrm < 1e-300:
                lam *= 7.0
                continue
            xt /= nrm
            ft = objective(problem, xt)
            evals += 1
            if ft < f:
                x, f = xt, ft
                lam = max(lam / 5.0, 1e-12)
                accepted = True
                break
            lam *= 7.0
        if not accepted:
            break
    return x, f, evals


def solve_targets(problem: RankTargetProblem, rng: np.random.Generator,
                  restarts: int = 20,
                  tolerances: Tolerances = DEFAULT,
                  require_exact: bool = False) -> RankSearchResult:
    """Restarted linearized search for the target profile.

    Converged solutions are polished a few more steps so the zeroed
    eigenvalues sit at ~1e-13 instead of ~1e-9; face analyses of the output
    are then free of kernel smudge.
    """
    attempts = 0
    evals = 0
    best_f = np.inf
    for _ in range(restarts):
        attempts += 1
        x, f, e = refine_block(problem, _random_start(rng))
        evals += e
        best_f = min(best_f, f)
        if f < _F_TARGET:
            x, f, e = refine_block(problem, x, max_iters=12, f_target=_POLISH_TARGET)
            evals += e
            state, profile = _validate(problem, x, tolerances)
            if state is None:
                continue
            if require_exact and profile.ranks != problem.targets:
                continue
            return RankSearchResult(state, f, attempts, evals, True, profile)
    return RankSearchResult(None, best_f, attempts, evals, False)


__all__ = [
    "N_PARAMETERS",
    "RankSearchResult",
    "RankTargetProblem",
    "eigen_residual",
    "objective",
    "refine_block",
    "solve_targets",
]
