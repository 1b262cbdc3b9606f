"""Search for PPT states with a prescribed rank profile (m0,m1,m2,m3).

A candidate is written as rho(x) = sum_j x_j M_j over a basis of Hermitian
matrices. The residual mu(x) collects the 8-m_i lowest eigenvalues of each
partial transpose; rho(x) has the requested profile exactly when mu(x) = 0,
and positivity of the retained spectrum is then automatic because the zeroed
eigenvalues are the lowest ones. Two solvers are provided: a derivative-free
square-sum minimizer and a Levenberg-damped Gauss-Newton refinement of the
subspace-block residual (the CLI's `--method cg`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import DEFAULT
from .errors import BudgetExhausted, NotAState
from .qstate import (
    DIM,
    HermitianOperator,
    hermitian_basis,
    ppt_profile,
    ptranspose_mat,
    ptranspose_stack,
    transpose_spectra,
)


@dataclass
class RankTargetProblem:
    """Rank targets plus the Hermitian basis spanning the search space.

    The basis may be the full 64-element Hermitian basis or a restriction to
    a transpose-symmetric subspace (27 or 36 dimensional).
    """

    targets: tuple[int, int, int, int]
    basis: np.ndarray = field(default_factory=hermitian_basis)
    basis_pt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        targets = tuple(int(m) for m in self.targets)
        if len(targets) != 4 or any(m < 1 or m > DIM for m in targets):
            raise ValueError(f"targets must be four ranks in 1..8, got {targets}")
        self.targets = targets
        self.basis = np.asarray(self.basis)
        self.basis_pt = np.stack([ptranspose_stack(self.basis, i) for i in range(4)])

    @property
    def n_parameters(self) -> int:
        return self.basis.shape[0]

    @property
    def n_equations(self) -> int:
        return 4 * DIM - sum(self.targets)

    def rho_mat(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("j,jab->ab", np.asarray(x, dtype=float), self.basis)

    def rho(self, x: np.ndarray) -> HermitianOperator:
        return HermitianOperator(self.rho_mat(x))


def eigen_residual(problem: RankTargetProblem, x: np.ndarray) -> np.ndarray:
    """The 8-m_i lowest eigenvalues of each partial transpose, concatenated."""
    spectra = transpose_spectra(problem.rho_mat(x))
    return np.concatenate([evs[:DIM - m] for evs, m in zip(spectra, problem.targets)])


def objective(problem: RankTargetProblem, x: np.ndarray) -> float:
    mu = eigen_residual(problem, x)
    return float(mu @ mu)


class JacobianResult(NamedTuple):
    matrix: np.ndarray  # (n_equations, n_parameters), real
    degenerate: bool
    min_gap: float


def jacobian(problem: RankTargetProblem, x: np.ndarray) -> JacobianResult:
    """First-order perturbation Jacobian d mu_k / d x_j = psi_k^dag M_j^Ti psi_k.

    Based on nondegenerate perturbation theory; when two eigenvalues around
    the rank cut are closer than 1e-6 the rows are unreliable and the
    `degenerate` flag is set (not fatal, the iteration tolerates it).
    """
    mat = problem.rho_mat(x)
    rows = []
    min_gap = np.inf
    for i in range(4):
        n_zero = DIM - problem.targets[i]
        if n_zero == 0:
            continue
        w, v = np.linalg.eigh(ptranspose_mat(mat, i))
        vecs = v[:, :n_zero]
        block = np.einsum("ak,jab,bk->kj", vecs.conj(), problem.basis_pt[i], vecs).real
        rows.append(block)
        gaps = np.diff(w[: min(n_zero + 1, DIM)])
        if gaps.size:
            min_gap = min(min_gap, float(gaps.min()))
    matrix = np.vstack(rows) if rows else np.zeros((0, problem.n_parameters))
    degenerate = bool(min_gap < 1e-6)
    return JacobianResult(matrix, degenerate, float(min_gap))


@dataclass
class RankSearchResult:
    state: HermitianOperator | None
    coords: np.ndarray | None
    objective: float
    attempts: int
    evaluations: int
    success: bool
    profile: object | None = None


def _random_start(problem: RankTargetProblem, rng: np.random.Generator) -> np.ndarray:
    """Coordinates of a random PPT state projected into the search space.

    Starting PPT keeps the trivial full-rank targets feasible; the projection
    onto a transpose-symmetry subspace is a group average of PPT states and
    therefore stays PPT.
    """
    from .qstate import random_ppt_state

    m = random_ppt_state(rng).mat
    x = np.einsum("kab,ba->k", problem.basis, m).real
    return x / np.linalg.norm(problem.rho_mat(x))


def _validate(problem: RankTargetProblem, x: np.ndarray,
              tol: float, psd_tol: float):
    """Profile check after convergence; accepts exact targets or a dominated profile.

    A point whose rho is itself indefinite, or traceless, fails like any other
    non-PPT point.
    """
    state = problem.rho(x)
    if state.trace() < 0:
        state = HermitianOperator(-state.mat)
    try:
        state = state.normalized()
        profile = ppt_profile(state, tol, psd_tol)
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
    mat = problem.rho_mat(x)
    res: list[float] = []
    rows: list[np.ndarray] = []
    sq2 = np.sqrt(2.0)
    for i in range(4):
        z = DIM - problem.targets[i]
        if z == 0:
            continue
        pt = ptranspose_mat(mat, i)
        _, v = np.linalg.eigh(pt)
        v0 = v[:, :z]
        block = v0.conj().T @ pt @ v0
        dblock = np.einsum("ak,jab,bl->jkl", v0.conj(), problem.basis_pt[i], v0)
        for k in range(z):
            res.append(block[k, k].real)
            rows.append(dblock[:, k, k].real)
            for l in range(k + 1, z):
                res.append(sq2 * block[k, l].real)
                rows.append(sq2 * dblock[:, k, l].real)
                res.append(sq2 * block[k, l].imag)
                rows.append(sq2 * dblock[:, k, l].imag)
    if not res:
        return np.zeros(0), np.zeros((0, problem.n_parameters))
    return np.array(res), np.array(rows)


# eigenvalue square sum at which a search counts as converged, and the one
# a converged point is polished to
_F_TARGET = 1e-18
_POLISH_TARGET = 1e-26


def refine_block(problem: RankTargetProblem, x0: np.ndarray,
                 max_iters: int = 120, f_target: float = _F_TARGET
                 ) -> tuple[np.ndarray, float, int]:
    """Levenberg-damped Gauss-Newton on the subspace-block residual.

    Progress is measured by the eigenvalue square sum f, so the target has
    the same meaning as for the other solvers. Returns (x, f, evaluations).
    """
    x = x0 / np.linalg.norm(problem.rho_mat(x0))
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
            nrm = np.linalg.norm(problem.rho_mat(xt))
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
                  tol: float = DEFAULT.rank_tol,
                  psd_tol: float = DEFAULT.psd_tol,
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
        x, f, e = refine_block(problem, _random_start(problem, rng))
        evals += e
        best_f = min(best_f, f)
        if f < _F_TARGET:
            x, f, e = refine_block(problem, x, max_iters=12, f_target=_POLISH_TARGET)
            evals += e
            state, profile = _validate(problem, x, tol, psd_tol)
            if state is None:
                continue
            if require_exact and profile.ranks != problem.targets:
                continue
            return RankSearchResult(state, x, f, attempts, evals, True, profile)
    return RankSearchResult(None, None, best_f, attempts, evals, False)


def minimize_sq(problem: RankTargetProblem, rng: np.random.Generator,
                budget: int = 200_000,
                tol: float = DEFAULT.rank_tol,
                psd_tol: float = DEFAULT.psd_tol) -> RankSearchResult:
    """Derivative-free minimization of f(x) = sum mu_i(x)^2 by an adaptive
    random-step descent with restarts; raises BudgetExhausted on failure."""
    evals = 0
    attempts = 0
    k = problem.n_parameters
    best_f = np.inf
    while evals < budget:
        attempts += 1
        x = _random_start(problem, rng)
        f = objective(problem, x)
        evals += 1
        scale = 0.3
        stall = 0
        while evals < budget:
            xt = x + scale * rng.standard_normal(k)
            # a trial counts against the budget even when its norm underflows
            evals += 1
            nrm = np.linalg.norm(problem.rho_mat(xt))
            if nrm < 1e-300:
                continue
            xt /= nrm
            ft = objective(problem, xt)
            if ft < f:
                x, f = xt, ft
                scale = min(scale * 1.4, 1.0)
                stall = 0
            else:
                scale = max(scale * 0.8, 1e-10)
                stall += 1
            if f < _F_TARGET:
                x, f, extra = refine_block(problem, x, max_iters=12, f_target=_POLISH_TARGET)
                evals += extra
                state, profile = _validate(problem, x, tol, psd_tol)
                if state is not None:
                    return RankSearchResult(state, x, f, attempts, evals, True, profile)
                break
            if stall > 400:
                break
        best_f = min(best_f, f)
    raise BudgetExhausted(
        f"no profile {problem.targets} state within {budget} evaluations "
        f"(best f = {best_f:.3e})"
    )


def symmetric_subspace_problem(targets, transpositions=(1, 2, 3)) -> RankTargetProblem:
    from .qstate import invariant_hermitian_basis

    return RankTargetProblem(tuple(targets), invariant_hermitian_basis(tuple(transpositions)))


__all__ = [
    "JacobianResult",
    "RankSearchResult",
    "RankTargetProblem",
    "eigen_residual",
    "jacobian",
    "minimize_sq",
    "objective",
    "refine_block",
    "solve_targets",
    "symmetric_subspace_problem",
]
