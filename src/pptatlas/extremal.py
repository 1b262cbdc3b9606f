"""Face descent in the convex set of unit-trace PPT states.

A valid search direction at an interior point rho of a face is a traceless
Hermitian sigma whose partial transposes stay supported inside the ranges of
the matching transposes of rho. Writing P_i for the projector onto the range
of rho^Ti, those constraints are the fixed-point equations of four projection
maps on Hermitian space, combined into a single eigenvalue problem: sigma is a
valid direction exactly when the sum of the four maps sends sigma to 4*sigma.
The state is extremal when rho itself is the only solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .config import DEFAULT
from .errors import BadArity, MaxIterations, MinimizationFailed, NotPpt
from .qstate import (
    DIM,
    HermitianOperator,
    PptProfile,
    _as_matrix,
    all_ptransposes,
    factor_product_vector,
    hermitian_basis,
    invariant_hermitian_basis,
    mat_to_coords,
    ppt_profile,
    ptranspose_mat,
    ptranspose_stack,
    symmetrize_under_transposes,
    transpose_spectra,
)


@dataclass
class FaceOperators:
    """The four projection maps, each materialized as a real symmetric 64x64
    matrix in the orthonormal Hermitian basis, plus the range projectors."""

    operators: np.ndarray   # (4, 64, 64)
    projectors: np.ndarray  # (4, 8, 8)
    profile: PptProfile

    @property
    def combined(self) -> np.ndarray:
        total = self.operators.sum(axis=0)
        return 0.5 * (total + total.T)


def face_operators(rho, tol: float = DEFAULT.rank_tol,
                   psd_tol: float = DEFAULT.psd_tol) -> FaceOperators:
    """Materialize the four face-constraint projections for a PPT state."""
    mat = _as_matrix(rho)
    mat = mat / np.trace(mat).real
    profile = ppt_profile(mat, tol, psd_tol)
    if not profile.is_ppt:
        raise NotPpt(f"minimum transpose eigenvalue {min(profile.min_eigenvalues):.3e}")
    basis = hermitian_basis()
    operators = np.empty((4, 64, 64))
    projectors = np.empty((4, DIM, DIM), dtype=complex)
    for i, pt in enumerate(all_ptransposes(mat)):
        w, v = np.linalg.eigh(pt)
        keep = np.abs(w) > tol * np.abs(w).max()
        vk = v[:, keep]
        proj = vk @ vk.conj().T
        projectors[i] = proj
        bt = ptranspose_stack(basis, i)
        mapped = np.einsum("ab,kbc,cd->kad", proj, bt, proj)
        mapped = ptranspose_stack(mapped, i)
        operators[i] = np.einsum("lab,kba->lk", basis, mapped).real
    return FaceOperators(operators, projectors, profile)


@dataclass
class FaceSolutionSpace:
    """Traceless solutions of the combined face equation at a given state.

    The trivial solution rho is removed; `dimension` is the dimension of the
    face of the unit-trace PPT body in which the state is an interior point,
    so zero means the state is extremal.
    """

    state: HermitianOperator
    basis: np.ndarray  # (dimension, 8, 8) traceless Hermitian, orthonormal
    dimension: int
    profile: PptProfile
    eigenvalues: np.ndarray = field(repr=False, default=None)


def face_solution_space(rho, tol: float = DEFAULT.rank_tol,
                        psd_tol: float = DEFAULT.psd_tol,
                        window: float = DEFAULT.face_eig_window) -> FaceSolutionSpace:
    """Solve the combined eigenvalue problem and keep the traceless directions.

    Eigenvectors with eigenvalue within `window` of 4 span the solutions; each
    is shifted by -(trace)*rho, which annihilates the rho direction and leaves
    traceless face tangents whose span is orthonormalized.
    """
    ops = face_operators(rho, tol, psd_tol)
    state = HermitianOperator(_as_matrix(rho)).normalized()
    w, v = np.linalg.eigh(ops.combined)
    sel = np.abs(w - 4.0) < window
    count = int(np.count_nonzero(sel))
    basis_full = hermitian_basis()
    rho_coords = mat_to_coords(state.mat, basis_full)
    trace_vec = np.einsum("kaa->k", basis_full).real
    if count <= 1:
        return FaceSolutionSpace(state, np.zeros((0, DIM, DIM), dtype=complex), 0,
                                 ops.profile, w[sel])
    sols = v[:, sel].T  # (count, 64)
    sols = sols - np.outer(sols @ trace_vec, rho_coords)
    u_, s_, vt = np.linalg.svd(sols, full_matrices=False)
    dim = count - 1
    # nonzero singular values of the trace-removal map are >= 1, the removed
    # rho direction sits at roundoff level
    dim = min(dim, int(np.count_nonzero(s_ > 0.5)))
    dirs = vt[:dim]
    mats = np.einsum("dk,kab->dab", dirs, basis_full)
    return FaceSolutionSpace(state, mats, dim, ops.profile, w[sel])


class ExtremalityResult(NamedTuple):
    extremal: bool
    face_dimension: int
    profile: PptProfile


def is_extremal(rho, tol: float = DEFAULT.rank_tol,
                psd_tol: float = DEFAULT.psd_tol,
                window: float = DEFAULT.face_eig_window) -> ExtremalityResult:
    """Extremality test: the state is extremal iff its face has dimension zero."""
    space = face_solution_space(rho, tol, psd_tol, window)
    return ExtremalityResult(space.dimension == 0, space.dimension, space.profile)


# ---------------------------------------------------------------------------
# boundary line search and descent
# ---------------------------------------------------------------------------

def clean_ppt_boundary(mat: np.ndarray, floor: float = 1e-12,
                       passes: int = 4) -> np.ndarray:
    """Clip roundoff-negative kernel modes of whichever transpose is worst.

    Boundary points produced by line searches carry intended-zero eigenvalues
    displaced to order -1e-10; clipping them in the transpose domain perturbs
    the state far below the rank cut while restoring strict positivity.
    """
    mat = np.asarray(mat, dtype=complex)
    for _ in range(passes):
        minima = transpose_spectra(mat).min(axis=1)
        worst = int(np.argmin(minima))
        if minima[worst] >= -floor:
            break
        pt = ptranspose_mat(mat, worst)
        w, v = np.linalg.eigh(pt)
        clipped = (v * np.clip(w, 0.0, None)) @ v.conj().T
        mat = ptranspose_mat(clipped, worst)
        mat = 0.5 * (mat + mat.conj().T)
    return mat / np.trace(mat).real


def line_search_to_boundary(rho, sigma: np.ndarray,
                            psd_tol: float = DEFAULT.psd_tol,
                            eps_tol: float = 1e-10) -> tuple[float, HermitianOperator]:
    """Largest epsilon with rho + epsilon*sigma still PPT, found by bisection
    on the minimum eigenvalue over all four partial transposes.

    The acceptance threshold is half of psd_tol so that accepted boundary
    points still pass downstream PPT checks at the full tolerance."""
    mat = _as_matrix(rho)
    sig = _as_matrix(sigma)
    threshold = -0.5 * psd_tol

    def ppt_at(eps: float) -> bool:
        return transpose_spectra(mat + eps * sig).min() >= threshold

    if transpose_spectra(mat).min() < -psd_tol:
        raise NotPpt("starting state is not PPT within tolerance")
    lo, hi = 0.0, 1.0
    while ppt_at(hi):
        lo = hi
        hi *= 2.0
        if hi > 2.0 ** 30:
            raise MaxIterations("search direction never leaves the PPT set")
    while hi - lo > eps_tol:
        mid = 0.5 * (lo + hi)
        if ppt_at(mid):
            lo = mid
        else:
            hi = mid
    return lo, HermitianOperator(clean_ppt_boundary(mat + lo * sig))


def _random_direction(space: FaceSolutionSpace, rng: np.random.Generator) -> np.ndarray:
    if space.dimension == 0:
        raise ValueError("state is extremal, no face directions exist")
    coeffs = rng.standard_normal(space.dimension)
    sigma = np.einsum("d,dab->ab", coeffs, space.basis)
    sigma = 0.5 * (sigma + sigma.conj().T)
    return sigma / np.linalg.norm(sigma)


_MAX_DESCENT_STEPS = 100
_MAX_DIRECTION_RETRIES = 12


def descend_to_extremal(rho, rng: np.random.Generator,
                        tol: float = DEFAULT.rank_tol,
                        psd_tol: float = DEFAULT.psd_tol,
                        window: float = DEFAULT.face_eig_window) -> HermitianOperator:
    """Repeated boundary line searches along random face directions until the
    face dimension reaches zero; returns the extremal endpoint. Raises
    MaxIterations when _MAX_DIRECTION_RETRIES directions all fail to lower
    the face dimension, or after _MAX_DESCENT_STEPS steps."""
    space = face_solution_space(rho, tol, psd_tol, window)
    for _ in range(_MAX_DESCENT_STEPS):
        if space.dimension == 0:
            return space.state
        for _ in range(_MAX_DIRECTION_RETRIES):
            sigma = _random_direction(space, rng)
            eps, candidate = line_search_to_boundary(space.state, sigma, psd_tol)
            if eps <= 1e-9:
                continue
            new_space = face_solution_space(candidate, tol, psd_tol, window)
            if new_space.dimension < space.dimension:
                space = new_space
                break
        else:
            raise MaxIterations(
                f"face dimension stuck at {space.dimension} after "
                f"{_MAX_DIRECTION_RETRIES} directions"
            )
    raise MaxIterations(f"no extremal point within {_MAX_DESCENT_STEPS} descent steps")


# ---------------------------------------------------------------------------
# separability probe
# ---------------------------------------------------------------------------

@dataclass
class ProbeEndpoint:
    state: HermitianOperator
    weight: float
    profile: PptProfile
    pure: bool
    product: bool
    # False when the walk stopped before a face of dimension zero, or reached
    # one with a mixed state of rank 2 or 3
    resolved: bool


@dataclass
class SeparabilityProbe:
    """Outcome of the two-directions decomposition walk.

    verdict 'separable_evidence' means some probe tree decomposed the state
    into pure product endpoints (a numerical separability certificate);
    'entangled_evidence' means a mixed extremal endpoint was found, which for
    a nonextremal input may still be a false negative (`caveat` is then set).

    The endpoints of an 'entangled_evidence' verdict on a nonextremal input
    pool the mixed extremal leaves of all trees, merged where they coincide.
    Each tree splits weight 1, so the pooled weights sum over the trees (to
    the number of trees run when every leaf is mixed), not to 1: they are not
    a decomposition of the input.
    """

    verdict: str
    endpoints: list[ProbeEndpoint]
    caveat: bool
    trees: int
    reconstruction_error: float | None = None


def _merge_endpoint(pool: list[ProbeEndpoint], ep: ProbeEndpoint) -> None:
    for known in pool:
        if np.linalg.norm(known.state.mat - ep.state.mat) < 1e-6:
            known.weight += ep.weight
            return
    pool.append(ep)


def _endpoint(state: HermitianOperator, weight: float, profile: PptProfile,
              resolved: bool, tol: float) -> ProbeEndpoint:
    pure = profile.ranks[0] == 1
    product = False
    if pure:
        w, v = np.linalg.eigh(state.mat)
        product = factor_product_vector(v[:, -1], tol=1e-6) is not None
    return ProbeEndpoint(state, weight, profile, pure, product, resolved)


def separability_probe(rho, rng: np.random.Generator, n_trials: int = 4,
                       tol: float = DEFAULT.rank_tol,
                       psd_tol: float = DEFAULT.psd_tol,
                       window: float = DEFAULT.face_eig_window) -> SeparabilityProbe:
    """Walk to both face boundary points along random directions, recursing on
    the endpoints to depth 8, and classify the state by the extremal states
    collected."""
    root = HermitianOperator(_as_matrix(rho)).normalized()
    root_space = face_solution_space(root, tol, psd_tol, window)
    if root_space.dimension == 0:
        ep = _endpoint(root_space.state, 1.0, root_space.profile, True, tol)
        if ep.pure and ep.product:
            return SeparabilityProbe("separable_evidence", [ep], False, 0, 0.0)
        # a mixed extremal PPT state cannot be a mixture of pure products
        return SeparabilityProbe("entangled_evidence", [ep], False, 0, 0.0)

    mixed_pool: list[ProbeEndpoint] = []
    trees_run = 0
    for _ in range(max(1, n_trials)):
        trees_run += 1
        leaves: list[ProbeEndpoint] = []
        stack = [(1.0, root_space, 0)]
        certifiable = True
        while stack:
            weight, space, depth = stack.pop()
            if space.dimension == 0:
                # a PPT state of rank 2 or 3 is separable, so a mixed extremal
                # leaf of that rank is a misread kernel, not entanglement
                misread = 2 <= space.profile.ranks[0] <= 3
                leaves.append(_endpoint(space.state, weight, space.profile,
                                        not misread, tol))
                certifiable = certifiable and not misread
                continue
            if depth >= 8:
                leaves.append(_endpoint(space.state, weight, space.profile, False, tol))
                certifiable = False
                continue
            split = None
            for _ in range(5):
                sigma = _random_direction(space, rng)
                eps_plus, cand_plus = line_search_to_boundary(space.state, sigma, psd_tol)
                eps_minus, cand_minus = line_search_to_boundary(space.state, -sigma, psd_tol)
                if eps_plus > 1e-8 and eps_minus > 1e-8:
                    split = (eps_plus, cand_plus, eps_minus, cand_minus)
                    break
            if split is None:
                leaves.append(_endpoint(space.state, weight, space.profile, False, tol))
                certifiable = False
                continue
            eps_plus, cand_plus, eps_minus, cand_minus = split
            total = eps_plus + eps_minus
            w_minus = weight * eps_plus / total
            w_plus = weight * eps_minus / total
            stack.append((w_minus, face_solution_space(cand_minus, tol, psd_tol, window),
                          depth + 1))
            stack.append((w_plus, face_solution_space(cand_plus, tol, psd_tol, window),
                          depth + 1))

        for ep in leaves:
            if ep.resolved and not ep.pure:
                _merge_endpoint(mixed_pool, ep)
        if certifiable and all(ep.pure and ep.product for ep in leaves):
            # certify the merged endpoints that are returned, not the leaves
            merged: list[ProbeEndpoint] = []
            for ep in leaves:
                _merge_endpoint(merged, ep)
            rebuilt = sum(ep.weight * ep.state.mat for ep in merged)
            err = float(np.linalg.norm(rebuilt - root.mat))
            if err < 1e-8:
                return SeparabilityProbe("separable_evidence", merged, False,
                                         trees_run, err)

    if mixed_pool:
        return SeparabilityProbe("entangled_evidence", mixed_pool, True, trees_run)
    return SeparabilityProbe("inconclusive", [], True, trees_run)


# ---------------------------------------------------------------------------
# rank square-sum bound
# ---------------------------------------------------------------------------

class RankSquareBound(NamedTuple):
    bound: int
    square_sum: int
    admissible: bool


def rank_square_bound(ranks, n_parties: int = 3, total_dim: int = DIM) -> RankSquareBound:
    """Upper limit (2^(n-1) - 1) N^2 + 1 on the rank square sum of an extremal
    PPT state of an n-partite system of total dimension N."""
    ranks = [int(m) for m in ranks]
    expected = 2 ** (n_parties - 1)
    if len(ranks) != expected:
        raise BadArity(f"expected {expected} ranks for {n_parties} parties, got {len(ranks)}")
    if any(m < 1 or m > total_dim for m in ranks):
        raise BadArity(f"ranks must lie in 1..{total_dim}, got {ranks}")
    bound = (2 ** (n_parties - 1) - 1) * total_dim ** 2 + 1
    square_sum = sum(m * m for m in ranks)
    return RankSquareBound(bound, square_sum, square_sum <= bound)


# ---------------------------------------------------------------------------
# completely symmetric PPT states
# ---------------------------------------------------------------------------

def symmetric_state(rng: np.random.Generator, rank: int | None = None) -> HermitianOperator:
    """PPT state symmetric under all three partial transpositions, hence real.

    With rank None a positive matrix is averaged with its seven partial
    transposes, which is positive with high probability (rank 8). With rank m
    the square sum of the 8-m lowest eigenvalues is minimized inside the
    27-dimensional completely symmetric subspace from up to 40 random
    starts; raises MinimizationFailed if the objective cannot be brought
    below 1e-16.
    """
    if rank is None:
        for _ in range(200):
            g = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
            sym = symmetrize_under_transposes(g @ g.conj().T, (1, 2, 3))
            if np.linalg.eigvalsh(sym.mat).min() >= 0.0:
                return sym.normalized()
        raise MaxIterations("no positive completely symmetric matrix found")

    if not 4 <= rank <= DIM:
        raise ValueError(f"rank must be in 4..8, got {rank}")
    from .ranksearch import RankTargetProblem, refine_block

    problem = RankTargetProblem((rank,) * 4, invariant_hermitian_basis((1, 2, 3)))
    for _ in range(40):
        start = symmetric_state(rng)  # rank-8 seed inside the subspace
        x0 = np.einsum("kab,ba->k", problem.basis, start.mat).real
        x, f, _ = refine_block(problem, x0, f_target=1e-26)
        if f >= 1e-16:
            continue
        state = problem.rho(x)
        if state.trace() < 0:
            state = HermitianOperator(-state.mat)
        state = state.normalized()
        profile = ppt_profile(state, DEFAULT.rank_tol, DEFAULT.psd_tol)
        if profile.is_ppt and profile.ranks == (rank,) * 4:
            # round to the exactly symmetric subspace
            return symmetrize_under_transposes(state, (1, 2, 3)).normalized()
    raise MinimizationFailed(f"rank-{rank} symmetric objective never reached 1e-16")


__all__ = [
    "ExtremalityResult",
    "FaceOperators",
    "FaceSolutionSpace",
    "ProbeEndpoint",
    "RankSquareBound",
    "SeparabilityProbe",
    "clean_ppt_boundary",
    "descend_to_extremal",
    "face_operators",
    "face_solution_space",
    "is_extremal",
    "line_search_to_boundary",
    "rank_square_bound",
    "separability_probe",
    "symmetric_state",
]
