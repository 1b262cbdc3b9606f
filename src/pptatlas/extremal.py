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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import DEFAULT, Tolerances
from .errors import BadArity, MaxIterations, NotPpt
from .qstate import (
    DIM,
    HermitianOperator,
    PptProfile,
    _as_matrix,
    all_ptransposes,
    basis_ptransposes,
    coords_to_mat,
    factor_product_vector,
    hermitian_basis,
    mat_to_coords,
    ppt_profile,
    ptranspose_mat,
    transpose_spectra,
)


@dataclass
class FaceSolutionSpace:
    """Traceless solutions of the combined face equation at a given state.

    The trivial solution rho is removed; `dimension` is the dimension of the
    face of the unit-trace PPT body in which the state is an interior point,
    so zero means the state is extremal. `profile` is ppt_profile(rho) of rho
    as given.
    """

    state: HermitianOperator
    basis: np.ndarray  # (dimension, 8, 8) traceless Hermitian, orthonormal
    dimension: int
    profile: PptProfile


def face_solution_space(rho, tolerances: Tolerances = DEFAULT) -> FaceSolutionSpace:
    """Solve the combined eigenvalue problem and keep the traceless directions.

    Each of the four projection maps sigma -> (P_i sigma^Ti P_i)^Ti is built
    as a real symmetric 64x64 matrix in the orthonormal Hermitian basis, and
    their symmetrized sum is diagonalized. Eigenvectors with eigenvalue within
    face_eig_window of 4 span the solutions; each is shifted by -(trace)*rho,
    which annihilates the rho direction and leaves traceless face tangents
    whose span is orthonormalized. Raises NotPpt when rho is not PPT.
    """
    mat = _as_matrix(rho)
    profile = ppt_profile(mat, tolerances)
    if not profile.is_ppt:
        raise NotPpt(f"minimum transpose eigenvalue {min(profile.min_eigenvalues):.3e}")
    mat = mat / np.trace(mat).real
    operators = np.empty((4, 64, 64))
    for i, pt in enumerate(all_ptransposes(mat)):
        w, v = np.linalg.eigh(pt)
        keep = np.abs(w) > tolerances.rank_tol * np.abs(w).max()
        vk = v[:, keep]
        proj = vk @ vk.conj().T
        mapped = np.einsum("ab,kbc,cd->kad", proj, basis_ptransposes()[i], proj)
        operators[i] = np.einsum("lab,kba->lk", hermitian_basis(), ptranspose_mat(mapped, i)).real
    total = operators.sum(axis=0)
    state = HermitianOperator(_as_matrix(rho)).normalized()
    w, v = np.linalg.eigh(0.5 * (total + total.T))
    sel = np.abs(w - 4.0) < tolerances.face_eig_window
    count = int(np.count_nonzero(sel))
    if count <= 1:
        return FaceSolutionSpace(state, np.zeros((0, DIM, DIM), dtype=complex), 0, profile)
    sols = v[:, sel].T  # (count, 64)
    sols = sols - np.outer(sols @ mat_to_coords(np.eye(DIM)), mat_to_coords(state.mat))
    u_, s_, vt = np.linalg.svd(sols, full_matrices=False)
    dim = count - 1
    # nonzero singular values of the trace-removal map are >= 1, the removed
    # rho direction sits at roundoff level
    dim = min(dim, int(np.count_nonzero(s_ > 0.5)))
    dirs = vt[:dim]
    return FaceSolutionSpace(state, coords_to_mat(dirs), dim, profile)


def is_extremal(rho, tolerances: Tolerances = DEFAULT) -> bool:
    """Extremality test: the state is extremal iff its face has dimension zero."""
    return face_solution_space(rho, tolerances).dimension == 0


# ---------------------------------------------------------------------------
# boundary line search and descent
# ---------------------------------------------------------------------------

# clean_ppt_boundary clips a transpose whose lowest eigenvalue is below
# -_CLIP_FLOOR, at most _CLIP_PASSES times
_CLIP_FLOOR = 1e-12
_CLIP_PASSES = 4
# bisection width at which line_search_to_boundary stops
_BOUNDARY_EPS = 1e-10


def clean_ppt_boundary(mat: np.ndarray) -> np.ndarray:
    """Clip roundoff-negative kernel modes of whichever transpose is worst.

    Boundary points produced by line searches carry intended-zero eigenvalues
    displaced to order -1e-10; clipping them in the transpose domain perturbs
    the state far below the rank cut while restoring strict positivity.
    """
    mat = np.asarray(mat, dtype=complex)
    for _ in range(_CLIP_PASSES):
        minima = transpose_spectra(mat).min(axis=1)
        worst = int(np.argmin(minima))
        if minima[worst] >= -_CLIP_FLOOR:
            break
        pt = ptranspose_mat(mat, worst)
        w, v = np.linalg.eigh(pt)
        clipped = (v * np.clip(w, 0.0, None)) @ v.conj().T
        mat = ptranspose_mat(clipped, worst)
        mat = 0.5 * (mat + mat.conj().T)
    return mat / np.trace(mat).real


def line_search_to_boundary(rho, sigma: np.ndarray,
                            tolerances: Tolerances = DEFAULT
                            ) -> tuple[float, HermitianOperator]:
    """Largest epsilon with rho + epsilon*sigma still PPT, found by bisection
    on the minimum eigenvalue over all four partial transposes, to a bracket
    narrower than _BOUNDARY_EPS.

    The acceptance threshold is half of psd_tol so that accepted boundary
    points still pass downstream PPT checks at the full tolerance."""
    mat = _as_matrix(rho)
    sig = _as_matrix(sigma)
    threshold = -0.5 * tolerances.psd_tol

    def ppt_at(eps: float) -> bool:
        return transpose_spectra(mat + eps * sig).min() >= threshold

    if transpose_spectra(mat).min() < -tolerances.psd_tol:
        raise NotPpt("starting state is not PPT within tolerance")
    lo, hi = 0.0, 1.0
    while ppt_at(hi):
        lo = hi
        hi *= 2.0
        if hi > 2.0 ** 30:
            raise MaxIterations("search direction never leaves the PPT set")
    while hi - lo > _BOUNDARY_EPS:
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
                        tolerances: Tolerances = DEFAULT) -> HermitianOperator:
    """Repeated boundary line searches along random face directions until the
    face dimension reaches zero; returns the extremal endpoint. Raises
    MaxIterations when _MAX_DIRECTION_RETRIES directions all fail to lower
    the face dimension, or after _MAX_DESCENT_STEPS steps."""
    space = face_solution_space(rho, tolerances)
    for _ in range(_MAX_DESCENT_STEPS):
        if space.dimension == 0:
            return space.state
        for _ in range(_MAX_DIRECTION_RETRIES):
            sigma = _random_direction(space, rng)
            eps, candidate = line_search_to_boundary(space.state, sigma, tolerances)
            if eps <= 1e-9:
                continue
            new_space = face_solution_space(candidate, tolerances)
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


@dataclass
class SeparabilityProbe:
    """Outcome of the two-directions decomposition walk.

    verdict 'separable_evidence' means a probe tree decomposed the state into
    pure product endpoints whose weights sum to 1 and which rebuild it to
    reconstruction_error (a numerical separability certificate). Otherwise
    the verdict is 'inconclusive' with no endpoints: a tree that ends in a
    mixed state decides nothing, because a separable state can be a mixture
    of entangled extremal PPT states.
    """

    verdict: str
    endpoints: list[ProbeEndpoint]
    trees: int
    reconstruction_error: float | None = None


def _merge_endpoint(pool: list[ProbeEndpoint], ep: ProbeEndpoint) -> None:
    for known in pool:
        if np.linalg.norm(known.state.mat - ep.state.mat) < 1e-6:
            known.weight += ep.weight
            return
    pool.append(ep)


def _pure_product(space: FaceSolutionSpace) -> bool:
    """Leaf test: rank one, and the top eigenvector factors into three qubits."""
    if space.profile.ranks[0] != 1:
        return False
    w, v = np.linalg.eigh(space.state.mat)
    return factor_product_vector(v[:, -1], tol=1e-6) is not None


def separability_probe(rho, rng: np.random.Generator, n_trials: int = 4,
                       tolerances: Tolerances = DEFAULT) -> SeparabilityProbe:
    """Split the state between the two boundary points of a random face
    direction, recursing on both, and certify it separable when one tree's
    leaves are all pure product states that rebuild it.

    A node is a leaf when its face has dimension 0, at depth 8, or when 5
    directions give no two-sided split."""
    root = HermitianOperator(_as_matrix(rho)).normalized()
    root_space = face_solution_space(root, tolerances)
    if root_space.dimension == 0:
        if _pure_product(root_space):
            return SeparabilityProbe("separable_evidence",
                                     [ProbeEndpoint(root_space.state, 1.0)], 0, 0.0)
        return SeparabilityProbe("inconclusive", [], 0)

    trees_run = 0
    for _ in range(max(1, n_trials)):
        trees_run += 1
        leaves: list[ProbeEndpoint] = []
        certified = True
        stack = [(1.0, root_space, 0)]
        while stack:
            weight, space, depth = stack.pop()
            split = None
            if space.dimension > 0 and depth < 8:
                for _ in range(5):
                    sigma = _random_direction(space, rng)
                    eps_plus, cand_plus = line_search_to_boundary(space.state, sigma,
                                                                  tolerances)
                    eps_minus, cand_minus = line_search_to_boundary(space.state, -sigma,
                                                                    tolerances)
                    if eps_plus > 1e-8 and eps_minus > 1e-8:
                        split = (eps_plus, cand_plus, eps_minus, cand_minus)
                        break
            if split is None:
                # a failed leaf does not end the tree, so that the trees after
                # it draw the same directions from rng
                certified = certified and _pure_product(space)
                leaves.append(ProbeEndpoint(space.state, weight))
                continue
            eps_plus, cand_plus, eps_minus, cand_minus = split
            total = eps_plus + eps_minus
            w_minus = weight * eps_plus / total
            w_plus = weight * eps_minus / total
            stack.append((w_minus, face_solution_space(cand_minus, tolerances), depth + 1))
            stack.append((w_plus, face_solution_space(cand_plus, tolerances), depth + 1))

        if certified:
            # certify the merged endpoints that are returned, not the leaves
            merged: list[ProbeEndpoint] = []
            for ep in leaves:
                _merge_endpoint(merged, ep)
            rebuilt = sum(ep.weight * ep.state.mat for ep in merged)
            err = float(np.linalg.norm(rebuilt - root.mat))
            if err < 1e-8:
                return SeparabilityProbe("separable_evidence", merged, trees_run, err)

    return SeparabilityProbe("inconclusive", [], trees_run)


# ---------------------------------------------------------------------------
# rank square-sum bound
# ---------------------------------------------------------------------------

class RankSquareBound(NamedTuple):
    bound: int
    square_sum: int
    admissible: bool


def rank_square_bound(ranks) -> RankSquareBound:
    """Upper limit (2^(n-1) - 1) N^2 + 1 = 193 on the rank square sum of an
    extremal PPT state of n = 3 qubits, total dimension N = 8."""
    ranks = [int(m) for m in ranks]
    if len(ranks) != 4:
        raise BadArity(f"expected 4 ranks for 3 parties, got {len(ranks)}")
    if any(m < 1 or m > DIM for m in ranks):
        raise BadArity(f"ranks must lie in 1..{DIM}, got {ranks}")
    square_sum = sum(m * m for m in ranks)
    return RankSquareBound(193, square_sum, square_sum <= 193)


__all__ = [
    "FaceSolutionSpace",
    "ProbeEndpoint",
    "RankSquareBound",
    "SeparabilityProbe",
    "clean_ppt_boundary",
    "descend_to_extremal",
    "face_solution_space",
    "is_extremal",
    "line_search_to_boundary",
    "rank_square_bound",
    "separability_probe",
]
