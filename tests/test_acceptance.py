"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
the random campaigns reproduce the published survey at reduced scale.
"""

import time

import numpy as np

from pptatlas import extremal as ex
from pptatlas import invariants as inv
from pptatlas import prodvec as pv
from pptatlas import qstate as qs
from pptatlas import rank4 as r4
from pptatlas import ranksearch as rs

from conftest import (
    block_jacobian_diagonal,
    ghz_vector,
    is_product_certificate,
    lowest_eigenvalue_gap,
    random_separable,
    random_unit_determinant,
    w_vector,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_rank_square_bound():
    """100 seeded extremal descents all satisfy the square-sum bound 193."""
    start = time.time()
    violations = 0
    square_sums = []
    for child in np.random.SeedSequence(101).spawn(100):
        rng = np.random.default_rng(child)
        endpoint = ex.descend_to_extremal(qs.random_ppt_state(rng), rng)
        profile = qs.ppt_profile(endpoint)
        square_sums.append(profile.square_sum)
        if profile.square_sum > 193:
            violations += 1
    elapsed = time.time() - start
    report(1, "extremal-descent square-sum bound",
           violations == 0 and elapsed < 300.0,
           f"max sum {max(square_sums)}, {elapsed:.0f}s for 100 runs")


def test_criterion_02_pure_state_gate():
    """|000><000| is extremal; GHZ and W projectors fail the PPT test."""
    product = ex.is_extremal(qs.projector(np.eye(8)[0]))
    ghz_profile = qs.ppt_profile(qs.projector(ghz_vector()))
    w_profile = qs.ppt_profile(qs.projector(w_vector()))
    ok = (product
          and not ghz_profile.is_ppt
          and ghz_profile.min_eigenvalues[1] <= -0.1
          and not w_profile.is_ppt)
    report(2, "pure-state gate", ok,
           f"GHZ T1 min eigenvalue {ghz_profile.min_eigenvalues[1]:.3f}")


def test_criterion_03_low_rank_separability():
    """Rank-2 and rank-3 PPT states decompose into pure product endpoints."""
    states = []
    rng = np.random.default_rng(303)
    for _ in range(10):
        states.append(random_separable(rng, 2))
    for _ in range(10):
        states.append(random_separable(rng, 3))
    for targets in ((2, 2, 2, 2), (3, 3, 3, 3)):
        found = rs.solve_targets(rs.RankTargetProblem(targets),
                                 np.random.default_rng(sum(targets)),
                                 restarts=40, require_exact=True)
        if found.success:
            states.append(found.state)
    certified = 0
    for k, state in enumerate(states):
        probe = ex.separability_probe(state, np.random.default_rng(9000 + k), n_trials=6)
        if probe.verdict == "separable_evidence" and is_product_certificate(probe.endpoints):
            certified += 1
    report(3, "low-rank separability", certified == len(states),
           f"{certified}/{len(states)} certified (incl. {len(states)-20} from rank search)")


def test_criterion_04_biseparable_family():
    """100 seeded biseparable constructions: always profile 4444, extremal,
    entangled, with family dimension 7 for type I and 2 for type II, each
    decided across a gap of at least six decades; both types occur; sign
    acceptance in the loose bracket."""
    start = time.time()
    types = []
    all_ok = True
    decisions = 0
    accepted = 0
    isotropic_type2 = 0
    jacobians = evaluations = 0
    restart_ends = dict.fromkeys(r4._RESTART_ENDS, 0)
    worst_gap = np.inf
    detail = ""
    for k, child in enumerate(np.random.SeedSequence(404).spawn(100)):
        rng = np.random.default_rng(child)
        result = r4.construct_biseparable(rng)
        state = result.state
        decisions += result.attempts
        accepted += result.sign_accepted
        jacobians += result.jacobians
        evaluations += result.evaluations
        for end, count in result.restart_ends.items():
            restart_ends[end] += count
        profile = qs.ppt_profile(state)
        probe = ex.separability_probe(state, np.random.default_rng(k))
        dimension = r4.family_dimension(state)
        gap = dimension.smallest_kept / dimension.largest_null
        worst_gap = min(worst_gap, gap)
        run_ok = (profile.ranks == (4, 4, 4, 4)
                  and profile.is_ppt
                  and ex.is_extremal(state)
                  and probe.verdict == "inconclusive" and not probe.endpoints
                  and max(result.singular_values) < 1e-9
                  and dimension.count == {"I": 7, "II": 2}[result.classification]
                  and gap >= 1e6)
        if not run_ok:
            all_ok = False
            detail = (f"run {k}: profile {profile.ranks}, type {result.classification}, "
                      f"family dimension {dimension.count} across a gap of {gap:.1e}")
            break
        types.append(result.classification)
        isotropic_type2 += result.isotropic_start and result.classification == "II"
    elapsed = time.time() - start
    rate = accepted / max(decisions, 1)
    both = "I" in types and "II" in types
    majority_type_one = types.count("I") > types.count("II")
    bracket = decisions >= 80 and 1 / 20 <= rate <= 1 / 3
    ok = (all_ok and len(types) == 100 and both and majority_type_one
          and bracket and elapsed < 1800.0)
    report(4, "rank-4444 family reproduction", ok,
           detail or f"type I x{types.count('I')}, type II x{types.count('II')} "
                     f"({isotropic_type2} from isotropic starts), "
                     f"acceptance {accepted}/{decisions} = {rate:.3f}, search work "
                     f"{jacobians} Jacobians and {evaluations} evaluations, restart ends "
                     + ", ".join(f"{end} {count}" for end, count in restart_ends.items())
                     + f", family dimensions 7 and 2, worst gap {worst_gap:.1e}, "
                     f"{elapsed:.0f}s")


def test_criterion_05_type1_suite():
    """100 type I constructions satisfy the family contract; the family has
    exactly 7 parameters at 10 sample points."""
    rng = np.random.default_rng(505)
    all_ok = True
    detail = ""
    min_ratio = np.inf
    for k in range(100):
        state, params = r4.construct_type1(rng)
        mat = state.mat
        profile = qs.ppt_profile(state)
        ratio = inv.quadratic_invariant(state) / state.trace() ** 2
        min_ratio = min(min_ratio, ratio)
        run_ok = (np.abs(mat.imag).max() < 1e-12
                  and all(np.abs(qs.ptranspose_mat(mat, i) - mat).max() < 1e-10
                          for i in (1, 2, 3))
                  and profile.is_ppt
                  and profile.ranks == (4, 4, 4, 4)
                  and ex.is_extremal(state)
                  and ratio > 1e-6)
        if not run_ok:
            all_ok = False
            detail = f"draw {k} violated the contract"
            break
    counts = [r4.family_dimension(r4.construct_type1(np.random.default_rng(7000 + k))[0]).count
              for k in range(10)]
    ok = all_ok and all(c == 7 for c in counts)
    report(5, "type I suite", ok,
           detail or f"min I2 ratio {min_ratio:.2e}, parameter counts {sorted(set(counts))}")


def test_criterion_06_type2_suite():
    """Grid of 20 parameters: decompositions agree, closed forms hold at t=1,
    invariant vanishes, range isotropic, witness relation for all signs."""
    # 20 parameters: positive reals plus complex rays; the real-negative line
    # is avoided because one witness sign branch degenerates there
    angles = np.linspace(0.35, 2.75, 8)
    grid = [1.0, 0.35, 2.4, 5.0]
    grid += [r * np.exp(1j * a) for r in (0.7, 1.6) for a in angles]
    assert len(grid) == 20
    e_mat = qs.invariant_tensor_E()
    all_ok = True
    detail = ""
    for t in grid:
        state, params = r4.construct_type2(t)
        e, f, g = r4.type2_product_bases(t)
        lambdas, norm = r4.type2_weights(t)
        builds = [sum(norm * lambdas[i] * np.outer(m[:, i], m[:, i].conj())
                      for i in range(4)) for m in (e, f, g)]
        agree = max(np.abs(builds[0] - b).max() for b in builds[1:]) < 1e-10
        _, v = np.linalg.eigh(state.mat)
        span = v[:, 4:]
        isotropic = max(abs(span[:, i] @ e_mat @ span[:, j])
                        for i in range(4) for j in range(4)) < 1e-10
        # all four witness branches exist off the real axis; exactly one
        # degenerates to the zero matrix for real parameters
        is_real = abs(complex(t).imag) < 1e-12
        witness_ok = True
        degenerate_branches = 0
        for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            try:
                r4.type2_pt_witness(t, signs)
            except Exception:
                degenerate_branches += 1
        if is_real:
            witness_ok = degenerate_branches == 1
        else:
            witness_ok = degenerate_branches == 0
        t_ok = (agree and isotropic and witness_ok
                and abs(inv.quadratic_invariant(state)) < 1e-12)
        if not t_ok:
            all_ok = False
            detail = f"t = {t}"
            break
    _, params_one = r4.construct_type2(1.0)
    closed = (params_one.lambdas == (4.0, 4.0, 1.0, 1.0)
              and abs(params_one.normalization - 1 / 32) < 1e-12)
    report(6, "type II suite", all_ok and closed, detail or f"{len(grid)} grid points")


def test_criterion_07_upb_suite():
    """Ten angle triples: extremal type I states with the projector spectrum,
    kernel recovery and product-free range."""
    rng = np.random.default_rng(707)
    all_ok = True
    detail = ""
    for k in range(10):
        angles = rng.uniform(0.25, 1.3, size=3)
        upb = pv.upb_standard(*angles)
        state = pv.upb_state(upb)
        evs = np.linalg.eigvalsh(state.mat)
        spectrum = (np.abs(evs[:4]).max() < 1e-12
                    and np.abs(evs[4:] - 0.25).max() < 1e-12)
        kernel = pv.SubspaceBasis.kernel_of(state)
        recovered = True
        for bipartition in pv.BIPARTITIONS:
            found = pv.product_vectors_in_subspace(kernel, bipartition)
            hits = sum(
                any(1 - abs(np.vdot(vec, u)) < 1e-8 for u in upb.T)
                for vec in found.vectors.T)
            recovered = recovered and hits == 4
        product_free = pv.full_product_vectors_in_subspace(
            pv.SubspaceBasis.range_of(state)) == []
        run_ok = (spectrum and recovered and product_free
                  and ex.is_extremal(state)
                  and r4.classify_type(state) == "I")
        if not run_ok:
            all_ok = False
            detail = f"angles {np.round(angles, 3)}"
            break
    report(7, "UPB suite", all_ok, detail or "10 angle triples")


def test_criterion_08_invariant_suite():
    """50 random PPT states: all five invariants stable under partial
    transposes and local transforms; the quadratic one never negative."""
    rng = np.random.default_rng(808)
    all_ok = True
    detail = ""
    for k in range(50):
        state = qs.random_ppt_state(rng)
        base = np.array([inv.quadratic_invariant(state), *inv.quartic_invariants(state)])
        if base[0] < -1e-12:
            all_ok, detail = False, f"state {k}: negative I2"
            break
        for i in (1, 2, 3):
            other = qs.partial_transpose(state, i)
            vals = np.array([inv.quadratic_invariant(other), *inv.quartic_invariants(other)])
            rel = np.abs(vals - base) / np.maximum(np.abs(base), 1e-300)
            if rel.max() >= 1e-9:
                all_ok, detail = False, f"state {k}: transpose {i} drift {rel.max():.1e}"
                break
        if not all_ok:
            break
        for _ in range(10):
            moved = qs.product_transform(
                state, *(random_unit_determinant(rng) for _ in range(3)))
            vals = np.array([inv.quadratic_invariant(moved), *inv.quartic_invariants(moved)])
            rel = np.abs(vals - base) / np.maximum(np.abs(base), 1e-300)
            if rel.max() >= 1e-8:
                all_ok, detail = False, f"state {k}: transform drift {rel.max():.1e}"
                break
        if not all_ok:
            break
    report(8, "invariant suite", all_ok, detail or "50 states x (3 transposes + 10 transforms)")


def test_criterion_09_jacobian_check():
    """The block-residual Jacobian that refine_block uses matches central
    finite differences of the eigenvalue residual on its diagonal rows."""
    rng = np.random.default_rng(909)
    problem = rs.RankTargetProblem((6, 6, 6, 6))
    checked = 0
    worst = 0.0
    while checked < 20:
        x = rs._random_start(rng)
        if lowest_eigenvalue_gap(problem, x) < 1e-6:
            continue
        jac = block_jacobian_diagonal(problem, x)
        step = 1e-6
        for j in range(0, rs.N_PARAMETERS, 5):
            shift = np.zeros(rs.N_PARAMETERS)
            shift[j] = step
            fd = (rs.eigen_residual(problem, x + shift)
                  - rs.eigen_residual(problem, x - shift)) / (2 * step)
            worst = max(worst, float(np.abs(jac[:, j] - fd).max()))
        checked += 1
    report(9, "jacobian finite-difference check", worst < 1e-4,
           f"20 points, worst deviation {worst:.1e}")


def test_criterion_10_census_sanity():
    """A budgeted campaign confirms the expected rank combinations and none
    of the reported-absent ones."""
    confirmed = {}
    for targets in ((4, 4, 4, 4), (5, 5, 5, 5), (6, 6, 6, 6), (7, 7, 7, 7),
                    (8, 8, 8, 8), (5, 5, 5, 6), (6, 6, 6, 7)):
        result = rs.solve_targets(rs.RankTargetProblem(targets),
                                  np.random.default_rng(sum(targets) * 13),
                                  restarts=30, require_exact=True)
        confirmed["".join(map(str, targets))] = result.success
    absent = {}
    for targets in ((5, 5, 6, 8), (5, 5, 8, 8), (5, 8, 8, 8)):
        result = rs.solve_targets(rs.RankTargetProblem(targets),
                                  np.random.default_rng(sum(targets) * 13),
                                  restarts=15, require_exact=True)
        absent["".join(map(str, targets))] = result.success
    ok = all(confirmed.values()) and not any(absent.values())
    report(10, "census sanity", ok,
           f"confirmed {sorted(k for k, v in confirmed.items() if v)}, "
           f"absent {sorted(k for k, v in absent.items() if not v)}")


def test_criterion_11_rank5555_face_structure():
    """Entangled rank-5555 states sit on one-dimensional faces with a pure
    state at one end and a rank-4444 extremal state at the other."""
    instances = 0
    checked_ok = True
    detail = ""
    for seed in range(80):
        rng = np.random.default_rng(1100 + seed)
        found = rs.solve_targets(rs.RankTargetProblem((5, 5, 5, 5)), rng,
                                 restarts=6, require_exact=True)
        if not found.success:
            continue
        space = ex.face_solution_space(found.state)
        if space.dimension != 1:
            continue
        direction = space.basis[0]
        _, plus = ex.line_search_to_boundary(space.state, direction)
        _, minus = ex.line_search_to_boundary(space.state, -direction)
        profiles = sorted([qs.ppt_profile(plus).ranks, qs.ppt_profile(minus).ranks])
        ends_extremal = (ex.is_extremal(plus) and ex.is_extremal(minus))
        if profiles != [(1, 1, 1, 1), (4, 4, 4, 4)] or not ends_extremal:
            checked_ok = False
            detail = f"seed {seed}: endpoints {profiles}"
            break
        instances += 1
        if instances >= 3:
            break
    report(11, "rank-5555 face structure", checked_ok and instances >= 3,
           detail or f"{instances} one-dimensional faces with (1111, 4444) endpoints")
