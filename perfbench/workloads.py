"""The four workloads: their seeded inputs, the operation each one times, and
the independent checks each output must pass.

An operation is one unit of user-visible work. Operations come in rounds,
and a run attempts whole rounds only, so every run does the same mix.
pptatlas functions are reached through their modules at call time, so a
Tracer's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext

import numpy as np

import checks
from pptatlas import cli, extremal, qstate, rank4, ranksearch
from spans import ROUNDTRIP
SQUARE_SUM_BOUND = 193  # (2^(3-1) - 1) * 8^2 + 1 for three qubits


class OperationFailed(Exception):
    """The program returned without the output the operation asks for."""


def _roundtrip(record, tracer):
    """Serialize an annotated record and read it back, as a campaign does."""
    with tracer.span(ROUNDTRIP) if tracer else nullcontext():
        text = record.to_json()
        back = cli.StateRecord.from_json(text)
    if tracer:
        tracer.record_bytes.append(len(text))
    return text, back


def _check_roundtrip(record, text: str, back) -> None:
    if back.matrix.tobytes() != np.asarray(record.matrix).tobytes() or back.to_json() != text:
        raise checks.CheckFailed("record round trip is not bit-exact")


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
    return h.hexdigest()


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return v / np.linalg.norm(v)


def random_product_mixture(rng: np.random.Generator, k: int) -> np.ndarray:
    """Unit-trace mixture of k random pure product states, with weights
    drawn from [0.2, 1.2) before normalization."""
    weights = rng.random(k) + 0.2
    weights /= weights.sum()
    mat = np.zeros((8, 8), dtype=complex)
    for w in weights:
        v = np.kron(np.kron(_unit(rng), _unit(rng)), _unit(rng))
        mat += w * np.outer(v, v.conj())
    return mat / np.trace(mat).real


class Descent:
    """Random PPT start -> extremal endpoint -> annotated record -> JSON and back."""

    name = "descent"
    per_round = 8

    def __init__(self, seed: int) -> None:
        self.seeds = np.random.SeedSequence([seed, 1])

    def warm_up(self) -> None:
        self.run(np.random.SeedSequence(71), None)

    def round(self) -> list:
        return self.seeds.spawn(self.per_round)

    def run(self, item, tracer):
        rng = np.random.default_rng(item)
        start = qstate.random_ppt_state(rng)
        endpoint = extremal.descend_to_extremal(start, rng)
        record = cli.annotate_state(endpoint, {"method": "search-extremal"})
        text, back = _roundtrip(record, tracer)
        return endpoint, record, text, back

    def check(self, item, out) -> None:
        endpoint, record, text, back = out
        mat = endpoint.mat
        checks.check_unit_trace_hermitian(mat)
        prof = checks.profile(mat)
        checks.check_ppt(prof)
        checks.check_extremal(mat)
        if prof.square_sum > SQUARE_SUM_BOUND:
            raise checks.CheckFailed(f"rank square sum {prof.square_sum} > {SQUARE_SUM_BOUND}")
        _check_roundtrip(record, text, back)

    def digest(self, out) -> str:
        return _sha(out[2])


class Probe:
    """Separability probe on mixtures of two product states.

    Mixtures of three and four products are left out: on some seeds the
    probe's merged endpoints rebuild a three-product mixture only to ~2e-8,
    and on four-product mixtures it can return a false entangled verdict.
    Both faults fail an operation on some seeds and not others.
    """

    name = "probe"
    products = 2
    per_round = 4
    trials = 4

    def __init__(self, seed: int) -> None:
        self.seeds = np.random.SeedSequence([seed, 2])

    def warm_up(self) -> None:
        self.run(self._item(np.random.SeedSequence(72)), None)

    def _item(self, child):
        rng = np.random.default_rng(child)
        return random_product_mixture(rng, self.products), rng

    def round(self) -> list:
        return [self._item(child) for child in self.seeds.spawn(self.per_round)]

    def run(self, item, tracer):
        mixture, rng = item
        return extremal.separability_probe(qstate.HermitianOperator(mixture), rng,
                                           n_trials=self.trials)

    def check(self, item, out) -> None:
        mixture, _ = item
        if out.verdict != "separable_evidence":
            raise checks.CheckFailed(f"verdict {out.verdict!r} on a separable mixture")
        for endpoint in out.endpoints:
            checks.check_pure_product_state(endpoint.state.mat)
        checks.check_rebuild([ep.state.mat for ep in out.endpoints],
                             [ep.weight for ep in out.endpoints], mixture)

    def digest(self, out) -> str:
        return _sha(out.verdict, *(ep.state.mat.tobytes() + repr(ep.weight).encode()
                                   for ep in out.endpoints))


class RankSearch:
    """solve_targets with require_exact on a fixed mix of census profiles,
    each result written as an annotated record.

    The mix holds profiles that converge on their first restart or nearly
    so. 4444 and 5577 are left out: their restart counts are geometric
    (about 7 and 3 restarts on average), and with either in the mix the
    seed-to-seed spread of ops_per_s came close to its bound.
    """

    name = "ranksearch"
    profiles = ((6, 6, 6, 6), (7, 7, 7, 7), (5, 5, 5, 5), (5, 6, 6, 6), (6, 6, 7, 7))
    restarts = 200

    def __init__(self, seed: int) -> None:
        self.seeds = np.random.SeedSequence([seed, 3])
        self.problems = [ranksearch.RankTargetProblem(t) for t in self.profiles]

    def warm_up(self) -> None:
        self.run((self.problems[0], np.random.SeedSequence(73)), None)

    def round(self) -> list:
        return list(zip(self.problems, self.seeds.spawn(len(self.problems))))

    def run(self, item, tracer):
        problem, child = item
        result = ranksearch.solve_targets(problem, np.random.default_rng(child),
                                          restarts=self.restarts, require_exact=True)
        if not result.success:
            raise OperationFailed(f"no {problem.targets} state in {self.restarts} restarts")
        record = cli.annotate_state(result.state, {"method": "search-ranks-cg"})
        text, back = _roundtrip(record, tracer)
        return result.state, record, text, back

    def check(self, item, out) -> None:
        problem, _ = item
        state, record, text, back = out
        checks.check_unit_trace_hermitian(state.mat)
        prof = checks.profile(state.mat)
        checks.check_ppt(prof)
        checks.check_profile(prof, problem.targets)
        if tuple(back.profile.ranks) != tuple(problem.targets):
            raise checks.CheckFailed(f"record holds {back.profile.ranks}, "
                                     f"not {problem.targets}")
        _check_roundtrip(record, text, back)

    def digest(self, out) -> str:
        return _sha(out[2])


class Rank4444:
    """construct_biseparable on the leading seeds of SeedSequence(404), the
    seeds of the rank-4444 acceptance campaign, taken in order.

    The inputs are these seeds and no others: one construction costs 3 to
    18 s depending on its seed, so a seeded draw of two or three of them per
    run would make ops_per_s a lottery. The workload seed only orders them.
    """

    name = "rank4444"
    leading = 3

    def __init__(self, seed: int) -> None:
        children = np.random.SeedSequence(404).spawn(self.leading)
        order = np.random.default_rng(seed).permutation(self.leading)
        self.items = [children[i] for i in order]

    def warm_up(self) -> None:
        state, _ = rank4.construct_type2(0.6 + 0.8j)
        extremal.is_extremal(state)
        rank4.biseparable_triple(state, rng=np.random.default_rng(74))
        rank4.classify_type(state)

    def round(self) -> list:
        return list(self.items)

    def run(self, item, tracer):
        return rank4.construct_biseparable(np.random.default_rng(item))

    def check(self, item, out) -> None:
        mat = out.state.mat
        checks.check_unit_trace_hermitian(mat)
        prof = checks.profile(mat)
        checks.check_ppt(prof)
        checks.check_profile(prof, (4, 4, 4, 4))
        checks.check_extremal(mat)
        triple = out.triple
        for vectors, weights, bipartition in ((triple.e, triple.weights_e, "1|23"),
                                              (triple.f, triple.weights_f, "2|13"),
                                              (triple.g, triple.weights_g, "3|12")):
            checks.check_decomposition(vectors, weights, mat, bipartition)
        checks.check_type_label(mat, out.classification)

    def digest(self, out) -> str:
        t = out.triple
        return _sha(out.state.mat.tobytes(), out.classification,
                    *(a.tobytes() for a in (t.e, t.f, t.g, t.weights_e, t.weights_f,
                                            t.weights_g)))


WORKLOADS = {w.name: w for w in (Descent, Probe, RankSearch, Rank4444)}
