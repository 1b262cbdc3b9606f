"""Spans around pptatlas's public functions, recorded from outside the package.

A Tracer replaces each traced function with a wrapper in every pptatlas
module namespace that holds it, so calls made through `from ... import`
bindings are seen too. Each call leaves a span (name, start, end, parent
span, operation id, observed value) in memory; the spans are written out
and reduced to per-layer metrics when the run ends. A traced name that no
longer exists in the package is reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

CONVERGED_F = 3e-8  # the f below which construct_biseparable accepts a search


# module -> {function: what to keep of its return value, or None}
TRACED = {
    "qstate": {"ppt_profile": None, "random_ppt_state": None},
    "invariants": {"fingerprint": None},
    "extremal": {"face_solution_space": lambda space: space.dimension,
                 "line_search_to_boundary": None, "descend_to_extremal": None,
                 "separability_probe": lambda probe: probe.trees, "is_extremal": None},
    "ranksearch": {"solve_targets": lambda res: (res.attempts, res.evaluations),
                   "refine_block": None, "objective": None},
    "prodvec": {"product_vectors_in_subspace": None},
    "rank4": {"compatible_subspace_search": lambda payload_f: payload_f[1],
              "construct_biseparable": None, "biseparable_triple": None,
              "classify_type": None},
    "cli": {"annotate_state": None},
}

# metrics that need other traced names than the one their name starts with
NEEDS = {
    "extremal.descent.accepted_ratio": ["extremal.descend_to_extremal",
                                        "extremal.face_solution_space",
                                        "extremal.line_search_to_boundary"],
    "rank4.construct_biseparable.accepted_ratio": ["rank4.construct_biseparable",
                                                   "rank4.compatible_subspace_search"],
    "cli.record_roundtrip.us": [],
    "cli.record.bytes": [],
}

ROUNDTRIP = "cli.record_roundtrip"


class Tracer:
    """Span recorder; install() puts the wrappers in place."""

    def __init__(self) -> None:
        self.spans: list = []       # [name, start_ns, end_ns, parent, op, value]
        self.stack: list[int] = []
        self.op = -1
        self.absent: list[str] = []
        self.record_bytes: list[int] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "pptatlas" or n.startswith("pptatlas."))]
        for layer, functions in TRACED.items():
            home = sys.modules.get(f"pptatlas.{layer}")
            for name, observe in functions.items():
                original = getattr(home, name, None) if home is not None else None
                if not callable(original):
                    self.absent.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original, observe)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)

    def _wrap(self, qualname: str, fn, observe):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(qualname) as span:
                result = fn(*args, **kwargs)
            if observe is not None:
                span[5] = observe(result)
            return result

        return wrapper

    @contextmanager
    def span(self, qualname: str):
        """Record one span around the enclosed calls."""
        span = [qualname, 0, 0, self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter_ns()
        try:
            yield span
        finally:
            span[2] = time.perf_counter_ns()
            self.stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent",
                                                "op", "value"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def metrics(self, n_ops: int) -> dict:
        """Per-layer metrics of the spans: {name: (value, unit)}, per completed
        operation or per call; 0 where the workload never calls the layer."""
        calls = defaultdict(int)
        total_ns = defaultdict(int)
        self_ns = defaultdict(int)
        child_ns = defaultdict(int)
        values = defaultdict(list)
        for name, start, end, parent, _, value in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for i, (name, start, end, _, _, value) in enumerate(self.spans):
            calls[name] += 1
            total_ns[name] += end - start
            self_ns[name] += end - start - child_ns[i]
            values[name].append(value)

        def ratio(num, den):
            return num / den if den else 0.0

        def per_op(name):
            return calls[name] / n_ops

        def self_us(name):
            return ratio(self_ns[name], calls[name]) / 1e3

        steps, accepted = self._descent_steps()
        searches = values["rank4.compatible_subspace_search"]
        solves = values["ranksearch.solve_targets"]
        table = [
            ("qstate.ppt_profile.calls_per_op", "count", per_op("qstate.ppt_profile")),
            ("qstate.ppt_profile.self_us", "us", self_us("qstate.ppt_profile")),
            ("qstate.random_ppt_state.calls_per_op", "count", per_op("qstate.random_ppt_state")),
            ("qstate.random_ppt_state.self_us", "us", self_us("qstate.random_ppt_state")),
            ("invariants.fingerprint.self_us", "us", self_us("invariants.fingerprint")),
            ("extremal.face_solution_space.calls_per_op", "count",
             per_op("extremal.face_solution_space")),
            ("extremal.face_solution_space.self_us", "us", self_us("extremal.face_solution_space")),
            ("extremal.line_search_to_boundary.calls_per_op", "count",
             per_op("extremal.line_search_to_boundary")),
            ("extremal.line_search_to_boundary.self_us", "us",
             self_us("extremal.line_search_to_boundary")),
            ("extremal.descent.accepted_ratio", "ratio", ratio(accepted, steps)),
            ("extremal.separability_probe.trees_per_op", "count",
             sum(values["extremal.separability_probe"]) / n_ops),
            ("extremal.is_extremal.calls_per_op", "count", per_op("extremal.is_extremal")),
            ("extremal.is_extremal.self_us", "us", self_us("extremal.is_extremal")),
            ("ranksearch.solve_targets.restarts_per_op", "count",
             sum(a for a, _ in solves) / n_ops),
            ("ranksearch.solve_targets.evaluations_per_op", "count",
             sum(e for _, e in solves) / n_ops),
            ("ranksearch.refine_block.calls_per_op", "count", per_op("ranksearch.refine_block")),
            ("ranksearch.refine_block.self_us", "us", self_us("ranksearch.refine_block")),
            ("ranksearch.objective.calls_per_op", "count", per_op("ranksearch.objective")),
            ("ranksearch.objective.self_us", "us", self_us("ranksearch.objective")),
            ("prodvec.product_vectors_in_subspace.calls_per_op", "count",
             per_op("prodvec.product_vectors_in_subspace")),
            ("prodvec.product_vectors_in_subspace.self_us", "us",
             self_us("prodvec.product_vectors_in_subspace")),
            ("rank4.compatible_subspace_search.calls_per_op", "count",
             per_op("rank4.compatible_subspace_search")),
            ("rank4.compatible_subspace_search.self_s", "s",
             self_us("rank4.compatible_subspace_search") / 1e6),
            ("rank4.compatible_subspace_search.converged_ratio", "ratio",
             ratio(sum(f < CONVERGED_F for f in searches), len(searches))),
            ("rank4.construct_biseparable.accepted_ratio", "ratio",
             ratio(calls["rank4.construct_biseparable"], len(searches))),
            ("rank4.biseparable_triple.self_us", "us", self_us("rank4.biseparable_triple")),
            ("rank4.classify_type.self_us", "us", self_us("rank4.classify_type")),
            ("cli.annotate_state.total_us", "us",
             ratio(total_ns["cli.annotate_state"], calls["cli.annotate_state"]) / 1e3),
            ("cli.record_roundtrip.us", "us", self_us(ROUNDTRIP)),
            ("cli.record.bytes", "bytes", ratio(sum(self.record_bytes), len(self.record_bytes))),
        ]
        absent = set(self.absent)
        return {name: (value, unit) for name, unit, value in table
                if not absent.intersection(NEEDS.get(name, [".".join(name.split(".")[:2])]))}

    def _descent_steps(self) -> tuple[int, int]:
        """Boundary steps taken inside descend_to_extremal, and how many of
        them lowered the face dimension (the descent keeps a step exactly
        when the next face solve returns a smaller dimension)."""
        descents = {i for i, s in enumerate(self.spans)
                    if s[0] == "extremal.descend_to_extremal"}
        current: dict[int, int] = {}
        steps = accepted = 0
        for name, _, _, parent, _, value in self.spans:
            if parent not in descents:
                continue
            if name == "extremal.line_search_to_boundary":
                steps += 1
            elif name == "extremal.face_solution_space":
                if parent in current and value < current[parent]:
                    accepted += 1
                current[parent] = min(value, current.get(parent, value))
        return steps, accepted
