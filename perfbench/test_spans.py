"""Span bookkeeping of the traced run.

    python3 -m pytest perfbench/test_spans.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402


def span(name, start, end, parent, value=None):
    return [name, start, end, parent, 0, value]


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [
        span("extremal.is_extremal", 0, 10_000, -1),
        span("extremal.face_solution_space", 1_000, 9_000, 0, 0),
        span("qstate.ppt_profile", 2_000, 5_000, 1),
    ]
    metrics = tracer.metrics(n_ops=1)
    assert metrics["extremal.is_extremal.self_us"] == (2.0, "us")
    assert metrics["extremal.face_solution_space.self_us"] == (5.0, "us")
    assert metrics["qstate.ppt_profile.self_us"] == (3.0, "us")


def test_descent_counts_steps_that_lower_the_face_dimension():
    tracer = Tracer()
    tracer.spans = [
        span("extremal.descend_to_extremal", 0, 100, -1),
        span("extremal.face_solution_space", 0, 1, 0, 5),
        span("extremal.line_search_to_boundary", 1, 2, 0),
        span("extremal.face_solution_space", 2, 3, 0, 5),   # rejected: not lower
        span("extremal.line_search_to_boundary", 3, 4, 0),  # rejected: no face solve
        span("extremal.line_search_to_boundary", 4, 5, 0),
        span("extremal.face_solution_space", 5, 6, 0, 2),   # accepted
        span("extremal.line_search_to_boundary", 6, 7, 0),
        span("extremal.face_solution_space", 7, 8, 0, 0),   # accepted
        span("extremal.face_solution_space", 9, 10, -1, 0),  # outside the descent
    ]
    assert tracer.metrics(n_ops=1)["extremal.descent.accepted_ratio"] == (0.5, "ratio")


def test_missing_function_is_reported_absent():
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import json, pptatlas.ranksearch as rs\n"
        "from spans import Tracer\n"
        "del rs.objective\n"
        "t = Tracer(); t.install()\n"
        "print(json.dumps([t.absent, sorted(t.metrics(1))]))\n"
    ) % (str(HERE.parent / "src"), str(HERE))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    absent, names = json.loads(out)
    assert absent == ["ranksearch.objective"]
    assert not any(n.startswith("ranksearch.objective.") for n in names)
    assert "ranksearch.refine_block.self_us" in names
