"""Benchmark of pptatlas's campaign workloads, end to end and per layer.

    python3 perfbench/run.py --workload descent --seed 1 --seconds 28 --trace 0

Run from the root of a checkout: the package is imported from ./src. The
run sets up (imports, bases, warm-up), then attempts whole rounds of its
workload's operations for about --seconds, checks every output
independently, and prints one JSON object as its last line. With --trace 0
the metrics are the end-to-end ones; with --trace 1 calls into pptatlas
are wrapped in spans and the metrics are the per-layer ones. Per-operation
output digests, and with --trace 1 the spans, go to perfbench/out/.
"""

import os
import time

_ENTRY = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, read from /proc; 0 where unknown."""
    try:
        with open("/proc/self/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as handle:
            uptime = float(handle.read().split()[0])
        age = uptime - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0
    return age if 0.0 <= age < 60.0 else 0.0


_AGE_AT_ENTRY = _process_age()

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MAX_REPORTED_ERRORS = 5


def _setup_seconds() -> float:
    return _AGE_AT_ENTRY + time.perf_counter() - _ENTRY


def _import_package():
    """Import pptatlas from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    if not (src / "pptatlas" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pptatlas package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import pptatlas

    if Path(pptatlas.__file__).resolve().parent != (src / "pptatlas").resolve():
        sys.exit(f"perfbench: pptatlas was imported from {pptatlas.__file__}, not {src}")


def machine_notes() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def measure(workload, seconds: float, tracer):
    """Attempt whole rounds until another round would end after `seconds`.

    Returns the wall time of the timed phase, the wall time of every
    operation that returned, the (item, output) pairs to check, and the
    failures of operations that raised.
    """
    op_times, outputs, errors = [], [], []
    attempted = 0
    start = time.perf_counter()
    while True:
        items = workload.round()
        round_start = time.perf_counter()
        for item in items:
            if tracer is not None:
                tracer.op = attempted
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = workload.run(item, tracer)
            except Exception:  # a failed operation is counted, and the run goes on
                errors.append(traceback.format_exc())
                outputs.append((item, None))
                continue
            op_times.append(time.perf_counter() - t0)
            outputs.append((item, out))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return now - start, op_times, outputs, errors


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import checks
    from spans import Tracer

    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    setup_s = _setup_seconds()

    wall, op_times, outputs, errors = measure(workload, args.seconds, tracer)

    wrong = []
    digests = []
    for index, (item, out) in enumerate(outputs):
        if out is None:
            digests.append("raised")
            continue
        try:
            workload.check(item, out)
        except checks.CheckFailed as exc:
            wrong.append(f"operation {index}: {exc}")
        digests.append(workload.digest(out))
    for message in (errors + wrong)[:MAX_REPORTED_ERRORS]:
        print(f"perfbench: failed operation: {message}", file=sys.stderr)

    attempted = len(outputs)
    completed = len(op_times)
    stem = f"{args.workload}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}-trace{args.trace}.digests").write_text("\n".join(digests) + "\n")

    notes = machine_notes()
    print("machine " + json.dumps(notes))
    print(f"run workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} raised={len(errors)} wrong={len(wrong)} "
          f"timed_s={wall:.3f} ops_per_s={completed / wall:.4f}")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.trace.jsonl")
        if tracer.absent:
            print("absent " + json.dumps(sorted(tracer.absent)))
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.metrics(max(completed, 1)).items()}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "ops_per_s": {"value": completed / wall, "unit": "op/s"},
            "op_s_median": {"value": statistics.median(op_times) if op_times else wall,
                            "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(errors) + len(wrong),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    _import_package()
    sys.exit(main())
