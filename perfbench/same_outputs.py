"""Show that tracing leaves the program's outputs unchanged.

    python3 perfbench/same_outputs.py --seed 7 --seconds 5 descent probe

Runs each workload untraced and traced with the same seed and compares the
per-operation output digests that run.py writes to perfbench/out/. The
traced run is slower and may finish fewer operations, so the common prefix
is compared. Exits 1 if any digest differs or nothing could be compared.
"""

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        digests = []
        for trace in (0, 1):
            subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(trace)], check=True, stdout=subprocess.DEVNULL)
            path = HERE / "out" / f"{workload}-seed{args.seed}-trace{trace}.digests"
            digests.append(path.read_text().split())
        n = min(len(d) for d in digests)
        same = n > 0 and digests[0][:n] == digests[1][:n]
        ok = ok and same
        print(f"{workload} seed {args.seed}: {n} operations compared, "
              f"{'identical' if same else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
