#!/usr/bin/env python3
"""ecqsim benchmark: one command, two closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  The program is imported
from that checkout's ``src/`` and from nowhere else; without it the
command fails with exit code 2.  Each workload repeats its operation
back to back in this one process (a closed loop with one client).

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs trace
rounds and reports the per-layer metrics.  The last line of standard
output is one JSON object; results and traces are also written under
``.perfbench/`` in the checkout.  ``perfbench/README.md`` lists every
metric and workload.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("demo_sweep", "facility_run")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="ecqsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "ecqsim" / "__init__.py").is_file():
        print(f"error: no ecqsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ecqsim
    if Path(ecqsim.__file__).resolve().parent != (SRC / "ecqsim").resolve():
        print(f"error: ecqsim imported from {ecqsim.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    import bench
    return bench.main(args)


if __name__ == "__main__":
    sys.exit(main())
