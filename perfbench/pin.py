#!/usr/bin/env python3
"""Regenerate ``perfbench/golden.json``, the pinned output digests.

    python3 perfbench/pin.py

For every input variant it runs each workload's operation once at
``--jobs 1`` and records the sha256 of every output file.  Only a change
that alters the model's output on purpose may re-pin, and it must say
so; a speed-up must leave this file unchanged.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import checks  # noqa: E402


def pin_variant(variant: int, tmp: Path) -> dict:
    probe = bench.SweepProbe(bench.cli.run_sweep)
    bench.cli.run_sweep = probe
    pinned = {}
    for name, cls in bench.WORKLOADS.items():
        workload = cls(variant, {}, probe)
        directory = tmp / f"{name}-{variant}"
        directory.mkdir()
        workload.setup(directory)
        keys = [None] if cls is bench.DemoSweep else range(bench.FACILITY_RUN_SEEDS)
        entry = {}
        for key in keys:
            result = workload.op(key or 0)
            problems = [p for p in result.problems if "no pinned digests" not in p]
            if problems or not workload.outputs:
                raise SystemExit(f"{name} variant {variant}: {problems}")
            digests = {k: checks.sha256(v) for k, v in sorted(workload.outputs.items())}
            if key is None:
                entry = digests
            else:
                entry[str(key)] = digests
        pinned[name] = entry
    bench.cli.run_sweep = probe.run_sweep
    return pinned


def main() -> int:
    golden: dict = {name: {} for name in bench.WORKLOADS}
    with tempfile.TemporaryDirectory() as tmp:
        for variant in range(bench.VARIANTS):
            for name, entry in pin_variant(variant, Path(tmp)).items():
                golden[name][str(variant)] = entry
            print(f"pinned variant {variant}", file=sys.stderr)
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
