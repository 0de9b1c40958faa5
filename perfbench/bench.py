"""Workloads, measurement loops and reporting for the ecqsim benchmark.

``run.py`` is the entry point; it puts the checkout's ``src/`` first on
``sys.path`` before this module is imported.  The program is driven
only through ``ecqsim.cli.main``; ``run_sweep`` is wrapped to timestamp
progress callbacks, and in traced mode ``spans`` wraps the layers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import ecqsim.cli as cli

import checks
import facility
import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Inputs come from seed % VARIANTS, and golden.json pins every variant,
# so every run, whatever its seed, is checked against pinned digests.
VARIANTS = 8
# Set-up is timed once before the loop, then between operations at even
# intervals, SETUP_SAMPLES times in all.  Back-to-back samples can all fall
# in one fast or slow spell of the machine; spread-out samples do not.
SETUP_SAMPLES = 25
# facility_run cycles through this many run seeds, so a run's median
# covers many distinct simulations; a trace round uses the first few.
FACILITY_RUN_SEEDS = 64
FACILITY_ROUND_OPS = 8
# run_ms_p50 is the mean of medians of consecutive blocks with at least
# this many samples: one sweep on demo_sweep, eight runs on facility_run.
P50_BLOCK = 8
# Worker cap for the --jobs N check sweep after the demo loop.
MAX_JOBS = 4

END_TO_END = {
    "setup_s": "s", "sweep_runs_per_s": "1/s", "run_ms_p50": "ms",
    "run_ms_p90": "ms", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "scenario.load_s": "s",
    "grid.parse_s": "s", "grid.query_calls": "count", "grid.query_s": "s",
    "grid.cell_targets": "count", "grid.label_targets": "count",
    "grid.field_reuse_ratio": "ratio", "grid.los_calls": "count",
    "grid.los_s": "s", "grid.los_true_ratio": "ratio",
    **{f"{name}_{kind}": unit for _, name in spans.PHASES
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "engine.run_s": "s", "engine.live_ticks": "ticks", "engine.skip_ratio": "ratio",
    "engine.events": "count",
    "events.to_text_s": "s", "events.log_bytes": "bytes",
    "metrics.report_s": "s", "metrics.report_to_text_s": "s",
    "experiment.scenario_for_s": "s", "experiment.aggregate_s": "s",
    "experiment.csv_s": "s", "experiment.rows": "count",
    "experiment.pool_first_result_s": "s", "experiment.worker_cpu_s": "s",
    "experiment.pool_cpu_util": "ratio",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "trace.untraced_wall_s": "s", "trace.traced_wall_s": "s",
    "trace.overhead_s": "s", "trace.accounted_ratio": "ratio",
}

clock = time.perf_counter


@dataclass
class OpResult:
    wall: float
    runs: int
    latencies: list[float]
    problems: list[str]


class SweepProbe:
    """Stands in for ``ecqsim.cli.run_sweep`` and timestamps each progress callback.

    It also records the parent's and the pool workers' CPU time around
    each sweep, which the pool metrics need.
    """

    def __init__(self, run_sweep):
        self.run_sweep = run_sweep
        self.calls: list[dict] = []

    def __call__(self, config, jobs=1, progress=None):
        stamps: list[float] = []

        def recorded(done: int, total: int) -> None:
            stamps.append(clock())
            if progress is not None:
                progress(done, total)

        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = clock()
        rows = self.run_sweep(config, jobs=jobs, progress=recorded)
        end = clock()
        own2 = resource.getrusage(resource.RUSAGE_SELF)
        kids2 = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.calls.append({
            "start": start, "end": end, "stamps": stamps, "jobs": jobs,
            "self_cpu": own2.ru_utime + own2.ru_stime - own.ru_utime - own.ru_stime,
            "worker_cpu": kids2.ru_utime + kids2.ru_stime - kids.ru_utime - kids.ru_stime,
        })
        return rows


def call_cli(argv: list[str], main=None) -> tuple[int, str, str]:
    """``ecqsim ARGV`` in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = (main or cli.main)(argv)
    return code, out.getvalue(), err.getvalue()


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pool_jobs() -> int:
    return min(nproc(), MAX_JOBS)


# -- workloads -----------------------------------------------------------------


class Workload:
    """One set of generated inputs plus the operation the loop repeats."""

    name = ""
    round_ops = 1  # operations per trace round

    def __init__(self, variant: int, golden: dict, probe: SweepProbe):
        self.variant = variant
        self.golden = golden.get(self.name, {}).get(str(variant))
        self.probe = probe
        self.dir: Path | None = None
        self.scenario: Path | None = None
        # Output files of the latest operation only, so that the memory the
        # benchmark holds does not grow with the number of operations.
        self.outputs: dict[str, bytes] = {}

    def generate(self, directory: Path) -> Path:
        """Write the inputs into ``directory``; return the scenario path."""
        raise NotImplementedError

    def setup(self, directory: Path) -> float:
        """Generate the inputs and load them with ``ecqsim validate``; return seconds."""
        start = clock()
        scenario = self.generate(directory)
        code, out, err = call_cli(["validate", str(scenario)])
        elapsed = clock() - start
        if code != 0 or not out.startswith("OK "):
            raise RuntimeError(f"generated scenario does not validate: {err.strip()}")
        self.dir, self.scenario = directory, scenario
        return elapsed

    def op(self, index: int, main=None) -> OpResult:
        raise NotImplementedError

    def finish(self) -> list[OpResult]:
        """Checks made after the timed operations, each counted as an operation."""
        return []


class DemoSweep(Workload):
    """The paper's own experiment: --paper-grid on the bundled demo, --jobs 1."""

    name = "demo_sweep"
    reference: dict[str, bytes] = {}  # outputs of the latest operation that passed

    def generate(self, directory: Path) -> Path:
        code, _, err = call_cli(["demo", str(directory)])
        if code != 0:
            raise RuntimeError(f"ecqsim demo failed: {err.strip()}")
        return directory / "demo_scenario.yaml"

    def op(self, index: int, main=None, jobs: int = 1) -> OpResult:
        self.outputs = {}
        rows, agg = self.dir / "rows.csv", self.dir / "aggregate.csv"
        for path in (rows, agg):
            path.unlink(missing_ok=True)
        argv = ["sweep", str(self.scenario), "--paper-grid", "--reps", "1",
                "--seed", str(self.variant), "--jobs", str(jobs),
                "--out", str(rows), "--aggregate", str(agg)]
        calls_before = len(self.probe.calls)
        start = clock()
        code, _, err = call_cli(argv, main)
        wall = clock() - start
        if code != 0:
            return OpResult(wall, 0, [], [f"exit {code}: {err.strip()[-200:]}"])
        self.outputs = outputs = {"rows": rows.read_bytes(), "aggregate": agg.read_bytes()}
        gaps = []
        for call in self.probe.calls[calls_before:]:
            previous = call["start"]
            for stamp in call["stamps"]:
                gaps.append(stamp - previous)
                previous = stamp
        problems = checks.check_digests(outputs, self.golden, self.name)
        if not problems:
            self.reference = outputs
        return OpResult(wall, len(gaps), gaps, problems)

    def finish(self) -> list[OpResult]:
        """The same sweep over the process pool must give the same bytes."""
        jobs, reference = pool_jobs(), self.reference
        pooled = run_op(self, 0, jobs=jobs)
        pooled.problems += checks.check_same_bytes(
            reference, self.outputs, f"--jobs 1 vs --jobs {jobs}")
        return [pooled]


class FacilityRun(Workload):
    """Repeated ``ecqsim run`` calls; each reloads, so every grid starts cold."""

    name = "facility_run"
    round_ops = FACILITY_ROUND_OPS

    def generate(self, directory: Path) -> Path:
        return facility.write_facility(self.variant, directory)

    def op(self, index: int, main=None) -> OpResult:
        self.outputs = {}
        k = index % FACILITY_RUN_SEEDS
        log, report = self.dir / "run.log", self.dir / "run.report"
        for path in (log, report):
            path.unlink(missing_ok=True)
        argv = ["run", str(self.scenario), "--seed", str(1000 * self.variant + k),
                "--out", str(log), "--report", str(report)]
        start = clock()
        code, out, err = call_cli(argv, main)
        wall = clock() - start
        if code != 0:
            return OpResult(wall, 0, [], [f"exit {code}: {err.strip()[-200:]}"])
        self.outputs = outputs = {"log": log.read_bytes(), "report": report.read_bytes()}
        problems = checks.check_digests(
            outputs, (self.golden or {}).get(str(k)), f"{self.name} run {k}")
        problems += checks.check_run_outputs(outputs["log"], outputs["report"], out)
        return OpResult(wall, 1, [wall], problems)


WORKLOADS = {w.name: w for w in (DemoSweep, FacilityRun)}


# -- measurement ----------------------------------------------------------------


def run_op(workload: Workload, index: int, main=None, **kwargs) -> OpResult:
    """One operation; an exception or a non-zero exit is a failed operation."""
    start = clock()
    try:
        return workload.op(index, main, **kwargs)
    except Exception as exc:  # noqa: BLE001 - a crash is a measured failure
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return OpResult(clock() - start, 0, [], [
            f"{type(exc).__name__}: {exc} ({where.filename}:{where.lineno})"])


def high_percentile(samples: list[float]) -> tuple[float, float]:
    """p90, or the highest percentile with at least ten samples above it.

    Returns (value, percentile).  Nearest-rank on the sorted samples.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = min(math.ceil(0.9 * n) - 1, n - 11) if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n


def block_median(results: list[OpResult], size: int) -> float:
    """Mean over consecutive blocks of at least ``size`` latencies of each block's median.

    The machine's speed can change within a run.  A pooled median then
    jumps between the fast and the slow samples; the mean of block
    medians moves in proportion, as throughput does.  A last block
    shorter than ``size`` is left out unless it is the only one.
    """
    medians, block = [], []
    for result in results:
        block += result.latencies
        if len(block) >= size:
            medians.append(statistics.median(block))
            block = []
    return statistics.mean(medians) if medians else statistics.median(block)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: Workload, seconds: float,
            directory: Path) -> tuple[dict, list[OpResult], dict]:
    """Untraced closed loop: operations back to back for ``seconds``.

    Set-up samples are taken between operations, at even intervals.  They
    rewrite the same input files, so the operations' inputs do not change.
    """
    setups = [workload.setup(directory)]
    results: list[OpResult] = []
    start = clock()
    while not results or clock() - start < seconds:
        results.append(run_op(workload, len(results)))
        while clock() - start >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(workload.setup(directory))
    loop_s = clock() - start
    rss = peak_rss_mb()
    good = [r for r in results if not r.problems and r.runs]
    latencies = [x for r in good for x in r.latencies]
    p90, pct = high_percentile(latencies) if latencies else (0.0, 0.0)
    metrics = {
        "setup_s": statistics.median(setups),
        "sweep_runs_per_s": sum(r.runs for r in good) / sum(r.wall for r in good)
                            if good else 0.0,
        "run_ms_p50": 1000 * block_median(good, P50_BLOCK) if latencies else 0.0,
        "run_ms_p90": 1000 * p90,
        "peak_rss_mb": rss,
    }
    info = {"run_ms_samples": len(latencies), "run_ms_p90_is_percentile": pct,
            "operations_timed": len(results), "setup_samples": len(setups),
            "loop_s": loop_s, "operation_walls_s": [round(r.wall, 4) for r in results],
            "setup_s_samples": [round(x, 5) for x in setups]}
    return metrics, results, info


def pool_metrics(calls: list[dict]) -> dict:
    """Process-pool figures from the parent's view of each pooled run_sweep call."""
    calls = [c for c in calls if c["jobs"] > 1]
    first = [c["stamps"][0] - c["start"] for c in calls if c["stamps"]]
    wall_x_jobs = sum((c["end"] - c["start"]) * c["jobs"] for c in calls)
    cpu = sum(c["self_cpu"] + c["worker_cpu"] for c in calls)
    return {"experiment.pool_first_result_s": statistics.mean(first) if first else 0.0,
            "experiment.worker_cpu_s": sum(c["worker_cpu"] for c in calls),
            "experiment.pool_cpu_util": cpu / wall_x_jobs if wall_x_jobs else 0.0}


def trace(workload: Workload, seconds: float) -> tuple[dict, list[OpResult], dict]:
    """Trace rounds for ``seconds``: the round's operations untraced, then traced.

    Every round runs the same operations on the same inputs, so counts
    repeat exactly; times are means over rounds.  The workload's closing
    checks run untraced in every round; the pool metrics come from them.
    """
    results: list[OpResult] = []
    rounds: list[dict] = []
    dumps: list[dict] = []
    start = clock()
    while not rounds or clock() - start < seconds:
        plain = [run_op(workload, j) for j in range(workload.round_ops)]
        calls_before = len(workload.probe.calls)
        plain += workload.finish()
        pool_calls = workload.probe.calls[calls_before:]
        tracer = spans.Tracer()
        traced = []
        with tracer.installed():
            main = tracer.root("cli.main", cli.main)
            for j in range(workload.round_ops):
                tracer.run_id = f"round{len(rounds)}.op{j}"
                traced.append(run_op(workload, j, main))
        results += plain + traced
        untraced_wall = sum(r.wall for r in plain[:workload.round_ops])
        traced_wall = sum(r.wall for r in traced)
        values = tracer.metrics()
        values.update(pool_metrics(pool_calls))
        values.update({
            "trace.untraced_wall_s": untraced_wall,
            "trace.traced_wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.accounted_ratio":
                sum(tracer.layer_self_times().values()) / traced_wall,
        })
        rounds.append(values)
        dumps.append(tracer.dump())
    metrics = {name: statistics.mean(r[name] for r in rounds) for name in rounds[0]}
    info = {"trace_rounds": len(rounds), "operations_per_round": workload.round_ops,
            "loop_s": clock() - start}
    return metrics, results, {**info, "rounds": dumps}


# -- description and output -----------------------------------------------------


def git_commit() -> str:
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ecqsim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def describe(args, workload: Workload) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "variant": workload.variant,
        "seconds": args.seconds, "trace": args.trace, "pool_check_jobs": pool_jobs(),
        "python": platform.python_version(), "nproc": nproc(),
        "cpu_model": cpu_model(), "platform": platform.platform(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


def main(args) -> int:
    probe = SweepProbe(cli.run_sweep)
    cli.run_sweep = probe
    workload = WORKLOADS[args.workload](args.seed % VARIANTS, checks.load_golden(), probe)
    description = describe(args, workload)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as tmp:
        if args.trace:
            workload.setup(Path(tmp))
            metrics, results, info = trace(workload, args.seconds)
        else:
            metrics, results, info = measure(workload, args.seconds, Path(tmp))
            results += workload.finish()

    failed = [r for r in results if r.problems]
    rounds = info.pop("rounds", None)
    units = PER_LAYER if args.trace else END_TO_END
    shown = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    problems = [p for r in failed for p in r.problems]
    record = {"description": description, "info": info, "metrics": shown,
              "error_rate": len(failed) / len(results), "attempted": len(results),
              "failed": len(failed), "problems": problems[:50]}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for sub, body in (("results", record),
                      ("traces", rounds and {"description": description, "rounds": rounds})):
        if body:
            (OUT / sub).mkdir(exist_ok=True)
            (OUT / sub / f"{stem}.json").write_text(json.dumps(body, indent=1))

    print(f"# ecqsim benchmark {json.dumps(description)}")
    for problem in problems[:50]:
        print(f"# FAILED {problem}")
    for key, value in info.items():
        if not isinstance(value, list):
            print(f"# {key} {value}")
    if args.trace:
        print("# self time per layer, s per round "
              "(spans of forked sweep workers are out of scope):")
        for layer in spans.LAYERS:
            print(f"#   {layer:<10} {metrics[f'{layer}.self_s']:.6f}")
    for name, entry in shown.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    print(f"error_rate {record['error_rate']:.6g} ratio "
          f"({len(failed)} failed of {len(results)} attempted)")
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": shown}))
    return 0
