"""Command-line front end.

Subcommands:

  validate  check a scenario file and its map, print an inventory
  run       execute one scenario, write the event log and metric report
  sweep     run a parameter grid and write row/aggregate CSVs
  demo      copy the bundled demo map and scenario into a directory

Exit codes: 0 success, 2 validation or grid-spec failure, 3 I/O
failure.  Commands return nothing and raise their failures; ``main``
alone returns the exit code, 2 for a ``ScenarioError`` and 3 for an
``OSError``, and prints the diagnostics to stderr, one per line,
prefixed ``error:``.
Seed precedence: scenario file < ECQ_SEED environment variable <
--seed flag.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time
from importlib import resources
from pathlib import Path

from .engine import ScenarioError, run_simulation
from .experiment import (
    DEFAULT_REPLICATIONS, Strategy, SweepConfig, aggregate, aggregates_to_csv,
    rows_to_csv, run_sweep,
)
from .grid import ROLES
from .metrics import build_report
from .scenario import ScenarioTemplate, build_run, load_scenario

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3


def _write_all(outputs: list[tuple[str, str]]) -> None:
    """Write each ``(path, text)`` to a temporary file, then rename them all.

    A failed write leaves every target as it was and no temporary file
    behind.  The k-th output goes to ``path.k.tmp``, so a path named
    twice still ends with the later text, as writing in turn would.
    """
    temps: list[Path] = []
    try:
        for k, (path, text) in enumerate(outputs):
            temps.append(Path(f"{path}.{k}.tmp"))
            temps[-1].write_text(text, encoding="utf-8", newline="\n")
        for (path, _), temp in zip(outputs, temps):
            temp.replace(path)
    except OSError as exc:
        for temp in temps:
            with contextlib.suppress(OSError):  # the first failure is the one to report
                temp.unlink(missing_ok=True)
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _pick_seed(template: ScenarioTemplate, flag_seed: int | None) -> int:
    if flag_seed is not None:
        return flag_seed
    env = os.environ.get("ECQ_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ScenarioError([f"ECQ_SEED is not an integer: {env!r}"])
    return template.seed


def cmd_validate(args: argparse.Namespace) -> None:
    template = load_scenario(args.scenario)
    grid = template.grid
    print(f"OK {args.scenario}")
    print(f"map {grid.width}x{grid.height}, {len(grid.locations)} locations")
    for role in ROLES:
        labels = grid.labels_with_role(role)
        if labels:
            print(f"{role}: {' '.join(labels)}")
    print(f"pwds {len(template.pwds)}, nurses {len(template.nurses)}, "
          f"horizon {template.horizon}, seed {template.seed}")


def cmd_run(args: argparse.Namespace) -> None:
    template = load_scenario(args.scenario)
    seed = _pick_seed(template, args.seed)
    log = run_simulation(build_run(template, schedule_seed=seed,
                                   replication=0, run_seed=seed))
    text = build_report(log).to_text(seed=seed)
    outputs = [(args.out, log.to_text())] if args.out else []
    if args.report:
        outputs.append((args.report, text))
    _write_all(outputs)
    print(text, end="")


def _parse_prob(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"bad probability {token!r}") from None


# Each --grid key: the SweepConfig axis it sets and the parser of its values.
_GRID_KEYS = {"p_d": ("p_d_levels", _parse_prob),
              "p_detect": ("p_detect_levels", _parse_prob),
              "strategy": ("strategies", Strategy.parse)}


def _parse_grid_spec(spec: str) -> dict[str, tuple]:
    """Parse ``key=v1,v2`` entries (';'-separated) into SweepConfig axes."""
    overrides: dict[str, tuple] = {}
    for entry in spec.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        key, sep, values = entry.partition("=")
        tokens = [t for t in values.split(",") if t]
        if not sep or not tokens:
            raise ValueError(f"bad grid entry {entry!r}")
        if key not in _GRID_KEYS:
            raise ValueError(f"unknown grid key {key!r}")
        axis, parse = _GRID_KEYS[key]
        if axis in overrides:
            raise ValueError(f"repeated grid key {key!r}")
        overrides[axis] = tuple(parse(t) for t in tokens)
    return overrides


def cmd_sweep(args: argparse.Namespace) -> None:
    template = load_scenario(args.scenario)
    seed = _pick_seed(template, args.seed)
    if not args.paper_grid and not args.grid:
        raise ScenarioError(["need --paper-grid and/or --grid"])
    try:
        overrides = _parse_grid_spec(args.grid or "")
    except ValueError as exc:
        raise ScenarioError([str(exc)]) from exc

    # With --paper-grid, axes not named in --grid keep SweepConfig's
    # defaults; without it, the scenario's own values.
    axes = overrides
    if not args.paper_grid:
        roster_p_d = tuple(sorted({p.p_d for p in template.pwds}))
        if "p_d_levels" not in overrides and len(roster_p_d) != 1:
            raise ScenarioError(["residents disagree on p_d; give p_d=... in --grid"])
        axes = {
            "p_d_levels": roster_p_d,
            "p_detect_levels": (template.watch.p_detect,),
            "strategies": (Strategy(True, template.watch.n_help)
                           if template.watch.enabled else Strategy(False),),
        }
        axes.update(overrides)
    config = SweepConfig(template=template, replications=args.reps,
                         base_seed=seed, **axes)

    started = time.monotonic()
    last_shown = -1

    def progress(done: int, total_runs: int) -> None:
        nonlocal last_shown
        step = max(1, total_runs // 20)
        if done == total_runs or done - last_shown >= step:
            last_shown = done
            print(f"progress {done}/{total_runs}", file=sys.stderr)

    rows = run_sweep(config, jobs=args.jobs, progress=progress)
    _write_all([(args.out, rows_to_csv(rows)),
                (args.aggregate, aggregates_to_csv(aggregate(rows)))])
    elapsed = time.monotonic() - started
    # The last progress call always shows done == total, so last_shown counts the runs.
    print(f"{last_shown} runs in {elapsed:.1f}s -> {args.out}, {args.aggregate}",
          file=sys.stderr)


def cmd_demo(args: argparse.Namespace) -> None:
    dest = Path(args.dir)
    dest.mkdir(parents=True, exist_ok=True)
    for name in ("demo_map.txt", "demo_scenario.yaml"):
        data = resources.files("ecqsim.data").joinpath(name).read_text("utf-8")
        (dest / name).write_text(data, encoding="utf-8", newline="\n")
    print(f"wrote {dest / 'demo_scenario.yaml'}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecqsim",
        description="Nursing-home assistance simulator and compliance metrics")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a scenario file and its map")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("scenario")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="write the event log here")
    p.add_argument("--report", default=None, help="write the metric report here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a parameter grid")
    p.add_argument("scenario")
    p.add_argument("--paper-grid", action="store_true",
                   help="disorientation levels 0..1, detection 0.5/0.2, "
                        "nowatch plus nhelp=0..5")
    p.add_argument("--grid", default=None,
                   help="override axes, e.g. \"p_d=0,0.5;strategy=nowatch,nhelp=2\"")
    p.add_argument("--reps", type=int, default=DEFAULT_REPLICATIONS)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="sweep_rows.csv")
    p.add_argument("--aggregate", default="sweep_aggregate.csv")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("demo", help="copy the bundled demo files")
    p.add_argument("dir")
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; every failure it raises becomes ``error:`` lines."""
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return EXIT_OK
    except ScenarioError as exc:
        messages, code = exc.problems, EXIT_INVALID
    except FileNotFoundError as exc:
        messages, code = [f"cannot read {exc.filename}"], EXIT_IO
    except OSError as exc:
        messages, code = [str(exc)], EXIT_IO
    for message in messages:
        print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
