"""Parameter sweeps: expand a grid into seeded runs and tabulate results.

A sweep is the full cross product of disorientation levels, detection
levels, assistance strategies, and replications.  Appointment schedules
are drawn per replication (6 unique sites per resident by default) and
are identical across strategies within a replication, so strategy
comparisons are paired.

Row order of the output is deterministic regardless of execution order
or parallelism degree.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from statistics import mean, stdev
from typing import Callable, Iterator

from .engine import Scenario, ScenarioError, run_simulation
from .metrics import MetricReport, build_report
from .scenario import ScenarioTemplate, build_run

DEFAULT_REPLICATIONS = 200

PAPER_P_D = (0.0, 0.25, 0.5, 0.75, 1.0)
PAPER_P_DETECT = (0.5, 0.2)

ROWS_CSV_HEADER = "config_id,replication,seed,p_d,p_detect,strategy,agent,metric,value"
AGGREGATE_CSV_HEADER = "p_d,p_detect,strategy,agent,metric,mean,std,count"
POOLED_AGENT = "all"


@dataclass(frozen=True)
class Strategy:
    """Assistance strategy: no watch, or a watch escalating after n_help fails."""
    watch: bool
    n_help: int = 0

    def label(self) -> str:
        return f"nhelp={self.n_help}" if self.watch else "nowatch"

    @classmethod
    def parse(cls, token: str) -> "Strategy":
        if token == "nowatch":
            return cls(watch=False)
        if token.startswith("nhelp="):
            value = token[len("nhelp="):]
            if value.isascii() and value.isdigit():
                return cls(watch=True, n_help=int(value))
        raise ValueError(f"bad strategy token {token!r}")


PAPER_STRATEGIES = (Strategy(watch=False),) + tuple(
    Strategy(watch=True, n_help=k) for k in range(6))


@dataclass
class SweepConfig:
    template: ScenarioTemplate
    p_d_levels: tuple[float, ...] = PAPER_P_D
    p_detect_levels: tuple[float, ...] = PAPER_P_DETECT
    strategies: tuple[Strategy, ...] = PAPER_STRATEGIES
    replications: int = DEFAULT_REPLICATIONS
    base_seed: int = 0

    def __post_init__(self) -> None:  # -0 is 0: one config id, seed set and spelling
        self.p_d_levels = tuple(level + 0.0 for level in self.p_d_levels)
        self.p_detect_levels = tuple(level + 0.0 for level in self.p_detect_levels)

    def validate(self) -> list[str]:
        problems = []
        if self.replications < 1:
            problems.append("replications must be >= 1")
        for name, levels in (("p_d", self.p_d_levels),
                             ("p_detect", self.p_detect_levels)):
            if not levels:
                problems.append(f"no {name} levels")
            for level in levels:
                if not 0.0 <= level <= 1.0:
                    problems.append(f"{name} level {level} outside [0, 1]")
            # Levels that print alike would share a config id and its seeds.
            shown = Counter(f"{level:g}" for level in levels)
            problems.extend(f"repeated {name} level {text}"
                            for text, n in shown.items() if n > 1)
        if not self.strategies:
            problems.append("no strategies")
        problems.extend(f"repeated strategy {strategy.label()}"
                        for strategy, n in Counter(self.strategies).items() if n > 1)
        return problems


@dataclass(frozen=True)
class SweepCoords:
    config_id: str
    replication: int
    seed: int
    p_d: float
    p_detect: float
    strategy: Strategy


@dataclass(frozen=True)
class SweepRow:
    coords: SweepCoords  # shared by every row of its run
    agent: str
    metric: str
    value: float

    def to_csv(self) -> str:
        c = self.coords
        return (f"{c.config_id},{c.replication},{c.seed},"
                f"{c.p_d:g},{c.p_detect:g},{c.strategy.label()},"
                f"{self.agent},{self.metric},{self.value:.2f}")


@dataclass(frozen=True)
class Aggregate:
    p_d: float
    p_detect: float
    strategy: str
    agent: str
    metric: str
    mean: float
    std: float
    count: int

    def to_csv(self) -> str:
        return (f"{self.p_d:g},{self.p_detect:g},{self.strategy},{self.agent},"
                f"{self.metric},{self.mean:.4f},{self.std:.4f},{self.count}")


def derive_run_seed(base_seed: int, config_id: str, replication: int) -> int:
    """Stable 64-bit seed for one run of the sweep."""
    key = f"{base_seed}\x1f{config_id}\x1f{replication}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def config_label(p_d: float, p_detect: float, strategy: Strategy) -> str:
    return f"pd{p_d:g}_pdet{p_detect:g}_{strategy.label()}"


def iter_coords(config: SweepConfig) -> Iterator[SweepCoords]:
    for p_d in config.p_d_levels:
        for p_detect in config.p_detect_levels:
            for strategy in config.strategies:
                config_id = config_label(p_d, p_detect, strategy)
                for rep in range(config.replications):
                    yield SweepCoords(
                        config_id=config_id, replication=rep,
                        seed=derive_run_seed(config.base_seed, config_id, rep),
                        p_d=p_d, p_detect=p_detect, strategy=strategy)


def scenario_for(config: SweepConfig, coords: SweepCoords) -> Scenario:
    """Materialize one run of the sweep."""
    strategy = coords.strategy
    watch = replace(config.template.watch, enabled=strategy.watch,
                    p_detect=coords.p_detect, n_help=strategy.n_help)
    return build_run(
        config.template, schedule_seed=config.base_seed,
        replication=coords.replication, run_seed=coords.seed,
        p_d=coords.p_d, watch=watch)


def rows_for_run(coords: SweepCoords, report: MetricReport) -> list[SweepRow]:
    rows = [SweepRow(coords, pwd_id, "autonomy", value)
            for pwd_id, value in report.autonomy.items()]
    rows += [SweepRow(coords, pwd_id, "travel_efficiency", value)
             for pwd_id, value in report.travel_efficiency.items()
             if value is not None]
    rows += [SweepRow(coords, nurse_id, "efficiency", value)
             for nurse_id, value in report.efficiency.items()]
    return rows


def _execute(config: SweepConfig, coords: SweepCoords) -> list[SweepRow]:
    report = build_report(run_simulation(scenario_for(config, coords)))
    return rows_for_run(coords, report)


_WORKER_CONFIG: SweepConfig | None = None


def _worker_init(config: SweepConfig) -> None:
    global _WORKER_CONFIG
    _WORKER_CONFIG = config


def _worker_run(coords: SweepCoords) -> list[SweepRow]:
    return _execute(_WORKER_CONFIG, coords)


def run_sweep(config: SweepConfig, jobs: int = 1,
              progress: Callable[[int, int], None] | None = None) -> list[SweepRow]:
    """Run every scenario of the sweep and return sorted result rows.

    ``jobs`` > 1 distributes runs over worker processes; the output is
    byte-identical either way because rows are sorted afterwards.
    Raises ScenarioError, before any run, if the config is invalid.
    """
    problems = config.validate()
    if problems:
        raise ScenarioError(problems)
    coords = list(iter_coords(config))
    rows: list[SweepRow] = []
    with contextlib.ExitStack() as stack:
        if jobs <= 1:
            results = map(partial(_execute, config), coords)
        else:
            pool = stack.enter_context(concurrent.futures.ProcessPoolExecutor(
                max_workers=jobs, initializer=_worker_init, initargs=(config,)))
            results = pool.map(_worker_run, coords,
                               chunksize=max(1, len(coords) // (jobs * 8)))
        for done, run_rows in enumerate(results, 1):
            rows.extend(run_rows)
            if progress is not None:
                progress(done, len(coords))
    rows.sort(key=lambda r: (r.coords.config_id, r.coords.replication,
                             r.agent, r.metric))
    return rows


def aggregate(rows: list[SweepRow]) -> list[Aggregate]:
    """Mean/std/count per configuration, per agent and pooled across agents."""
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        c = row.coords
        base = (c.p_d, c.p_detect, c.strategy.label(), row.metric)
        groups.setdefault(base + (row.agent,), []).append(row.value)
        groups.setdefault(base + (POOLED_AGENT,), []).append(row.value)
    out = []
    for key in sorted(groups):
        p_d, p_detect, strategy, metric, agent = key
        values = groups[key]
        out.append(Aggregate(
            p_d=p_d, p_detect=p_detect, strategy=strategy, agent=agent,
            metric=metric, mean=mean(values),
            std=stdev(values) if len(values) > 1 else 0.0,
            count=len(values)))
    return out


def rows_to_csv(rows: list[SweepRow]) -> str:
    return "\n".join([ROWS_CSV_HEADER] + [r.to_csv() for r in rows]) + "\n"


def aggregates_to_csv(aggs: list[Aggregate]) -> str:
    return "\n".join([AGGREGATE_CSV_HEADER] + [a.to_csv() for a in aggs]) + "\n"
