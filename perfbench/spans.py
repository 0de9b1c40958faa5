"""Traced mode: wrap each layer's public functions and record spans.

The wrappers live here, in the benchmark, and are installed by
patching module attributes for the duration of a traced pass; the
program itself is unchanged.  Coarse calls (one per command, scenario
load, simulation run, report, serialization) are kept as individual
spans ``(id, name, start, end, parent, run)``.  Hot calls (agent phases
and grid queries, hundreds of thousands per run) are kept as aggregate
spans per (name, parent name): calls, total and self time.  Everything
stays in memory until the benchmark writes it out at exit.

Spans of forked sweep workers are out of scope: traced operations run
their sweeps at --jobs 1, and pool metrics are measured from the parent.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import ecqsim.agents
import ecqsim.cli
import ecqsim.engine
import ecqsim.experiment
import ecqsim.scenario
from ecqsim.events import EventLog
from ecqsim.grid import GridMap
from ecqsim.metrics import MetricReport

LAYERS = ("cli", "scenario", "grid", "agents", "engine", "events", "metrics",
          "experiment")

PHASES = (("pwd_begin_tick", "agents.phase_a"), ("watch_step", "agents.phase_b"),
          ("assign_calls", "agents.dispatch"), ("nurse_step", "agents.phase_c"),
          ("pwd_move", "agents.phase_d"))
CELL_QUERIES = ("distance", "step_toward_cell")
LABEL_QUERIES = ("label_distance", "step_toward_label")


class Tracer:
    """Span store plus the per-layer counters measured at the same wrappers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.hot: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.targets: dict[int, tuple[GridMap, set, set]] = {}
        self.run_id = ""
        self.recording = False  # True only inside a root call
        # Parallel stacks: open span names, ids and child-time accumulators.
        self._names = ["root"]
        self._ids: list[int | None] = [None]
        self._child = [0.0]

    # -- wrappers ----------------------------------------------------------

    def coarse(self, name: str, fn, on_result=None):
        """Wrap ``fn`` so that every call is kept as its own span."""
        names, ids, child = self._names, self._ids, self._child
        spans, total, self_time, calls = self.spans, self.total, self.self_time, self.calls

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            span_id = len(spans)
            spans.append(None)
            parent = ids[-1]
            names.append(name)
            ids.append(span_id)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                inner = child.pop()
                names.pop()
                ids.pop()
                child[-1] += duration
                total[name] += duration
                self_time[name] += duration - inner
                calls[name] += 1
                spans[span_id] = (span_id, name, start, end, parent, self.run_id)
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def hot_span(self, name: str, fn, before=None, on_result=None):
        """Wrap ``fn`` so that calls are summed per (name, parent name)."""
        names, child, hot = self._names, self._child, self.hot
        total, self_time, calls = self.total, self.self_time, self.calls

        def wrapper(*args):
            if not self.recording:
                return fn(*args)
            if before is not None:
                before(args)
            names.append(name)
            child.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                duration = perf_counter() - start
                inner = child.pop()
                names.pop()
                child[-1] += duration
                total[name] += duration
                self_time[name] += duration - inner
                calls[name] += 1
                record = hot[(name, names[-1])]
                record[0] += 1
                record[1] += duration
                record[2] += duration - inner
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    # -- counters observed at the wrappers -----------------------------------

    def _target_sets(self, grid: GridMap) -> tuple[GridMap, set, set]:
        sets = self.targets.get(id(grid))
        if sets is None:
            # The grid is held so that its id cannot be reused in this pass.
            sets = self.targets[id(grid)] = (grid, set(), set())
        return sets

    def _cell_target(self, args) -> None:
        self._target_sets(args[0])[1].add(tuple(args[2]))

    def _label_target(self, args) -> None:
        self._target_sets(args[0])[2].add(args[2])

    def _los_result(self, visible: bool) -> None:
        if visible:
            self.counts["grid.los_true"] += 1

    def _engine_result(self, args, log: EventLog) -> None:
        self.counts["engine.residents_x_horizon"] += len(log.pwd_ids) * log.horizon
        self.counts["engine.horizon"] += log.horizon
        self.counts["engine.events"] += len(log.events)

    def _log_text(self, args, text: str) -> None:
        self.counts["events.log_bytes"] += len(text.encode("utf-8"))

    def _sweep_rows(self, args, rows) -> None:
        self.counts["experiment.rows"] += len(rows)

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self):
        """Patch the program's layer boundaries for the duration of a block.

        The wrappers record only inside a ``root`` call.
        """
        c, h = self.coarse, self.hot_span
        patches = [
            (ecqsim.cli, "load_scenario", c("scenario.load", ecqsim.cli.load_scenario)),
            (ecqsim.scenario, "parse_map", c("grid.parse", ecqsim.scenario.parse_map)),
            (ecqsim.cli, "run_simulation",
             c("engine.run", ecqsim.cli.run_simulation, self._engine_result)),
            (ecqsim.experiment, "run_simulation",
             c("engine.run", ecqsim.experiment.run_simulation, self._engine_result)),
            (ecqsim.cli, "build_report", c("metrics.report", ecqsim.cli.build_report)),
            (ecqsim.experiment, "build_report",
             c("metrics.report", ecqsim.experiment.build_report)),
            (MetricReport, "to_text", c("metrics.report_to_text", MetricReport.to_text)),
            (EventLog, "to_text", c("events.to_text", EventLog.to_text, self._log_text)),
            (ecqsim.cli, "run_sweep",
             c("experiment.run_sweep", ecqsim.cli.run_sweep, self._sweep_rows)),
            (ecqsim.experiment, "scenario_for",
             c("experiment.scenario_for", ecqsim.experiment.scenario_for)),
            (ecqsim.cli, "aggregate", c("experiment.aggregate", ecqsim.cli.aggregate)),
            (ecqsim.cli, "rows_to_csv", c("experiment.csv", ecqsim.cli.rows_to_csv)),
            (ecqsim.cli, "aggregates_to_csv",
             c("experiment.csv", ecqsim.cli.aggregates_to_csv)),
            (ecqsim.agents, "line_of_sight",
             h("grid.los", ecqsim.agents.line_of_sight, on_result=self._los_result)),
        ]
        for attr, name in PHASES:
            patches.append((ecqsim.engine, attr, h(name, getattr(ecqsim.engine, attr))))
        for attr in CELL_QUERIES:
            patches.append((GridMap, attr, h("grid.query", getattr(GridMap, attr),
                                             before=self._cell_target)))
        for attr in LABEL_QUERIES:
            patches.append((GridMap, attr, h("grid.query", getattr(GridMap, attr),
                                             before=self._label_target)))
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    def root(self, name: str, fn):
        """Wrap the benchmark's own call into the program.

        Wrappers record only inside a root span, so the benchmark's
        output checks, which call the same functions, stay out of the trace.
        """
        span = self.coarse(name, fn)

        def wrapper(*args, **kwargs):
            self.recording = True
            try:
                return span(*args, **kwargs)
            finally:
                self.recording = False
        return wrapper

    # -- results -------------------------------------------------------------

    def layer_self_times(self) -> dict[str, float]:
        table = {layer: 0.0 for layer in LAYERS}
        for name, value in self.self_time.items():
            table[name.split(".", 1)[0]] += value
        return table

    def metrics(self) -> dict[str, float]:
        """Per-layer values for everything recorded since construction."""
        t, n, k = self.total, self.calls, self.counts
        cell_targets = sum(len(s[1]) for s in self.targets.values())
        label_targets = sum(len(s[2]) for s in self.targets.values())
        queries = n["grid.query"]
        phase_a = n["agents.phase_a"]
        residents = (k["engine.residents_x_horizon"] / k["engine.horizon"]
                     if k["engine.horizon"] else 0)
        live_ticks = phase_a / residents if residents else 0.0
        out = {
            "scenario.load_s": t["scenario.load"],
            "grid.parse_s": t["grid.parse"],
            "grid.query_calls": queries,
            "grid.query_s": t["grid.query"],
            "grid.cell_targets": cell_targets,
            "grid.label_targets": label_targets,
            "grid.field_reuse_ratio":
                1 - (cell_targets + label_targets) / queries if queries else 0.0,
            "grid.los_calls": n["grid.los"],
            "grid.los_s": t["grid.los"],
            "grid.los_true_ratio":
                k["grid.los_true"] / n["grid.los"] if n["grid.los"] else 0.0,
        }
        for _, name in PHASES:
            out[f"{name}_s"] = t[name]
            out[f"{name}_calls"] = n[name]
        out.update({
            "engine.run_s": t["engine.run"],
            "engine.live_ticks": live_ticks,
            "engine.skip_ratio":
                1 - live_ticks / k["engine.horizon"] if k["engine.horizon"] else 0.0,
            "engine.events": k["engine.events"],
            "events.to_text_s": t["events.to_text"],
            "events.log_bytes": k["events.log_bytes"],
            "metrics.report_s": t["metrics.report"],
            "metrics.report_to_text_s": t["metrics.report_to_text"],
            "experiment.scenario_for_s": t["experiment.scenario_for"],
            "experiment.aggregate_s": t["experiment.aggregate"],
            "experiment.csv_s": t["experiment.csv"],
            "experiment.rows": k["experiment.rows"],
        })
        for layer, value in self.layer_self_times().items():
            out[f"{layer}.self_s"] = value
        return out

    def dump(self) -> dict:
        return {
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "run"), s))
                      for s in self.spans],
            "aggregate_spans": [
                {"name": name, "parent": parent, "calls": int(r[0]),
                 "total_s": r[1], "self_s": r[2]}
                for (name, parent), r in sorted(self.hot.items())],
            "self_time_by_name": dict(sorted(self.self_time.items())),
            "calls_by_name": dict(sorted(self.calls.items())),
            "note": "spans of forked sweep workers are out of scope",
        }
