import math
import random
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings, strategies as st

from ecqsim.experiment import (
    PAPER_STRATEGIES, Strategy, SweepConfig, SweepCoords, SweepRow, aggregate,
    aggregates_to_csv, derive_run_seed, iter_coords, rows_to_csv, run_sweep,
    scenario_for,
)
from ecqsim.scenario import build_run, generate_schedule


def small_config(demo_loaded, **overrides):
    template = replace(demo_loaded, horizon=1500,
                       appointments_per_pwd=3, appointment_duration=10)
    defaults = dict(template=template, p_d_levels=(0.0,),
                    p_detect_levels=(0.5,), strategies=(Strategy(True, 1),),
                    replications=2, base_seed=99)
    defaults.update(overrides)
    return SweepConfig(**defaults)


# -- strategies and seeds -----------------------------------------------------

def test_strategy_labels_and_parse():
    assert Strategy(False).label() == "nowatch"
    assert Strategy(True, 3).label() == "nhelp=3"
    assert Strategy.parse("nowatch") == Strategy(False)
    assert Strategy.parse("nhelp=4") == Strategy(True, 4)
    for bad in ("nhelp=", "nhelp=-1", "watch", "nhelp=x"):
        with pytest.raises(ValueError):
            Strategy.parse(bad)


def test_paper_strategy_set():
    labels = [s.label() for s in PAPER_STRATEGIES]
    assert labels == ["nowatch"] + [f"nhelp={k}" for k in range(6)]


def test_sweep_config_strategies(demo_loaded):
    assert SweepConfig(template=demo_loaded).strategies == PAPER_STRATEGIES
    assert SweepConfig(template=demo_loaded).validate() == []
    empty = SweepConfig(template=demo_loaded, strategies=())
    assert empty.strategies == ()
    assert empty.validate() == ["no strategies"]


def test_sweep_config_rejects_repeated_values(demo_loaded):
    # A repeated value reruns its configurations on the same seeds and
    # counts their rows twice in the aggregate.
    config = small_config(
        demo_loaded, p_d_levels=(0.5, 0.25, 0.5, 0.5), p_detect_levels=(0.2, 0.2),
        strategies=(Strategy(True, 1), Strategy(False), Strategy(True, 1)))
    assert config.validate() == [
        "repeated p_d level 0.5", "repeated p_detect level 0.2",
        "repeated strategy nhelp=1"]
    assert small_config(demo_loaded, p_d_levels=()).validate() == ["no p_d levels"]
    # -0 prints apart from 0 but equals it, so the aggregate pools them.
    assert small_config(demo_loaded, p_d_levels=(0.0, -0.0)).validate() == [
        "repeated p_d level 0"]


def test_run_seed_stable_and_distinct():
    assert derive_run_seed(1, "a", 0) == derive_run_seed(1, "a", 0)
    assert derive_run_seed(1, "a", 0) != derive_run_seed(1, "a", 1)
    assert derive_run_seed(1, "a", 0) != derive_run_seed(2, "a", 0)
    assert 0 <= derive_run_seed(5, "x", 3) < 2 ** 64


# -- expansion -----------------------------------------------------------------

def test_paper_grid_expansion_count(demo_loaded):
    config = small_config(demo_loaded, p_d_levels=(0, 0.25, 0.5, 0.75, 1),
                          p_detect_levels=(0.5, 0.2),
                          strategies=PAPER_STRATEGIES, replications=3)
    jobs = [(c, scenario_for(config, c)) for c in iter_coords(config)]
    assert len(jobs) == 5 * 2 * 7 * 3
    assert len({c.config_id for c, _ in jobs}) == 70


def test_run_keeps_the_template_watch_settings(demo_loaded):
    # The demo uses the default interval, so the golden digests cannot
    # tell a kept interval from a reset one.
    template = replace(demo_loaded, watch=replace(
        demo_loaded.watch, enabled=False, p_detect=0.9, n_help=5,
        intervention_interval=3))
    config = small_config(demo_loaded, template=template, p_detect_levels=(0.2,),
                          strategies=(Strategy(True, 2),), replications=1)
    coords = next(iter_coords(config))
    watch = scenario_for(config, coords).watch
    assert watch.intervention_interval == 3
    assert (watch.enabled, watch.p_detect, watch.n_help) == (True, 0.2, 2)


def test_singleton_expansion(demo_loaded):
    config = small_config(demo_loaded, replications=1)
    jobs = [(c, scenario_for(config, c)) for c in iter_coords(config)]
    assert len(jobs) == 1
    coords, scenario = jobs[0]
    assert scenario.seed == coords.seed
    assert all(p.p_d == 0.0 for p in scenario.pwds)


def test_paired_schedules_across_strategies(demo_loaded):
    config = small_config(demo_loaded,
                          strategies=(Strategy(False), Strategy(True, 5)),
                          replications=2)
    jobs = [(c, scenario_for(config, c)) for c in iter_coords(config)]
    by_key = {(c.strategy.label(), c.replication): s for c, s in jobs}
    for rep in (0, 1):
        a = by_key[("nowatch", rep)]
        b = by_key[("nhelp=5", rep)]
        assert [p.schedule for p in a.pwds] == [p.schedule for p in b.pwds]
    # ... but schedules differ across replications.
    assert [p.schedule for p in by_key[("nowatch", 0)].pwds] != \
        [p.schedule for p in by_key[("nowatch", 1)].pwds]


def test_generated_schedule_shape(demo_loaded):
    grid = demo_loaded.grid
    schedule = generate_schedule(grid, "P1", 7, 0, 6, 30, 10_000)
    assert len(schedule) == 6
    assert len({a.location for a in schedule}) == 6
    starts = [a.start for a in schedule]
    assert starts == sorted(starts)
    assert all(0 < a.start and a.start + a.duration <= 10_000 for a in schedule)
    assert generate_schedule(grid, "P1", 7, 0, 6, 30, 10_000) == schedule


@settings(max_examples=300, deadline=None)
@given(horizon=st.integers(1, 20_000), count=st.integers(1, 8),
       seed=st.integers(0, 2**64), replication=st.integers(0, 10**6), data=st.data())
def test_schedules_within_the_duration_bound_validate(demo_loaded, horizon, count,
                                                       seed, replication, data):
    """Any duration load_scenario accepts fits every draw: no overlap, no overrun."""
    spacing = horizon // (count + 1)
    jitter = spacing // 10
    bound = horizon - count * spacing - jitter
    if count >= 2:
        bound = min(bound, spacing - 2 * jitter)
    assume(bound >= 0)
    duration = data.draw(st.integers(0, bound), label="duration")
    schedule = generate_schedule(demo_loaded.grid, "P1", seed, replication,
                                 count, duration, horizon)
    run = build_run(demo_loaded, schedule_seed=0, replication=0, run_seed=0)
    scenario = replace(run, horizon=horizon,
                       pwds=[replace(demo_loaded.pwds[0], schedule=schedule)])
    assert scenario.validate() == []


def test_build_run_leaves_the_template_as_it_was(demo_loaded):
    before = repr(demo_loaded)
    run = build_run(demo_loaded, schedule_seed=1, replication=0, run_seed=1, p_d=1.0)
    assert repr(demo_loaded) == before
    assert all(cfg.schedule == [] for cfg in demo_loaded.pwds)
    assert all(cfg.schedule and cfg.p_d == 1.0 for cfg in run.pwds)
    assert run.pwds is not demo_loaded.pwds and run.nurses is not demo_loaded.nurses


# -- running -------------------------------------------------------------------

def test_row_accounting_and_determinism(demo_loaded):
    config = small_config(demo_loaded)
    rows = run_sweep(config)
    # Two replications of (5 autonomy + 5 TE + 3 efficiency) rows.
    assert len(rows) == 2 * (5 + 5 + 3)
    assert rows_to_csv(rows) == rows_to_csv(run_sweep(small_config(demo_loaded)))
    order = [(r.coords.config_id, r.coords.replication, r.agent, r.metric)
             for r in rows]
    assert order == sorted(order)


def test_no_disorientation_gives_full_autonomy_rows(demo_loaded):
    rows = run_sweep(small_config(demo_loaded))
    autonomy_rows = [r for r in rows if r.metric == "autonomy"]
    assert autonomy_rows
    assert all(r.value == 100.0 for r in autonomy_rows)


def test_parallel_execution_identical_output(demo_loaded):
    config = small_config(demo_loaded, replications=3)
    sequential = rows_to_csv(run_sweep(config, jobs=1))
    parallel = rows_to_csv(run_sweep(small_config(demo_loaded, replications=3),
                                     jobs=2))
    assert sequential == parallel


def test_csv_shapes(demo_loaded):
    rows = run_sweep(small_config(demo_loaded, replications=1))
    text = rows_to_csv(rows)
    lines = text.split("\n")
    assert lines[0] == "config_id,replication,seed,p_d,p_detect,strategy,agent,metric,value"
    assert text.endswith("\n") and "\r" not in text
    first = lines[1].split(",")
    assert len(first) == 9
    float(first[-1])  # value parses

    agg_text = aggregates_to_csv(aggregate(rows))
    assert agg_text.splitlines()[0] == "p_d,p_detect,strategy,agent,metric,mean,std,count"


# -- aggregation ----------------------------------------------------------------

def make_row(value, agent="P1", metric="autonomy", p_d=0.5, strategy="nowatch"):
    coords = SweepCoords(config_id="c", replication=0, seed=0, p_d=p_d,
                         p_detect=0.5, strategy=Strategy.parse(strategy))
    return SweepRow(coords=coords, agent=agent, metric=metric, value=value)


def test_aggregate_single_row():
    aggs = aggregate([make_row(80.0)])
    per_agent = next(a for a in aggs if a.agent == "P1")
    assert (per_agent.mean, per_agent.std, per_agent.count) == (80.0, 0.0, 1)


def test_aggregate_two_values():
    aggs = aggregate([make_row(80.0), make_row(90.0)])
    pooled = next(a for a in aggs if a.agent == "all")
    assert pooled.mean == 85.0
    assert pooled.std == pytest.approx(7.0710678, abs=1e-6)
    assert pooled.count == 2


def test_aggregate_matches_naive_oracle():
    rng = random.Random(31)
    rows = [make_row(rng.uniform(0, 100),
                     agent=rng.choice(["P1", "P2", "N1"]),
                     metric=rng.choice(["autonomy", "efficiency"]),
                     p_d=rng.choice([0.0, 0.5]),
                     strategy=rng.choice(["nowatch", "nhelp=2"]))
            for _ in range(1000)]

    groups = {}
    for row in rows:
        for agent in (row.agent, "all"):
            key = (row.coords.p_d, row.coords.p_detect,
                   row.coords.strategy.label(), agent, row.metric)
            groups.setdefault(key, []).append(row.value)
    expected = {}
    for key, values in groups.items():
        n = len(values)
        m = sum(values) / n
        var = sum((v - m) ** 2 for v in values) / (n - 1) if n > 1 else 0.0
        expected[key] = (m, math.sqrt(var), n)

    actual = {(a.p_d, a.p_detect, a.strategy, a.agent, a.metric):
              (a.mean, a.std, a.count) for a in aggregate(rows)}
    assert actual.keys() == expected.keys()
    for key, (m, s, n) in expected.items():
        assert actual[key][0] == pytest.approx(m)
        assert actual[key][1] == pytest.approx(s)
        assert actual[key][2] == n
