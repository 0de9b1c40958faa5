"""Acceptance suite: one test per exit criterion, one printed line each.

The trend criteria run the full strategy grid at 200 replications on the
bundled demo scenario; expect a few minutes of runtime.  Everything is
seeded, so results are reproducible bit for bit.
"""

import random
import time
from collections import defaultdict, deque
from dataclasses import replace
from statistics import mean

import pytest
import yaml

from conftest import (
    bfs_oracle, check_causal_ordering, is_open, make_pwd, make_watch,
    shortest_path,
)

from ecqsim.agents import Appointment, pwd_begin_tick, watch_step
from ecqsim.cli import main
from ecqsim.engine import WatchConfig, run_simulation
from ecqsim.events import NURSE_CALLED
from ecqsim.experiment import PAPER_STRATEGIES, Strategy, SweepConfig, run_sweep
from ecqsim.grid import Position, parse_map
from ecqsim.metrics import build_report
from ecqsim.scenario import build_run

ACCEPTANCE_SEED = 42
TREND_P_D = (0.25, 0.5, 0.75, 1.0)
WATCH_LABELS = [f"nhelp={k}" for k in range(6)]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def trend_means(demo_loaded):
    """Mean metric per (p_d, strategy) over the paper-grid slice at
    p_detect=0.5, R=200, pooled across agents and replications."""
    config = SweepConfig(
        template=demo_loaded, p_d_levels=TREND_P_D,
        p_detect_levels=(0.5,), strategies=PAPER_STRATEGIES,
        replications=200, base_seed=ACCEPTANCE_SEED)
    started = time.monotonic()
    rows = run_sweep(config)
    elapsed = time.monotonic() - started
    values = defaultdict(list)
    for row in rows:
        values[(row.coords.p_d, row.coords.strategy.label(), row.metric)].append(
            row.value)
    means = {key: mean(vals) for key, vals in values.items()}
    means["elapsed"] = elapsed
    return means


def test_criterion_1_escalation_oracle():
    # P(call | detected episode) = (1 - 0.2) ** n_help.
    expected = [1.0, 0.8, 0.64, 0.512, 0.4096, 0.32768]
    episodes = 10_000
    started = time.monotonic()
    deviations = []
    for n_help, target in enumerate(expected):
        grid = parse_map("#h.s#", {"h": ("home", "pwd_home"),
                                   "s": ("site", "appointment_site")})
        pwd = make_pwd(grid, seed=1000 + n_help, p_i=0.2,
                       schedule=[Appointment("site", 0, 0)], p_d=1.0)
        pwd_begin_tick(pwd, grid, 0, [])
        assert pwd.disoriented
        watch = pwd.watch = make_watch(seed=1000 + n_help, p_detect=1.0,
                                       n_help=n_help)
        calls = 0
        tick = 0
        for _ in range(episodes):
            watch.reset()
            pwd.disoriented = True
            pwd.episode = "e"
            while True:
                tick += 1
                events = []
                watch_step(pwd, tick, events, deque())
                if any(e.kind == NURSE_CALLED for e in events):
                    calls += 1
                    break
                if not pwd.disoriented:
                    break
        deviations.append(abs(calls / episodes - target))
    elapsed = time.monotonic() - started
    ok = max(deviations) < 0.02 and elapsed < 5.0
    report("C1 escalation-oracle", ok,
           f"max deviation {max(deviations):.4f}, {elapsed:.1f}s")


def test_criterion_2_degenerate_exactness(demo_loaded):
    started = time.monotonic()
    scenario = build_run(demo_loaded, schedule_seed=ACCEPTANCE_SEED,
                         replication=0, run_seed=ACCEPTANCE_SEED, p_d=0.0,
                         watch=WatchConfig(enabled=False))
    result = build_report(run_simulation(scenario))
    elapsed = time.monotonic() - started
    exact = all(v == 100.0 for v in result.autonomy.values()) and \
        all(v == 100.0 for v in result.efficiency.values())
    formatted = all(f"{v:.2f}" == "100.00" for v in result.autonomy.values())
    ok = exact and formatted and elapsed < 1.0
    report("C2 degenerate-exactness", ok,
           f"all autonomy/efficiency exactly 100.00, {elapsed:.2f}s")


def test_criterion_3_autonomy_trend(trend_means):
    values = [trend_means[(0.5, label, "autonomy")] for label in WATCH_LABELS]
    steps_ok = all(b - a >= -0.5 for a, b in zip(values, values[1:]))
    gap = values[5] - values[0]
    ok = steps_ok and gap > 0
    report("C3 autonomy-trend", ok,
           "n0..n5 " + " ".join(f"{v:.2f}" for v in values)
           + f", n5-n0 {gap:+.3f}, sweep {trend_means['elapsed']:.0f}s")


def test_criterion_4_nurse_efficiency_trend(trend_means):
    values = [trend_means[(0.5, label, "efficiency")] for label in WATCH_LABELS]
    nowatch = trend_means[(0.5, "nowatch", "efficiency")]
    ok = values[5] > values[0] and all(nowatch >= v for v in values)
    report("C4 nurse-efficiency-trend", ok,
           f"n0 {values[0]:.2f} n5 {values[5]:.2f} nowatch {nowatch:.2f}")


def test_criterion_5_beneficence_trend(trend_means):
    details = []
    ok = True
    for p_d in TREND_P_D:
        watch_te = [trend_means[(p_d, label, "travel_efficiency")]
                    for label in WATCH_LABELS]
        nowatch = trend_means[(p_d, "nowatch", "travel_efficiency")]
        gap = min(watch_te) - nowatch
        spread = max(watch_te) - min(watch_te)
        ok = ok and gap > 5.0 and spread < 10.0
        details.append(f"p_d={p_d:g} gap {gap:.1f} spread {spread:.1f}")
    report("C5 beneficence-trend", ok, "; ".join(details))


def test_criterion_6_locomotion_noise_ceiling(demo_loaded):
    config = SweepConfig(
        template=demo_loaded, p_d_levels=(0.0,),
        p_detect_levels=(0.5,), strategies=(Strategy(False),),
        replications=200, base_seed=ACCEPTANCE_SEED)
    rows = run_sweep(config)
    te = [r.value for r in rows if r.metric == "travel_efficiency"]
    value = mean(te)
    ok = abs(value - 90.0) <= 3.0 and len(te) == 200 * 5
    report("C6 locomotion-noise-ceiling", ok,
           f"mean TE {value:.2f} over {len(te)} agent-runs")


def test_criterion_7_sweep_determinism(tmp_path, demo_loaded):
    assert main(["demo", str(tmp_path)]) == 0
    scenario_path = tmp_path / "demo_scenario.yaml"
    raw = yaml.safe_load(scenario_path.read_text())
    raw.update(horizon=2000, appointments_per_pwd=3, appointment_duration=15)
    scenario_path.write_text(yaml.safe_dump(raw))

    outputs = []
    for name, jobs in (("a", 1), ("b", 1), ("c", 2)):
        rows = tmp_path / f"rows_{name}.csv"
        aggs = tmp_path / f"aggs_{name}.csv"
        code = main(["sweep", str(scenario_path), "--paper-grid", "--reps", "3",
                     "--seed", str(ACCEPTANCE_SEED), "--out", str(rows),
                     "--aggregate", str(aggs), "--jobs", str(jobs)])
        assert code == 0
        outputs.append((rows.read_bytes(), aggs.read_bytes()))
    ok = outputs[0] == outputs[1] == outputs[2]
    report("C7 sweep-determinism", ok,
           f"3 invocations (jobs 1/1/2), {len(outputs[0][0])} row-CSV bytes each")


def test_criterion_8_path_oracle():
    rng = random.Random(ACCEPTANCE_SEED)
    pairs_checked = 0
    for _ in range(100):
        text = "\n".join(
            "".join("#" if rng.random() < 0.2 else "." for _ in range(20))
            for _ in range(20))
        grid = parse_map(text, {})
        floor = [Position(x, y) for y in range(20) for x in range(20)
                 if is_open(grid, Position(x, y))]
        marked = rng.sample(floor, min(6, len(floor)))
        for i, a in enumerate(marked):
            for b in marked[i + 1:]:
                expected = bfs_oracle(grid, a, b)
                if expected is None:
                    continue
                assert len(shortest_path(grid, a, b)) - 1 == expected
                pairs_checked += 1
    report("C8 path-oracle", pairs_checked > 500,
           f"{pairs_checked} reachable pairs matched BFS")


def test_criterion_9_conservation_fuzz(demo_loaded):
    rng = random.Random(ACCEPTANCE_SEED)
    for case in range(50):
        horizon = rng.randrange(400, 1500)
        template = replace(
            demo_loaded, horizon=horizon,
            appointments_per_pwd=rng.randrange(1, 4),
            appointment_duration=rng.randrange(0, 30))
        template.pwds = [
            replace(p, p_i=rng.random(), p_noise=rng.random() * 0.5,
                    p_forget=rng.choice([0.0, 0.0, rng.random()]))
            for p in template.pwds[:rng.randrange(1, 6)]]
        template.nurses = template.nurses[:rng.randrange(1, 4)]
        watch = WatchConfig(
            enabled=rng.random() < 0.8, p_detect=rng.random(),
            n_help=rng.randrange(0, 6),
            intervention_interval=rng.randrange(1, 4))
        scenario = build_run(template, schedule_seed=case, replication=0,
                             run_seed=case, p_d=rng.random(), watch=watch)
        log = run_simulation(scenario)
        for pwd_id in log.pwd_ids:
            assert sum(log.pwd_mode_counts(pwd_id)) == horizon
        for nurse_id in log.nurse_ids:
            assert sum(log.nurse_state_counts(nurse_id)) == horizon
        result = build_report(log)
        for value in list(result.autonomy.values()) + list(result.efficiency.values()):
            assert 0.0 <= value <= 100.0
        for value in result.travel_efficiency.values():
            assert value is None or 0.0 <= value <= 100.0
        check_causal_ordering(log)
    report("C9 conservation-fuzz", True, "50 scenarios, all invariants held")
