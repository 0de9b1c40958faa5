import pytest
from hypothesis import given, settings, strategies as st

from ecqsim.agents import Appointment
from ecqsim.engine import (
    NurseConfig, PwDConfig, Scenario, WatchConfig, run_simulation,
)
from ecqsim.events import (
    NURSE_INACTIVE, NURSE_RESPONDING, PWD_GUIDED, PWD_IDLE, TRIP_END, Event,
    EventLog,
)
from ecqsim.grid import parse_map
from ecqsim.metrics import autonomy, build_report, nurse_efficiency

from conftest import CORRIDOR_LEGEND, corridor_grid


def synthetic_log(horizon=1000, guided=0, nurse_active=0):
    log = EventLog(horizon, 0, ["P1"], ["N1"])
    pwd_ticks = log.pwd_mode_ticks["P1"]
    pwd_ticks[PWD_GUIDED], pwd_ticks[PWD_IDLE] = guided, horizon - guided
    nurse_ticks = log.nurse_state_ticks["N1"]
    nurse_ticks[NURSE_RESPONDING] = nurse_active
    nurse_ticks[NURSE_INACTIVE] = horizon - nurse_active
    return log


def add_trip(log, trip_id, nominal, taken, start=0):
    log.events.append(Event(start, "A", "TripStart", "P1",
                            {"trip": trip_id, "leg": "out", "goal": "site",
                             "nominal": nominal}))
    if taken is not None:
        log.events.append(Event(start + taken, "A", "TripEnd", "P1",
                                {"trip": trip_id, "leg": "out", "goal": "site",
                                 "nominal": nominal, "taken": taken}))


# -- autonomy ----------------------------------------------------------------

def test_autonomy_never_guided():
    assert autonomy(synthetic_log(guided=0), "P1") == 100.0


def test_autonomy_always_guided():
    assert autonomy(synthetic_log(horizon=500, guided=500), "P1") == 0.0


def test_autonomy_quarter_guided():
    assert autonomy(synthetic_log(horizon=1000, guided=250), "P1") == 75.0


def test_autonomy_unknown_agent():
    with pytest.raises(KeyError):
        autonomy(synthetic_log(), "P9")


# -- nurse efficiency ----------------------------------------------------------

def test_efficiency_idle_run():
    assert nurse_efficiency(synthetic_log(), "N1") == 100.0


def test_efficiency_half_active():
    log = synthetic_log(horizon=800, nurse_active=400)
    assert nurse_efficiency(log, "N1") == 50.0


def test_efficiency_forced_guidance_episode_90_percent():
    # Hand-traced through the phase semantics.  The resident departs at
    # tick 0 from x=5 toward the site at x=1 and instantly disorients
    # toward the only wrong goal at the far right, so the wander never
    # crosses the true goal.  The watch calls immediately; the nurse
    # walks from x=42 and lands on the resident at x=23 during tick 18
    # (responding ticks 0..17), then the pair walks 22 cells back to the
    # site (guiding ticks 18..39).  40 active ticks of 400 leave 90%.
    inner = ["."] * 47
    inner[0] = "s"    # x = 1, true goal
    inner[4] = "h"    # x = 5, home
    inner[41] = "b"   # x = 42, nurse base
    inner[46] = "w"   # x = 47, the only wrong goal
    text = "#" * 49 + "\n#" + "".join(inner) + "#\n" + "#" * 49
    legend = dict(CORRIDOR_LEGEND)
    legend["w"] = ("site2", "appointment_site")
    grid = parse_map(text, legend)
    scenario = Scenario(
        grid=grid,
        pwds=[PwDConfig(id="P1", home="home", p_d=1.0, p_i=0.0, p_noise=0.0,
                        schedule=[Appointment("site", 0, 360)])],
        nurses=[NurseConfig(id="N1", base="base")],
        watch=WatchConfig(enabled=True, p_detect=1.0, n_help=0),
        horizon=400, seed=1)
    log = run_simulation(scenario)
    counts = log.nurse_state_counts("N1")
    assert counts == (360, 18, 22)
    assert nurse_efficiency(log, "N1") == 90.0


# -- travel efficiency -----------------------------------------------------------

def test_te_perfect_travel():
    log = synthetic_log()
    add_trip(log, "P1.1", 40, 40)
    add_trip(log, "P1.2", 25, 25, start=100)
    assert build_report(log).travel_efficiency["P1"] == 100.0


def test_te_single_slow_trip():
    log = synthetic_log()
    add_trip(log, "P1.1", 50, 100)
    assert build_report(log).travel_efficiency["P1"] == 50.0


def test_te_absent_without_completed_trips():
    log = synthetic_log()
    assert build_report(log).travel_efficiency["P1"] is None
    add_trip(log, "P1.1", 50, None)  # started, never finished
    report = build_report(log)
    assert report.travel_efficiency["P1"] is None
    counts = report.counts["P1"]
    assert (counts.trips_completed, counts.trips_incomplete) == (0, 1)


def test_te_unweighted_mean_over_completed_only():
    log = synthetic_log()
    add_trip(log, "P1.1", 10, 20)        # 50%
    add_trip(log, "P1.2", 30, 30, 100)   # 100%
    add_trip(log, "P1.3", 10, None, 200)  # incomplete, excluded
    assert build_report(log).travel_efficiency["P1"] == pytest.approx(75.0)


def test_te_noise_ceiling_small_scale():
    # p_d = 0, p_noise = 0.1: expected taken is nominal / 0.9.
    grid = corridor_grid(50)
    values = []
    for seed in range(100):
        scenario = Scenario(
            grid=grid,
            pwds=[PwDConfig(id="P1", home="home", p_noise=0.1,
                            schedule=[Appointment("site", 0, 0)])],
            nurses=[], horizon=300, seed=seed)
        scenario.nurses = []
        log = run_simulation(scenario)
        value = build_report(log).travel_efficiency["P1"]
        if value is not None:
            values.append(value)
    assert len(values) == 100
    mean = sum(values) / len(values)
    assert 88.0 < mean < 94.0


@st.composite
def trip_logs(draw):
    """A log of interleaved trips by up to three residents.

    Each resident's trips follow one another; the last may be left open,
    and a trip may take zero ticks.  Returns the log and each resident's
    trips as (trip id, nominal, taken or None).
    """
    pwd_ids = [f"P{k}" for k in range(1, draw(st.integers(1, 3)) + 1)]
    trips, streams = {}, {}
    for pwd_id in pwd_ids:
        spans = draw(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 90)),
                              max_size=6))
        trips[pwd_id] = [(f"{pwd_id}.{n + 1}", nominal, taken)
                         for n, (nominal, taken) in enumerate(spans)]
        if trips[pwd_id] and draw(st.booleans()):
            trip_id, nominal, _ = trips[pwd_id][-1]
            trips[pwd_id][-1] = (trip_id, nominal, None)
        stream = []
        for trip_id, nominal, taken in trips[pwd_id]:
            stream.append(("TripStart", {"trip": trip_id, "leg": "out",
                                         "goal": "site", "nominal": nominal}))
            if taken is not None:
                stream.append(("TripEnd", {"trip": trip_id, "leg": "out",
                                           "goal": "site", "nominal": nominal,
                                           "taken": taken}))
        streams[pwd_id] = stream
    log = EventLog(1000, 0, pwd_ids, ["N1"])
    for pwd_id in pwd_ids:
        log.pwd_mode_ticks[pwd_id][PWD_IDLE] = 1000
    log.nurse_state_ticks["N1"][NURSE_INACTIVE] = 1000
    tick = 0
    while any(streams.values()):
        pwd_id = draw(st.sampled_from([p for p in pwd_ids if streams[p]]))
        kind, payload = streams[pwd_id].pop(0)
        log.events.append(Event(tick, "A", kind, pwd_id, payload))
        tick += 1
    return log, trips


@settings(max_examples=200, deadline=None)
@given(trip_logs())
def test_report_trips_match_per_resident_pairing(case):
    log, trips = case
    report = build_report(log)
    for pwd_id, pwd_trips in trips.items():
        # Naive pairing: each resident's own trips in start order.
        ratios = [100.0 if taken == 0 else 100.0 * nominal / taken
                  for _, nominal, taken in pwd_trips if taken is not None]
        expected = sum(ratios) / len(ratios) if ratios else None
        assert report.travel_efficiency[pwd_id] == expected
        counts = report.counts[pwd_id]
        assert counts.trips_completed == len(ratios)
        assert counts.trips_incomplete == len(pwd_trips) - len(ratios)


# -- report -----------------------------------------------------------------

def test_report_idle_world():
    report = build_report(synthetic_log())
    assert report.autonomy == {"P1": 100.0}
    assert report.efficiency == {"N1": 100.0}
    assert report.travel_efficiency == {"P1": None}
    counts = report.counts["P1"]
    assert (counts.trips_completed, counts.trips_incomplete,
            counts.episodes, counts.calls) == (0, 0, 0, 0)


def test_report_forced_run_calls_equal_episodes(demo_loaded):
    from dataclasses import replace
    from ecqsim.scenario import build_run
    template = replace(demo_loaded, horizon=800,
                       appointments_per_pwd=2, appointment_duration=10)
    scenario = build_run(template, schedule_seed=13, replication=0, run_seed=13,
                         p_d=1.0, watch=WatchConfig(enabled=True, p_detect=1.0,
                                                    n_help=0))
    for pwd in scenario.pwds:
        pwd.p_i = 0.0
    report = build_report(run_simulation(scenario))
    for pwd_id, counts in report.counts.items():
        assert counts.calls == counts.episodes
    for value in report.autonomy.values():
        assert 0.0 <= value <= 100.0
    for value in report.efficiency.values():
        assert 0.0 <= value <= 100.0
    for value in report.travel_efficiency.values():
        assert value is None or 0.0 <= value <= 100.0


def test_te_never_exceeds_100_on_completed_trips(demo_loaded):
    # Movement covers at most one cell of path distance per tick, so a
    # completed trip can never beat its nominal time.
    from dataclasses import replace
    from ecqsim.scenario import build_run
    template = replace(demo_loaded, horizon=2000,
                       appointments_per_pwd=3, appointment_duration=10)
    scenario = build_run(template, schedule_seed=17, replication=0,
                         run_seed=17, p_d=0.6,
                         watch=WatchConfig(enabled=True, p_detect=0.5, n_help=2))
    log = run_simulation(scenario)
    completed = [e.payload for e in log.events if e.kind == TRIP_END]
    assert completed
    for trip in completed:
        assert trip["taken"] >= trip["nominal"]


def test_watch_off_no_perception_gives_full_efficiency():
    # Disorientation happens but nurses cannot perceive (radius 0) and
    # are never called, so they stay inactive the whole run.
    grid = corridor_grid(30, with_base=True)
    scenario = Scenario(
        grid=grid,
        pwds=[PwDConfig(id="P1", home="home", p_d=0.4, p_noise=0.1,
                        schedule=[Appointment("site", 10, 20)])],
        nurses=[NurseConfig(id="N1", base="base", radius=0.0)],
        watch=WatchConfig(enabled=False),
        horizon=600, seed=3)
    log = run_simulation(scenario)
    assert nurse_efficiency(log, "N1") == 100.0


def test_report_text_format():
    report = build_report(synthetic_log())
    text = report.to_text(seed=7)
    lines = text.splitlines()
    assert lines[0] == "ecqsim-report v1"
    assert lines[1] == "seed 7"
    assert "autonomy P1 100.00" in lines
    assert "travel_efficiency P1 absent" in lines
