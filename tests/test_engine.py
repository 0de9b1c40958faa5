from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    check_causal_ordering, corridor_grid, corridor_template, corridors,
    facilities, reference_run, row_grid,
)

import ecqsim.engine
from ecqsim.engine import (
    DEFAULT_HORIZON, NurseConfig, PwDConfig, Scenario, ScenarioError,
    WatchConfig, derive_stream, run_simulation,
)
from ecqsim.agents import WATCH_AWAITING_NURSE, Appointment
from ecqsim.grid import GridMap, parse_map
from ecqsim.events import (
    DETECTION, DISORIENTATION_START, EventLog, GUIDANCE_END, GUIDANCE_START,
    NURSE_CALLED, NURSE_GUIDING, NURSE_INACTIVE, PWD_AT_APPOINTMENT,
    PWD_GUIDED, PWD_IDLE, PWD_TRAVELING, RESPONSE_START, TRIP_END, TRIP_START,
)
from ecqsim.metrics import build_report
from ecqsim.scenario import build_run

PHASE_ORDER = {p: i for i, p in enumerate("ABCDE")}


def small_scenario(*, horizon=1200, p_d=0.5, p_i=0.2, p_noise=0.1,
                   watch=None, seed=7, demo_loaded=None, appointments=3,
                   duration=10):
    template = replace(demo_loaded, horizon=horizon,
                       appointments_per_pwd=appointments,
                       appointment_duration=duration)
    template.pwds = [replace(p, p_i=p_i, p_noise=p_noise) for p in template.pwds]
    return build_run(template, schedule_seed=seed, replication=0,
                     run_seed=seed, p_d=p_d,
                     watch=watch or WatchConfig(enabled=False))


def single_run(template):
    """The run ``ecqsim run`` makes of ``template`` at the template's seed."""
    return build_run(template, schedule_seed=template.seed, replication=0,
                     run_seed=template.seed)


def test_no_disorientation_leaves_only_trip_events(demo_loaded):
    scenario = small_scenario(p_d=0.0, demo_loaded=demo_loaded)
    log = run_simulation(scenario)
    assert {e.kind for e in log.events} == {TRIP_START, TRIP_END}
    for pwd_id in log.pwd_ids:
        assert log.pwd_mode_counts(pwd_id)[3] == 0  # never guided
    for nurse_id in log.nurse_ids:
        assert log.nurse_state_counts(nurse_id) == (log.horizon, 0, 0)


def test_determinism_same_seed_identical_bytes(demo_loaded):
    watch = WatchConfig(enabled=True, p_detect=0.5, n_help=1)
    first = run_simulation(small_scenario(demo_loaded=demo_loaded, watch=watch, seed=42))
    second = run_simulation(small_scenario(demo_loaded=demo_loaded, watch=watch, seed=42))
    assert first.to_text() == second.to_text()
    third = run_simulation(small_scenario(demo_loaded=demo_loaded, watch=watch, seed=43))
    assert third.to_text() != first.to_text()


def test_fast_forward_is_invisible(demo_loaded):
    watch = WatchConfig(enabled=True, p_detect=0.5, n_help=2)
    scenario = small_scenario(demo_loaded=demo_loaded, watch=watch, seed=11)
    assert run_simulation(scenario).to_text() == reference_run(scenario).to_text()


@pytest.mark.parametrize("strategy", [None, 0, 5], ids=["nowatch", "nhelp=0", "nhelp=5"])
@pytest.mark.parametrize("p_d", [0.0, 0.5, 1.0])
def test_paper_grid_runs_match_the_reference(demo_loaded, p_d, strategy):
    # Full demo horizon; at p_d=0 nearly every tick is skipped.
    watch = WatchConfig(enabled=strategy is not None, p_detect=0.5,
                        n_help=strategy or 0)
    scenario = build_run(demo_loaded, schedule_seed=5, replication=0,
                         run_seed=5, p_d=p_d, watch=watch)
    assert run_simulation(scenario).to_text() == reference_run(scenario).to_text()


def silent(pwd, grid):
    """Guided, or travelling lost off its goal with a watch that stays silent."""
    watch = pwd.watch
    return pwd.mode == PWD_GUIDED or (
        pwd.mode == PWD_TRAVELING and pwd.disoriented
        and (not watch.enabled or watch.phase == WATCH_AWAITING_NURSE)
        and not grid.at_label(pwd.position, pwd.trip.goal))


def scheduled_phase_calls(scenario):
    """Run ``scenario`` with the phases wrapped, and count their calls.

    The wrappers replace the ``ecqsim.engine`` globals, as perfbench's
    tracer does, and check that the engine steps no agent that cannot
    act: a phase-A call on an idle or dwelling resident must emit an
    event or move it on in its schedule, and one on a traveller that is
    not lost must emit its arrival or onset, as the rest of its trip is
    drawn ahead; phases A and B never take a silent resident (one lost
    this very tick aside, which phase E has not yet seen); a phase-C
    call on an inactive nurse standing on its base must find a resident
    disoriented with no nurse responding, and one on a guiding nurse
    must end the guidance; phase D never takes a guided resident.  The
    log must still equal the reference's.
    """
    calls = Counter()
    begin_tick, nurse_step = ecqsim.engine.pwd_begin_tick, ecqsim.engine.nurse_step
    watch_step, pwd_move = ecqsim.engine.watch_step, ecqsim.engine.pwd_move
    lost_at = {}

    def checked_begin_tick(pwd, grid, tick, events):
        calls["A"] += 1
        assert not silent(pwd, grid), (pwd.id, tick)
        before = (pwd.mode, pwd.next_idx, pwd.forgot, len(events))
        drawn_ahead = pwd.mode == PWD_TRAVELING and not pwd.disoriented
        begin_tick(pwd, grid, tick, events)
        if before[0] in (PWD_IDLE, PWD_AT_APPOINTMENT) or drawn_ahead:
            assert (pwd.mode, pwd.next_idx, pwd.forgot, len(events)) != before, \
                (pwd.id, tick)
        if events[before[3]:] and events[-1].kind == DISORIENTATION_START:
            lost_at[pwd.id] = tick

    def checked_watch_step(pwd, tick, events, queue):
        calls["B"] += 1
        assert not silent(pwd, scenario.grid) or lost_at.get(pwd.id) == tick, \
            (pwd.id, tick)
        watch_step(pwd, tick, events, queue)

    def checked_nurse_step(nurse, ctx, tick, events):
        calls["C"] += 1
        if nurse.state == NURSE_INACTIVE and ctx.grid.at_label(nurse.position, nurse.base):
            assert any(p.disoriented and p.nurse is None for p in ctx.pwds), \
                (nurse.id, tick)
        guiding, count = nurse.state == NURSE_GUIDING, len(events)
        nurse_step(nurse, ctx, tick, events)
        if guiding:
            assert [e.kind for e in events[count:]][:1] == [GUIDANCE_END], (nurse.id, tick)

    def checked_pwd_move(pwd, grid, tick):
        calls["D"] += 1
        assert pwd.mode != PWD_GUIDED, (pwd.id, tick)
        pwd_move(pwd, grid, tick)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ecqsim.engine, "pwd_begin_tick", checked_begin_tick)
        patch.setattr(ecqsim.engine, "watch_step", checked_watch_step)
        patch.setattr(ecqsim.engine, "nurse_step", checked_nurse_step)
        patch.setattr(ecqsim.engine, "pwd_move", checked_pwd_move)
        text = run_simulation(scenario).to_text()
    assert text == reference_run(scenario).to_text()
    return calls


@pytest.mark.parametrize("watch", [
    WatchConfig(enabled=True, p_detect=0.5), WatchConfig(enabled=False),
    WatchConfig(enabled=True, p_detect=0.5, n_help=0)],
    ids=["watch", "nowatch", "nhelp=0"])
def test_scheduler_steps_only_agents_that_can_act(demo_loaded, watch):
    # Forgetful residents exercise reminders (watch) and missed
    # appointments (no watch) as well as dwelling and travelling.
    template = replace(demo_loaded, pwds=[replace(p, p_forget=0.5)
                                          for p in demo_loaded.pwds])
    scenario = build_run(template, schedule_seed=5, replication=0, run_seed=5,
                         p_d=0.5, watch=watch)
    calls = scheduled_phase_calls(scenario)
    assert calls["A"] > 0 and calls["B"] > 0 and calls["C"] > 0


@settings(max_examples=40, deadline=None)
@given(facilities())
def test_scheduler_contract_on_generated_facilities(template):
    assert scheduled_phase_calls(single_run(template))["A"] > 0


# Spans that the horizon cuts: the run must still equal the every-tick
# reference.  Two mutations must fail the span tests.  Leaving the nurse
# of a guidance that the horizon cuts off unparked, so that phase C steps
# it again, fails test_guidance_past_the_horizon_parks_its_nurse_through_full_ticks
# (a quiet tick steps no guiding nurse, parked or not).
# Drawing a traveller's noise before its onset in agents.travel_ahead
# fails test_scheduler_steps_only_agents_that_can_act.  The generated
# facilities below catch either in some runs, not in every run.


def cut(scenario, horizon):
    """``scenario`` ending at ``horizon``, without the appointments past it."""
    pwds = [replace(p, schedule=[a for a in p.schedule
                                 if a.start + a.duration <= horizon])
            for p in scenario.pwds]
    return replace(scenario, pwds=pwds, horizon=horizon)


@settings(max_examples=60, deadline=None)
@given(facilities(), st.data())
def test_spans_cut_by_the_horizon_on_generated_facilities(template, data):
    scenario = single_run(template)
    scheduled_phase_calls(cut(scenario, data.draw(st.integers(1, scenario.horizon - 1))))


def check_guidance_past_the_horizon(watch, radius):
    """Every noise draw holds a resident still.  N1 reaches P1 and guides
    it, but the guidance never ends, so its span runs to the horizon
    while P2 stays lost.  A draw-ahead loop that did not stop at the
    horizon would hang here.
    """
    grid = parse_map("##########\n#ba....sN#\n##########", {
        "a": ("home_a", "pwd_home"), "b": ("home_b", "pwd_home"),
        "s": ("site", "appointment_site"), "N": ("base", "nurse_base")})
    scenario = Scenario(
        grid=grid, horizon=DEFAULT_HORIZON,
        pwds=[PwDConfig(id=f"P{k}", home=home, p_d=1.0, p_noise=1.0,
                        schedule=[Appointment("site", 0, 0)])
              for k, home in ((1, "home_a"), (2, "home_b"))],
        nurses=[NurseConfig(id="N1", base="base", radius=radius)],
        watch=watch)
    scheduled_phase_calls(scenario)
    log = run_simulation(scenario)
    assert log.pwd_mode_counts("P2")[PWD_TRAVELING] == log.horizon  # lost throughout
    assert [e.kind for e in log.events][-2:] == [RESPONSE_START, GUIDANCE_START]
    guided_from = log.events[-1].tick
    assert log.pwd_mode_counts("P1")[PWD_GUIDED] == log.horizon - guided_from
    assert log.nurse_state_counts("N1")[NURSE_GUIDING] == log.horizon - guided_from


def test_guidance_past_the_horizon_parks_its_nurse():
    # P2's call waits for N1, so every tick after the guidance starts is
    # quiet and drawn up to the horizon.
    check_guidance_past_the_horizon(
        WatchConfig(enabled=True, p_detect=1.0, n_help=0), radius=0)


def test_guidance_past_the_horizon_parks_its_nurse_through_full_ticks():
    # No watch detects, and N1 sees P1 but not P2, whose silent watch
    # keeps every tick a full one: phase C meets the parked N1 on each.
    check_guidance_past_the_horizon(
        WatchConfig(enabled=True, p_detect=0.0, n_help=0), radius=6.5)


def test_lost_step_onto_the_goal_is_an_arrival():
    # The resident leaves at tick 1 and is lost at once, with no watch;
    # its false goal lies past its true one, so its first step lands on
    # the true goal.  Phase A must still see it there on tick 2.
    grid = parse_map("#####\n#hst#\n#####", {
        "h": ("home", "pwd_home"), "s": ("site", "appointment_site"),
        "t": ("site2", "appointment_site")})
    scenario = Scenario(grid=grid, nurses=[], horizon=20, pwds=[PwDConfig(
        id="P1", home="home", p_d=1.0, p_noise=0.0,
        schedule=[Appointment("site", 1, 5)])])
    log = run_simulation(scenario)
    assert log.to_text() == reference_run(scenario).to_text()
    arrivals = [(e.tick, e.payload["goal"]) for e in log.events if e.kind == TRIP_END]
    assert arrivals[0] == (2, "site")


# Quiet ticks: each run below must equal the every-tick reference, with
# no event on a tick drawn.  Three mutations each fail a test here.
# Entering the loop with a stale call queued fails
# test_stale_call_forces_a_full_tick; leaving walking nurses where they
# stand fails test_nurse_walking_home_sights_a_resident_mid_stretch;
# finishing a tick whose pursuit lands, instead of stopping before it,
# fails test_pursuit_reaches_its_resident_after_a_quiet_stretch.


def drawn_stretches(scenario):
    """Run ``scenario``, recording the ticks that ``quiet_ticks`` draws.

    Returns the log, which must equal the reference's, and a ``range``
    of ticks for each stretch drawn.  No tick in one may carry an event.
    """
    stretches = []
    quiet_ticks = ecqsim.engine.quiet_ticks

    def recorded(movers, nurses, grid, tick, wake):
        end = quiet_ticks(movers, nurses, grid, tick, wake)
        if end > tick:
            stretches.append(range(tick, end))
        return end

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ecqsim.engine, "quiet_ticks", recorded)
        log = run_simulation(scenario)
    assert log.to_text() == reference_run(scenario).to_text()
    drawn = {tick for stretch in stretches for tick in stretch}
    assert [e for e in log.events if e.tick in drawn] == []
    return log, stretches


def lost_on_departure(pwd_id, home, site, start, duration=0):
    """A resident that gets lost as it leaves for ``site`` and never stumbles."""
    return PwDConfig(id=pwd_id, home=home, p_d=1.0, p_noise=0.0,
                     schedule=[Appointment(site, start, duration)])


def stretch_ending_at(stretches, tick):
    """The stretch that stops before ``tick``; it must have drawn several ticks."""
    [stretch] = [s for s in stretches if s.stop == tick]
    assert len(stretch) > 2
    return stretch


def test_lost_resident_walks_into_sight_mid_stretch():
    # P1 leaves at tick 1, lost toward site_B beside the base; with no
    # watch, only N1's scan can find it, once it is two cells away.
    scenario = Scenario(
        grid=row_grid("#A.a.........BN#"), horizon=60,
        pwds=[lost_on_departure("P1", "home_a", "site_A", 1)],
        nurses=[NurseConfig(id="N1", base="base", radius=2)])
    log, stretches = drawn_stretches(scenario)
    [seen, *_] = [e for e in log.events if e.kind == RESPONSE_START]
    assert seen.payload["via"] == "sight" and seen.tick > 2
    assert stretch_ending_at(stretches, seen.tick).start == 2


def test_pursuit_reaches_its_resident_after_a_quiet_stretch():
    # P1's call at tick 1 sends N1 down the corridor after it, while P1
    # walks away toward site_B; each tick of the chase is quiet.
    scenario = Scenario(
        grid=row_grid("#B...a.A........N#"), horizon=60,
        pwds=[lost_on_departure("P1", "home_a", "site_A", 1, duration=5)],
        nurses=[NurseConfig(id="N1", base="base", radius=0)],
        watch=WatchConfig(enabled=True, p_detect=1.0, n_help=0))
    log, stretches = drawn_stretches(scenario)
    [called, *_] = [e for e in log.events if e.kind == RESPONSE_START]
    [reached, *_] = [e for e in log.events if e.kind == GUIDANCE_START]
    assert called.tick == 1 and called.payload["via"] == "call"
    assert stretch_ending_at(stretches, reached.tick).start == 2


def test_lost_resident_steps_onto_its_goal_mid_stretch():
    # Lost toward site_B, P1 crosses its own site_A on the way; N1, too
    # far off to see it, scans every tick of the stretch.
    scenario = Scenario(
        grid=row_grid("#a.....A....BN#"), horizon=40,
        pwds=[lost_on_departure("P1", "home_a", "site_A", 1, duration=5)],
        nurses=[NurseConfig(id="N1", base="base", radius=1)])
    log, stretches = drawn_stretches(scenario)
    [arrival, *_] = [e for e in log.events if e.kind == TRIP_END]
    assert arrival.tick == 7 and arrival.payload["goal"] == "site_A"
    assert stretch_ending_at(stretches, arrival.tick).start == 2


def test_nurse_walking_home_sights_a_resident_mid_stretch():
    # N1 guides P1 to site_A, at the far end from its base, and walks
    # home from there; meanwhile P2 leaves lost toward site_A and walks
    # into its sight, with N1 still 11 steps from its base.
    scenario = Scenario(
        grid=row_grid("#A.a...........b.BN#"), horizon=80,
        pwds=[lost_on_departure("P1", "home_a", "site_A", 1, duration=50),
              lost_on_departure("P2", "home_b", "site_B", 30, duration=10)],
        nurses=[NurseConfig(id="N1", base="base", radius=2)])
    log, stretches = drawn_stretches(scenario)
    [released] = [e for e in log.events
                  if e.kind == GUIDANCE_END and e.payload["pwd"] == "P1"]
    [seen, *_] = [e for e in log.events
                  if e.kind == RESPONSE_START and e.payload["pwd"] == "P2"]
    assert (released.tick, seen.tick) == (31, 37)
    assert stretch_ending_at(stretches, seen.tick).start > released.tick


def test_stale_call_forces_a_full_tick():
    # At tick 157 N0's release takes P0's call of its episode e3, and so
    # leaves P0's call of e4 queued as a duplicate.  N0 is busy and no
    # resident is awake, so only that stale call keeps tick 158 from
    # being quiet: phase B must drop it there.
    log, stretches = drawn_stretches(single_run(corridor_template(
        "#Bd.AaNbc#", p_d=1.0, p_noise=0.0, radii=(1,), horizon=200,
        count=2, seed=374)))
    lines = log.to_text().splitlines()
    taken = lines.index("157,C,ResponseStart,N0,pwd=P0,episode=P0.e4,via=call")
    assert lines[taken + 1] == "158,B,CallDropped,P0,episode=P0.e4,reason=duplicate"
    assert not any(158 in stretch for stretch in stretches)


@settings(max_examples=100, deadline=None)
@given(facilities())
def test_no_event_inside_a_quiet_stretch_on_generated_facilities(template):
    drawn_stretches(single_run(template))


@settings(max_examples=150, deadline=None)
@given(corridors())
def test_no_event_inside_a_quiet_stretch_on_generated_corridors(template):
    drawn_stretches(single_run(template))


def test_forced_chain_detection_and_call_same_tick(demo_loaded):
    watch = WatchConfig(enabled=True, p_detect=1.0, n_help=0)
    scenario = small_scenario(demo_loaded=demo_loaded, p_d=1.0, p_i=0.0,
                              watch=watch, seed=3)
    log = run_simulation(scenario)
    onsets = [e for e in log.events if e.kind == DISORIENTATION_START]
    assert onsets
    for onset in onsets:
        episode = onset.payload["episode"]
        detections = [e for e in log.events
                      if e.kind == DETECTION and e.payload["episode"] == episode]
        calls = [e for e in log.events
                 if e.kind == NURSE_CALLED and e.payload["episode"] == episode]
        assert len(detections) == 1 and detections[0].tick == onset.tick
        assert len(calls) == 1 and calls[0].tick == onset.tick


def test_tally_conservation_and_event_order(demo_loaded):
    watch = WatchConfig(enabled=True, p_detect=0.5, n_help=1)
    log = run_simulation(small_scenario(demo_loaded=demo_loaded, watch=watch, seed=9))
    for pwd_id in log.pwd_ids:
        assert sum(log.pwd_mode_counts(pwd_id)) == log.horizon
    for nurse_id in log.nurse_ids:
        assert sum(log.nurse_state_counts(nurse_id)) == log.horizon
    # A resident is guided exactly while one nurse is guiding them.
    guided = sum(log.pwd_mode_counts(p)[PWD_GUIDED] for p in log.pwd_ids)
    assert guided > 0
    assert guided == sum(log.nurse_state_counts(n)[NURSE_GUIDING]
                         for n in log.nurse_ids)
    keys = [(e.tick, PHASE_ORDER[e.phase]) for e in log.events]
    assert keys == sorted(keys)
    check_causal_ordering(log)


def check_whole_run(template):
    """The invariants of the run ``ecqsim run`` makes of ``template``."""
    scenario = single_run(template)
    log = run_simulation(scenario)
    text = log.to_text()
    assert reference_run(scenario).to_text() == text
    for agent_id in log.pwd_ids:
        assert sum(log.pwd_mode_counts(agent_id)) == log.horizon
    for agent_id in log.nurse_ids:
        assert sum(log.nurse_state_counts(agent_id)) == log.horizon
    keys = [(e.tick, PHASE_ORDER[e.phase]) for e in log.events]
    assert keys == sorted(keys)
    parsed = EventLog.from_text(text)
    assert parsed.events == log.events
    assert build_report(parsed) == build_report(log)
    # A resident is guided from the tick of GuidanceStart up to the tick
    # of GuidanceEnd, or to the horizon.
    guided = dict.fromkeys(log.pwd_ids, 0)
    started = {}
    for event in log.events:
        if event.kind == GUIDANCE_START:
            started[event.payload["pwd"]] = event.tick
        elif event.kind == GUIDANCE_END:
            pwd_id = event.payload["pwd"]
            guided[pwd_id] += event.tick - started.pop(pwd_id)
    for pwd_id, tick in started.items():
        guided[pwd_id] += log.horizon - tick
    assert guided == {p: log.pwd_mode_counts(p)[PWD_GUIDED] for p in log.pwd_ids}
    return log


@settings(max_examples=200, deadline=None)
@given(facilities())
def test_whole_run_invariants_on_generated_facilities(template):
    check_causal_ordering(check_whole_run(template))


@settings(max_examples=300, deadline=None)
@given(corridors())
def test_whole_run_invariants_on_generated_corridors(template):
    # Without check_causal_ordering: in a corridor a resident often
    # arrives while a nurse responds to it and is lost again in the same
    # tick, and the nurse then guides the new episode under a
    # ResponseStart that names the old one.
    check_whole_run(template)


def test_drop_at_release_is_stamped_phase_c():
    # At tick 53 P0 arrives and leaves again, lost, so its second call
    # waits behind its first.  N0's release in phase C takes the first;
    # N1's release later in that phase meets the second, now a duplicate.
    log = run_simulation(single_run(corridor_template(
        "#cdNaABb.#", p_d=1.0, p_noise=0.0, radii=(0, 0), horizon=100,
        count=1, seed=3)))
    lines = log.to_text().splitlines()
    end = lines.index("53,C,GuidanceEnd,N1,pwd=P1,episode=P1.e2")
    assert lines[end + 1] == "53,C,CallDropped,P0,episode=P0.e2,reason=duplicate"
    keys = [(e.tick, PHASE_ORDER[e.phase]) for e in log.events]
    assert keys == sorted(keys)


def test_stream_independence_roster_change(demo_loaded):
    # Watch resolves every episode on the first attempt, so residents
    # never interact; removing one must not disturb the others.
    watch = WatchConfig(enabled=True, p_detect=1.0, n_help=3)
    full = small_scenario(demo_loaded=demo_loaded, p_d=0.3, p_i=1.0,
                          watch=watch, seed=21)
    log_full = run_simulation(full)
    reduced = small_scenario(demo_loaded=demo_loaded, p_d=0.3, p_i=1.0,
                             watch=watch, seed=21)
    reduced.pwds = [p for p in reduced.pwds if p.id != "P3"]
    log_reduced = run_simulation(reduced)

    def per_agent(log, agent_id):
        return [(e.tick, e.kind, tuple(sorted(e.payload.items())))
                for e in log.events if e.subject == agent_id]

    for pwd_id in ("P1", "P2", "P4", "P5"):
        assert per_agent(log_full, pwd_id) == per_agent(log_reduced, pwd_id)


def test_derive_stream_properties():
    a = derive_stream(1, "P1", "noise")
    b = derive_stream(1, "P1", "noise")
    assert [a.random() for _ in range(50)] == [b.random() for _ in range(50)]
    c = derive_stream(1, "P1", "disorient")
    assert [derive_stream(1, "P1", "noise").random() for _ in range(10)] != \
        [c.random() for _ in range(10)]
    assert derive_stream(2, "P1", "noise").random() != \
        derive_stream(1, "P1", "noise").random()


def test_derive_stream_uniform_mean():
    rng = derive_stream(123, "P1", "noise")
    n = 1_000_000
    mean = sum(rng.random() for _ in range(n)) / n
    assert abs(mean - 0.5) < 0.002


def test_log_roundtrip_preserves_metrics(demo_loaded):
    watch = WatchConfig(enabled=True, p_detect=0.5, n_help=1)
    log = run_simulation(small_scenario(demo_loaded=demo_loaded, watch=watch, seed=5))
    text = log.to_text()
    parsed = EventLog.from_text(text)
    assert parsed.to_text() == text
    assert build_report(parsed) == build_report(log)


def relabel(grid, old, new):
    """``grid`` with label ``old`` renamed ``new``."""
    cells = [new if cell == old else cell for cell in grid.cells]
    roles = {new if label == old else label: role for label, role in grid.roles.items()}
    return GridMap(grid.width, grid.height, cells, roles)


@pytest.mark.parametrize("pwd_id, nurse_id, site", [
    ("--5", "N1", "05"), ("007", "01", "007"), ("5", "N1", "5"),
], ids=["--5-N1", "007-01", "5-5"])
def test_log_roundtrip_keeps_ids_that_read_like_integers(demo_loaded, pwd_id,
                                                         nurse_id, site):
    # A log that ``ecqsim run --out`` writes reads back as it was, also
    # when an id or a label in a payload is spelt like an integer.
    template = replace(demo_loaded, grid=relabel(demo_loaded.grid, "dining", site))
    scenario = small_scenario(demo_loaded=template, p_d=1.0, seed=5,
                              watch=WatchConfig(enabled=True, p_detect=1.0, n_help=0))
    scenario.pwds[0] = replace(scenario.pwds[0], id=pwd_id)
    scenario.nurses[0] = replace(scenario.nurses[0], id=nurse_id)
    log = run_simulation(scenario)
    text = log.to_text()
    assert f",pwd={pwd_id}," in text and f",{nurse_id}," in text
    assert f"goal={site}," in text
    parsed = EventLog.from_text(text)
    assert parsed.events == log.events
    assert parsed.to_text() == text
    assert build_report(parsed) == build_report(log)


def _truncate_header(lines):
    return lines[:3]


def _truncate_events(lines):
    return lines[:len(lines) // 2]


def _drop_tally(lines):
    return [line for line in lines if not line.startswith("tally P2 ")]


def _short_tally(lines):
    return [line.rsplit(" ", 1)[0] if line.startswith("tally N1 ") else line
            for line in lines]


def _unbalanced_tally(lines):
    def bump(line):
        name, _, value = line.rpartition("=")
        return f"{name}={int(value) + 1}"
    return [bump(line) if line.startswith("tally P1 ") else line
            for line in lines]


def _bare_horizon(lines):
    return [lines[0], "horizon"] + lines[2:]


def _swapped_header(lines):
    return [lines[0], lines[2], lines[1]] + lines[3:]


def _trailing_lines(lines):
    return lines + lines[-2:]


def _untyped_taken(lines):
    idx = next(i for i, line in enumerate(lines) if ",taken=" in line)
    return lines[:idx] + [lines[idx].rsplit("=", 1)[0] + "=x"] + lines[idx + 1:]


def _resubject_first(kind, subject):
    """Give the first ``kind`` event line a different subject."""
    def corrupt(lines):
        idx = next(i for i, line in enumerate(lines) if f",{kind}," in line)
        parts = lines[idx].split(",")
        parts[3] = subject
        return lines[:idx] + [",".join(parts)] + lines[idx + 1:]
    return corrupt


@pytest.mark.parametrize("corrupt, message", [
    (_truncate_header, "not an ecqsim event log"),
    (_truncate_events, "log ends after"),
    (_drop_tally, "missing tally for P2"),
    (_short_tally, "bad tally line"),
    (_unbalanced_tally, "does not sum to horizon"),
    (_bare_horizon, "invalid literal"),
    (_swapped_header, "log header is not horizon, seed"),
    (_trailing_lines, "2 lines after the last of"),
    (_untyped_taken, "invalid literal for int"),
    (_resubject_first(TRIP_START, "P9"), "subject 'P9' is not in the pwds header"),
    (_resubject_first(RESPONSE_START, "P1"), "subject 'P1' is not in the nurses header"),
], ids=["truncated-header", "truncated-events", "missing-tally", "short-tally",
        "unbalanced-tally", "bare-horizon", "swapped-header", "trailing-lines",
        "non-integer-taken", "unknown-subject", "resident-as-nurse"])
def test_log_from_text_rejects_corrupt_log(demo_loaded, corrupt, message):
    watch = WatchConfig(enabled=True, p_detect=0.5, n_help=1)
    lines = run_simulation(small_scenario(demo_loaded=demo_loaded, watch=watch,
                                          seed=5)).to_text().splitlines()
    with pytest.raises(ValueError, match=message):
        EventLog.from_text("\n".join(corrupt(lines)) + "\n")


def test_invalid_scenarios_rejected():
    grid = corridor_grid(5, with_base=True)
    base = dict(grid=grid,
                pwds=[PwDConfig(id="P1", home="home",
                                schedule=[Appointment("site", 0, 0)])],
                nurses=[NurseConfig(id="N1", base="base")])

    with pytest.raises(ScenarioError, match="horizon"):
        run_simulation(Scenario(horizon=0, **base))

    bad = Scenario(horizon=100, **base)
    bad.pwds[0].p_d = 1.5
    with pytest.raises(ScenarioError, match="p_d"):
        run_simulation(bad)

    bad = Scenario(horizon=100, **base)
    bad.pwds[0].schedule = [Appointment("site", 0, 10), Appointment("site", 5, 5)]
    with pytest.raises(ScenarioError, match="overlap"):
        run_simulation(bad)

    bad = Scenario(horizon=100, **base)
    bad.pwds[0].home = "site"
    with pytest.raises(ScenarioError, match="pwd_home"):
        run_simulation(bad)

    bad = Scenario(horizon=100, **base)
    bad.nurses.append(NurseConfig(id="P1", base="base"))
    with pytest.raises(ScenarioError, match="unique"):
        run_simulation(bad)

    for pwd, watch, problem in [
        (PwDConfig(id="P,1", home="home"), WatchConfig(),
         "invalid agent id 'P,1'"),
        (PwDConfig(id="P1", home="home", schedule=[Appointment("home", 0, 0)]),
         WatchConfig(), "P1: appointment 0 site 'home' is not an appointment_site location"),
        (PwDConfig(id="P1", home="home", schedule=[Appointment("site", 10, -5)]),
         WatchConfig(), "P1: appointment 0 has negative duration"),
        (PwDConfig(id="P1", home="home"), WatchConfig(n_help=-1),
         "watch n_help must be >= 0"),
        (PwDConfig(id="P1", home="home"), WatchConfig(intervention_interval=0),
         "watch intervention_interval must be >= 1"),
    ]:
        with pytest.raises(ScenarioError) as caught:
            run_simulation(Scenario(grid=grid, pwds=[pwd], watch=watch, horizon=100,
                                    nurses=[NurseConfig(id="N1", base="base")]))
        assert caught.value.problems == [problem]


def test_appointment_must_fit_horizon():
    grid = corridor_grid(5, with_base=True)
    scenario = Scenario(
        grid=grid,
        pwds=[PwDConfig(id="P1", home="home",
                        schedule=[Appointment("site", 95, 20)])],
        nurses=[NurseConfig(id="N1", base="base")],
        horizon=100)
    with pytest.raises(ScenarioError, match="fit"):
        run_simulation(scenario)
