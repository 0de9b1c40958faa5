import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bfs_oracle, corridor_grid, is_open, make_pwd, make_watch

from ecqsim.agents import (
    Appointment, Call, NurseAgent, PwDAgent, WorldContext, assign_calls,
    end_guidance, guide_ahead, nurse_step, pwd_begin_tick, pwd_move, watch_step,
)
from ecqsim.events import (
    CALL_DROPPED, DETECTION, DISORIENTATION_START, GUIDANCE_END,
    GUIDANCE_START, INTERVENTION_FAIL, NURSE_CALLED, NURSE_GUIDING,
    NURSE_INACTIVE, NURSE_RESPONDING, PWD_GUIDED, REMINDER, RESPONSE_START,
    TRIP_END, TRIP_START, Event,
)
from ecqsim.grid import Position, line_of_sight, parse_map

OPEN_ROOM = parse_map(
    "##########\n#h......s#\n#........#\n#b......t#\n##########",
    {"h": ("home", "pwd_home"), "s": ("site", "appointment_site"),
     "t": ("site2", "appointment_site"), "b": ("base", "nurse_base")})


def drive(pwd, grid, ticks, start=0):
    events = []
    for tick in range(start, start + ticks):
        pwd_begin_tick(pwd, grid, tick, events)
        pwd_move(pwd, grid, tick)
    return events


# -- resident ----------------------------------------------------------------

def test_deterministic_walk_trip_length():
    grid = corridor_grid(7)
    pwd = make_pwd(grid, schedule=[Appointment("site", 0, 5)])
    events = drive(pwd, grid, 20)
    start = next(e for e in events if e.kind == TRIP_START)
    end = next(e for e in events if e.kind == TRIP_END)
    assert start.payload["nominal"] == 7
    assert end.tick - start.tick == 7
    assert end.payload["taken"] == 7


def test_return_trip_home_after_dwell():
    grid = corridor_grid(5)
    pwd = make_pwd(grid, schedule=[Appointment("site", 0, 3)])
    events = drive(pwd, grid, 30)
    legs = [e.payload["leg"] for e in events if e.kind == TRIP_START]
    assert legs == ["out", "return"]
    ends = [e for e in events if e.kind == TRIP_END]
    assert [e.payload["goal"] for e in ends] == ["site", "home"]
    # Dwell lasts exactly the appointment duration.
    out_end = ends[0]
    return_start = [e for e in events if e.kind == TRIP_START][1]
    assert return_start.tick - out_end.tick == 3


def test_forced_disorientation_first_tick():
    grid = corridor_grid(10)
    pwd = make_pwd(grid, schedule=[Appointment("site", 4, 0)], p_d=1.0)
    events = drive(pwd, grid, 6)
    onset = next(e for e in events if e.kind == DISORIENTATION_START)
    start = next(e for e in events if e.kind == TRIP_START)
    assert onset.tick == start.tick == 4


def test_noise_inflates_travel_time_negative_binomial():
    # Straight 50-cell trip with 10% null moves: mean arrival time matches
    # the negative-binomial expectation 50 / (1 - 0.1) = 55.56.
    grid = corridor_grid(50)
    runs = 10_000
    total = 0
    for i in range(runs):
        pwd = make_pwd(grid, seed=i, schedule=[Appointment("site", 0, 0)],
                       p_noise=0.1)
        tick = 0
        taken = None
        while taken is None:
            for event in drive(pwd, grid, 1, start=tick):
                if event.kind == TRIP_END:
                    taken = event.payload["taken"]
            tick += 1
        total += taken
    mean_sim = total / runs

    oracle_rng = random.Random(99)
    oracle_total = 0
    for _ in range(runs):
        moves = 0
        ticks = 0
        while moves < 50:
            ticks += 1
            if oracle_rng.random() >= 0.1:
                moves += 1
        oracle_total += ticks
    mean_oracle = oracle_total / runs

    assert abs(mean_sim - 50 / 0.9) < 0.5
    assert abs(mean_oracle - 50 / 0.9) < 0.5


def test_false_goal_resample_period():
    # Three alternative sites; the wrong goal may only change on the
    # 20-tick resample boundary, and never equals the true goal.
    grid = parse_map(
        "#############\n#h....a.b.c.#\n#############",
        {"h": ("home", "pwd_home"), "a": ("s1", "appointment_site"),
         "b": ("s2", "appointment_site"), "c": ("s3", "appointment_site")})
    pwd = make_pwd(grid, schedule=[Appointment("s3", 0, 0)], p_d=1.0)
    home = grid.locations["home"][0]
    onset = None
    goals = []
    for tick in range(0, 90):
        pwd_begin_tick(pwd, grid, tick, [])
        if pwd.disoriented and onset is None:
            onset = tick
        pwd_move(pwd, grid, tick)
        pwd.position = home  # pin in place so the trip never completes
        if pwd.disoriented:
            goals.append((tick, pwd.false_goal))
    assert onset == 0
    assert all(goal in ("s1", "s2") for _, goal in goals)
    changes = [t for (t, g), (_, prev) in zip(goals[1:], goals) if g != prev]
    assert changes  # with two candidates a change happens within 90 ticks
    assert all((t - onset) % 20 == 0 for t in changes)


def test_forgotten_appointment_reminder():
    grid = corridor_grid(5)
    watch = make_watch(enabled=True)
    pwd = make_pwd(grid, schedule=[Appointment("site", 10, 0)],
                   p_forget=1.0, watch=watch)
    events = drive(pwd, grid, 30)
    reminder = next(e for e in events if e.kind == REMINDER)
    start = next(e for e in events if e.kind == TRIP_START)
    assert reminder.tick == 20  # ten ticks after the missed departure
    assert start.tick == 20


def test_forgotten_appointment_without_watch_is_skipped():
    grid = corridor_grid(5)
    pwd = make_pwd(grid, schedule=[Appointment("site", 10, 0)], p_forget=1.0)
    events = drive(pwd, grid, 60)
    assert not any(e.kind == TRIP_START for e in events)
    assert pwd.next_idx == 1 and pwd.forgot is None


# -- smart-watch --------------------------------------------------------------

def hold_disoriented(grid, seed, p_i):
    pwd = make_pwd(grid, seed=seed, p_i=p_i,
                   schedule=[Appointment("site", 0, 0)], p_d=1.0)
    pwd_begin_tick(pwd, grid, 0, [])
    assert pwd.disoriented
    return pwd


def run_watch_episode(pwd, start_tick=0):
    """Drive only the watch until the episode resolves; True if escalated."""
    tick = start_tick
    while True:
        events = []
        watch_step(pwd, tick, events, deque())
        if any(e.kind == NURSE_CALLED for e in events):
            return True, tick
        if not pwd.disoriented:
            return False, tick
        tick += 1


def test_nhelp_zero_calls_on_detection_tick():
    grid = OPEN_ROOM
    pwd = hold_disoriented(grid, seed=3, p_i=0.2)
    pwd.watch = make_watch(seed=3, p_detect=1.0, n_help=0)
    events = []
    queue = deque()
    watch_step(pwd, 5, events, queue)
    kinds = [e.kind for e in events]
    assert kinds == [DETECTION, NURSE_CALLED]
    assert not any(e.kind == INTERVENTION_FAIL for e in events)
    assert [(c.pwd, c.episode) for c in queue] == [(pwd, pwd.episode)]


def test_certain_intervention_never_calls():
    grid = OPEN_ROOM
    for n_help in (1, 3, 5):
        pwd = hold_disoriented(grid, seed=n_help, p_i=1.0)
        pwd.watch = make_watch(seed=n_help, p_detect=1.0, n_help=n_help)
        escalated, _ = run_watch_episode(pwd)
        assert not escalated


def test_escalation_probability_closed_form():
    # P(call | detection) = (1 - p_i) ** n_help, here 0.8 ** 3 = 0.512.
    grid = OPEN_ROOM
    episodes = 10_000
    pwd = hold_disoriented(grid, seed=11, p_i=0.2)
    watch = pwd.watch = make_watch(seed=11, p_detect=1.0, n_help=3)
    calls = 0
    tick = 0
    for _ in range(episodes):
        watch.reset()
        pwd.disoriented = True
        pwd.episode = "P1.e"
        escalated, tick = run_watch_episode(pwd, tick + 1)
        calls += escalated
    assert abs(calls / episodes - 0.512) < 0.02


class ScriptedRng:
    """Feeds one prescribed draw; used to walk every machine branch."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


def test_escalation_probability_exhaustive_enumeration():
    # Walk the real watch machine over every attempt-outcome branch,
    # weighting branches by p_i / (1 - p_i); the total probability of
    # ending in a call must equal (1 - p_i) ** n_help exactly.
    grid = OPEN_ROOM
    p_i = 0.2

    def explore(watch, pwd, tick):
        if watch.phase == 2:  # awaiting nurse: escalated
            return 1.0
        if not pwd.disoriented:
            return 0.0
        total = 0.0
        for draw, weight in ((0.0, p_i), (0.99, 1.0 - p_i)):
            w = make_watch(p_detect=1.0, n_help=watch.n_help)
            w.phase, w.fail_count, w.next_attempt = \
                watch.phase, watch.fail_count, watch.next_attempt
            w.detect_rng = ScriptedRng(0.0)
            w.intervene_rng = ScriptedRng(draw)
            p = make_pwd(grid, p_i=p_i, watch=w)
            p.disoriented = True
            p.episode = "e"
            watch_step(p, tick, [], deque())
            total += weight * explore(w, p, tick + 1)
        return total

    for n_help in range(6):
        watch = make_watch(p_detect=1.0, n_help=n_help)
        pwd = make_pwd(grid, p_i=p_i, watch=watch)
        pwd.disoriented = True
        pwd.episode = "e"
        assert explore(watch, pwd, 0) == pytest.approx((1 - p_i) ** n_help,
                                                       abs=1e-12)


def test_fail_count_bounded_and_silent_after_call():
    grid = OPEN_ROOM
    pwd = hold_disoriented(grid, seed=8, p_i=0.0)
    watch = pwd.watch = make_watch(seed=8, p_detect=1.0, n_help=2)
    all_events = []
    for tick in range(10):
        watch_step(pwd, tick, all_events, deque())
        assert watch.fail_count <= watch.n_help
    called_at = next(e.tick for e in all_events if e.kind == NURSE_CALLED)
    assert not any(e.kind == INTERVENTION_FAIL and e.tick > called_at
                   for e in all_events)
    fails = [e for e in all_events if e.kind == INTERVENTION_FAIL]
    assert [e.payload["fails"] for e in fails] == [1, 2]


def test_intervention_interval_spaces_attempts():
    grid = OPEN_ROOM
    pwd = hold_disoriented(grid, seed=4, p_i=0.0)
    pwd.watch = make_watch(seed=4, p_detect=1.0, n_help=3, interval=4)
    events = []
    for tick in range(20):
        watch_step(pwd, tick, events, deque())
    fails = [e.tick for e in events if e.kind == INTERVENTION_FAIL]
    assert fails == [0, 4, 8]


# -- nurse and dispatch --------------------------------------------------------

def make_world(pwds, nurses):
    return WorldContext(grid=OPEN_ROOM, pwds=pwds, nurses=nurses)


def make_nurse(nurse_id="N1", pos=None):
    return NurseAgent(id=nurse_id, base="base", radius=5.0,
                      position=pos or OPEN_ROOM.locations["base"][0])


def traveling_pwd(pwd_id, pos, seed=1):
    pwd = make_pwd(OPEN_ROOM, pwd_id=pwd_id, seed=seed,
                   schedule=[Appointment("site", 0, 0)], p_d=1.0)
    pwd_begin_tick(pwd, OPEN_ROOM, 0, [])
    assert pwd.disoriented
    pwd.position = pos
    return pwd


def test_idle_nurse_stays_inactive_without_disorientation():
    nurse = make_nurse()
    pwd = make_pwd(OPEN_ROOM)
    ctx = make_world([pwd], [nurse])
    for tick in range(50):
        events = []
        nurse_step(nurse, ctx, tick, events)
        assert events == []
        assert nurse.state == 0
        assert nurse.position == OPEN_ROOM.locations["base"][0]


def test_response_and_guidance_timing():
    # Disoriented resident three cells away in the open: response starts
    # this tick, guidance three ticks later (resident held in place).
    nurse = make_nurse(pos=Position(1, 3))
    pwd = traveling_pwd("P1", Position(4, 3))
    ctx = make_world([pwd], [nurse])
    events = []
    nurse_step(nurse, ctx, 0, events)
    assert [e.kind for e in events] == [RESPONSE_START]
    assert events[0].payload["via"] == "sight"
    for tick in (1, 2, 3):
        events = []
        nurse_step(nurse, ctx, tick, events)
    assert [e.kind for e in events] == [GUIDANCE_START]
    assert pwd.mode == PWD_GUIDED and not pwd.disoriented
    assert nurse.position == pwd.position


@st.composite
def sight_cases(draw):
    """A small map with a one-cell nurse base, the idle nurse's cell in the
    base's pocket, residents on open cells, and a sight radius."""
    width = draw(st.integers(1, 12))
    height = draw(st.integers(1, 10))
    glyphs = draw(st.lists(st.sampled_from("...#"), min_size=width * height,
                           max_size=width * height))
    open_cells = [(i % width, i // width) for i, g in enumerate(glyphs) if g == "."]
    if not open_cells:
        glyphs[0] = "."
        open_cells = [(0, 0)]
    bx, by = draw(st.sampled_from(open_cells))
    glyphs[by * width + bx] = "b"
    text = "\n".join("".join(glyphs[y * width:(y + 1) * width]) for y in range(height))
    grid = parse_map(text, {"b": ("base", "nurse_base")})
    pocket = [c for c in open_cells if bfs_oracle(grid, c, (bx, by)) is not None]
    nurse_cell = draw(st.sampled_from(pocket))
    residents = draw(st.lists(st.sampled_from(open_cells), min_size=1, max_size=6))
    radius = draw(st.sampled_from((0, 1, 1.5, 2, 5, 7.9, float("inf"), float("nan")))
                  | st.integers(0, 12) | st.floats(0, 12))
    return grid, (bx, by), nurse_cell, residents, radius


@settings(max_examples=300, deadline=None)
@given(sight_cases())
def test_sight_scan_matches_naive_scan(case):
    grid, base, nurse_cell, resident_cells, radius = case
    nurse = NurseAgent(id="N1", base="base", radius=radius,
                       position=Position(*nurse_cell))
    pwds = []
    for k, cell in enumerate(resident_cells):
        pwds.append(PwDAgent(
            id=f"P{k}", home="home", schedule=[], p_d=1.0, p_i=0.0, p_noise=0.0,
            p_forget=0.0, position=Position(*cell), disorient_rng=random.Random(k),
            noise_rng=random.Random(k), false_goal_rng=random.Random(k),
            forget_rng=random.Random(k),
            watch=make_watch(f"P{k}", enabled=False), disoriented=True,
            episode=f"P{k}.e1"))
    # Naive scan: argmin of (distance, idx) over every resident in sight.
    seen = [(grid.distance(nurse.position, p.position), idx)
            for idx, p in enumerate(pwds)
            if line_of_sight(grid, nurse.position, p.position, radius)]
    expected = pwds[min(seen)[1]] if seen else None

    events = []
    nurse_step(nurse, WorldContext(grid=grid, pwds=pwds, nurses=[nurse]), 0, events)
    assert nurse.target is expected
    if expected is not None:
        assert [(e.kind, e.payload["pwd"], e.payload["via"]) for e in events] == [
            (RESPONSE_START, expected.id, "sight")]
        assert nurse.position == nurse_cell
        return
    # Nobody in sight: one step home, to the first of up, right, down,
    # left that is one step closer to the base.
    assert events == []
    d = bfs_oracle(grid, nurse_cell, base)
    x, y = nurse_cell
    step = nurse_cell if d == 0 else next(
        c for c in ((x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y))
        if 0 <= c[0] < grid.width and 0 <= c[1] < grid.height
        and is_open(grid, Position(*c)) and bfs_oracle(grid, c, base) == d - 1)
    assert nurse.position == step


def test_nearest_first_with_second_nurse_taking_other():
    n1 = make_nurse("N1", Position(1, 3))
    n2 = make_nurse("N2", Position(1, 3))
    far = traveling_pwd("P1", Position(5, 3), seed=1)
    near = traveling_pwd("P2", Position(3, 3), seed=2)
    ctx = make_world([far, near], [n1, n2])

    # Oracle: greedy nearest-unassigned enumeration in nurse order.
    expected = {}
    taken = set()
    for nurse in (n1, n2):
        cands = [(OPEN_ROOM.distance(nurse.position, p.position), i, p.id)
                 for i, p in enumerate(ctx.pwds) if p.id not in taken]
        _, _, pick = min(cands)
        expected[nurse.id] = pick
        taken.add(pick)

    events = []
    nurse_step(n1, ctx, 0, events)
    nurse_step(n2, ctx, 0, events)
    assert n1.target.id == expected["N1"] == "P2"
    assert n2.target.id == expected["N2"] == "P1"


def test_guided_walk_reaches_goal_and_ends():
    nurse = make_nurse(pos=Position(2, 3))
    pwd = traveling_pwd("P1", Position(2, 3))
    ctx = make_world([pwd], [nurse])
    nurse_step(nurse, ctx, 0, [])  # scan tick: response starts
    events = []
    nurse_step(nurse, ctx, 1, events)  # same cell: guidance starts at once
    assert [e.kind for e in events] == [GUIDANCE_START]
    # Without noise the pair takes one step a tick, the last onto the goal.
    end = guide_ahead(pwd, OPEN_ROOM, 1, 40)
    assert end == 1 + OPEN_ROOM.label_distance(Position(2, 3), pwd.trip.goal)
    assert pwd.position in set(OPEN_ROOM.locations[pwd.trip.goal])
    assert nurse.position == pwd.position
    events = []
    end_guidance(nurse, ctx, end, events)
    assert [e.kind for e in events] == [GUIDANCE_END]
    assert nurse.state == 0
    # Arrival is recognized on the next scheduling phase.
    trip_events = []
    pwd_begin_tick(pwd, OPEN_ROOM, end + 1, trip_events)
    assert [e.kind for e in trip_events][0] == TRIP_END


def test_guided_resident_never_disorients():
    nurse = make_nurse(pos=Position(2, 3))
    pwd = traveling_pwd("P1", Position(2, 3))
    ctx = make_world([pwd], [nurse])
    nurse_step(nurse, ctx, 0, [])
    nurse_step(nurse, ctx, 1, [])
    assert pwd.mode == PWD_GUIDED
    events = []
    pwd_begin_tick(pwd, OPEN_ROOM, 2, events)  # p_d = 1 but guided
    assert not any(e.kind == DISORIENTATION_START for e in events)


def test_assign_call_picks_nearest_inactive():
    nurses = [make_nurse("N1", Position(6, 3)), make_nurse("N2", Position(3, 3)),
              make_nurse("N3", Position(8, 3))]
    pwd = traveling_pwd("P1", Position(1, 3))
    ctx = make_world([pwd], nurses)
    ctx.queue.append(Call(pwd, "P1.e1"))
    events = []
    assign_calls(ctx, 0, events)
    assert nurses[1].state == 1 and nurses[1].target is pwd
    assert [e.kind for e in events] == [RESPONSE_START]
    assert events[0].subject == "N2"


def test_second_call_stays_queued_fifo():
    nurse = make_nurse("N1", Position(4, 3))
    p1 = traveling_pwd("P1", Position(1, 3), seed=1)
    p2 = traveling_pwd("P2", Position(8, 3), seed=2)
    ctx = make_world([p1, p2], [nurse])
    ctx.queue.append(Call(p1, "P1.e1"))
    ctx.queue.append(Call(p2, "P2.e1"))
    assign_calls(ctx, 0, [])
    assert nurse.target is p1
    assert [c.pwd.id for c in ctx.queue] == ["P2"]


def naive_assign_calls(ctx, tick, events):
    """Dispatch as first written: every queued call is taken out and re-queued."""
    free = [(idx, n) for idx, n in enumerate(ctx.nurses) if n.state == NURSE_INACTIVE]
    pending = []
    while ctx.queue:
        call = ctx.queue.popleft()
        pwd = call.pwd
        reason = "resolved" if not pwd.disoriented else \
            "duplicate" if pwd.nurse is not None else None
        if reason is not None:
            events.append(Event(tick, "B", CALL_DROPPED, pwd.id,
                                {"episode": call.episode, "reason": reason}))
        elif not free:
            pending.append(call)
        else:
            best = min(free, key=lambda item: (
                ctx.grid.distance(item[1].position, pwd.position), item[0]))
            free.remove(best)
            best[1].state = NURSE_RESPONDING
            best[1].target = pwd
            best[1].call_episode = pwd.episode
            pwd.nurse = best[1]
            events.append(Event(tick, "B", RESPONSE_START, best[1].id, {
                "pwd": pwd.id, "episode": pwd.episode, "via": "call"}))
    ctx.queue.extend(pending)


OPEN_CELLS = [Position(x, y) for y in range(OPEN_ROOM.height)
              for x in range(OPEN_ROOM.width) if is_open(OPEN_ROOM, Position(x, y))]


@st.composite
def dispatch_cases(draw):
    """Residents lost, resolved or attended; nurses mostly all busy; a queue."""
    n_pwds = draw(st.integers(1, 6))
    pwds = [(draw(st.sampled_from(OPEN_CELLS)),
             draw(st.sampled_from(("lost", "resolved", "attended"))))
            for _ in range(n_pwds)]
    n_nurses = draw(st.integers(1, 3))
    all_busy = draw(st.booleans())
    nurses = [(draw(st.sampled_from(OPEN_CELLS)),
               NURSE_RESPONDING if all_busy else
               draw(st.sampled_from((NURSE_INACTIVE, NURSE_RESPONDING, NURSE_GUIDING))))
              for _ in range(n_nurses)]
    queue = draw(st.lists(st.integers(0, n_pwds - 1), max_size=12))
    return pwds, nurses, queue


def dispatch_world(case):
    pwds_spec, nurses_spec, queue = case
    nurses = [make_nurse(f"N{k}", pos) for k, (pos, _) in enumerate(nurses_spec)]
    for nurse, (_, state) in zip(nurses, nurses_spec):
        nurse.state = state
    pwds = []
    for k, (pos, status) in enumerate(pwds_spec):
        pwd = traveling_pwd(f"P{k}", pos, seed=k)
        pwd.disoriented = status != "resolved"
        if status == "attended":
            pwd.nurse = make_nurse("elsewhere")
        pwds.append(pwd)
    ctx = make_world(pwds, nurses)
    ctx.queue.extend(Call(pwds[k], f"P{k}.e{n}") for n, k in enumerate(queue))
    return ctx


@settings(max_examples=200, deadline=None)
@given(dispatch_cases())
def test_dispatch_matches_naive_requeue(case):
    got, want = dispatch_world(case), dispatch_world(case)
    got_events, want_events = [], []
    for tick in range(3):
        if tick == 2:  # a queued resident recovers after a tick of waiting
            got.pwds[0].disoriented = want.pwds[0].disoriented = False
        assign_calls(got, tick, got_events)
        naive_assign_calls(want, tick, want_events)
        assert got_events == want_events
        assert [(c.pwd.id, c.episode) for c in got.queue] == \
            [(c.pwd.id, c.episode) for c in want.queue]
        assert [(n.state, n.target and n.target.id) for n in got.nurses] == \
            [(n.state, n.target and n.target.id) for n in want.nurses]


def test_call_for_guided_resident_dropped():
    nurse = make_nurse("N1", Position(4, 3))
    pwd = traveling_pwd("P1", Position(1, 3))
    pwd.disoriented = False
    pwd.mode = PWD_GUIDED
    ctx = make_world([pwd], [nurse])
    ctx.queue.append(Call(pwd, "P1.e1"))
    events = []
    assign_calls(ctx, 0, events)
    assert [e.kind for e in events] == [CALL_DROPPED]
    assert nurse.state == 0
    assert not ctx.queue


def test_no_double_assignment_between_nurses():
    n1 = make_nurse("N1", Position(1, 3))
    n2 = make_nurse("N2", Position(1, 2))
    pwd = traveling_pwd("P1", Position(3, 3))
    ctx = make_world([pwd], [n1, n2])
    events = []
    nurse_step(n1, ctx, 0, events)
    nurse_step(n2, ctx, 0, events)
    assert [e.kind for e in events] == [RESPONSE_START]
    assert n1.state == 1 and n2.state == 0
    assert pwd.nurse is n1 and n2.target is None


def test_displaced_nurse_walks_back_to_base():
    nurse = make_nurse("N1", Position(8, 1))
    pwd = make_pwd(OPEN_ROOM)  # oriented, nothing to do
    ctx = make_world([pwd], [nurse])
    base = OPEN_ROOM.locations["base"][0]
    steps = 0
    while nurse.position != base:
        nurse_step(nurse, ctx, steps, [])
        steps += 1
        assert steps < 30
    assert steps == OPEN_ROOM.distance(Position(8, 1), base)
    nurse_step(nurse, ctx, steps, [])
    assert nurse.position == base  # stays put once home


def test_aborted_response_when_resident_recovers():
    nurse = make_nurse("N1", Position(8, 3))
    pwd = traveling_pwd("P1", Position(1, 3))
    ctx = make_world([pwd], [nurse])
    ctx.queue.append(Call(pwd, "P1.e1"))
    assign_calls(ctx, 0, [])
    assert nurse.state == 1
    pwd.disoriented = False  # intervention succeeded meanwhile
    events = []
    nurse_step(nurse, ctx, 1, events)
    assert [e.kind for e in events] == [CALL_DROPPED]
    assert events[0].payload["reason"] == "aborted"
    assert nurse.state == 0
    assert pwd.nurse is None and nurse.target is None


def test_release_clears_both_links():
    # Guidance end: the nurse walks the resident to the goal.
    nurse = make_nurse(pos=Position(2, 3))
    pwd = traveling_pwd("P1", Position(2, 3))
    ctx = make_world([pwd], [nurse])
    nurse_step(nurse, ctx, 0, [])
    assert nurse.target is pwd and pwd.nurse is nurse
    # The back-references stay out of repr and ==, so the cycle is never walked.
    assert "nurse=" not in repr(pwd) and "target=" not in repr(nurse)
    assert pwd == pwd and nurse == nurse
    nurse_step(nurse, ctx, 1, [])  # same cell: guidance starts at once
    end = guide_ahead(pwd, OPEN_ROOM, 1, 40)
    assert nurse.target is pwd and pwd.nurse is nurse
    events = []
    end_guidance(nurse, ctx, end, events)
    assert [e.kind for e in events] == [GUIDANCE_END]
    assert pwd.nurse is None and nurse.target is None

    # Aborted response: the resident recovers before the nurse arrives.
    nurse = make_nurse("N1", Position(6, 3))
    pwd = traveling_pwd("P2", Position(1, 3), seed=2)
    ctx = make_world([pwd], [nurse])
    nurse_step(nurse, ctx, 0, [])
    assert nurse.target is pwd and pwd.nurse is nurse
    pwd.disoriented = False
    nurse_step(nurse, ctx, 1, [])
    assert nurse.state == 0
    assert pwd.nurse is None and nurse.target is None


def test_drop_at_release_is_stamped_phase_c():
    # A nurse released in phase C drops the stale calls it meets in phase C.
    nurse = make_nurse(pos=Position(2, 3))
    pwd = traveling_pwd("P1", Position(2, 3))
    other = traveling_pwd("P2", Position(5, 2), seed=2)
    other.disoriented = False  # recovered after calling
    ctx = make_world([pwd, other], [nurse])
    nurse_step(nurse, ctx, 0, [])
    assert nurse.target is pwd
    ctx.queue.append(Call(other, "P2.e1"))
    nurse_step(nurse, ctx, 1, [])  # same cell: guidance starts at once
    end = guide_ahead(pwd, OPEN_ROOM, 1, 40)
    events = []
    end_guidance(nurse, ctx, end, events)
    assert [(e.phase, e.kind, e.subject) for e in events] == [
        ("C", GUIDANCE_END, "N1"), ("C", CALL_DROPPED, "P2")]
    assert events[-1].payload == {"episode": "P2.e1", "reason": "resolved"}
    assert not ctx.queue and nurse.state == NURSE_INACTIVE
