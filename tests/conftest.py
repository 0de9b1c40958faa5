from __future__ import annotations

from collections import deque
from importlib import resources

import pytest
from hypothesis import strategies as st

from ecqsim.engine import (
    NurseConfig, PwDConfig, WatchConfig, _build_agents, derive_stream,
)
from ecqsim.agents import (
    PwDAgent, SmartWatch, WorldContext, assign_calls, end_guidance,
    nurse_step, pwd_begin_tick, pwd_move, watch_step,
)
from ecqsim.events import (
    DETECTION, GUIDANCE_END, GUIDANCE_START, INTERVENTION_FAIL, NURSE_CALLED,
    NURSE_GUIDING, RESPONSE_START, EventLog,
)
from ecqsim.grid import WALL, MapError, Position, parse_map
from ecqsim.scenario import ScenarioTemplate, load_scenario

CORRIDOR_LEGEND = {
    "h": ("home", "pwd_home"),
    "s": ("site", "appointment_site"),
    "b": ("base", "nurse_base"),
}

def bfs_oracle(grid, start, goal):
    """Independent breadth-first distance; None when unreachable."""
    if start == goal:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        (x, y), d = queue.popleft()
        for nx, ny in ((x, y - 1), (x + 1, y), (x, y + 1), (x - 1, y)):
            if 0 <= nx < grid.width and 0 <= ny < grid.height \
                    and grid._open[ny * grid.width + nx] and (nx, ny) not in seen:
                if (nx, ny) == goal:
                    return d + 1
                seen.add((nx, ny))
                queue.append(((nx, ny), d + 1))
    return None


def is_open(grid, pos):
    """Whether ``pos`` is floor rather than wall."""
    return grid.cells[pos.y * grid.width + pos.x] != WALL


def shortest_path(grid, origin, goal):
    """Minimum-length 4-connected path, origin and goal inclusive.

    It walks ``GridMap.step_toward_cell``, so ties between equal-length
    paths break in the fixed neighbour order (up, right, down, left) and
    results are replay-stable.  The number of steps is ``len(path) - 1``.
    """
    for pos in (origin, goal):
        if not grid.in_bounds(pos):
            raise MapError(f"position {pos} out of bounds")
        if not is_open(grid, pos):
            raise MapError(f"position {pos} is a wall")
    pos = Position(*origin)
    goal = Position(*goal)
    path = [pos]
    for _ in range(grid.distance(pos, goal)):
        pos = grid.step_toward_cell(pos, goal)
        path.append(pos)
    return path


def reference_run(scenario):
    """Every-tick stepper: what ``run_simulation`` must equal.

    It builds the agents and calls the five phase functions as the
    engine does, but steps every agent on every tick and adds one to
    each tally, skipping nothing.  Guidance is stepped here, a tick at a
    time: the guiding nurse's noise draw and its step with the resident
    toward the trip's goal, ending the guidance on the goal, after which
    phase D leaves that resident be for the tick.  Comparing logs checks
    the engine's scheduler and draw-ahead helpers alone.
    """
    grid = scenario.grid
    pwds, nurses = _build_agents(scenario)
    ctx = WorldContext(grid=grid, pwds=pwds, nurses=nurses)
    log = EventLog(scenario.horizon, scenario.seed,
                   [p.id for p in pwds], [n.id for n in nurses])
    events = log.events
    for tick in range(scenario.horizon):
        for pwd in pwds:
            pwd_begin_tick(pwd, grid, tick, events)
        for pwd in pwds:
            watch_step(pwd, tick, events, ctx.queue)
        assign_calls(ctx, tick, events)
        ended = set()  # ids of the residents whose guidance ends this tick
        for nurse in nurses:
            if nurse.state != NURSE_GUIDING:
                nurse_step(nurse, ctx, tick, events)
                continue
            pwd = nurse.target
            if pwd.p_noise > 0 and pwd.noise_rng.random() < pwd.p_noise:
                continue  # the resident steadies themselves; the nurse waits
            pwd.position = nurse.position = grid.step_toward_label(pwd.position,
                                                                   pwd.trip.goal)
            if grid.at_label(pwd.position, pwd.trip.goal):
                ended.add(pwd.id)
                end_guidance(nurse, ctx, tick, events)
        for pwd in pwds:
            if pwd.id not in ended:
                pwd_move(pwd, grid, tick)
        for pwd in pwds:
            log.pwd_mode_ticks[pwd.id][pwd.mode] += 1
        for nurse in nurses:
            log.nurse_state_ticks[nurse.id][nurse.state] += 1
    return log


def check_causal_ordering(log):
    """Episode-level causality.

    Watch side: at most one detection and one call per episode, failed
    hints between them.  A call-initiated response never precedes its
    call; every guidance start has exactly one matching response start;
    guidance ends after it starts.  (A sighting response may legally
    precede detection: nurse perception is independent of the watch.)
    """
    per_episode = {}
    for event in log.events:
        episode = event.payload.get("episode")
        if episode:
            per_episode.setdefault(episode, []).append(event)
    for episode, events in per_episode.items():
        detections = [e.tick for e in events if e.kind == DETECTION]
        fails = [e.tick for e in events if e.kind == INTERVENTION_FAIL]
        calls = [e.tick for e in events if e.kind == NURSE_CALLED]
        assert len(detections) <= 1, episode
        assert len(calls) <= 1, episode
        if fails:
            assert detections and min(fails) >= detections[0], episode
        if calls:
            assert detections and calls[0] >= detections[0], episode
            if fails:
                assert calls[0] >= max(fails), episode
        for event in events:
            if event.kind == RESPONSE_START and event.payload.get("via") == "call":
                assert calls and event.tick >= calls[0], (episode, event)
        responses = [e for e in events if e.kind == RESPONSE_START]
        starts = [e for e in events if e.kind == GUIDANCE_START]
        ends = [e for e in events if e.kind == GUIDANCE_END]
        assert len(starts) <= 1 and len(ends) <= 1, episode
        for start in starts:
            matching = [r for r in responses if r.subject == start.subject
                        and r.tick <= start.tick]
            assert len(matching) == 1, (episode, start)
        for end in ends:
            assert starts and end.tick >= starts[0].tick, (episode, end)
            assert end.subject == starts[0].subject, (episode, end)


def demo_scenario_path() -> str:
    return str(resources.files("ecqsim.data").joinpath("demo_scenario.yaml"))


@pytest.fixture(scope="session")
def demo_loaded():
    return load_scenario(demo_scenario_path())


def corridor_grid(length: int, with_base: bool = False):
    """Single-row corridor: home at x=1, site at x=length+1.

    The nominal home->site distance is ``length``.  With ``with_base``
    a nurse base is appended after the site.
    """
    inner = "h" + "." * (length - 1) + "s" + ("b" if with_base else "")
    text = "#" * (len(inner) + 2) + "\n#" + inner + "#\n" + "#" * (len(inner) + 2) + "\n"
    return parse_map(text, CORRIDOR_LEGEND)


def make_pwd(grid, *, seed=1, schedule=(), p_d=0.0, p_i=0.2, p_noise=0.0,
             p_forget=0.0, home="home", pwd_id="P1", watch=None) -> PwDAgent:
    """A resident at home; without ``watch`` it wears a disabled one."""
    return PwDAgent(
        id=pwd_id, home=home, schedule=list(schedule), p_d=p_d, p_i=p_i,
        p_noise=p_noise, p_forget=p_forget, position=grid.locations[home][0],
        disorient_rng=derive_stream(seed, pwd_id, "disorient"),
        noise_rng=derive_stream(seed, pwd_id, "noise"),
        false_goal_rng=derive_stream(seed, pwd_id, "false_goal"),
        forget_rng=derive_stream(seed, pwd_id, "forget"),
        watch=watch or make_watch(pwd_id, seed=seed, enabled=False),
    )


def make_watch(owner_id="P1", *, seed=1, enabled=True, p_detect=1.0, n_help=1,
               interval=1) -> SmartWatch:
    return SmartWatch(
        enabled=enabled, p_detect=p_detect, n_help=n_help,
        intervention_interval=interval,
        detect_rng=derive_stream(seed, owner_id, "detect"),
        intervene_rng=derive_stream(seed, owner_id, "intervene"),
    )


PROBABILITIES = st.sampled_from((0.0, 0.1, 0.5, 1.0)) | st.floats(0.0, 1.0)
RADII = st.sampled_from((0, 1, 1.5, 7.9)) | st.integers(0, 8) | st.floats(0.0, 8.0)


@st.composite
def facilities(draw):
    """A small corridor facility built in code, as a ScenarioTemplate.

    Rooms two cells deep line both walls of a two-row corridor, each
    with one door at a drawn column.  Every room holds one resident's
    home, an appointment site or the nurses' base; rosters, schedule
    sizes, the horizon and every probability are drawn as well.
    """
    n_pwds = draw(st.integers(1, 8))
    n_sites = draw(st.integers(1, 4))
    rooms = ["N"] + list("abcdefgh"[:n_pwds]) + list("ABCD"[:n_sites])
    rooms = draw(st.permutations(rooms))
    split = draw(st.integers(0, len(rooms)))
    sides = (rooms[:split], rooms[split:])
    widths = [[draw(st.integers(2, 4)) for _ in side] for side in sides]
    width = 2 + max(sum(w) + len(w) - 1 if w else 1 for w in widths)
    rows = [["#"] * width for _ in range(10)]
    for y in (4, 5):
        rows[y][1:-1] = ["."] * (width - 2)
    # Top rooms use rows 1-2 and doors in row 3; bottom rooms rows 7-8
    # and doors in row 6.
    for side, room_widths, inner, door in zip(sides, widths, ((1, 2), (7, 8)), (3, 6)):
        x0 = 1
        for glyph, w in zip(side, room_widths):
            for y in inner:
                rows[y][x0:x0 + w] = ["."] * w
            rows[door][x0 + draw(st.integers(0, w - 1))] = "."
            cells = [(x, y) for y in inner for x in range(x0, x0 + w)]
            size = 1 if glyph.islower() else draw(st.integers(1, min(3, len(cells))))
            for x, y in draw(st.lists(st.sampled_from(cells), min_size=size,
                                      max_size=size, unique=True)):
                rows[y][x] = glyph
            x0 += w + 1
    legend = {"N": ("base", "nurse_base")}
    legend.update((g, (f"home_{g}", "pwd_home")) for g in "abcdefgh"[:n_pwds])
    legend.update((g, (f"site_{g}", "appointment_site")) for g in "ABCD"[:n_sites])
    grid = parse_map("\n".join("".join(row) for row in rows), legend)

    horizon = draw(st.integers(200, 1500))
    count = draw(st.integers(1, n_sites))
    pwds = [PwDConfig(id=f"P{k}", home=f"home_{g}", p_d=draw(PROBABILITIES),
                      p_i=draw(PROBABILITIES), p_noise=draw(PROBABILITIES),
                      p_forget=draw(PROBABILITIES))
            for k, g in enumerate("abcdefgh"[:n_pwds])]
    nurses = [NurseConfig(id=f"N{k}", base="base", radius=draw(RADII))
              for k in range(draw(st.integers(1, 4)))]
    watch = WatchConfig(enabled=draw(st.booleans()), p_detect=draw(PROBABILITIES),
                        n_help=draw(st.integers(0, 4)),
                        intervention_interval=draw(st.integers(1, 5)))
    return ScenarioTemplate(
        grid=grid, pwds=pwds, nurses=nurses, watch=watch, horizon=horizon,
        appointments_per_pwd=count,
        # At most half the spacing generate_schedule puts between starts,
        # so appointments neither overlap nor overrun the horizon.
        appointment_duration=draw(st.integers(0, horizon // (2 * (count + 1)))),
        seed=draw(st.integers(0, 2**32)))


def row_grid(row):
    """The single-row map ``row``, walled above and below.

    ``N`` is the nurses' base, ``a``-``d`` are homes ``home_a``-``home_d``
    and ``A``/``B`` are sites ``site_A``/``site_B``.
    """
    legend = {g: (f"home_{g}", "pwd_home") for g in "abcd" if g in row}
    legend.update((g, (f"site_{g}", "appointment_site")) for g in "AB" if g in row)
    if "N" in row:
        legend["N"] = ("base", "nurse_base")
    wall = "#" * len(row)
    return parse_map(f"{wall}\n{row}\n{wall}", legend)


def corridor_template(row, *, p_d, p_noise, radii, horizon, count, seed):
    """A single-row corridor whose watches call a nurse on detection.

    ``row`` holds the nurses' base ``N``, homes ``a``-``d`` and sites
    ``A``/``B`` between walls (``row_grid``).  Visits take no time, so a
    resident can arrive and leave, lost again, in one tick while its
    first call waits.
    """
    homes = sorted(g for g in row if g.islower())
    return ScenarioTemplate(
        grid=row_grid(row),
        pwds=[PwDConfig(id=f"P{k}", home=f"home_{g}", p_d=p_d, p_noise=p_noise)
              for k, g in enumerate(homes)],
        nurses=[NurseConfig(id=f"N{k}", base="base", radius=r)
                for k, r in enumerate(radii)],
        watch=WatchConfig(p_detect=1.0, n_help=0), horizon=horizon,
        appointments_per_pwd=count, appointment_duration=0, seed=seed)


@st.composite
def corridors(draw):
    """A dense ``corridor_template``: calls, releases and stale calls crowd
    together, as one to three nurses share a row of at most nine cells."""
    n_sites = draw(st.integers(1, 2))
    glyphs = ["N"] + list("abcd"[:draw(st.integers(1, 4))]) + list("AB"[:n_sites]) \
        + ["."] * draw(st.integers(0, 2))
    return corridor_template(
        "#" + "".join(draw(st.permutations(glyphs))) + "#",
        p_d=draw(PROBABILITIES), p_noise=draw(PROBABILITIES),
        radii=draw(st.lists(RADII, min_size=1, max_size=3)),
        horizon=draw(st.integers(50, 400)), count=draw(st.integers(1, n_sites)),
        seed=draw(st.integers(0, 2**32)))
