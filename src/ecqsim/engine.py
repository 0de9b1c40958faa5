"""The runnable scenario, its validation, and the tick loop that runs it.

``Scenario`` gathers the map, the agent configs, the horizon and the seed;
``scenario.ScenarioTemplate`` extends it.  ``run_simulation`` validates
it, builds one agent per config, and advances the world tick by tick.

A run is a pure function of (scenario, seed).  Randomness comes from
counter-style substreams derived per (seed, agent, purpose), so adding
or removing one agent never perturbs another agent's draws.

Tick phase order:

  A  resident scheduling + disorientation onset
  B  watch sense/intervene/call, then call dispatch
  C  nurse movement and guidance
  D  resident movement
  E  tallies, and residents that stop travelling go to sleep

Agents are processed in ascending-id order within each phase.  A
same-tick chain detection -> call -> response start is possible by
construction, which is the normative tick semantics.

Only agents that can act are stepped: next-event time advance, per
agent.  A lost traveller is awake and runs phases A, B and D every
tick, unless it is passive (``agents.passive``): its watch is disabled
or already awaits a nurse.  Phases A and B can do nothing for a passive
resident, so phase E moves it to a second list that only phases D and E
take, and moves it back, in id order, once it stands on its trip's goal;
phase A then sees the arrival on the next tick.  Phase D moves
travellers only.

Every other resident sleeps in a heap until the tick at which a phase
next acts for it, and phase E credits its mode up to that tick, capped
at the horizon.  An idle or dwelling resident draws nothing until its
wake tick (``agents.wake_tick``).  A traveller that is not lost is
drawn ahead (``agents.travel_ahead``) to its arrival or its onset,
which phase A then takes without drawing again.  A resident guided from
this tick on is drawn ahead with its nurse (``agents.guide_ahead``) to
the step onto its goal; the nurse is parked until then, emits
``GuidanceEnd`` in phase C of that tick, in id order, and the resident
rejoins the second list there.

Phase C skips an inactive nurse on its base while no resident is lost
(``agents.anyone_lost``), since its scan could find no one.  After
phase E the next tick is ``tick + 1`` while a resident is awake or
dispatch has a call to assign or drop (``agents.dispatch_idle``).
Otherwise every tick up to the earliest wake tick or guidance end is
quiet: phases A and B take no one, no nurse changes state, and no event
comes unless a nurse sights or reaches a lost resident, or a lost
resident steps onto its goal.  While someone is lost, those ticks are
drawn in lockstep (``agents.quiet_ticks``) up to the first that would
emit; that tick is run in full, or, after an arrival, the next one.
While no one is lost the clock jumps, and each inactive nurse takes the
steps home of the ticks it skipped (``agents.walk_home``).  The
every-tick reference is ``reference_run`` in the tests: it skips
nothing, draws nothing ahead and must produce the same log.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field, fields
from heapq import heappop, heappush

from .agents import (
    NurseAgent, NurseConfig, PwDAgent, PwDConfig, SmartWatch, WatchConfig,
    WorldContext, anyone_lost, assign_calls, dispatch_idle, end_guidance,
    guide_ahead, nurse_step, passive, pwd_begin_tick, pwd_move, quiet_ticks,
    travel_ahead, wake_tick, walk_home, watch_step,
)
from .events import (
    NURSE_GUIDING, NURSE_INACTIVE, PWD_GUIDED, PWD_TRAVELING, EventLog,
)
from .grid import ROLE_APPOINTMENT_SITE, ROLE_NURSE_BASE, ROLE_PWD_HOME, GridMap

DEFAULT_HORIZON = 10_000


class ScenarioError(ValueError):
    """Scenario is unusable; ``problems`` lists every diagnostic."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


def derive_stream(seed: int, agent_id: str, purpose: str) -> random.Random:
    """Independent random stream keyed by (seed, agent, purpose).

    The key tuple is hashed, so streams never overlap and draws for one
    agent are unaffected by the presence of others.
    """
    key = f"{seed}\x1f{agent_id}\x1f{purpose}".encode()
    digest = hashlib.sha256(key).digest()
    return random.Random(int.from_bytes(digest[:16], "big"))


@dataclass
class Scenario:
    grid: GridMap
    pwds: list[PwDConfig]
    nurses: list[NurseConfig]
    watch: WatchConfig = field(default_factory=lambda: WatchConfig(enabled=False))
    horizon: int = DEFAULT_HORIZON
    seed: int = 0

    def validate(self) -> list[str]:
        problems: list[str] = []
        if self.horizon <= 0:
            problems.append("horizon must be positive")
        ids = [p.id for p in self.pwds] + [n.id for n in self.nurses]
        if len(set(ids)) != len(ids):
            problems.append("agent ids are not unique")
        for agent_id in ids:
            if not agent_id or any(c in agent_id for c in ", \t\n"):
                problems.append(f"invalid agent id {agent_id!r}")
        labels = self.grid.labels_with_role
        for pwd in self.pwds:
            if pwd.home not in labels(ROLE_PWD_HOME):
                problems.append(f"{pwd.id}: home {pwd.home!r} is not a pwd_home location")
            for name, value in (("p_d", pwd.p_d), ("p_i", pwd.p_i),
                                ("p_noise", pwd.p_noise), ("p_forget", pwd.p_forget)):
                if not 0.0 <= value <= 1.0:
                    problems.append(f"{pwd.id}: {name}={value} outside [0, 1]")
            last_end = None
            for i, appt in enumerate(pwd.schedule):
                if appt.location not in labels(ROLE_APPOINTMENT_SITE):
                    problems.append(
                        f"{pwd.id}: appointment {i} site {appt.location!r} "
                        "is not an appointment_site location")
                if appt.duration < 0:
                    problems.append(f"{pwd.id}: appointment {i} has negative duration")
                if appt.start < 0 or appt.start + appt.duration > self.horizon:
                    problems.append(f"{pwd.id}: appointment {i} does not fit the horizon")
                if last_end is not None and appt.start < last_end:
                    problems.append(f"{pwd.id}: appointments {i - 1} and {i} overlap")
                last_end = appt.start + appt.duration
        watch = self.watch
        if not 0.0 <= watch.p_detect <= 1.0:
            problems.append("watch p_detect outside [0, 1]")
        if watch.n_help < 0:
            problems.append("watch n_help must be >= 0")
        if watch.intervention_interval < 1:
            problems.append("watch intervention_interval must be >= 1")
        for nurse in self.nurses:
            if nurse.base not in labels(ROLE_NURSE_BASE):
                problems.append(f"{nurse.id}: base {nurse.base!r} is not a nurse_base location")
            if not nurse.radius >= 0:  # also rejects NaN
                problems.append(f"{nurse.id}: radius must be >= 0")
        return problems


def _config_fields(cfg) -> dict:
    """``cfg``'s fields as keywords, for the agent class that extends its class."""
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def _agent_id(agent) -> str:
    return agent.id


def _build_agents(scenario: Scenario) -> tuple[list[PwDAgent], list[NurseAgent]]:
    grid = scenario.grid
    seed = scenario.seed
    watch_fields = _config_fields(scenario.watch)

    pwds: list[PwDAgent] = []
    for cfg in sorted(scenario.pwds, key=_agent_id):
        watch = SmartWatch(
            **watch_fields,
            detect_rng=derive_stream(seed, cfg.id, "detect"),
            intervene_rng=derive_stream(seed, cfg.id, "intervene"),
        )
        pwds.append(PwDAgent(
            **_config_fields(cfg), position=grid.locations[cfg.home][0],
            disorient_rng=derive_stream(seed, cfg.id, "disorient"),
            noise_rng=derive_stream(seed, cfg.id, "noise"),
            false_goal_rng=derive_stream(seed, cfg.id, "false_goal"),
            forget_rng=derive_stream(seed, cfg.id, "forget"), watch=watch))

    nurses: list[NurseAgent] = []
    base_counts: dict[str, int] = {}
    for cfg in sorted(scenario.nurses, key=_agent_id):
        cells = grid.locations[cfg.base]
        k = base_counts.get(cfg.base, 0)
        base_counts[cfg.base] = k + 1
        nurses.append(NurseAgent(**_config_fields(cfg),
                                 position=cells[k % len(cells)]))
    return pwds, nurses


def run_simulation(scenario: Scenario) -> EventLog:
    """Execute the scenario for its full horizon and return the log."""
    problems = scenario.validate()
    if problems:
        raise ScenarioError(problems)

    grid = scenario.grid
    horizon = scenario.horizon
    pwds, nurses = _build_agents(scenario)
    ctx = WorldContext(grid=grid, pwds=pwds, nurses=nurses)
    log = EventLog(horizon, scenario.seed,
                   [p.id for p in pwds], [n.id for n in nurses])
    events = log.events
    queue = ctx.queue
    pwd_tallies = log.pwd_mode_ticks
    nurse_tallies = [(n, log.nurse_state_ticks[n.id]) for n in nurses]

    asleep: list[tuple[int, str, PwDAgent]] = []  # (wake tick, id, resident), a heap

    def sleep(pwd: PwDAgent, since: int, wake: int) -> None:
        """Credit the resident's mode up to ``wake`` and leave it until then."""
        pwd_tallies[pwd.id][pwd.mode] += min(wake, horizon) - since
        if wake < horizon:
            heappush(asleep, (wake, pwd.id, pwd))

    def guide(pwd: PwDAgent, since: int) -> None:
        """Draw the guidance begun at ``since``; its nurse ends it at ``pwd.until``."""
        pwd.until = guide_ahead(pwd, grid, since, horizon)
        pwd_tallies[pwd.id][PWD_GUIDED] += pwd.until - since

    for pwd in pwds:  # every resident starts idle at home
        sleep(pwd, 0, wake_tick(pwd, horizon))
    awake: list[PwDAgent] = []  # in id order, as the phases take them
    movers: list[PwDAgent] = []  # passive residents: phases D and E only
    tick = 0
    while tick < horizon:
        if asleep and asleep[0][0] == tick:
            while asleep and asleep[0][0] == tick:
                awake.append(heappop(asleep)[2])
            awake.sort(key=_agent_id)
        for pwd in awake:
            pwd_begin_tick(pwd, grid, tick, events)
        for pwd in awake:
            watch_step(pwd, tick, events, queue)
        assign_calls(ctx, tick, events)
        # An inactive nurse on its base acts only on sighting a lost
        # resident.  Phase C loses no one, and before such a nurse's turn
        # only a sighting leaves fewer lost, so one look serves until then.
        lost = None  # anyone_lost, looked up when first needed
        for nurse in nurses:
            state = nurse.state
            if state == NURSE_GUIDING:  # parked on its drawn guidance
                if nurse.target.until == tick:
                    movers.append(nurse.target)
                    end_guidance(nurse, ctx, tick, events)
                continue
            if state == NURSE_INACTIVE and grid.at_label(nurse.position, nurse.base):
                if lost is None:
                    lost = anyone_lost(movers, awake)
                if not lost:
                    continue
            nurse_step(nurse, ctx, tick, events)
            if state == NURSE_INACTIVE and nurse.state != NURSE_INACTIVE:
                lost = None  # it sighted someone
        for pwd in awake:
            if pwd.mode == PWD_TRAVELING:
                pwd_move(pwd, grid, tick)
        for pwd in movers:
            if pwd.mode == PWD_TRAVELING:
                pwd_move(pwd, grid, tick)

        still, back = [], []
        for pwd in movers:
            if pwd.mode == PWD_GUIDED:
                guide(pwd, tick)
                continue
            pwd_tallies[pwd.id][PWD_TRAVELING] += 1
            # Passive until it stands on its goal (agents.passive).
            if grid.at_label(pwd.position, pwd.trip.goal):
                back.append(pwd)
            else:
                still.append(pwd)
        movers, still = still, back
        for pwd in awake:
            mode = pwd.mode
            if mode == PWD_GUIDED:
                guide(pwd, tick)
            elif mode != PWD_TRAVELING:  # a missed appointment's successor waits a tick
                sleep(pwd, tick, max(wake_tick(pwd, horizon), tick + 1))
            elif not pwd.disoriented:
                sleep(pwd, tick, travel_ahead(pwd, grid, tick, horizon))
            else:
                pwd_tallies[pwd.id][mode] += 1
                (movers if passive(pwd, grid) else still).append(pwd)
        if back:
            still.sort(key=_agent_id)
        awake = still

        if awake or not dispatch_idle(ctx):
            step = 1
        else:
            wake = asleep[0][0] if asleep else horizon
            for nurse in nurses:
                if nurse.state == NURSE_GUIDING:
                    wake = min(wake, nurse.target.until)
            if movers:
                # Someone is lost, and the next ticks are quiet: they are
                # drawn up to the first that emits an event.
                step = quiet_ticks(movers, nurses, grid, tick + 1, wake) - tick
                if step > 1:  # phase E of the ticks drawn
                    still, back = [], []
                    for pwd in movers:
                        pwd_tallies[pwd.id][PWD_TRAVELING] += step - 1
                        if grid.at_label(pwd.position, pwd.trip.goal):
                            back.append(pwd)
                        else:
                            still.append(pwd)
                    back.sort(key=_agent_id)
                    movers, awake = still, back
            else:
                # No one is lost, so no nurse responds: each guides along
                # its drawn span, rests on its base or walks home.
                step = wake - tick
                for nurse in nurses:
                    if nurse.state == NURSE_INACTIVE:
                        walk_home(nurse, grid, step - 1)
        for nurse, ticks in nurse_tallies:
            ticks[nurse.state] += step
        tick += step
    return log
