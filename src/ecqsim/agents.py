"""Agent configurations and state machines: resident (PwD), smart-watch, nurse.

``PwDConfig``, ``WatchConfig`` and ``NurseConfig`` hold what a scenario
sets.  Each agent class extends its config with the state of one run, so
a parameter is declared once and read as a direct attribute.

Each agent is a mutable state machine advanced once per tick by the
engine, in a fixed phase order:

  A  resident scheduling: trip completion, departures, disorientation onset
  B  watch: detect / intervene / escalate, then call dispatch
  C  nurses: scan, pursue, guide
  D  resident movement
  E  tallies (engine)

The step functions append :class:`~ecqsim.events.Event` records to the
list they are given and draw randomness only from the streams attached
to the agent, so a run is a pure function of (scenario, seed).

The engine's scheduler steps only agents that can act, by rules kept
beside the phases whose conditions they restate: ``wake_tick`` (phase
A), ``passive`` (phases A and B), ``dispatch_idle`` (dispatch) and
``anyone_lost`` (the phase C scan).  ``travel_ahead``, ``guide_ahead``
and ``walk_home`` draw a private span ahead: ticks in which an agent
reads and writes only its own state and streams, each tick's draws made
in the phases' order.  Of the phase functions only ``pwd_begin_tick``
reads what a span leaves, the onset that ``travel_ahead`` drew.

``quiet_ticks`` draws world ticks rather than one agent's: a quiet tick
has no resident awake and nothing to dispatch, so only pursuits, scans,
steps home and lost residents' steps happen in it.  It draws them tick
by tick, all agents together, and stops where a scan would see someone,
a pursuit would reach its resident, or a lost resident has arrived,
since only those emit.  The scan itself is ``sighting``, used by both.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .events import (
    CALL_DROPPED, DETECTION, DISORIENTATION_START, GUIDANCE_END,
    GUIDANCE_START, INTERVENTION_FAIL, INTERVENTION_SUCCESS, NURSE_CALLED,
    PWD_AT_APPOINTMENT, PWD_GUIDED, PWD_IDLE, PWD_TRAVELING, REMINDER,
    RESPONSE_START, TRIP_END, TRIP_START, Event,
    NURSE_GUIDING, NURSE_INACTIVE, NURSE_RESPONDING,
)
from .grid import ROLE_APPOINTMENT_SITE, GridMap, Position, line_of_sight

# Disoriented agents re-pick their mistaken destination this often.
FALSE_GOAL_PERIOD = 20
# Ticks an enabled watch waits before reminding about a missed departure.
REMINDER_DELAY = 10
DEFAULT_RADIUS = 5.0
DEFAULT_P_NOISE = 0.1

WATCH_DORMANT, WATCH_INTERVENING, WATCH_AWAITING_NURSE = range(3)

LEG_OUT = "out"
LEG_RETURN = "return"


@dataclass(slots=True)
class Appointment:
    location: str
    start: int
    duration: int


@dataclass(slots=True)
class Trip:
    trip_id: str
    goal: str
    leg: str
    start_tick: int
    nominal: int
    duration: int  # dwell after an outbound leg; 0 for return legs


@dataclass(slots=True)
class PwDConfig:
    id: str
    home: str
    schedule: list[Appointment] = field(default_factory=list)
    p_d: float = 0.0
    p_i: float = 0.2
    p_noise: float = DEFAULT_P_NOISE
    p_forget: float = 0.0


@dataclass(slots=True)
class WatchConfig:
    enabled: bool = True
    p_detect: float = 0.5
    n_help: int = 1
    intervention_interval: int = 1


@dataclass(slots=True)
class NurseConfig:
    id: str
    base: str
    radius: float = DEFAULT_RADIUS


@dataclass(slots=True, kw_only=True)
class SmartWatch(WatchConfig):
    detect_rng: random.Random
    intervene_rng: random.Random
    phase: int = WATCH_DORMANT
    fail_count: int = 0
    next_attempt: int = 0

    def reset(self) -> None:
        self.phase = WATCH_DORMANT
        self.fail_count = 0


@dataclass(slots=True, kw_only=True)
class PwDAgent(PwDConfig):
    position: Position
    disorient_rng: random.Random
    noise_rng: random.Random
    false_goal_rng: random.Random
    forget_rng: random.Random
    watch: SmartWatch  # disabled when the scenario has no watch
    mode: int = PWD_IDLE
    disoriented: bool = False
    false_goal: str | None = None
    resample_tick: int = 0
    trip: Trip | None = None
    # Leaves the appointment at ``until``; while guided along a span that
    # guide_ahead drew, GuidanceEnd comes at ``until``.
    until: int = 0
    next_idx: int = 0
    forgot: bool | None = None  # None until drawn for the next appointment
    moved_tick: int = -1
    onset_due: bool = False  # travel_ahead drew this tick's onset
    trip_seq: int = 0
    episode_seq: int = 0
    episode: str | None = None
    # The nurse responding to or guiding this resident.  Back-references
    # stay out of == and repr, which would otherwise walk the cycle.
    nurse: NurseAgent | None = field(default=None, repr=False, compare=False)


@dataclass(slots=True, kw_only=True)
class NurseAgent(NurseConfig):
    position: Position
    state: int = NURSE_INACTIVE
    target: PwDAgent | None = field(default=None, repr=False, compare=False)
    call_episode: str | None = None  # None for a response on sight


@dataclass(slots=True)
class Call:
    pwd: PwDAgent
    episode: str


@dataclass
class WorldContext:
    """Read/write view the nurse and dispatch logic operate on."""
    grid: GridMap
    pwds: list[PwDAgent]
    nurses: list[NurseAgent]
    queue: deque[Call] = field(default_factory=deque)


def _pos_str(pos: Position) -> str:
    return f"{pos.x}:{pos.y}"


# -- resident ------------------------------------------------------------


def _start_trip(pwd: PwDAgent, grid: GridMap, tick: int, goal: str, leg: str,
                duration: int, events: list[Event]) -> None:
    pwd.trip_seq += 1
    trip = Trip(f"{pwd.id}.{pwd.trip_seq}", goal, leg, tick,
                grid.label_distance(pwd.position, goal), duration)
    pwd.trip = trip
    pwd.mode = PWD_TRAVELING
    events.append(Event(tick, "A", TRIP_START, pwd.id, {
        "trip": trip.trip_id, "leg": leg, "goal": goal, "nominal": trip.nominal}))


def _reorient(pwd: PwDAgent) -> None:
    """Clear the resident's disorientation and re-arm the watch.

    The episode id is left to the caller: guidance still reports it.
    """
    pwd.disoriented = False
    pwd.false_goal = None
    pwd.watch.reset()


def _sample_false_goal(pwd: PwDAgent, grid: GridMap, true_goal: str) -> str:
    candidates = [label for label in grid.labels_with_role(ROLE_APPOINTMENT_SITE)
                  if label != true_goal]
    if not candidates:
        candidates = [label for label in sorted(grid.locations) if label != true_goal]
    return candidates[pwd.false_goal_rng.randrange(len(candidates))]


def pwd_begin_tick(pwd: PwDAgent, grid: GridMap, tick: int,
                   events: list[Event]) -> None:
    """Phase A for one resident: arrivals, departures, disorientation onset."""
    # Trip completion is recognized at the tick boundary, so the time on
    # a trip equals the number of movement ticks it spanned.
    if pwd.mode == PWD_TRAVELING and grid.at_label(pwd.position, pwd.trip.goal):
        trip = pwd.trip
        events.append(Event(tick, "A", TRIP_END, pwd.id, {
            "trip": trip.trip_id, "leg": trip.leg, "goal": trip.goal,
            "nominal": trip.nominal, "taken": tick - trip.start_tick}))
        _reorient(pwd)
        pwd.episode = None
        pwd.trip = None
        if trip.leg == LEG_OUT:
            pwd.mode = PWD_AT_APPOINTMENT
            pwd.until = tick + trip.duration
        else:
            pwd.mode = PWD_IDLE

    if pwd.mode == PWD_AT_APPOINTMENT and tick >= pwd.until:
        _start_trip(pwd, grid, tick, pwd.home, LEG_RETURN, 0, events)

    if pwd.mode == PWD_IDLE and pwd.next_idx < len(pwd.schedule):
        appt = pwd.schedule[pwd.next_idx]
        if tick >= appt.start:
            if pwd.forgot is None:
                pwd.forgot = pwd.p_forget > 0 and \
                    pwd.forget_rng.random() < pwd.p_forget
            if pwd.forgot:
                if not pwd.watch.enabled:
                    # Nothing will ever remind them; the appointment is missed.
                    pwd.next_idx += 1
                    pwd.forgot = None
                    return
                if tick < appt.start + REMINDER_DELAY:
                    return
                events.append(Event(tick, "A", REMINDER, pwd.id,
                                    {"appointment": pwd.next_idx}))
            pwd.next_idx += 1
            pwd.forgot = None
            _start_trip(pwd, grid, tick, appt.location, LEG_OUT,
                        appt.duration, events)

    if pwd.mode == PWD_TRAVELING and not pwd.disoriented and pwd.p_d > 0:
        if pwd.onset_due or pwd.disorient_rng.random() < pwd.p_d:
            pwd.onset_due = False
            pwd.episode_seq += 1
            pwd.episode = f"{pwd.id}.e{pwd.episode_seq}"
            pwd.disoriented = True
            pwd.false_goal = _sample_false_goal(pwd, grid, pwd.trip.goal)
            pwd.resample_tick = tick + FALSE_GOAL_PERIOD
            events.append(Event(tick, "A", DISORIENTATION_START, pwd.id, {
                "episode": pwd.episode, "trip": pwd.trip.trip_id,
                "false_goal": pwd.false_goal, "pos": _pos_str(pwd.position)}))


def wake_tick(pwd: PwDAgent, horizon: int) -> int:
    """The tick at which phase A next acts for an idle or dwelling resident.

    A dweller leaves at ``until``.  An idle resident departs, or draws
    whether it forgot, at its next appointment's start; an enabled watch
    reminds one that forgot ``REMINDER_DELAY`` ticks later.  With no
    appointment left it never acts again: ``horizon``.
    """
    if pwd.mode == PWD_AT_APPOINTMENT:
        return pwd.until
    if pwd.next_idx < len(pwd.schedule):
        return pwd.schedule[pwd.next_idx].start + (REMINDER_DELAY if pwd.forgot else 0)
    return horizon


def passive(pwd: PwDAgent, grid: GridMap) -> bool:
    """Whether phases A and B can do nothing for a lost traveller.

    A lost traveller whose watch is disabled or awaits a nurse draws
    nothing in phase B, and phase A can only see it arrive, once it
    stands on its trip's goal.  Such a traveller stays lost until it
    arrives or a nurse guides it, so it stays passive until it stands
    on its goal.
    """
    watch = pwd.watch
    return (not watch.enabled or watch.phase == WATCH_AWAITING_NURSE) and \
        not grid.at_label(pwd.position, pwd.trip.goal)


def travel_ahead(pwd: PwDAgent, grid: GridMap, tick: int, horizon: int) -> int:
    """Draw an oriented traveller's ticks after ``tick`` ahead; return its wake tick.

    No phase reads a traveller that is not lost: the sight scan reads
    lost residents only, and dispatch only call targets.  So each tick
    until phase A next acts for it is drawn here, the onset draw of
    phase A and then the noise draw and step of phase D.  The wake tick
    is the arrival on the trip's goal or the onset, whose draw is left
    in ``onset_due`` for phase A, or ``horizon`` if neither comes first.
    """
    goal = pwd.trip.goal
    p_d, p_noise = pwd.p_d, pwd.p_noise
    onset, noise = pwd.disorient_rng.random, pwd.noise_rng.random
    at_label, step = grid.at_label, grid.step_toward_label
    pos = pwd.position
    wake = tick + 1
    while wake < horizon and not at_label(pos, goal):
        if p_d > 0 and onset() < p_d:
            pwd.onset_due = True
            break
        if not (p_noise > 0 and noise() < p_noise):
            pos = step(pos, goal)
        wake += 1
    pwd.position = pos
    return wake


def guide_ahead(pwd: PwDAgent, grid: GridMap, tick: int, horizon: int) -> int:
    """Draw a guidance that began at ``tick`` ahead; return its GuidanceEnd tick.

    Only free nurses are dispatched and only lost residents scanned, so
    no other agent reads a guided pair.  Each later tick is the guiding
    nurse's phase C, a noise draw and a label step, up to the step onto
    the trip's goal; both end there, and phase D leaves the resident be
    on that tick.  ``horizon`` if the guidance outlasts the run.
    """
    goal = pwd.trip.goal
    p_noise, noise = pwd.p_noise, pwd.noise_rng.random
    at_label, step = grid.at_label, grid.step_toward_label
    pos = pwd.position
    end = tick + 1
    while end < horizon:
        if not (p_noise > 0 and noise() < p_noise):
            pos = step(pos, goal)
            if at_label(pos, goal):
                pwd.moved_tick = end
                break
        end += 1
    pwd.position = pwd.nurse.position = pos
    return end


def walk_home(nurse: NurseAgent, grid: GridMap, ticks: int) -> None:
    """Take an inactive nurse's phase-C steps of ``ticks`` ticks in which no one is lost.

    Its scan finds no one, so each tick is a step toward its base, and
    on its base it stays.
    """
    pos, base = nurse.position, nurse.base
    for _ in range(ticks):
        if grid.at_label(pos, base):
            break
        pos = grid.step_toward_label(pos, base)
    nurse.position = pos


def quiet_ticks(movers: list[PwDAgent], nurses: list[NurseAgent], grid: GridMap,
                tick: int, wake: int) -> int:
    """Draw the quiet ticks from ``tick`` on, before ``wake``; return the first not drawn.

    A quiet tick has no resident awake and leaves dispatch idle
    (``dispatch_idle``), so the lost residents are ``movers``, phases A
    and B take no one, and guiding nurses stay parked.  What is left is
    phase C's pursuit steps, scans and steps home, and phase D for the
    movers, none of which emits unless a scan sees a lost resident, a
    pursuit lands on its resident, or a mover steps onto its trip's
    goal.  So each tick is drawn here, all agents in lockstep, and the
    drawing stops before a tick whose scan or pursuit would emit
    (``ResponseStart``, ``GuidanceStart``), for the engine to run that
    tick in full, and after a tick in which a mover arrives, which
    phase A sees on the next.  No nurse changes state in the ticks drawn.
    """
    at_label, step_cell = grid.at_label, grid.step_toward_cell
    while tick < wake:
        pursuits, walkers = [], []
        for nurse in nurses:
            state = nurse.state
            if state == NURSE_RESPONDING:
                target = nurse.target.position
                step = step_cell(nurse.position, target)
                if step == target:
                    return tick
                pursuits.append((nurse, step))
            elif state == NURSE_INACTIVE:
                if sighting(nurse, movers, grid) is not None:
                    return tick
                if not at_label(nurse.position, nurse.base):
                    walkers.append(nurse)
        for nurse, step in pursuits:
            nurse.position = step
        for nurse in walkers:
            nurse.position = grid.step_toward_label(nurse.position, nurse.base)
        arrived = False
        for pwd in movers:
            pwd_move(pwd, grid, tick)
            arrived = arrived or at_label(pwd.position, pwd.trip.goal)
        tick += 1
        if arrived:
            break
    return tick


def pwd_move(pwd: PwDAgent, grid: GridMap, tick: int) -> None:
    """Phase D for one resident: locomotion noise, then one step."""
    if pwd.mode != PWD_TRAVELING or pwd.moved_tick == tick:
        return
    if pwd.disoriented and tick >= pwd.resample_tick:
        pwd.false_goal = _sample_false_goal(pwd, grid, pwd.trip.goal)
        pwd.resample_tick = tick + FALSE_GOAL_PERIOD
    if pwd.p_noise > 0 and pwd.noise_rng.random() < pwd.p_noise:
        return
    target = pwd.false_goal if pwd.disoriented else pwd.trip.goal
    pwd.position = grid.step_toward_label(pwd.position, target)


# -- smart-watch -----------------------------------------------------------


def watch_step(owner: PwDAgent, tick: int, events: list[Event],
               queue: deque[Call]) -> None:
    """Phase B for one resident's watch: detection, interventions, escalation."""
    watch = owner.watch
    if not watch.enabled or not owner.disoriented:
        return

    if watch.phase == WATCH_DORMANT:
        if watch.detect_rng.random() < watch.p_detect:
            events.append(Event(tick, "B", DETECTION, owner.id,
                                {"episode": owner.episode}))
            if watch.n_help == 0:
                _call_nurse(watch, owner, tick, events, queue)
            else:
                watch.phase = WATCH_INTERVENING
                watch.next_attempt = tick

    if watch.phase == WATCH_INTERVENING and tick >= watch.next_attempt:
        if watch.intervene_rng.random() < owner.p_i:
            events.append(Event(tick, "B", INTERVENTION_SUCCESS, owner.id,
                                {"episode": owner.episode}))
            _reorient(owner)
            owner.episode = None
        else:
            watch.fail_count += 1
            events.append(Event(tick, "B", INTERVENTION_FAIL, owner.id, {
                "episode": owner.episode, "fails": watch.fail_count}))
            if watch.fail_count >= watch.n_help:
                _call_nurse(watch, owner, tick, events, queue)
            else:
                watch.next_attempt = tick + watch.intervention_interval


def _call_nurse(watch: SmartWatch, owner: PwDAgent, tick: int,
                events: list[Event], queue: deque[Call]) -> None:
    events.append(Event(tick, "B", NURSE_CALLED, owner.id, {
        "episode": owner.episode, "pos": _pos_str(owner.position)}))
    watch.phase = WATCH_AWAITING_NURSE
    queue.append(Call(owner, owner.episode))


# -- dispatch and nurses ---------------------------------------------------


def _stale_reason(call: Call) -> str | None:
    """Why a queued call is stale, or None while its resident needs a nurse."""
    pwd = call.pwd
    if not pwd.disoriented:
        return "resolved"
    if pwd.nurse is not None:
        return "duplicate"
    return None


def _live_call_target(call: Call, phase: str, tick: int,
                      events: list[Event]) -> PwDAgent | None:
    """The resident a queued call is for, or None after dropping it as stale in ``phase``."""
    reason = _stale_reason(call)
    if reason is None:
        return call.pwd
    events.append(Event(tick, phase, CALL_DROPPED, call.pwd.id,
                        {"episode": call.episode, "reason": reason}))
    return None


def _begin_response(nurse: NurseAgent, pwd: PwDAgent, via: str, phase: str,
                    tick: int, events: list[Event]) -> None:
    nurse.state = NURSE_RESPONDING
    nurse.target = pwd
    nurse.call_episode = pwd.episode if via == "call" else None
    pwd.nurse = nurse
    events.append(Event(tick, phase, RESPONSE_START, nurse.id, {
        "pwd": pwd.id, "episode": pwd.episode, "via": via}))


def dispatch_idle(ctx: WorldContext) -> bool:
    """Whether dispatch leaves the queue as it is.

    It does while the queue is empty, and while every nurse is busy and
    every queued call live: a live call then waits, and there is no
    stale one to drop.
    """
    if not ctx.queue:
        return True
    for nurse in ctx.nurses:
        if nurse.state == NURSE_INACTIVE:
            return False
    return not any(map(_stale_reason, ctx.queue))


def assign_calls(ctx: WorldContext, tick: int, events: list[Event]) -> None:
    """Phase B dispatch: match queued calls to inactive nurses, FIFO.

    A call goes to the nearest free nurse, the lowest id on a tie.  Stale
    calls (resident already fine or already attended) are dropped;
    unassignable calls stay queued in order.  The queue is not touched
    while that would leave it as it is (``dispatch_idle``).
    """
    if dispatch_idle(ctx):
        return
    free = [n for n in ctx.nurses if n.state == NURSE_INACTIVE]
    pending: list[Call] = []
    while ctx.queue:
        call = ctx.queue.popleft()
        pwd = _live_call_target(call, "B", tick, events)
        if pwd is None:
            continue
        if not free:
            pending.append(call)
            continue
        grid = ctx.grid
        best = min(free, key=lambda n: grid.distance(n.position, pwd.position))
        free.remove(best)
        _begin_response(best, pwd, "call", "B", tick, events)
    ctx.queue.extend(pending)


def _release(nurse: NurseAgent, ctx: WorldContext, tick: int,
             events: list[Event]) -> None:
    """Unlink the nurse from its resident; it takes the next live call, if any."""
    nurse.target.nurse = None
    nurse.target = None
    nurse.call_episode = None
    nurse.state = NURSE_INACTIVE
    while ctx.queue:
        pwd = _live_call_target(ctx.queue.popleft(), "C", tick, events)
        if pwd is not None:
            _begin_response(nurse, pwd, "call", "C", tick, events)
            return


def _begin_guidance(nurse: NurseAgent, pwd: PwDAgent, tick: int,
                    events: list[Event]) -> None:
    nurse.state = NURSE_GUIDING
    pwd.mode = PWD_GUIDED
    _reorient(pwd)
    events.append(Event(tick, "C", GUIDANCE_START, nurse.id,
                        {"pwd": pwd.id, "episode": pwd.episode}))


def anyone_lost(*groups: list[PwDAgent]) -> bool:
    """Whether a resident in ``groups`` is disoriented with no nurse responding."""
    for pwds in groups:
        for pwd in pwds:
            if pwd.disoriented and pwd.nurse is None:
                return True
    return False


def sighting(nurse: NurseAgent, pwds: list[PwDAgent],
             grid: GridMap) -> PwDAgent | None:
    """The resident of ``pwds`` that an inactive nurse's scan picks, or None.

    The scan sees a resident that is disoriented with no nurse
    responding, within the nurse's radius and with no wall on the ray,
    and picks the nearest of those, the first on a tie.
    """
    x, y = pos = nurse.position
    radius = nurse.radius
    reach = radius * radius
    target: PwDAgent | None = None
    best: int | None = None
    for pwd in pwds:
        if pwd.disoriented and pwd.nurse is None:
            px, py = pwd.position
            if (px - x) * (px - x) + (py - y) * (py - y) > reach:
                continue  # line_of_sight's first test, made before the call
            if line_of_sight(grid, pos, pwd.position, radius):
                d = grid.distance(pos, pwd.position)
                if best is None or d < best:
                    best = d
                    target = pwd
    return target


def nurse_step(nurse: NurseAgent, ctx: WorldContext, tick: int,
               events: list[Event]) -> None:
    """Phase C for one nurse: scan, pursue, or guide."""
    grid = ctx.grid

    if nurse.state == NURSE_INACTIVE:
        target = sighting(nurse, ctx.pwds, grid)  # a tie keeps the lower id
        if target is not None:
            _begin_response(nurse, target, "sight", "C", tick, events)
            # Falls through to the pursuit move below on the next tick.
            return
        if not grid.at_label(nurse.position, nurse.base):
            nurse.position = grid.step_toward_label(nurse.position, nurse.base)
        return

    if nurse.state == NURSE_RESPONDING:
        pwd = nurse.target
        if not pwd.disoriented:
            # Reoriented (or finished the trip) before the nurse arrived.
            if nurse.call_episode is not None:
                events.append(Event(tick, "C", CALL_DROPPED, pwd.id, {
                    "episode": nurse.call_episode, "reason": "aborted"}))
            _release(nurse, ctx, tick, events)
            return
        nurse.position = grid.step_toward_cell(nurse.position, pwd.position)
        if nurse.position == pwd.position:
            _begin_guidance(nurse, pwd, tick, events)
        return

    if nurse.state == NURSE_GUIDING:
        pwd = nurse.target
        if pwd.p_noise > 0 and pwd.noise_rng.random() < pwd.p_noise:
            return  # resident steadies themselves; nurse waits
        step = grid.step_toward_label(pwd.position, pwd.trip.goal)
        pwd.position = step
        nurse.position = step
        pwd.moved_tick = tick
        if grid.at_label(step, pwd.trip.goal):
            end_guidance(nurse, ctx, tick, events)
        return


def end_guidance(nurse: NurseAgent, ctx: WorldContext, tick: int,
                 events: list[Event]) -> None:
    """Phase C for a guiding nurse that has brought its resident to the goal."""
    pwd = nurse.target
    events.append(Event(tick, "C", GUIDANCE_END, nurse.id,
                        {"pwd": pwd.id, "episode": pwd.episode}))
    pwd.episode = None
    pwd.mode = PWD_TRAVELING  # arrival is recognized next tick
    _release(nurse, ctx, tick, events)
