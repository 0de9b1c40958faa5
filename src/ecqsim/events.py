"""Event records and the run log they accumulate into.

Every turn of the simulation appends events in a canonical order
(tick, phase, agent).  The log also counts, for each agent, the ticks
spent in each mode or state; metrics are computed from the log alone.

The text form is newline-delimited: header lines, per-agent tally
lines, then one ``tick,phase,kind,subject,k=v,...`` line per event.
Field order is fixed, so identical runs serialize to identical bytes.
A payload value's type follows from its key: ``nominal``, ``taken``,
``fails`` and ``appointment`` hold integers, every other key text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

TRIP_START = "TripStart"
TRIP_END = "TripEnd"
DISORIENTATION_START = "DisorientationStart"
DETECTION = "Detection"
INTERVENTION_SUCCESS = "InterventionSuccess"
INTERVENTION_FAIL = "InterventionFail"
NURSE_CALLED = "NurseCalled"
CALL_DROPPED = "CallDropped"
RESPONSE_START = "ResponseStart"
GUIDANCE_START = "GuidanceStart"
GUIDANCE_END = "GuidanceEnd"
REMINDER = "Reminder"
# Kinds whose subject is a nurse; every other kind's is a resident.
NURSE_EVENTS = frozenset((RESPONSE_START, GUIDANCE_START, GUIDANCE_END))
# Payload keys whose values are integers; every other value is text.
_INT_KEYS = frozenset(("nominal", "taken", "fails", "appointment"))

# PwD modes / nurse states as small ints; index = serialized code.
PWD_IDLE, PWD_TRAVELING, PWD_AT_APPOINTMENT, PWD_GUIDED = range(4)
PWD_MODE_NAMES = ("idle", "traveling", "at_appointment", "guided")

NURSE_INACTIVE, NURSE_RESPONDING, NURSE_GUIDING = range(3)
NURSE_STATE_NAMES = ("inactive", "responding", "guiding")


@dataclass(slots=True)
class Event:
    tick: int
    phase: str  # "A".."E"
    kind: str
    subject: str
    payload: dict[str, object] = field(default_factory=dict)

    def to_line(self) -> str:
        parts = [str(self.tick), self.phase, self.kind, self.subject]
        parts.extend(f"{k}={v}" for k, v in self.payload.items())
        return ",".join(parts)

    @classmethod
    def from_line(cls, line: str) -> "Event":
        parts = line.split(",")
        if len(parts) < 4:
            raise ValueError(f"malformed event line: {line!r}")
        payload: dict[str, object] = {}
        for item in parts[4:]:
            key, _, value = item.partition("=")
            payload[key] = int(value) if key in _INT_KEYS else value
        return cls(int(parts[0]), parts[1], parts[2], parts[3], payload)


class EventLog:
    """Ordered event list plus per-agent tick counts by mode or state."""

    def __init__(self, horizon: int, seed: int,
                 pwd_ids: list[str], nurse_ids: list[str]):
        self.horizon = horizon
        self.seed = seed
        self.pwd_ids = list(pwd_ids)
        self.nurse_ids = list(nurse_ids)
        self.events: list[Event] = []
        # Ticks spent in each mode/state, indexed by its code.
        self.pwd_mode_ticks: dict[str, list[int]] = \
            {p: [0] * len(PWD_MODE_NAMES) for p in pwd_ids}
        self.nurse_state_ticks: dict[str, list[int]] = \
            {n: [0] * len(NURSE_STATE_NAMES) for n in nurse_ids}

    # -- tallies ---------------------------------------------------------

    def pwd_mode_counts(self, pwd_id: str) -> tuple[int, int, int, int]:
        return tuple(self.pwd_mode_ticks[pwd_id])  # type: ignore[return-value]

    def nurse_state_counts(self, nurse_id: str) -> tuple[int, int, int]:
        return tuple(self.nurse_state_ticks[nurse_id])  # type: ignore[return-value]

    # -- serialization ---------------------------------------------------

    def to_text(self) -> str:
        lines = [
            "ecqsim-log v1",
            f"horizon {self.horizon}",
            f"seed {self.seed}",
            "pwds " + " ".join(self.pwd_ids),
            "nurses " + " ".join(self.nurse_ids),
        ]
        for pwd_id in self.pwd_ids:
            counts = self.pwd_mode_counts(pwd_id)
            pairs = " ".join(f"{name}={n}" for name, n in zip(PWD_MODE_NAMES, counts))
            lines.append(f"tally {pwd_id} {pairs}")
        for nurse_id in self.nurse_ids:
            counts = self.nurse_state_counts(nurse_id)
            pairs = " ".join(f"{name}={n}" for name, n in zip(NURSE_STATE_NAMES, counts))
            lines.append(f"tally {nurse_id} {pairs}")
        lines.append(f"events {len(self.events)}")
        lines.extend(event.to_line() for event in self.events)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "EventLog":
        """Parse :meth:`to_text` output; raise ValueError on a corrupt log."""
        lines = text.splitlines()
        if len(lines) < 5 or lines[0] != "ecqsim-log v1":
            raise ValueError("not an ecqsim event log")
        header = [line.partition(" ") for line in lines[1:5]]
        if [key for key, _, _ in header] != ["horizon", "seed", "pwds", "nurses"]:
            raise ValueError("log header is not horizon, seed, pwds, nurses")
        horizon, seed, pwds, nurses = (value for _, _, value in header)
        log = cls(int(horizon), int(seed), pwds.split(), nurses.split())

        names = {p: PWD_MODE_NAMES for p in log.pwd_ids}
        names.update((n, NURSE_STATE_NAMES) for n in log.nurse_ids)
        ticks = {**log.pwd_mode_ticks, **log.nurse_state_ticks}
        idx = 5
        while idx < len(lines) and lines[idx].startswith("tally "):
            agent_id, *fields = lines[idx].split()[1:]
            expected = names.pop(agent_id, None)
            pairs = [field.partition("=") for field in fields]
            if expected is None or tuple(key for key, _, _ in pairs) != expected:
                raise ValueError(f"bad tally line: {lines[idx]!r}")
            ticks[agent_id][:] = [int(value) for _, _, value in pairs]
            if sum(ticks[agent_id]) != log.horizon:
                raise ValueError(f"tally of {agent_id} does not sum to horizon {log.horizon}")
            idx += 1
        if names:
            raise ValueError("missing tally for " + " ".join(names))

        if idx >= len(lines) or not lines[idx].startswith("events "):
            raise ValueError("missing events header")
        count = int(lines[idx].split(" ", 1)[1])
        event_lines = lines[idx + 1:]
        if len(event_lines) < count:
            raise ValueError(f"log ends after {len(event_lines)} of {count} events")
        if len(event_lines) > count:
            raise ValueError(
                f"{len(event_lines) - count} lines after the last of {count} events")
        known = {"pwds": set(log.pwd_ids), "nurses": set(log.nurse_ids)}
        for line in event_lines:
            event = Event.from_line(line)
            header = "nurses" if event.kind in NURSE_EVENTS else "pwds"
            if event.subject not in known[header]:
                raise ValueError(
                    f"event subject {event.subject!r} is not in the {header} header")
            log.events.append(event)
        return log
