"""Compliance values computed from a run log.

Three per-agent values, all percentages:

  autonomy          100 * (1 - guided_ticks / total_ticks)     per resident
  nurse efficiency  100 * inactive_ticks / total_ticks         per nurse
  travel efficiency 100 * nominal / taken, averaged over the
                    resident's completed trips                 per resident

Autonomy and nurse efficiency read the log's per-agent tick counts;
travel efficiency and the activity counts come from one pass over the
events.  Values are computed from integer tick counts with a single
division, and rounded only when serialized.  A resident with no completed trip has no
travel-efficiency value (absent, never zero).
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import (
    DISORIENTATION_START, NURSE_CALLED, NURSE_INACTIVE, PWD_GUIDED,
    TRIP_END, TRIP_START, Event, EventLog,
)


class UnknownAgentError(KeyError):
    """The log does not cover the requested agent."""


@dataclass(slots=True)
class TripRecord:
    pwd: str
    trip_id: str
    t_nominal: int
    t_taken: int | None
    completed: bool


@dataclass(slots=True)
class AgentCounts:
    trips_completed: int = 0
    trips_incomplete: int = 0
    episodes: int = 0
    calls: int = 0


@dataclass
class MetricReport:
    t_total: int
    autonomy: dict[str, float]
    efficiency: dict[str, float]
    travel_efficiency: dict[str, float | None]
    counts: dict[str, AgentCounts]

    def to_text(self, seed: int | None = None) -> str:
        lines = ["ecqsim-report v1"]
        if seed is not None:
            lines.append(f"seed {seed}")
        lines.append(f"horizon {self.t_total}")
        for pwd_id, value in self.autonomy.items():
            lines.append(f"autonomy {pwd_id} {value:.2f}")
        for nurse_id, value in self.efficiency.items():
            lines.append(f"efficiency {nurse_id} {value:.2f}")
        for pwd_id, value in self.travel_efficiency.items():
            shown = "absent" if value is None else f"{value:.2f}"
            lines.append(f"travel_efficiency {pwd_id} {shown}")
        for pwd_id, c in self.counts.items():
            lines.append(
                f"counts {pwd_id} trips_completed={c.trips_completed} "
                f"trips_incomplete={c.trips_incomplete} "
                f"episodes={c.episodes} calls={c.calls}")
        return "\n".join(lines) + "\n"


def autonomy(log: EventLog, pwd_id: str) -> float:
    """Share of the run the resident was not nurse-guided, as a percent."""
    if pwd_id not in log.pwd_mode_ticks:
        raise UnknownAgentError(pwd_id)
    guided = log.pwd_mode_ticks[pwd_id][PWD_GUIDED]
    return 100.0 * (log.horizon - guided) / log.horizon


def nurse_efficiency(log: EventLog, nurse_id: str) -> float:
    """Share of the run the nurse spent inactive, as a percent.

    Responding and guiding both count as active time.
    """
    if nurse_id not in log.nurse_state_ticks:
        raise UnknownAgentError(nurse_id)
    inactive = log.nurse_state_ticks[nurse_id][NURSE_INACTIVE]
    return 100.0 * inactive / log.horizon


def _pair_trip(records: dict[str, TripRecord], event: Event) -> None:
    """Open a record on a trip start; complete it on the matching end."""
    if event.kind == TRIP_START:
        trip_id = str(event.payload["trip"])
        records[trip_id] = TripRecord(
            pwd=event.subject, trip_id=trip_id,
            t_nominal=int(event.payload["nominal"]),
            t_taken=None, completed=False)
    elif event.kind == TRIP_END:
        record = records.get(str(event.payload["trip"]))
        if record is not None:
            record.t_taken = int(event.payload["taken"])
            record.completed = True


def trip_records(log: EventLog, pwd_id: str | None = None) -> list[TripRecord]:
    """Pair trip start/end events into per-trip records, in start order."""
    if pwd_id is not None and pwd_id not in log.pwd_mode_ticks:
        raise UnknownAgentError(pwd_id)
    records: dict[str, TripRecord] = {}
    for event in log.events:
        _pair_trip(records, event)
    return [r for r in records.values() if pwd_id is None or r.pwd == pwd_id]


def _mean_trip_efficiency(records: list[TripRecord]) -> float | None:
    ratios = [100.0 if r.t_taken == 0 else 100.0 * r.t_nominal / r.t_taken
              for r in records if r.completed]
    if not ratios:
        return None
    return sum(ratios) / len(ratios)


def travel_efficiency(log: EventLog, pwd_id: str) -> float | None:
    """Mean per-trip nominal/taken ratio over completed trips, as a percent.

    Returns None when the resident completed no trip within the horizon.
    """
    return _mean_trip_efficiency(trip_records(log, pwd_id))


def build_report(log: EventLog) -> MetricReport:
    """All three value families plus per-resident activity counts.

    One pass over the events collects trips, episodes and calls.
    """
    counts = {pwd_id: AgentCounts() for pwd_id in log.pwd_ids}
    records: dict[str, TripRecord] = {}
    for event in log.events:
        if event.kind == DISORIENTATION_START:
            counts[event.subject].episodes += 1
        elif event.kind == NURSE_CALLED:
            counts[event.subject].calls += 1
        else:
            _pair_trip(records, event)
    trips: dict[str, list[TripRecord]] = {pwd_id: [] for pwd_id in log.pwd_ids}
    for record in records.values():
        if record.pwd in trips:
            trips[record.pwd].append(record)
    for pwd_id, pwd_trips in trips.items():
        completed = sum(r.completed for r in pwd_trips)
        counts[pwd_id].trips_completed = completed
        counts[pwd_id].trips_incomplete = len(pwd_trips) - completed
    return MetricReport(
        t_total=log.horizon,
        autonomy={pwd_id: autonomy(log, pwd_id) for pwd_id in log.pwd_ids},
        efficiency={n: nurse_efficiency(log, n) for n in log.nurse_ids},
        travel_efficiency={pwd_id: _mean_trip_efficiency(pwd_trips)
                           for pwd_id, pwd_trips in trips.items()},
        counts=counts,
    )
