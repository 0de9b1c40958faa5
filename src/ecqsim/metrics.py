"""Compliance values computed from a run log.

Three per-agent values, all percentages:

  autonomy          100 * (1 - guided_ticks / total_ticks)     per resident
  nurse efficiency  100 * inactive_ticks / total_ticks         per nurse
  travel efficiency 100 * nominal / taken, averaged over the
                    resident's completed trips                 per resident

Autonomy and nurse efficiency read the log's per-agent tick counts.
Travel efficiency and the activity counts are computed only by
:func:`build_report`, in one pass that pairs each trip start with its
end.  Values are computed from integer tick counts with a single
division, and rounded only when serialized.  A resident with no
completed trip has no travel-efficiency value (absent, never zero).
"""

from __future__ import annotations

from dataclasses import dataclass

from .events import (
    DISORIENTATION_START, NURSE_CALLED, NURSE_INACTIVE, PWD_GUIDED,
    TRIP_END, TRIP_START, EventLog,
)


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

    def to_text(self, seed: int) -> str:
        lines = ["ecqsim-report v1", f"seed {seed}", f"horizon {self.t_total}"]
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
    guided = log.pwd_mode_ticks[pwd_id][PWD_GUIDED]
    return 100.0 * (log.horizon - guided) / log.horizon


def nurse_efficiency(log: EventLog, nurse_id: str) -> float:
    """Share of the run the nurse spent inactive, as a percent.

    Responding and guiding both count as active time.
    """
    inactive = log.nurse_state_ticks[nurse_id][NURSE_INACTIVE]
    return 100.0 * inactive / log.horizon


def build_report(log: EventLog) -> MetricReport:
    """All three value families plus per-resident activity counts.

    One pass over the events counts episodes and calls.  A trip start
    opens the resident's trip and its end closes it, adding the ratio of
    the end's nominal and taken times; a resident is on one trip at a
    time, so trips close in the order they open.
    """
    counts = {pwd_id: AgentCounts() for pwd_id in log.pwd_ids}
    ratios: dict[str, list[float]] = {pwd_id: [] for pwd_id in log.pwd_ids}
    for event in log.events:
        kind = event.kind
        if kind == TRIP_START:
            counts[event.subject].trips_incomplete += 1
        elif kind == TRIP_END:
            c = counts[event.subject]
            c.trips_incomplete -= 1
            c.trips_completed += 1
            taken = event.payload["taken"]
            ratios[event.subject].append(
                100.0 if taken == 0 else 100.0 * event.payload["nominal"] / taken)
        elif kind == DISORIENTATION_START:
            counts[event.subject].episodes += 1
        elif kind == NURSE_CALLED:
            counts[event.subject].calls += 1
    return MetricReport(
        t_total=log.horizon,
        autonomy={pwd_id: autonomy(log, pwd_id) for pwd_id in log.pwd_ids},
        efficiency={n: nurse_efficiency(log, n) for n in log.nurse_ids},
        travel_efficiency={pwd_id: sum(r) / len(r) if r else None
                           for pwd_id, r in ratios.items()},
        counts=counts,
    )
