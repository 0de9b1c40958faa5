"""Seeded agent-based simulator of indoor navigation assistance.

Residents with dementia follow appointment schedules on a grid floor
plan, occasionally losing orientation; a smart watch detects, hints,
and escalates to nurses.  Runs produce an event log from which three
compliance values are computed: resident autonomy, nurse efficiency,
and travel efficiency.  The experiment layer sweeps assistance
strategies over seeded replications.
"""

from .agents import (
    Appointment, NurseAgent, NurseConfig, PwDAgent, PwDConfig, SmartWatch,
    WatchConfig, assign_calls, nurse_step, watch_step,
)
from .engine import Scenario, ScenarioError, derive_stream, run_simulation
from .events import Event, EventLog
from .experiment import (
    PAPER_STRATEGIES, Aggregate, Strategy, SweepConfig, SweepRow, aggregate,
    run_sweep,
)
from .grid import GridMap, MapError, Position, line_of_sight, parse_map
from .metrics import MetricReport, autonomy, build_report, nurse_efficiency
from .scenario import ScenarioTemplate, generate_schedule, load_scenario

__version__ = "0.1.0"

__all__ = [
    "Aggregate", "Appointment", "Event", "EventLog", "GridMap", "MapError",
    "MetricReport", "NurseAgent", "NurseConfig", "PAPER_STRATEGIES",
    "Position", "PwDAgent", "PwDConfig", "Scenario", "ScenarioError",
    "ScenarioTemplate", "SmartWatch", "Strategy", "SweepConfig", "SweepRow",
    "WatchConfig", "aggregate", "assign_calls", "autonomy", "build_report",
    "derive_stream", "generate_schedule", "line_of_sight", "load_scenario",
    "nurse_efficiency", "nurse_step", "parse_map", "run_simulation",
    "run_sweep", "watch_step",
]
