"""Scenario layer: templates, schedule drawing, run building, YAML files.

A ``ScenarioTemplate`` holds what a sweep keeps fixed: the map, the
rosters, the watch settings and the clock.  ``build_run`` turns it into
a runnable ``Scenario``, drawing appointment schedules from the seed for
residents that carry none.

A scenario file names a map, supplies the glyph legend, the resident
and nurse rosters, the watch settings, a horizon and a seed.  Loading
is two-staged: structural problems (bad YAML, missing keys, unreadable
map) raise immediately, while semantic problems are collected so a
validation run can report all of them at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .agents import Appointment
from .engine import (
    DEFAULT_RADIUS, NurseConfig, PwDConfig, Scenario, ScenarioError,
    WatchConfig, derive_stream,
)
from .grid import ROLE_APPOINTMENT_SITE, ROLES, GridMap, MapError, parse_map

DEFAULT_APPOINTMENTS = 6
DEFAULT_APPOINTMENT_DURATION = 30

_TOP_KEYS = {"map", "legend", "pwd", "nurses", "watch", "horizon", "seed",
             "appointments_per_pwd", "appointment_duration"}
_PWD_KEYS = {"id", "home", "p_d", "p_i", "p_noise", "p_forget", "appointments"}
_NURSE_KEYS = {"id", "base", "radius"}
_WATCH_KEYS = {"enabled", "p_detect", "n_help", "intervention_interval"}


class InsufficientSitesError(ValueError):
    """The map has fewer appointment sites than a schedule needs."""


@dataclass
class ScenarioTemplate:
    """Everything a sweep holds fixed: the map, the rosters, the clock.

    Residents with a non-empty schedule keep it verbatim; for the rest a
    schedule is drawn per replication.  ``seed`` is the scenario file's
    seed, used when a single run is asked for without one.
    """
    grid: GridMap
    pwds: list[PwDConfig]
    nurses: list[NurseConfig]
    watch: WatchConfig = field(default_factory=WatchConfig)
    horizon: int = 10_000
    appointments_per_pwd: int = DEFAULT_APPOINTMENTS
    appointment_duration: int = DEFAULT_APPOINTMENT_DURATION
    seed: int = 0

    def scenario(self, seed: int | None = None) -> Scenario:
        """Single-run scenario; generated schedules use replication 0."""
        run_seed = self.seed if seed is None else seed
        return build_run(self, schedule_seed=run_seed,
                         replication=0, run_seed=run_seed)


def generate_schedule(grid: GridMap, pwd_id: str, base_seed: int,
                      replication: int, count: int, duration: int,
                      horizon: int) -> list[Appointment]:
    """Draw ``count`` appointments at distinct sites, evenly spread with jitter.

    The stream is keyed by (base_seed, resident, replication) only, so
    schedules match across strategies and probability levels within a
    replication.
    """
    sites = grid.labels_with_role(ROLE_APPOINTMENT_SITE)
    if len(sites) < count:
        raise InsufficientSitesError(
            f"map offers {len(sites)} appointment sites, need {count}")
    rng = derive_stream(base_seed, pwd_id, f"schedule.{replication}")
    chosen = rng.sample(sites, count)
    spacing = horizon // (count + 1)
    jitter = spacing // 10
    starts = sorted((i + 1) * spacing + (rng.randint(-jitter, jitter) if jitter else 0)
                    for i in range(count))
    return [Appointment(location, start, duration)
            for location, start in zip(chosen, starts)]


def build_run(template: ScenarioTemplate, *, schedule_seed: int,
              replication: int, run_seed: int, p_d: float | None = None,
              watch: WatchConfig | None = None) -> Scenario:
    """Turn a template into a runnable scenario.

    Schedules are drawn from (schedule_seed, replication) for residents
    without an explicit one, so they are shared by every configuration
    of a replication.
    """
    pwds = []
    for cfg in template.pwds:
        schedule = list(cfg.schedule) or generate_schedule(
            template.grid, cfg.id, schedule_seed, replication,
            template.appointments_per_pwd, template.appointment_duration,
            template.horizon)
        pwds.append(replace(cfg, schedule=schedule,
                            p_d=cfg.p_d if p_d is None else p_d))
    return Scenario(
        grid=template.grid, pwds=pwds,
        nurses=[replace(n) for n in template.nurses],
        watch=template.watch if watch is None else watch,
        horizon=template.horizon, seed=run_seed)


def _number(value, name: str, problems: list[str], default: float) -> float:
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{name} must be a number, got {value!r}")
        return default
    return float(value)


def _integer(value, name: str, problems: list[str], default: int) -> int:
    if value is None:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        problems.append(f"{name} must be an integer, got {value!r}")
        return default
    return value


def _boolean(value, name: str, problems: list[str], default: bool) -> bool:
    if value is None:
        return default
    if not isinstance(value, bool):
        problems.append(f"{name} must be true or false, got {value!r}")
        return default
    return value


def _section(value, kind: type, name: str, problems: list[str]):
    """``value`` if it is a ``kind``; an empty one if absent or mistyped."""
    if value is None:
        return kind()
    if not isinstance(value, kind):
        problems.append(f"{name} must be a {'mapping' if kind is dict else 'list'}")
        return kind()
    return value


def load_scenario(path: str | Path) -> ScenarioTemplate:
    """Parse and fully validate a scenario file.

    Raises ScenarioError with every collected diagnostic, or OSError if
    the scenario or map file cannot be read.
    """
    path = Path(path)
    # libyaml's loader when PyYAML was built with it; same result, faster.
    raw = yaml.load(path.read_text(encoding="utf-8"),
                    Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ScenarioError(["scenario file must be a mapping"])
    for key in raw:
        if key not in _TOP_KEYS:
            problems.append(f"unknown key {key!r}")

    legend: dict[str, tuple[str, str]] = {}
    for glyph, entry in _section(raw.get("legend"), dict, "legend", problems).items():
        glyph = str(glyph)
        if not isinstance(entry, dict) or "label" not in entry or "role" not in entry:
            problems.append(f"legend {glyph!r}: need label and role")
            continue
        role = str(entry["role"])
        if role not in ROLES:
            problems.append(f"legend {glyph!r}: unknown role {role!r}")
            continue
        legend[glyph] = (str(entry["label"]), role)

    map_name = raw.get("map")
    if not map_name:
        raise ScenarioError(problems + ["no map file given"])
    map_path = (path.parent / str(map_name)).resolve()
    try:
        grid = parse_map(map_path.read_text(encoding="utf-8"), legend)
    except MapError as exc:
        raise ScenarioError(problems + [f"map: {exc}"]) from exc

    pwds: list[PwDConfig] = []
    rows = raw.get("pwd")
    if not rows:
        problems.append("no pwd roster")
    for i, row in enumerate(_section(rows, list, "pwd", problems)):
        if not isinstance(row, dict) or "id" not in row or "home" not in row:
            problems.append(f"pwd entry {i}: need id and home")
            continue
        for key in row:
            if key not in _PWD_KEYS:
                problems.append(f"pwd {row.get('id')}: unknown key {key!r}")
        appointments = []
        for j, appt in enumerate(_section(row.get("appointments"), list,
                                          f"pwd {row['id']} appointments", problems)):
            if not isinstance(appt, dict) or "location" not in appt \
                    or "start" not in appt:
                problems.append(f"pwd {row['id']}: appointment {j} needs location and start")
                continue
            appointments.append(Appointment(
                location=str(appt["location"]),
                start=_integer(appt["start"], f"pwd {row['id']} appointment {j} start",
                               problems, 0),
                duration=_integer(appt.get("duration"),
                                  f"pwd {row['id']} appointment {j} duration",
                                  problems, DEFAULT_APPOINTMENT_DURATION)))
        pwds.append(PwDConfig(
            id=str(row["id"]), home=str(row["home"]), schedule=appointments,
            p_d=_number(row.get("p_d"), f"pwd {row['id']} p_d", problems, 0.0),
            p_i=_number(row.get("p_i"), f"pwd {row['id']} p_i", problems, 0.2),
            p_noise=_number(row.get("p_noise"), f"pwd {row['id']} p_noise",
                            problems, 0.1),
            p_forget=_number(row.get("p_forget"), f"pwd {row['id']} p_forget",
                             problems, 0.0)))

    nurses: list[NurseConfig] = []
    rows = raw.get("nurses")
    if not rows:
        problems.append("no nurse roster")
    for i, row in enumerate(_section(rows, list, "nurses", problems)):
        if not isinstance(row, dict) or "id" not in row or "base" not in row:
            problems.append(f"nurse entry {i}: need id and base")
            continue
        for key in row:
            if key not in _NURSE_KEYS:
                problems.append(f"nurse {row.get('id')}: unknown key {key!r}")
        nurses.append(NurseConfig(
            id=str(row["id"]), base=str(row["base"]),
            radius=_number(row.get("radius"), f"nurse {row['id']} radius",
                           problems, DEFAULT_RADIUS)))

    watch_raw = _section(raw.get("watch"), dict, "watch", problems)
    for key in watch_raw:
        if key not in _WATCH_KEYS:
            problems.append(f"watch: unknown key {key!r}")
    watch = WatchConfig(
        enabled=_boolean(watch_raw.get("enabled"), "watch enabled", problems, True),
        p_detect=_number(watch_raw.get("p_detect"), "watch p_detect", problems, 0.5),
        n_help=_integer(watch_raw.get("n_help"), "watch n_help", problems, 1),
        intervention_interval=_integer(watch_raw.get("intervention_interval"),
                                       "watch intervention_interval", problems, 1))

    template = ScenarioTemplate(
        grid=grid, pwds=pwds, nurses=nurses, watch=watch,
        horizon=_integer(raw.get("horizon"), "horizon", problems, 10_000),
        appointments_per_pwd=_integer(raw.get("appointments_per_pwd"),
                                      "appointments_per_pwd", problems,
                                      DEFAULT_APPOINTMENTS),
        appointment_duration=_integer(raw.get("appointment_duration"),
                                      "appointment_duration", problems,
                                      DEFAULT_APPOINTMENT_DURATION),
        seed=_integer(raw.get("seed"), "seed", problems, 0))

    # generate_schedule cannot draw from a negative count or horizon, so
    # these are checked before the trial materialization below.
    if template.horizon <= 0:
        problems.append("horizon must be positive")
    if template.appointments_per_pwd < 0:
        problems.append("appointments_per_pwd must be >= 0")

    # Semantic validation via a trial materialization.
    if not problems:
        try:
            trial = template.scenario()
            problems.extend(trial.validate())
        except InsufficientSitesError as exc:
            problems.append(str(exc))
    if problems:
        raise ScenarioError(problems)
    return template
