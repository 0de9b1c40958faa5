"""Scenario layer: templates, schedule drawing, run building, YAML files.

A ``ScenarioTemplate`` is a ``Scenario`` plus the size of the schedules
drawn for residents that carry none; it holds what a sweep keeps fixed.
``build_run`` turns it into the ``Scenario`` of one run, drawing those
schedules.

A scenario file names a map, supplies the glyph legend, the resident
and nurse rosters, the watch settings, a horizon and a seed.  Loading
is two-staged: structural problems (bad YAML, missing keys, unreadable
map) raise immediately, while semantic problems are collected so a
validation run can report all of them at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import yaml

from .agents import Appointment, NurseConfig, PwDConfig, WatchConfig
from .engine import Scenario, ScenarioError, derive_stream
from .grid import ROLE_APPOINTMENT_SITE, ROLES, GridMap, MapError, parse_map

DEFAULT_APPOINTMENTS = 6
DEFAULT_APPOINTMENT_DURATION = 30


@dataclass
class ScenarioTemplate(Scenario):
    """A scenario whose residents may lack a schedule: residents with one
    keep it verbatim, and ``build_run`` draws one for the rest."""
    appointments_per_pwd: int = DEFAULT_APPOINTMENTS
    appointment_duration: int = DEFAULT_APPOINTMENT_DURATION


def generate_schedule(grid: GridMap, pwd_id: str, base_seed: int,
                      replication: int, count: int, duration: int,
                      horizon: int) -> list[Appointment]:
    """Draw ``count`` appointments at distinct sites, evenly spread with jitter.

    The stream is keyed by (base_seed, resident, replication) only, so
    schedules match across strategies and probability levels within a
    replication.  ``load_scenario`` checks that the map offers ``count`` sites.
    """
    rng = derive_stream(base_seed, pwd_id, f"schedule.{replication}")
    chosen = rng.sample(grid.labels_with_role(ROLE_APPOINTMENT_SITE), count)
    spacing, jitter = _spread(horizon, count)
    starts = sorted((i + 1) * spacing + (rng.randint(-jitter, jitter) if jitter else 0)
                    for i in range(count))
    return [Appointment(location, start, duration)
            for location, start in zip(chosen, starts)]


def _spread(horizon: int, count: int) -> tuple[int, int]:
    """The spacing of drawn starts, and the most a start moves off its slot."""
    spacing = horizon // (count + 1)
    return spacing, spacing // 10


def build_run(template: ScenarioTemplate, *, schedule_seed: int,
              replication: int, run_seed: int, p_d: float | None = None,
              watch: WatchConfig | None = None) -> Scenario:
    """Turn a template into a runnable scenario.

    Schedules are drawn from (schedule_seed, replication) for residents
    without an explicit one, so they are shared by every configuration
    of a replication.  Unchanged configs are shared: agents only read them.
    """
    pwds = []
    for cfg in template.pwds:
        schedule = cfg.schedule or generate_schedule(
            template.grid, cfg.id, schedule_seed, replication,
            template.appointments_per_pwd, template.appointment_duration,
            template.horizon)
        pwds.append(replace(cfg, schedule=schedule,
                            p_d=cfg.p_d if p_d is None else p_d))
    return Scenario(
        grid=template.grid, pwds=pwds, nurses=list(template.nurses),
        watch=template.watch if watch is None else watch,
        horizon=template.horizon, seed=run_seed)


# Each section's keys and the type of each value; None marks a key read
# on its own.  Values not read fall back to the dataclass defaults.
_TOP_FIELDS = {"map": None, "legend": None, "pwd": None, "nurses": None,
               "watch": None, "horizon": int, "appointments_per_pwd": int,
               "appointment_duration": int, "seed": int}
_PWD_FIELDS = {"id": None, "home": None, "appointments": None, "p_d": float,
               "p_i": float, "p_noise": float, "p_forget": float}
_APPOINTMENT_FIELDS = {"location": None, "start": int, "duration": int}
_LEGEND_FIELDS = {"label": None, "role": None}
_NURSE_FIELDS = {"id": None, "base": None, "radius": float}
_WATCH_FIELDS = {"enabled": bool, "p_detect": float, "n_help": int,
                 "intervention_interval": int}
_WANTED = {float: "a number", int: "an integer", bool: "true or false"}


def _read(row: dict, fields: dict, prefix: str, problems: list[str]) -> dict:
    """The typed values of ``row``, in table order, as constructor keywords.

    Absent, null and mistyped values are left out; a mistyped one adds
    ``<prefix><key> must be ...`` to ``problems``.  Integers count as
    numbers, booleans only as booleans.
    """
    values = {}
    for key, kind in fields.items():
        value = row.get(key)
        if kind is None or value is None:
            continue
        if isinstance(value, (int, float) if kind is float else kind) \
                and isinstance(value, bool) == (kind is bool):
            values[key] = kind(value)
        else:
            problems.append(f"{prefix}{key} must be {_WANTED[kind]}, got {value!r}")
    return values


def _unknown_keys(row: dict, fields: dict, prefix: str, problems: list[str]) -> None:
    for key in row:
        if key not in fields:
            problems.append(f"{prefix}unknown key {key!r}")


def _present(row, *keys: str) -> bool:
    """Whether ``row`` is a mapping giving each of ``keys`` a non-null value."""
    return isinstance(row, dict) and all(row.get(key) is not None for key in keys)


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

    Raises ScenarioError with every collected diagnostic (a file that is
    not UTF-8 text or not YAML is one), or OSError if the scenario or
    map file cannot be read.
    """
    path = Path(path)
    # libyaml's loader when PyYAML was built with it; same result, faster.
    # Loading from the open file names it in syntax errors.
    try:
        with path.open(encoding="utf-8") as stream:
            raw = yaml.load(stream, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except UnicodeDecodeError as exc:
        raise ScenarioError([f"{path} is not UTF-8 text"]) from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(["bad scenario file: " + " ".join(str(exc).split())]) from exc
    problems: list[str] = []
    if not isinstance(raw, dict):
        raise ScenarioError(["scenario file must be a mapping"])
    _unknown_keys(raw, _TOP_FIELDS, "", problems)

    legend: dict[str, tuple[str, str]] = {}
    for glyph, entry in _section(raw.get("legend"), dict, "legend", problems).items():
        glyph = str(glyph)
        if not _present(entry, "label", "role"):
            problems.append(f"legend {glyph!r}: need label and role")
            continue
        _unknown_keys(entry, _LEGEND_FIELDS, f"legend {glyph!r}: ", problems)
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
    except UnicodeDecodeError as exc:
        raise ScenarioError(problems + [f"map: {map_path} is not UTF-8 text"]) from exc

    # The top-level values are read first, for the appointments' default
    # duration, and reported last, so their problems follow the sections'.
    top_problems: list[str] = []
    top = _read(raw, _TOP_FIELDS, "", top_problems)
    duration = top.get("appointment_duration", DEFAULT_APPOINTMENT_DURATION)

    pwds: list[PwDConfig] = []
    rows = raw.get("pwd")
    if not rows:
        problems.append("no pwd roster")
    for i, row in enumerate(_section(rows, list, "pwd", problems)):
        if not _present(row, "id", "home"):
            problems.append(f"pwd entry {i}: need id and home")
            continue
        _unknown_keys(row, _PWD_FIELDS, f"pwd {row['id']}: ", problems)
        appointments = []
        for j, appt in enumerate(_section(row.get("appointments"), list,
                                          f"pwd {row['id']} appointments", problems)):
            if not _present(appt, "location", "start"):
                problems.append(f"pwd {row['id']}: appointment {j} needs location and start")
                continue
            _unknown_keys(appt, _APPOINTMENT_FIELDS,
                          f"pwd {row['id']} appointment {j}: ", problems)
            values = _read(appt, _APPOINTMENT_FIELDS,
                           f"pwd {row['id']} appointment {j} ", problems)
            if "start" in values:  # else _read reported a mistyped start
                appointments.append(Appointment(
                    str(appt["location"]), values["start"],
                    values.get("duration", duration)))
        pwds.append(PwDConfig(
            id=str(row["id"]), home=str(row["home"]), schedule=appointments,
            **_read(row, _PWD_FIELDS, f"pwd {row['id']} ", problems)))

    nurses: list[NurseConfig] = []
    rows = raw.get("nurses")
    if not rows:
        problems.append("no nurse roster")
    for i, row in enumerate(_section(rows, list, "nurses", problems)):
        if not _present(row, "id", "base"):
            problems.append(f"nurse entry {i}: need id and base")
            continue
        _unknown_keys(row, _NURSE_FIELDS, f"nurse {row['id']}: ", problems)
        nurses.append(NurseConfig(
            id=str(row["id"]), base=str(row["base"]),
            **_read(row, _NURSE_FIELDS, f"nurse {row['id']} ", problems)))

    watch_raw = _section(raw.get("watch"), dict, "watch", problems)
    _unknown_keys(watch_raw, _WATCH_FIELDS, "watch: ", problems)
    watch = WatchConfig(**_read(watch_raw, _WATCH_FIELDS, "watch ", problems))

    problems.extend(top_problems)
    template = ScenarioTemplate(grid=grid, pwds=pwds, nurses=nurses,
                                watch=watch, **top)

    # The signs first, reported together, as the room below needs them.
    # Scenario.validate checks the horizon again for scenarios built in code.
    if template.horizon <= 0:
        problems.append("horizon must be positive")
    if template.appointments_per_pwd < 0:
        problems.append("appointments_per_pwd must be >= 0")
    if template.appointment_duration < 0:
        problems.append("appointment_duration must be >= 0")

    # A drawn schedule needs distinct sites, and a duration that fits every draw.
    count, horizon = template.appointments_per_pwd, template.horizon
    if not problems and count and not all(cfg.schedule for cfg in pwds):
        sites = len(grid.labels_with_role(ROLE_APPOINTMENT_SITE))
        if sites < count:
            problems.append(f"map offers {sites} appointment sites, need {count}")
        spacing, jitter = _spread(horizon, count)
        room = horizon - count * spacing - jitter  # the last start at its latest
        if count >= 2:  # two neighbours jittered toward each other
            room = min(room, spacing - 2 * jitter)
        if template.appointment_duration > room:
            problems.append(f"appointment_duration must be <= {room} for "
                            f"{count} drawn appointments in horizon {horizon}")

    # The checks above make every drawn schedule valid, so only the
    # explicit ones and the rest of the template are left to check.
    if not problems:
        problems.extend(template.validate())
    if problems:
        raise ScenarioError(problems)
    return template
