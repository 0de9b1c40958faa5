"""Deterministic generator for the benchmark's large facility.

The facility is a single corridor, 121x11 cells: twenty one-cell
resident rooms along the top wall, twelve appointment rooms and, in
the middle of the bottom wall, one nurses' common room.  The seed moves
doors, the home cell inside each room and the widths and order of the
appointment rooms; the cell count, the rosters and the model parameters
stay fixed, so every seed costs about the same to run.

``write_facility(seed, directory)`` writes ``facility_map.txt`` and
``facility_scenario.yaml``; the same seed always gives the same bytes.
"""

from __future__ import annotations

import random
from pathlib import Path

WIDTH = 121
HEIGHT = 11
ROOMS = 20
SITES = 12
NURSES = 4
P_D = 0.5
HORIZON = 10_000

MAP_NAME = "facility_map.txt"
SCENARIO_NAME = "facility_scenario.yaml"

HOME_GLYPHS = "abcdefghijklmnopqrst"
SITE_GLYPHS = "ABCDEFGHIJKL"
BASE_GLYPH = "N"
SITE_NAMES = ("dining", "clinic", "therapy", "activity", "lounge", "garden",
              "chapel", "library", "salon", "gym", "music", "visit")


def _bottom_widths(rng: random.Random, rooms: int, inner: int) -> list[int]:
    """Split ``inner`` floor cells into ``rooms`` widths of at least 5."""
    widths = [5] * rooms
    for _ in range(inner - 5 * rooms):
        widths[rng.randrange(rooms)] += 1
    return widths


def facility_text(seed: int) -> tuple[str, str]:
    """Return (map text, scenario YAML text) for ``seed``."""
    rng = random.Random(f"ecqsim-facility-{seed}")
    rows = [["#"] * WIDTH for _ in range(HEIGHT)]
    for y in (1, 2, 4, 5, 6, 8, 9):
        for x in range(1, WIDTH - 1):
            rows[y][x] = "."
    # Top: twenty rooms of five cells, walls every sixth column.
    for i in range(ROOMS):
        x0 = 1 + 6 * i
        rows[rng.randrange(1, 3)][x0 + rng.randrange(5)] = HOME_GLYPHS[i]
        rows[3][x0 + rng.randrange(5)] = "."
        if i:
            rows[1][x0 - 1] = rows[2][x0 - 1] = "#"
    # Bottom: twelve sites in a seeded order, the common room in the middle.
    slots = list(SITE_GLYPHS)
    rng.shuffle(slots)
    slots.insert(len(slots) // 2, BASE_GLYPH)
    widths = _bottom_widths(rng, len(slots), WIDTH - 2 - (len(slots) - 1))
    x0 = 1
    for glyph, width in zip(slots, widths):
        if x0 > 1:
            rows[8][x0 - 1] = rows[9][x0 - 1] = "#"
        rows[7][x0 + rng.randrange(width)] = "."
        span = NURSES if glyph == BASE_GLYPH else 3
        start = x0 + rng.randrange(width - span + 1)
        for x in range(start, start + span):
            rows[8][x] = glyph
        x0 += width + 1

    map_text = (f"; Generated facility, seed {seed}: {ROOMS} resident rooms, "
                f"{SITES} appointment sites, one nurses' room.\n"
                + "\n".join("".join(r) for r in rows) + "\n")

    lines = [f"# Generated facility, seed {seed}.", f"map: {MAP_NAME}", "legend:"]
    for i, glyph in enumerate(HOME_GLYPHS):
        lines.append(f'  "{glyph}": {{label: room_{i + 1:02d}, role: pwd_home}}')
    for glyph, name in zip(SITE_GLYPHS, SITE_NAMES):
        lines.append(f'  "{glyph}": {{label: {name}, role: appointment_site}}')
    lines.append(f'  "{BASE_GLYPH}": {{label: common, role: nurse_base}}')
    lines.append("pwd:")
    for i in range(ROOMS):
        lines.append(f"  - {{id: P{i + 1:02d}, home: room_{i + 1:02d}, p_d: {P_D}, "
                     "p_i: 0.2, p_noise: 0.1, p_forget: 0.0}")
    lines.append("nurses:")
    for i in range(NURSES):
        lines.append(f"  - {{id: N{i + 1}, base: common, radius: 5}}")
    lines += ["watch:", "  enabled: true", "  p_detect: 0.5", "  n_help: 1",
              "  intervention_interval: 1", f"horizon: {HORIZON}",
              f"seed: {seed}", "appointments_per_pwd: 6",
              "appointment_duration: 30"]
    return map_text, "\n".join(lines) + "\n"


def write_facility(seed: int, directory: Path) -> Path:
    """Write the facility files into ``directory``; return the scenario path."""
    map_text, scenario_text = facility_text(seed)
    directory = Path(directory)
    (directory / MAP_NAME).write_text(map_text, encoding="utf-8", newline="\n")
    scenario = directory / SCENARIO_NAME
    scenario.write_text(scenario_text, encoding="utf-8", newline="\n")
    return scenario
