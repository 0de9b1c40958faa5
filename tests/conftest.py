from __future__ import annotations

from collections import deque
from importlib import resources

import pytest

from ecqsim.engine import derive_stream
from ecqsim.agents import PwDAgent, PwDStreams, SmartWatch
from ecqsim.events import (
    DETECTION, GUIDANCE_END, GUIDANCE_START, INTERVENTION_FAIL, NURSE_CALLED,
    RESPONSE_START,
)
from ecqsim.grid import parse_map
from ecqsim.scenario import load_scenario

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
    streams = PwDStreams(
        disorient=derive_stream(seed, pwd_id, "disorient"),
        noise=derive_stream(seed, pwd_id, "noise"),
        false_goal=derive_stream(seed, pwd_id, "false_goal"),
        forget=derive_stream(seed, pwd_id, "forget"),
    )
    return PwDAgent(
        id=pwd_id, home=home, schedule=list(schedule), p_d=p_d, p_i=p_i,
        p_noise=p_noise, p_forget=p_forget, position=grid.only_cell(home),
        streams=streams, site_labels=tuple(grid.labels_with_role("appointment_site")),
        watch=watch,
    )


def make_watch(owner_id="P1", *, seed=1, enabled=True, p_detect=1.0, n_help=1,
               interval=1) -> SmartWatch:
    return SmartWatch(
        enabled=enabled, p_detect=p_detect, n_help=n_help,
        intervention_interval=interval,
        detect_rng=derive_stream(seed, owner_id, "detect"),
        intervene_rng=derive_stream(seed, owner_id, "intervene"),
    )
