"""Output checks.  Each returns a list of problems; empty means correct.

The benchmark counts an operation as failed when any check on its
outputs reports a problem, so ``error_rate`` covers wrong output as
well as crashes and non-zero exits.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ecqsim import EventLog, build_report

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def check_digests(outputs: dict[str, bytes], pinned: dict[str, str] | None,
                  what: str) -> list[str]:
    """Every output must hash to its pinned sha256."""
    if not pinned:
        return [f"{what}: no pinned digests"]
    problems = []
    for name, expected in sorted(pinned.items()):
        data = outputs.get(name)
        if data is None:
            problems.append(f"{what}: missing output {name}")
        elif sha256(data) != expected:
            problems.append(f"{what}: {name} sha256 {sha256(data)[:12]} "
                            f"differs from pinned {expected[:12]}")
    return problems


def check_same_bytes(a: dict[str, bytes], b: dict[str, bytes],
                     what: str) -> list[str]:
    """Two runs that must agree byte for byte (e.g. --jobs N and --jobs 1)."""
    return [f"{what}: {name} differs" for name in sorted(set(a) | set(b))
            if a.get(name) != b.get(name)]


def check_run_outputs(log_bytes: bytes, report_bytes: bytes,
                      stdout: str) -> list[str]:
    """Invariants of one ``ecqsim run --out LOG --report REPORT``.

    The printed report equals the written one; parsing the written log
    rebuilds the same report; every agent's tallies sum to the horizon.
    """
    problems = []
    report_text = report_bytes.decode("utf-8", errors="replace")
    if stdout != report_text:
        problems.append("run: printed report differs from --report file")
    try:
        log = EventLog.from_text(log_bytes.decode("utf-8"))
        if build_report(log).to_text(seed=log.seed) != report_text:
            problems.append("run: report rebuilt from the log differs")
        for pwd_id in log.pwd_ids:
            if sum(log.pwd_mode_counts(pwd_id)) != log.horizon:
                problems.append(f"run: tallies of {pwd_id} do not sum to the horizon")
        for nurse_id in log.nurse_ids:
            if sum(log.nurse_state_counts(nurse_id)) != log.horizon:
                problems.append(f"run: tallies of {nurse_id} do not sum to the horizon")
    except (ValueError, IndexError, KeyError, UnicodeDecodeError) as exc:
        problems.append(f"run: log does not parse: {exc}")
    return problems
