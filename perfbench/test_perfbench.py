"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import bench  # noqa: E402
import checks  # noqa: E402
import facility  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from ecqsim.cli import main as ecqsim_main  # noqa: E402


def make(workload_cls, variant, tmp_path):
    workload = workload_cls(variant, checks.load_golden(), bench.SweepProbe(None))
    workload.setup(tmp_path)
    return workload


def test_generator_is_deterministic(tmp_path):
    assert facility.facility_text(5) == facility.facility_text(5)
    assert facility.facility_text(5) != facility.facility_text(6)
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    facility.write_facility(9, a)
    facility.write_facility(9, b)
    for name in (facility.MAP_NAME, facility.SCENARIO_NAME):
        assert (a / name).read_bytes() == (b / name).read_bytes()


@pytest.mark.parametrize("seed", [0, 7, 15, 123456])
def test_generated_facility_validates(tmp_path, seed, capsys):
    scenario = facility.write_facility(seed, tmp_path)
    assert ecqsim_main(["validate", str(scenario)]) == 0
    out = capsys.readouterr().out
    assert f"map {facility.WIDTH}x{facility.HEIGHT}" in out
    assert f"pwds {facility.ROOMS}, nurses {facility.NURSES}" in out


def test_facility_run_passes_checks(tmp_path):
    workload = make(bench.FacilityRun, 2, tmp_path)
    result = workload.op(3)
    assert result.problems == []
    assert result.runs == 1 and result.latencies == [result.wall]


def test_corrupted_output_byte_is_a_failure(tmp_path):
    workload = make(bench.FacilityRun, 2, tmp_path)

    def corrupting_main(argv):
        code = ecqsim_main(argv)
        log = Path(argv[argv.index("--out") + 1])
        data = bytearray(log.read_bytes())
        data[len(data) // 2] ^= 0x01
        log.write_bytes(bytes(data))
        return code

    result = bench.run_op(workload, 3, corrupting_main)
    assert result.problems, "a flipped byte in the log passed the checks"


def test_sweep_output_checks(tmp_path):
    workload = make(bench.DemoSweep, 1, tmp_path)
    outputs = {"rows": b"config_id\n", "aggregate": b"p_d\n"}
    assert checks.check_digests(outputs, workload.golden, "demo")
    assert checks.check_digests(outputs, None, "demo") == ["demo: no pinned digests"]
    other = {"rows": outputs["rows"], "aggregate": b"p_d,\n"}
    assert checks.check_same_bytes(outputs, other, "jobs") == ["jobs: aggregate differs"]
    assert checks.check_same_bytes(outputs, dict(outputs), "jobs") == []


def test_pooled_sweep_must_match_jobs_1(tmp_path):
    workload = make(bench.DemoSweep, 1, tmp_path)
    assert workload.op(0).problems == []
    assert [r.problems for r in workload.finish()] == [[]]
    workload.reference = {**workload.reference, "rows": b"config_id\n"}
    assert workload.finish()[0].problems


def test_report_rebuild_catches_changed_tallies(tmp_path):
    workload = make(bench.FacilityRun, 4, tmp_path)
    assert workload.op(0).problems == []
    log = workload.outputs["log"].decode()
    tally = next(line for line in log.splitlines() if line.startswith("tally P01 "))
    broken = log.replace(tally, tally.replace("idle=", "idle=1"), 1).encode()
    report = workload.outputs["report"]
    assert checks.check_run_outputs(broken, report, report.decode())


def test_high_percentile_keeps_ten_samples_above():
    value, pct = bench.high_percentile(list(range(200)))
    assert value == 179 and pct == 90.0
    value, pct = bench.high_percentile(list(range(40)))
    assert value == 29 and pct == 75.0
    assert bench.high_percentile([3, 1, 2]) == (3, 100.0)


def test_block_median_averages_block_medians():
    results = [bench.OpResult(1.0, 1, [x], []) for x in (1, 2, 3, 10, 20, 30, 99)]
    assert bench.block_median(results, 3) == (2 + 20) / 2
    sweeps = [bench.OpResult(1.0, 3, [5, 1, 9], []), bench.OpResult(1.0, 1, [7], [])]
    assert bench.block_median(sweeps, 8) == 6


def test_trace_round_accounts_for_wall_time(tmp_path):
    workload = make(bench.FacilityRun, 0, tmp_path)
    tracer = spans.Tracer()
    with tracer.installed():
        result = bench.run_op(workload, 0, tracer.root("cli.main", ecqsim_main))
    assert result.problems == []
    values = tracer.metrics()
    assert sum(tracer.layer_self_times().values()) == pytest.approx(
        tracer.total["cli.main"])
    assert values["agents.phase_a_calls"] == values["engine.live_ticks"] * facility.ROOMS
    assert 0 < values["engine.skip_ratio"] < 1
    assert values["grid.query_calls"] > values["grid.cell_targets"] > 0
    assert values["events.log_bytes"] == len(workload.outputs["log"])
    # The wrappers are gone once the block ends.
    assert spans.ecqsim.engine.pwd_begin_tick is spans.ecqsim.agents.pwd_begin_tick
    assert spans.GridMap.distance.__name__ == "distance"


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert run.WORKLOAD_NAMES == tuple(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER


def test_golden_pins_every_variant():
    golden = checks.load_golden()
    for name in bench.WORKLOADS:
        assert sorted(golden[name], key=int) == [str(v) for v in range(bench.VARIANTS)]


def test_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "demo_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
