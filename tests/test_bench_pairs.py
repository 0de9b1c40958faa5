"""``tools/bench_pairs.py``: the summary of its pairs and its argument check."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def record(failed=0, **values):
    return {"metrics": {name: {"value": v} for name, v in values.items()},
            "failed": failed, "attempted": 4}


def test_summary_counts_pairs_the_change_wins_in_the_better_direction():
    better = bench_pairs.directions(ROOT)
    assert (better["setup_s"], better["sweep_runs_per_s"]) == ("lower", "higher")
    runs = {
        "parent": [record(setup_s=1.0, sweep_runs_per_s=10.0, unlisted=1.0),
                   record(setup_s=2.0, sweep_runs_per_s=20.0, unlisted=1.0),
                   record(setup_s=3.0, sweep_runs_per_s=30.0, unlisted=1.0)],
        # Pair by pair: lower setup and tied rate; tied setup and higher
        # rate; both worse.
        "change": [record(setup_s=0.5, sweep_runs_per_s=10.0, unlisted=2.0),
                   record(setup_s=2.0, sweep_runs_per_s=25.0, unlisted=2.0),
                   record(failed=1, setup_s=4.0, sweep_runs_per_s=5.0, unlisted=2.0)],
    }
    summary = bench_pairs.summarise(runs, better, bench_pairs.bounds(ROOT))
    assert summary["setup_s"]["change_wins"] == 1
    assert summary["sweep_runs_per_s"]["change_wins"] == 1
    assert summary["setup_s"]["parent_median"] == 2.0
    assert summary["setup_s"]["change_median"] == 2.0
    assert summary["sweep_runs_per_s"]["parent_q1_q3"] == [15.0, 25.0]
    assert summary["setup_s"]["pairs"] == 3
    assert "unlisted" not in summary  # not in BENCHMARK.json
    assert summary["failed_of_attempted"] == {"parent": [0, 12], "change": [1, 12]}


def test_summary_states_the_iqr_rule_and_the_bound():
    better, bound = bench_pairs.directions(ROOT), bench_pairs.bounds(ROOT)
    assert bound["sweep_runs_per_s"] == 0.25 and "grid.query_calls" not in bound
    rates = [80.0, 82.0, 84.0, 86.0, 88.0]  # quartiles 82 and 86
    runs = {
        "parent": [record(sweep_runs_per_s=r, run_ms_p50=10.0, setup_s=1.0,
                          **{"grid.query_calls": 100.0}) for r in rates],
        # Rate: median 89, a gap of 5 against an IQR of 4.  run_ms_p50:
        # 25% slower, at its bound; setup_s: 26% slower, past it.
        "change": [record(sweep_runs_per_s=r + 5, run_ms_p50=12.5, setup_s=1.26,
                          **{"grid.query_calls": 200.0}) for r in rates],
    }
    summary = bench_pairs.summarise(runs, better, bound)
    rate = summary["sweep_runs_per_s"]
    assert rate["parent_iqr"] == 4.0
    assert rate["gap_exceeds_parent_iqr"] is True
    assert rate["worse_beyond_bound"] is False
    assert summary["run_ms_p50"]["gap_exceeds_parent_iqr"] is True  # IQR 0
    assert summary["run_ms_p50"]["worse_beyond_bound"] is False
    assert summary["setup_s"]["worse_beyond_bound"] is True
    assert summary["grid.query_calls"]["worse_beyond_bound"] is None
    # A gap of 3 against an IQR of 4 does not resolve.
    runs["change"] = [record(sweep_runs_per_s=r + 3, run_ms_p50=10.0, setup_s=1.0,
                             **{"grid.query_calls": 100.0}) for r in rates]
    rate = bench_pairs.summarise(runs, better, bound)["sweep_runs_per_s"]
    assert rate["gap_exceeds_parent_iqr"] is False and rate["change_wins"] == 5


def test_fewer_than_one_pair_is_an_error(tmp_path, capsys):
    out = tmp_path / "pairs.json"
    code = bench_pairs.main([
        "--parent", str(ROOT), "--change", str(ROOT), "--workload", "demo_sweep",
        "--seed", "1", "--pairs", "0", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --pairs must be at least 1")
    assert not out.exists()
