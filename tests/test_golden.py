"""Golden digests of the bundled demo's output files.

A refactor must leave every log, report and CSV byte-identical.  Only a
deliberate model change may update these digests, and it says so in
CHANGES.md.
"""

import hashlib

import pytest
import yaml

from ecqsim.cli import main

RUN_DIGESTS = {
    # seed: (sha256 of --out log, sha256 of --report)
    1: ("b9c23f707e6e40de5f68584b36ded55cd4c8814a9befad5516beb458a04538d9",
        "b2761fe696ba1c55a9f463d98b1c4431c4283bcdb8848ce3efe55b70ee401fe9"),
    7: ("d2ee5cad019ab3a7526c2ed5c8082c60df6fdb3e8cc17281244ffcbc5a045c60",
        "686359519f1443755a87ca5c5cf578efece5488c805b812e94d3b0aa246fdbe1"),
}
SWEEP_ROWS_DIGEST = \
    "a8a0b4a1b8404ecd5c56d13b8c23b627e386f2ba55271c30db125334b98272eb"
SWEEP_AGGREGATE_DIGEST = \
    "00273041a20efd9b4fdaa655b2a991aed93ecfb3fa885d965d34cef921317ab9"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture
def demo(tmp_path):
    assert main(["demo", str(tmp_path)]) == 0
    return tmp_path / "demo_scenario.yaml"


@pytest.mark.parametrize("seed", sorted(RUN_DIGESTS))
def test_run_log_and_report_digests(demo, tmp_path, seed):
    log, report = tmp_path / "run.log", tmp_path / "run.report"
    assert main(["run", str(demo), "--seed", str(seed),
                 "--out", str(log), "--report", str(report)]) == 0
    assert (sha256(log), sha256(report)) == RUN_DIGESTS[seed]


def test_paper_grid_sweep_digests(demo, tmp_path):
    raw = yaml.safe_load(demo.read_text())
    raw["horizon"] = 2000
    demo.write_text(yaml.safe_dump(raw))
    rows, aggregate = tmp_path / "rows.csv", tmp_path / "aggregate.csv"
    assert main(["sweep", str(demo), "--paper-grid", "--reps", "1",
                 "--jobs", "1", "--out", str(rows),
                 "--aggregate", str(aggregate)]) == 0
    assert sha256(rows) == SWEEP_ROWS_DIGEST
    assert sha256(aggregate) == SWEEP_AGGREGATE_DIGEST
