from dataclasses import replace

import pytest
import yaml

from conftest import demo_scenario_path

from ecqsim.agents import Appointment
from ecqsim.cli import main
from ecqsim.events import TRIP_START, EventLog
from ecqsim.scenario import build_run, load_scenario


def write_demo(tmp_path, pwd_overrides=None, **top_overrides):
    """Copy the bundled demo into tmp_path and tweak it."""
    assert main(["demo", str(tmp_path)]) == 0
    path = tmp_path / "demo_scenario.yaml"
    raw = yaml.safe_load(path.read_text())
    raw.update(top_overrides)
    for row in raw["pwd"]:
        row.update(pwd_overrides or {})
    path.write_text(yaml.safe_dump(raw))
    return path


def small_demo(tmp_path, **pwd_overrides):
    return write_demo(tmp_path, pwd_overrides=pwd_overrides, horizon=1200,
                      appointments_per_pwd=2, appointment_duration=10)


def test_validate_demo_ok(capsys):
    assert main(["validate", demo_scenario_path()]) == 0
    out = capsys.readouterr().out
    assert out.startswith("OK ")
    assert "map 63x11" in out
    assert "nurse_base: common" in out
    assert "pwds 5, nurses 3" in out


def test_validate_unknown_label(tmp_path, capsys):
    path = write_demo(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["nurses"][0]["base"] = "Z"
    path.write_text(yaml.safe_dump(raw))
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'Z'" in err


def test_validate_disconnected_map(tmp_path, capsys):
    (tmp_path / "bad_map.txt").write_text("#####\n#h#s#\n#####\n")
    (tmp_path / "bad.yaml").write_text(yaml.safe_dump({
        "map": "bad_map.txt",
        "legend": {"h": {"label": "home", "role": "pwd_home"},
                   "s": {"label": "site", "role": "appointment_site"}},
        "pwd": [{"id": "P1", "home": "home"}],
        "nurses": [{"id": "N1", "base": "home"}],
        "horizon": 100, "seed": 1}))
    assert main(["validate", str(tmp_path / "bad.yaml")]) == 2
    assert "unreachable" in capsys.readouterr().err


@pytest.mark.parametrize("keys, value", [
    (("legend",), ["1", "2"]),
    (("legend",), "rooms"),
    (("watch",), [0.5]),
    (("watch",), "on"),
    (("pwd",), 5),
    (("nurses",), 5),
    (("pwd", 0, "appointments"), 5),
], ids=["legend-list", "legend-str", "watch-list", "watch-str", "pwd-int",
        "nurses-int", "appointments-int"])
def test_validate_mistyped_section(tmp_path, capsys, keys, value):
    path = write_demo(tmp_path)
    raw = yaml.safe_load(path.read_text())
    *parents, last = keys
    node = raw
    for key in parents:
        node = node[key]
    node[last] = value
    path.write_text(yaml.safe_dump(raw))
    assert main(["validate", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines and all(line.startswith("error:") for line in lines)


def test_validate_reports_watch_problem_once(tmp_path, capsys):
    path = write_demo(tmp_path, watch={"p_detect": 2})
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: watch p_detect outside [0, 1]"]


@pytest.mark.parametrize("value", ["no", 1, [True]], ids=["string", "integer", "list"])
def test_validate_non_boolean_watch_enabled(tmp_path, capsys, value):
    path = write_demo(tmp_path, watch={"enabled": value})
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: watch enabled must be true or false, got {value!r}"]


@pytest.mark.parametrize("overrides, line", [
    ({"appointments_per_pwd": -1}, "error: appointments_per_pwd must be >= 0"),
    ({"horizon": -5}, "error: horizon must be positive"),
    ({"appointment_duration": -5}, "error: appointment_duration must be >= 0"),
], ids=["appointments-per-pwd", "horizon", "appointment-duration"])
def test_validate_negative_schedule_value(tmp_path, capsys, overrides, line):
    path = write_demo(tmp_path, **overrides)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [line]


def test_validate_rejects_duration_some_seed_cannot_fit(tmp_path, capsys):
    # 6 drawn appointments in 10000 ticks start 1428 apart, each moved by
    # up to 142, so two neighbours can come within 1144 of each other.
    path = write_demo(tmp_path, appointment_duration=1250, seed=20260811)
    line = ("error: appointment_duration must be <= 1144 "
            "for 6 drawn appointments in horizon 10000")
    for args in (["validate", str(path)], ["run", str(path), "--seed", "3"]):
        assert main(args) == 2
        assert capsys.readouterr().err.splitlines() == [line]


def test_validate_nan_radius(tmp_path, capsys):
    path = write_demo(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["nurses"][0]["radius"] = float("nan")
    path.write_text(yaml.safe_dump(raw))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: N1: radius must be >= 0"]


def test_validate_lists_every_problem_in_file_order(tmp_path, capsys):
    path = write_demo(tmp_path, extra=1, horizon="long", seed=1.5)
    raw = yaml.safe_load(path.read_text())
    raw["pwd"][0].update(colour="red", p_d="high", appointments=[
        {"location": "dining", "start": "soon", "duration": 1.5}])
    raw["pwd"][1]["p_i"] = True
    raw["nurses"][0]["shift"] = "night"
    raw["nurses"][1]["radius"] = "far"
    raw["watch"].update(beep=True, enabled="yes", n_help=1.5)
    path.write_text(yaml.safe_dump(raw))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: unknown key 'extra'",
        "error: pwd P1: unknown key 'colour'",
        "error: pwd P1 appointment 0 start must be an integer, got 'soon'",
        "error: pwd P1 appointment 0 duration must be an integer, got 1.5",
        "error: pwd P1 p_d must be a number, got 'high'",
        "error: pwd P2 p_i must be a number, got True",
        "error: nurse N1: unknown key 'shift'",
        "error: nurse N2 radius must be a number, got 'far'",
        "error: watch: unknown key 'beep'",
        "error: watch enabled must be true or false, got 'yes'",
        "error: watch n_help must be an integer, got 1.5",
        "error: horizon must be an integer, got 'long'",
        "error: seed must be an integer, got 1.5",
    ]


def _without(key):
    return lambda raw: {k: v for k, v in raw.items() if k != key}


@pytest.mark.parametrize("edit, lines", [
    (lambda raw: ["map", "legend"], ["scenario file must be a mapping"]),
    (lambda raw: raw["legend"].update(Z={"label": "zed"}),
     ["legend 'Z': need label and role"]),
    (lambda raw: raw["legend"].update(Z={"label": "zed", "role": "kitchen"}),
     ["legend 'Z': unknown role 'kitchen'"]),
    (lambda raw: raw["legend"]["C"].update(colour="red"),
     ["legend 'C': unknown key 'colour'"]),
    (_without("map"), ["no map file given"]),
    (_without("pwd"), ["no pwd roster"]),
    (lambda raw: raw["pwd"].append({"id": "P6"}), ["pwd entry 5: need id and home"]),
    (lambda raw: raw["pwd"][0].update(appointments=[{"location": "dining"}]),
     ["pwd P1: appointment 0 needs location and start"]),
    (lambda raw: raw["pwd"][0].update(appointments=[
        {"location": "dining", "start": 100, "durration": 5}]),
     ["pwd P1 appointment 0: unknown key 'durration'"]),
    (_without("nurses"), ["no nurse roster"]),
    (lambda raw: raw["nurses"].append({"base": "common"}),
     ["nurse entry 3: need id and base"]),
    (lambda raw: raw.update(appointments_per_pwd=9),
     ["map offers 8 appointment sites, need 9"]),
    (lambda raw: raw["legend"].update(Z={"label": None, "role": "appointment_site"}),
     ["legend 'Z': need label and role"]),
    (lambda raw: raw["pwd"][0].update(id=None), ["pwd entry 0: need id and home"]),
    (lambda raw: raw["pwd"][0].update(appointments=[
        {"location": "dining", "start": None}]),
     ["pwd P1: appointment 0 needs location and start"]),
    (lambda raw: raw["nurses"][0].update(base=None), ["nurse entry 0: need id and base"]),
], ids=["not-a-mapping", "legend-no-role", "legend-unknown-role",
        "legend-unknown-key", "no-map", "no-pwd-roster", "pwd-no-home",
        "appointment-no-start", "appointment-unknown-key", "no-nurse-roster",
        "nurse-no-id", "too-few-sites", "legend-null-label", "pwd-null-id",
        "appointment-null-start", "nurse-null-base"])
def test_validate_reports_structural_problem(tmp_path, capsys, edit, lines):
    """``edit`` changes the demo's document in place or returns a new one."""
    path = write_demo(tmp_path)
    raw = yaml.safe_load(path.read_text())
    doc = edit(raw)
    path.write_text(yaml.safe_dump(raw if doc is None else doc))
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}" for line in lines]


def test_explicit_appointments_are_kept_and_run(tmp_path):
    path = write_demo(tmp_path)
    raw = yaml.safe_load(path.read_text())
    raw["pwd"][0]["appointments"] = [
        {"location": "clinic", "start": 120, "duration": 45},
        {"location": "garden", "start": 2000}]
    path.write_text(yaml.safe_dump(raw))
    p1 = load_scenario(path).pwds[0]
    assert p1.schedule == [Appointment("clinic", 120, 45),
                           Appointment("garden", 2000, 30)]
    log_path = tmp_path / "run.log"
    assert main(["run", str(path), "--out", str(log_path)]) == 0
    log = EventLog.from_text(log_path.read_text())
    first = next(e for e in log.events if e.kind == TRIP_START and e.subject == "P1")
    assert (first.tick, first.payload["goal"]) == (120, "clinic")


def test_explicit_appointment_takes_the_file_duration(tmp_path):
    path = write_demo(tmp_path, appointment_duration=10)
    raw = yaml.safe_load(path.read_text())
    raw["pwd"][0]["appointments"] = [{"location": "clinic", "start": 100}]
    path.write_text(yaml.safe_dump(raw))
    template = load_scenario(path)
    assert template.pwds[0].schedule == [Appointment("clinic", 100, 10)]
    drawn = build_run(template, schedule_seed=0, replication=0,
                      run_seed=0).pwds[1].schedule
    assert drawn and {a.duration for a in drawn} == {10}


@pytest.mark.parametrize("command", ["validate", "run", "sweep"])
@pytest.mark.parametrize("damaged", ["scenario", "map"])
def test_non_utf8_file_is_one_error_line(tmp_path, capsys, damaged, command):
    path = write_demo(tmp_path)
    target = path if damaged == "scenario" else tmp_path / "demo_map.txt"
    target.write_bytes(b"; caf\xe9\n" + target.read_bytes())  # Latin-1, not UTF-8
    capsys.readouterr()
    extra = {"validate": [], "run": [],
             "sweep": ["--grid", "p_d=0", "--reps", "1", "--jobs", "1",
                       "--out", str(tmp_path / "rows.csv"),
                       "--aggregate", str(tmp_path / "agg.csv")]}[command]
    assert main([command, str(path)] + extra) == 2
    name = path if damaged == "scenario" else f"map: {target.resolve()}"
    assert capsys.readouterr().err.splitlines() == [f"error: {name} is not UTF-8 text"]


def test_missing_file_is_io_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.yaml")]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_run_writes_stable_log_and_report(tmp_path, capsys):
    path = small_demo(tmp_path)
    log1 = tmp_path / "a.log"
    rep1 = tmp_path / "a.report"
    assert main(["run", str(path), "--out", str(log1),
                 "--report", str(rep1)]) == 0
    out = capsys.readouterr().out
    assert "autonomy P1" in out and "efficiency N1" in out
    log2 = tmp_path / "b.log"
    assert main(["run", str(path), "--out", str(log2)]) == 0
    assert log1.read_bytes() == log2.read_bytes()
    assert rep1.read_text().splitlines()[1] == "seed 20260809"


def test_run_output_into_missing_directory_is_io_error(tmp_path, capsys):
    path = small_demo(tmp_path)
    capsys.readouterr()
    for flag in ("--out", "--report"):
        assert main(["run", str(path), flag, str(tmp_path / "nodir" / "x")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


def test_run_without_disorientation_prints_100(tmp_path, capsys):
    path = small_demo(tmp_path, p_d=0.0)
    assert main(["run", str(path)]) == 0
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("autonomy "):
            assert line.endswith("100.00")


def test_seed_precedence(tmp_path, capsys, monkeypatch):
    path = small_demo(tmp_path)

    def seed_line(args):
        assert main(args) == 0
        return next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("seed "))

    monkeypatch.delenv("ECQ_SEED", raising=False)
    assert seed_line(["run", str(path)]) == "seed 20260809"
    monkeypatch.setenv("ECQ_SEED", "777")
    assert seed_line(["run", str(path)]) == "seed 777"
    assert seed_line(["run", str(path), "--seed", "888"]) == "seed 888"
    monkeypatch.setenv("ECQ_SEED", "oops")
    assert main(["run", str(path)]) == 2


def test_sweep_singleton_grid(tmp_path):
    path = small_demo(tmp_path)
    out = tmp_path / "rows.csv"
    agg = tmp_path / "agg.csv"
    args = ["sweep", str(path), "--grid", "p_d=0;strategy=nowatch",
            "--reps", "1", "--out", str(out), "--aggregate", str(agg),
            "--jobs", "1"]
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 13  # header + 5 autonomy + 5 TE + 3 efficiency
    first = out.read_bytes()
    assert main(args) == 0
    assert out.read_bytes() == first
    assert agg.read_text().startswith("p_d,p_detect,strategy,agent,metric,")


@pytest.mark.parametrize("grid", ["p_d=-0;strategy=nowatch",
                                  "p_d=0;p_detect=-0;strategy=nowatch",
                                  "strategy=nowatch"],
                         ids=["grid-p_d", "grid-p_detect", "roster-p_d"])
def test_sweep_negative_zero_level_is_zero(tmp_path, grid):
    """A level of -0, from --grid or the roster, sweeps as 0, byte for byte."""
    outputs = []
    for zero in ("-0", "0"):
        path = small_demo(tmp_path, p_d=float(zero))
        out, agg = tmp_path / f"rows{zero}.csv", tmp_path / f"agg{zero}.csv"
        assert main(["sweep", str(path), "--grid", grid.replace("-0", zero),
                     "--reps", "1", "--jobs", "1",
                     "--out", str(out), "--aggregate", str(agg)]) == 0
        outputs.append((out.read_bytes(), agg.read_bytes()))
    assert outputs[0] == outputs[1]


def test_sweep_paper_grid_accounting(tmp_path):
    path = write_demo(tmp_path, horizon=800, appointments_per_pwd=2,
                      appointment_duration=5)
    out = tmp_path / "rows.csv"
    assert main(["sweep", str(path), "--paper-grid", "--reps", "1",
                 "--out", str(out), "--aggregate", str(tmp_path / "agg.csv"),
                 "--jobs", "1"]) == 0
    rows = out.read_text().splitlines()[1:]
    # 70 configurations; every run yields 5 autonomy + 3 efficiency rows,
    # plus up to 5 TE rows (absent when a resident completed no trip).
    by_metric = {}
    for row in rows:
        by_metric.setdefault(row.split(",")[7], []).append(row)
    assert len(by_metric["autonomy"]) == 70 * 5
    assert len(by_metric["efficiency"]) == 70 * 3
    assert 0 < len(by_metric["travel_efficiency"]) <= 70 * 5
    assert len({r.split(",")[0] for r in rows}) == 70


def test_sweep_output_into_missing_directory_is_io_error(tmp_path, capsys):
    path = small_demo(tmp_path)
    capsys.readouterr()
    missing = str(tmp_path / "nodir" / "x.csv")
    for outputs in (["--out", missing], ["--aggregate", missing]):
        assert main(["sweep", str(path), "--grid", "p_d=0;strategy=nowatch",
                     "--reps", "1", "--jobs", "1",
                     "--out", str(tmp_path / "rows.csv"),
                     "--aggregate", str(tmp_path / "agg.csv")] + outputs) == 3
        assert capsys.readouterr().err.splitlines()[-1].startswith("error:")


def test_sweep_failed_write_leaves_no_output(tmp_path, capsys):
    path = small_demo(tmp_path)
    rows = tmp_path / "rows.csv"
    agg = tmp_path / "nodir" / "agg.csv"
    assert main(["sweep", str(path), "--grid", "p_d=0;strategy=nowatch",
                 "--reps", "1", "--jobs", "1", "--out", str(rows),
                 "--aggregate", str(agg)]) == 3
    assert capsys.readouterr().err.splitlines()[-1] == \
        f"error: cannot write {agg}: No such file or directory"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "demo_map.txt", "demo_scenario.yaml"]


def test_run_failed_write_keeps_previous_log(tmp_path, capsys):
    path = small_demo(tmp_path)
    log = tmp_path / "run.log"
    log.write_text("previous\n")
    report = tmp_path / "nodir" / "report"
    capsys.readouterr()
    assert main(["run", str(path), "--out", str(log), "--report", str(report)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: cannot write {report}: No such file or directory"]
    assert log.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "demo_map.txt", "demo_scenario.yaml", "run.log"]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_output_named_twice_gets_the_later_text(tmp_path, command):
    path = small_demo(tmp_path)
    both = str(tmp_path / "both.txt")
    if command == "run":
        args = ["run", str(path), "--out", both, "--report", both]
        first = "ecqsim-report v1\n"
    else:
        args = ["sweep", str(path), "--grid", "p_d=0;strategy=nowatch", "--reps",
                "1", "--jobs", "1", "--out", both, "--aggregate", both]
        first = "p_d,p_detect,strategy,agent,metric,"
    assert main(args) == 0
    assert (tmp_path / "both.txt").read_text().startswith(first)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "both.txt", "demo_map.txt", "demo_scenario.yaml"]


def test_sweep_requires_grid_choice(tmp_path, capsys):
    path = small_demo(tmp_path)
    assert main(["sweep", str(path)]) == 2
    assert "paper-grid" in capsys.readouterr().err


@pytest.mark.parametrize("grid, line", [
    ("p_d=1.5", "p_d level 1.5 outside [0, 1]"),
    ("p_detect=nan", "p_detect level nan outside [0, 1]"),
    ("p_d=0.5,0.5;p_detect=0.5;strategy=nhelp=1", "repeated p_d level 0.5"),
    ("p_d=0.5;p_detect=0.5,0.50;strategy=nhelp=1", "repeated p_detect level 0.5"),
    ("p_d=0.1234567,0.1234568;strategy=nowatch", "repeated p_d level 0.123457"),
    ("p_d=0.5;p_detect=0.5;strategy=nhelp=1,nhelp=01", "repeated strategy nhelp=1"),
    ("p_d=0.5;p_d=0.25;strategy=nowatch", "repeated grid key 'p_d'"),
    ("strategy=nhelp=\u00b2", "bad strategy token 'nhelp=\u00b2'"),
    ("p_d", "bad grid entry 'p_d'"),
    ("x=1", "unknown grid key 'x'"),
], ids=["p_d-range", "p_detect-nan", "repeated-p_d", "repeated-p_detect",
        "p_d-printed-alike", "repeated-strategy", "repeated-key", "non-ascii-digit",
        "no-values", "unknown-key"])
def test_sweep_rejects_bad_grid_value(tmp_path, capsys, grid, line):
    path = small_demo(tmp_path)
    capsys.readouterr()
    assert main(["sweep", str(path), "--grid", grid, "--reps", "2", "--jobs", "1",
                 "--out", str(tmp_path / "rows.csv"),
                 "--aggregate", str(tmp_path / "agg.csv")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "demo_map.txt", "demo_scenario.yaml"]


@pytest.mark.parametrize("pwd_p_d, args, line", [
    (None, ["--grid", "p_d=0", "--reps", "0"], "replications must be >= 1"),
    ([0.25, 0.5], ["--grid", "strategy=nowatch", "--reps", "1"],
     "residents disagree on p_d; give p_d=... in --grid"),
], ids=["zero-reps", "residents-disagree"])
def test_sweep_rejects_bad_run_count_or_roster(tmp_path, capsys, pwd_p_d, args, line):
    path = small_demo(tmp_path)
    if pwd_p_d:
        raw = yaml.safe_load(path.read_text())
        for row, p_d in zip(raw["pwd"], pwd_p_d):
            row["p_d"] = p_d
        path.write_text(yaml.safe_dump(raw))
    capsys.readouterr()
    assert main(["sweep", str(path), "--jobs", "1", "--out", str(tmp_path / "rows.csv"),
                 "--aggregate", str(tmp_path / "agg.csv")] + args) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "demo_map.txt", "demo_scenario.yaml"]


def test_sweep_rejects_bad_grid_token(tmp_path, capsys):
    path = small_demo(tmp_path)
    assert main(["sweep", str(path), "--grid", "p_d=zz"]) == 2
    assert "'zz'" in capsys.readouterr().err
    assert main(["sweep", str(path), "--grid", "strategy=warp"]) == 2
    assert "'warp'" in capsys.readouterr().err


def test_demo_below_a_regular_file_is_io_error(tmp_path, capsys):
    (tmp_path / "plain").write_text("")
    assert main(["demo", str(tmp_path / "plain" / "demo")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert "Traceback" not in err


def test_output_below_a_regular_file_names_the_output(tmp_path, capsys, monkeypatch):
    # Removing the temporary file fails the same way as writing it did;
    # the error line still names the output, not the temporary file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "plainfile").write_text("")
    assert main(["run", demo_scenario_path(), "--seed", "1", "--out", "plainfile/x"]) == 3
    assert capsys.readouterr().err == "error: cannot write plainfile/x: Not a directory\n"


def test_demo_round_trip(tmp_path, capsys):
    assert main(["demo", str(tmp_path / "fixtures")]) == 0
    assert (tmp_path / "fixtures" / "demo_map.txt").exists()
    assert main(["validate", str(tmp_path / "fixtures" / "demo_scenario.yaml")]) == 0


@pytest.mark.parametrize("text, where", [
    ("map: demo_map.txt\nlegend: {h: 1\n", "line 2, column 9"),
    ("map: demo_map.txt\n\thorizon: 100\n", "line 2, column 1"),
], ids=["unclosed-flow-mapping", "tab-indented-key"])
@pytest.mark.parametrize("libyaml", [True, False], ids=["libyaml", "pure-python"])
def test_malformed_scenario_is_one_error_line(tmp_path, capsys, monkeypatch,
                                              text, where, libyaml):
    if not libyaml:
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    assert main(["validate", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: bad scenario file:")
    assert f'in "{path}", {where}' in lines[0]


def test_pure_python_loader_gives_the_same_template(monkeypatch):
    fast = load_scenario(demo_scenario_path())
    monkeypatch.delattr(yaml, "CSafeLoader")
    slow = load_scenario(demo_scenario_path())
    # GridMap compares by identity; compare what parse_map built from the text.
    for attr in ("width", "height", "cells", "roles", "locations"):
        assert getattr(slow.grid, attr) == getattr(fast.grid, attr)
    assert replace(slow, grid=fast.grid) == fast
