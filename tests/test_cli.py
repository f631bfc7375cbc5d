"""Command line behavior: run artifacts, validation errors, overrides,
bundled scenarios, and the cross-scheme comparison."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import crawsim
from crawsim.cli import main

SMALL = {
    "schema_version": 1,
    "name": "small",
    "seed": 9,
    "scheme": "ckc_craw",
    "group": "g1",
    "horizon": 6.0,
    "content_frames": False,
    "areas": {"A": ["u1", "u2", "u3", "u4"], "B": ["v1", "v2", "v3"]},
    "members": ["w1"],
    "events": [
        {"time": 1.0, "op": "join", "member": "w1", "area": "A"},
        {"time": 2.0, "op": "move", "member": "u1", "from": "A", "to": "B"},
        {"time": 4.0, "op": "leave", "member": "u2", "area": "A"},
    ],
}

ARTIFACTS = ("metrics.csv", "trace.log", "mainlist.json", "report.txt")


@pytest.fixture
def small_path(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL), encoding="utf-8")
    return path


def test_validate_accepts_good_scenario(small_path, capsys):
    assert main(["validate", str(small_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: small ")
    assert "areas=2 members=8 events=3" in out


def test_validate_reports_field_errors(tmp_path, capsys):
    bad = dict(SMALL, scheme="rot13")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "scheme" in capsys.readouterr().err
    for version in (True, 1.0):  # both compare equal to 1
        path.write_text(json.dumps(dict(SMALL, schema_version=version)), encoding="utf-8")
        assert main(["validate", str(path)]) == 2
        assert f"schema_version: expected 1, got {version!r}" in capsys.readouterr().err
    path.write_text("{not json", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.json")]) == 2
    assert "neither a scenario file nor a bundled scenario" in capsys.readouterr().err


def test_run_writes_reproducible_artifacts(small_path, tmp_path, capsys):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(small_path), "--out", str(out1)]) == 0
    assert main(["run", str(small_path), "--out", str(out2)]) == 0
    summary = capsys.readouterr().out
    assert "small: scheme=ckc_craw events=4" in summary
    for name in ARTIFACTS:
        first, second = (out1 / name).read_bytes(), (out2 / name).read_bytes()
        assert first and first == second
    header = (out1 / "metrics.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == "event_id,time,kind,scheme,area,keygen,enc,unicast,multicast"
    doc = json.loads((out1 / "mainlist.json").read_text(encoding="utf-8"))
    assert {e["member"] for e in doc["entries"]} == {"u1", "u2", "u3", "u4", "v1", "v2", "v3", "w1"}


def test_run_seed_and_scheme_overrides(small_path, tmp_path, capsys):
    base, reseeded, lkh = tmp_path / "b", tmp_path / "s", tmp_path / "l"
    assert main(["run", str(small_path), "--out", str(base)]) == 0
    assert main(["run", str(small_path), "--seed", "10", "--out", str(reseeded)]) == 0
    assert main(["run", str(small_path), "--scheme", "lkh", "--out", str(lkh)]) == 0
    capsys.readouterr()
    assert (base / "trace.log").read_bytes() != (reseeded / "trace.log").read_bytes()
    rows = (lkh / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert rows and all(row.split(",")[3] == "lkh" for row in rows)


def test_run_dotted_overrides(small_path, tmp_path, capsys):
    out = tmp_path / "o"
    code = main([
        "run", str(small_path), "--out", str(out),
        "--override", "delays.t_probe=0.5",
        "--override", "name=renamed",
    ])
    assert code == 0
    capsys.readouterr()
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert "run: renamed" in report
    assert "hand-off = probe + reauth + reassoc = 1.4265170" in report


def test_run_rejects_bad_overrides(small_path, tmp_path, capsys):
    code = main(["run", str(small_path), "--out", str(tmp_path / "x"), "--override", "delays.t_warp=1"])
    assert code == 2
    assert "t_warp" in capsys.readouterr().err
    code = main(["run", str(small_path), "--out", str(tmp_path / "x"), "--override", "noequals"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_run_override_indexes_list_items(tmp_path, capsys):
    base, later = tmp_path / "b", tmp_path / "l"
    assert main(["run", "handoff", "--out", str(base)]) == 0
    assert main(["run", "handoff", "--out", str(later), "--override", "events.0.time=1.5"]) == 0
    capsys.readouterr()
    rows = [
        (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:] for out in (base, later)
    ]
    assert len(rows[0]) == len(rows[1]) == 2
    for before, after in zip(*rows):
        # the move was at 1.0 s and now starts at 1.5 s
        shift = float(after.split(",")[1]) - float(before.split(",")[1])
        assert shift == pytest.approx(0.5)


@pytest.mark.parametrize(
    ("pair", "reason"),
    (
        ("events.1.time=1", "'1' is not an index of a 1-item list"),
        ("events.x.time=1", "'x' is not an index of a 1-item list"),
        ("seed.x=3", "cannot look up 'x' in 42"),
    ),
)
def test_run_refuses_override_paths_that_miss(tmp_path, capsys, pair, reason):
    out = tmp_path / "o"
    assert main(["run", "handoff", "--out", str(out), "--override", pair]) == 2
    assert capsys.readouterr().err == f"error: override {pair!r}: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ("NaN", "Infinity"))
@pytest.mark.parametrize("field", ("events[1].time", "horizon", "delays.t_probe"))
def test_non_finite_numbers_are_refused_with_their_field(tmp_path, capsys, field, value):
    # json.loads accepts NaN and Infinity, in a file and in an override value
    doc = json.loads(json.dumps(SMALL))
    if field == "events[1].time":
        doc["events"][1]["time"] = float(value)
    elif field == "horizon":
        doc["horizon"] = float(value)
    else:
        doc["delays"] = {"t_probe": float(value)}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert value in path.read_text(encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {field}: expected a finite number, got {float(value)!r}\n"
    out = tmp_path / "run"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == err
    assert not out.exists()
    path.write_text(json.dumps(SMALL), encoding="utf-8")
    dotted = field.replace("[", ".").replace("]", "")
    assert main(["run", str(path), "--out", str(out), "--override", f"{dotted}={value}"]) == 2
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    ("pair", "field"),
    (
        ("delays.t_probe=1e308", "delays.t_probe"),
        ("events.0.time=1e303", "events[0].time"),
        ("horizon=1e305", "horizon"),
        ("horizon=1" + "0" * 400, "horizon"),  # an int past every float
    ),
    ids=("t_probe", "event_time", "horizon", "horizon_int"),
)
def test_finite_numbers_past_the_tick_count_are_refused_with_their_field(tmp_path, capsys, pair, field):
    # each value is finite, but its count of 100 ns ticks is not
    out = tmp_path / "o"
    assert main(["run", "tables", "--out", str(out), "--override", pair]) == 2
    assert capsys.readouterr().err == f"error: {field}: too large to count in ticks\n"
    assert not out.exists()


def test_run_refuses_an_out_path_that_is_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me", encoding="utf-8")
    assert main(["run", "tables", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert "Traceback" not in err
    assert taken.read_text(encoding="utf-8") == "keep me"


@pytest.mark.parametrize("bad", ("A,B", "A B", "A\tB"))
@pytest.mark.parametrize("where", ("area", "roster member", "extra member"))
def test_ids_the_artifacts_cannot_carry_are_refused(tmp_path, capsys, where, bad):
    # the trace separates fields with spaces and metrics.csv with commas: an
    # area "A,B" would break compare's reading of metrics.csv, and "A B" its
    # reading of the cost lines in report.txt
    doc = json.loads(json.dumps(SMALL))
    if where == "area":
        doc["areas"][bad] = doc["areas"].pop("B")
        doc["events"][1]["to"] = bad
        field, kind = f"areas.{bad}", "area"
    elif where == "roster member":
        doc["areas"]["A"][1] = bad
        doc["events"][2]["member"] = bad
        field, kind = "areas.A[1]", "member"
    else:
        doc["members"][0] = bad
        doc["events"][0]["member"] = bad
        field, kind = "members[0]", "member"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {field}: {kind} id {bad!r} contains whitespace or a comma\n"
    out = tmp_path / "run"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()


def test_run_reports_protocol_refusal_without_traceback(tmp_path, capsys):
    # a leave of a member whose move is still in flight passes the field
    # checks; validate and run both refuse it and exit 2, and run writes no
    # artifacts
    bundled = Path(crawsim.__file__).parent / "scenarios" / "handoff.json"
    doc = json.loads(bundled.read_text(encoding="utf-8"))
    doc["events"].append({"time": 1.5, "op": "leave", "member": "u1", "area": "A"})
    path = tmp_path / "inflight.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: handoff: ")
    assert "u1 already has an operation in flight" in captured.err
    out = tmp_path / "run"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: handoff: ")
    assert "u1 already has an operation in flight" in err
    assert not out.exists()


def test_bundled_scenarios_run_by_name(tmp_path, capsys):
    assert main(["validate", "tables"]) == 0
    assert main(["validate", "departed.json"]) == 0
    assert main(["run", "departed", "--out", str(tmp_path / "d")]) == 0
    capsys.readouterr()
    assert main(["run", "mystery", "--out", str(tmp_path / "m")]) == 2
    assert "bundled" in capsys.readouterr().err


def test_compare_checks_cost_relation(tmp_path, capsys):
    # every leave lands on a perfectly balanced tree (size 8), so realized
    # leave depths agree across schemes and the relation verdict is clean
    balanced = {
        "schema_version": 1,
        "name": "balanced",
        "seed": 17,
        "scheme": "ckc_craw",
        "group": "g1",
        "horizon": 8.0,
        "content_frames": False,
        "areas": {
            "A": ["u1", "u2", "u3", "u4", "u5", "u6", "u7"],
            "B": ["v1", "v2", "v3", "v4", "v5", "v6", "v7"],
        },
        "members": ["w1"],
        "events": [
            {"time": 1.0, "op": "join", "member": "w1", "area": "A"},
            {"time": 3.0, "op": "move", "member": "u1", "from": "A", "to": "B"},
            {"time": 6.0, "op": "leave", "member": "v1", "area": "B"},
        ],
    }
    path = tmp_path / "balanced.json"
    path.write_text(json.dumps(balanced), encoding="utf-8")
    dirs = {}
    for scheme in ("ckc_craw", "ckc_plain", "lkh"):
        dirs[scheme] = tmp_path / scheme
        assert main(["run", str(path), "--scheme", scheme, "--out", str(dirs[scheme])]) == 0
    capsys.readouterr()
    assert main(["compare"] + [str(d) for d in dirs.values()]) == 0
    out = capsys.readouterr().out
    assert out.count("[ok]") == 4  # join, move_join, move_leave, leave
    assert "[violated]" not in out
    assert "cost relation holds" in out
    assert "event 1 join: ckc_craw=1 ckc_plain=2 lkh=4 [ok]" in out
    assert "event 3 move_leave: ckc_craw=3 ckc_plain=3 lkh=3 [ok]" in out


def test_compare_reads_shallow_leaves(tmp_path, capsys):
    # a leave from a two-member area (depth 1, no parent collapses) and a
    # last-member leave (depth 1, nothing to multicast) each cost 1 level
    shallow = dict(
        SMALL,
        areas={"A": ["u1", "u2"]},
        members=[],
        events=[
            {"time": 1.0, "op": "leave", "member": "u1", "area": "A"},
            {"time": 2.0, "op": "leave", "member": "u2", "area": "A"},
        ],
    )
    path = tmp_path / "shallow.json"
    path.write_text(json.dumps(shallow), encoding="utf-8")
    dirs = []
    for scheme in ("ckc_craw", "ckc_plain", "lkh"):
        dirs.append(str(tmp_path / scheme))
        assert main(["run", str(path), "--scheme", scheme, "--out", dirs[-1]]) == 0
        report = (tmp_path / scheme / "report.txt").read_text(encoding="utf-8")
        assert report.count("leave area=A") == report.count("cost=1") == 2
    capsys.readouterr()
    assert main(["compare"] + dirs) == 0
    out = capsys.readouterr().out
    assert "event 1 leave: ckc_craw=1 ckc_plain=1 lkh=1 [ok]" in out
    assert "event 2 leave: ckc_craw=1 ckc_plain=1 lkh=1 [ok]" in out
    assert "[violated]" not in out
    assert "cost relation holds" in out


@pytest.mark.parametrize(
    "order, expected",
    [
        (("u1", "u2"), ("ckc_craw=1 ckc_plain=1 lkh=2", "ckc_craw=2 ckc_plain=2 lkh=1")),
        (("u2", "u1"), ("ckc_craw=2 ckc_plain=2 lkh=1", "ckc_craw=1 ckc_plain=1 lkh=2")),
    ],
)
def test_compare_shows_each_runs_leave_depths(tmp_path, capsys, order, expected):
    # in a three-member area CKC and LKH seat the members at different
    # depths, so the same leave re-keys a different number of levels; each
    # run's report.txt is the source of its costs, and differing leave
    # depths are shown, not reported as a violated relation
    doc = dict(
        SMALL,
        seed=3,
        areas={"A": ["u1", "u2", "u3"]},
        members=[],
        events=[
            {"time": 1.0, "op": "leave", "member": order[0], "area": "A"},
            {"time": 2.0, "op": "leave", "member": order[1], "area": "A"},
        ],
    )
    path = tmp_path / "three.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    dirs = []
    for scheme in ("ckc_craw", "ckc_plain", "lkh"):
        dirs.append(str(tmp_path / scheme))
        assert main(["run", str(path), "--scheme", scheme, "--out", dirs[-1]]) == 0
        report = (tmp_path / scheme / "report.txt").read_text(encoding="utf-8")
        for event, shown in enumerate(expected, start=1):
            cost = dict(pair.split("=") for pair in shown.split())[scheme]
            assert f"event {event} leave area=A size={3 - event} cost={cost}" in report
    capsys.readouterr()
    assert main(["compare"] + dirs) == 0
    out = capsys.readouterr().out
    assert f"event 1 leave: {expected[0]} [depths differ]" in out
    assert f"event 2 leave: {expected[1]} [depths differ]" in out
    assert "[violated]" not in out
    assert "cost relation holds on 0 joins" in out
    assert "2 leaves cost the leaver's depth, not checked (2 at differing depths)" in out


def test_compare_rejects_duplicate_scheme_and_misaligned_runs(small_path, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", str(small_path), "--out", str(a)])
    main(["run", str(small_path), "--out", str(b)])
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 2
    assert "distinct schemes" in capsys.readouterr().err

    shrunk = dict(SMALL, events=SMALL["events"][:1])
    short_path = tmp_path / "short.json"
    short_path.write_text(json.dumps(shrunk), encoding="utf-8")
    c = tmp_path / "c"
    main(["run", str(short_path), "--scheme", "lkh", "--out", str(c)])
    capsys.readouterr()
    assert main(["compare", str(a), str(c)]) == 0
    assert "event sequences differ" in capsys.readouterr().out

    assert main(["compare", str(a), str(tmp_path / "nothere")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda row: row.rsplit(",", 1)[0] + ",many", "invalid literal for int() with base 10: 'many'"),
        (lambda row: row.rsplit(",", 1)[0], "{}: line 2: expected 9 fields"),
        (lambda row: row + ",9", "{}: line 2: expected 9 fields"),
    ],
    ids=("non-integer", "short", "long"),
)
def test_compare_refuses_a_damaged_metrics_row(small_path, tmp_path, capsys, damage, reason):
    runs = {scheme: tmp_path / scheme for scheme in ("ckc_craw", "lkh")}
    for scheme, out in runs.items():
        assert main(["run", str(small_path), "--scheme", scheme, "--out", str(out)]) == 0
    metrics = runs["lkh"] / "metrics.csv"
    header, first, *rest = metrics.read_text(encoding="utf-8").splitlines()
    metrics.write_text("\n".join([header, damage(first), *rest]) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", str(runs["ckc_craw"]), str(runs["lkh"])]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {reason.format(metrics)}\n"
    assert f"run {runs['lkh']}" not in captured.out


def _run_checkout(command, cwd):
    """Run ``command`` with the crawsim under test first on PYTHONPATH, so
    the subprocess runs this checkout wherever pytest was started."""
    src = str(Path(crawsim.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(command, capture_output=True, text=True, timeout=60, cwd=cwd, env=env)


def test_console_script_is_wired(tmp_path):
    # the script pip generates from [project.scripts] imports module:attr and
    # runs sys.exit(attr()) with the command-line arguments in sys.argv;
    # build that wrapper from pyproject.toml so no install is needed
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts == {"crawsim": "crawsim.cli:main"}
    entry = EntryPoint(name="crawsim", value=scripts["crawsim"], group="console_scripts")
    assert entry.load() is main

    wrapper = [sys.executable, "-c", f"import sys; from {entry.module} import {entry.attr} as f; sys.exit(f())"]
    for command in (wrapper, [sys.executable, "-m", "crawsim"]):
        proc = _run_checkout(command + ["validate", "tables"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("ok: tables")

    proc = _run_checkout(wrapper + ["validate", "nope"], tmp_path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")


@pytest.mark.skipif(shutil.which("crawsim") is None, reason="no crawsim script on PATH")
def test_installed_console_script_runs():
    proc = subprocess.run(
        ["crawsim", "validate", "tables"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("ok: tables")
