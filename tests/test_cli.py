"""Command line behavior: run artifacts, validation errors, overrides,
bundled scenarios, and the cross-scheme comparison."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import crawsim
from crawsim.cli import main
from crawsim.scenario import apply_overrides, validate_doc
from crawsim.secrecy import check_secrecy
from crawsim.sim import Simulation, render_report

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


# every refusal of validate_doc, as (dotted path, value set there, the exact
# "field: message"); the id, frame and events limits have tests of their own
FIELD_REFUSALS = (
    ("extra", 1, "extra: unknown top-level field"),
    ("schema_version", 2, "schema_version: expected 1, got 2"),
    ("name", "", "name: expected a non-empty string"),
    ("seed", "9", "seed: expected an integer, got '9'"),
    ("seed", True, "seed: expected an integer, got True"),
    ("scheme", None, "scheme: expected a non-empty string"),
    ("scheme", "rot13", "scheme: expected one of ckc_craw, ckc_plain, lkh"),
    ("group", "", "group: expected a non-empty string"),
    ("delays", [], "delays: expected an object"),
    ("delays.t_fly", 1, "delays: unknown field 't_fly'"),
    ("delays.t_probe", "1", "delays.t_probe: expected a number, got '1'"),
    ("delays.t_probe", -1, "delays.t_probe: must be non-negative"),
    ("content_frames", 1, "content_frames: expected true or false"),
    ("areas", {}, "areas: expected a non-empty object mapping area id to member list"),
    ("areas", [], "areas: expected a non-empty object mapping area id to member list"),
    ("areas.B", "v1", "areas.B: expected a list of member ids"),
    ("areas.B", [5], "areas.B[0]: member ids must be non-empty strings"),
    ("areas.B", ["v1", "u1"], "areas.B[1]: u1 appears more than once"),
    ("members", "w1", "members: expected a list of member ids"),
    ("members", ["v1"], "members[0]: v1 appears more than once"),
    ("members", ["w1", "w1"], "members[1]: w1 appears more than once"),
    ("events", {}, "events: expected a list"),
    ("events.0", 5, "events[0]: expected an object"),
    ("events.0.op", "fly", "events[0].op: expected join, leave, or move"),
    ("events.0.to", "B", "events[0].to: unknown field for op 'join'"),
    ("events.1.area", "A", "events[1].area: unknown field for op 'move'"),
    ("events.0.time", None, "events[0].time: expected a number, got None"),
    ("events.0.time", -1, "events[0].time: must be non-negative"),
    ("events.0.member", "zz", "events[0].member: 'zz' is not a registered member"),
    ("events.0.member", 7, "events[0].member: 7 is not a registered member"),
    ("events.0.area", "C", "events[0].area: 'C' is not a declared area"),
    ("events.1.from", "C", "events[1].from: 'C' is not a declared area"),
    ("events.1.to", "C", "events[1].to: 'C' is not a declared area"),
    ("events.1.to", "A", "events[1].to: source and destination must differ"),
    ("horizon", "6", "horizon: expected a number, got '6'"),
    ("horizon", 3.0, "horizon: must not be earlier than the last event"),
)


@pytest.mark.parametrize(
    ("path", "value", "message"), FIELD_REFUSALS, ids=[re.sub(r"\W+", "_", m) for _, _, m in FIELD_REFUSALS]
)
def test_every_field_refusal_names_its_field_path(tmp_path, capsys, path, value, message):
    doc = apply_overrides(SMALL, pairs=[f"{path}={json.dumps(value)}"])
    with pytest.raises(ValueError) as refused:
        validate_doc(doc)
    assert str(refused.value) == message
    scenario_path = tmp_path / "bad.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(scenario_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize(
    ("bundled", "field", "reason"),
    (
        ("tables", "op", "expected join, leave, or move"),
        ("tables", "area", "{!r} is not a declared area"),
        ("handoff", "from", "{!r} is not a declared area"),
        ("handoff", "to", "{!r} is not a declared area"),
    ),
    ids=("op", "area", "from", "to"),
)
def test_event_fields_holding_a_list_or_object_are_refused_with_their_field(
    tmp_path, capsys, bundled, field, reason
):
    # a JSON list or object is unhashable, so a set or dict lookup of it raised
    # TypeError, which neither run nor validate catches
    raw = (Path(crawsim.__file__).parent / "scenarios" / f"{bundled}.json").read_text(encoding="utf-8")
    for value in ([], {"A": 1}):
        doc = json.loads(raw)
        doc["events"][0][field] = value
        message = f"events[0].{field}: {reason.format(value)}"
        with pytest.raises(ValueError) as refused:
            validate_doc(doc)
        assert str(refused.value) == message
        out = tmp_path / "o"
        pair = f"events.0.{field}={json.dumps(value)}"
        assert main(["run", bundled, "--out", str(out), "--override", pair]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_run_refuses_an_out_path_that_is_a_file(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("keep me", encoding="utf-8")
    assert main(["run", "tables", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert "Traceback" not in err
    assert taken.read_text(encoding="utf-8") == "keep me"


def test_run_checks_the_out_path_before_any_simulation(tmp_path, capsys, monkeypatch):
    def no_run(*_args, **_kwargs):
        raise AssertionError("the simulation ran before --out was checked")

    monkeypatch.setattr("crawsim.cli.Simulation", no_run)
    taken = tmp_path / "taken"
    taken.write_text("keep me", encoding="utf-8")
    for out in (taken, taken / "sub"):
        assert main(["run", "tables", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert taken.read_text(encoding="utf-8") == "keep me"


def frames_doc(horizon, **delays) -> dict:
    return dict(json.loads(json.dumps(SMALL)), content_frames=True, horizon=horizon, delays=delays)


def test_horizons_past_the_frame_limit_are_refused_up_front(tmp_path, capsys):
    # 1e6 s of 10 ms frames over two areas: 2e8 trace lines and ciphertexts
    with pytest.raises(ValueError) as refused:
        validate_doc(frames_doc(1e6))
    err = "horizon: frame ticks x 2 areas exceeds the limit of 100000 content frames"
    assert str(refused.value) == err
    path = tmp_path / "long.json"
    path.write_text(json.dumps(frames_doc(1e6)), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    out = tmp_path / "run"
    assert main(["run", "handoff", "--out", str(out), "--override", "horizon=1e6"]) == 2
    assert capsys.readouterr().err.startswith("error: horizon: ")
    assert not out.exists()
    # 1e300 s is 1e307 ticks: the refusal names the limit, not that count
    assert main(["run", "handoff", "--out", str(out), "--override", "horizon=1e300"]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    # the limit counts frames (ticks x areas), not seconds
    validate_doc(frames_doc(500.0))  # 50 000 ticks x 2 areas
    with pytest.raises(ValueError, match="^horizon: frame ticks x 2 areas "):
        validate_doc(frames_doc(500.01))
    validate_doc(frames_doc(1e6, frame_interval=20))
    validate_doc(dict(frames_doc(1e6), content_frames=False))


def events_doc(n_members: int, n_events: int) -> dict:
    members = [f"m{i}" for i in range(n_members)]
    events = [
        {"time": float(i), "op": "leave" if i % 2 else "join", "member": "m0", "area": "A"}
        for i in range(n_events)
    ]
    return dict(json.loads(json.dumps(SMALL)), areas={"A": []}, members=members, events=events, horizon=float(n_events))


def test_events_times_members_past_the_limit_are_refused_up_front(tmp_path, capsys):
    # every event may re-key an area holding every member: 10^7 member
    # refreshes is the most a scenario may ask for
    validate_doc(events_doc(1000, 10_000))
    with pytest.raises(ValueError) as refused:
        validate_doc(events_doc(1001, 10_000))
    err = "events: 10000 events x 1001 members exceeds the limit of 10000000"
    assert str(refused.value) == err
    path = tmp_path / "busy.json"
    path.write_text(json.dumps(events_doc(1001, 10_000)), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {err}\n"
    # the roster counts as well as the extra members
    with pytest.raises(ValueError, match="^events: 10000 events x 1001 members "):
        validate_doc(dict(events_doc(1000, 10_000), areas={"A": ["a0"]}))


@pytest.mark.parametrize(
    ("where", "bad"),
    [
        (where, bad)
        for where in ("area", "roster member", "extra member")
        for bad in ("A,B", "A B", "A\tB", "main", "x:y")
    ]
    + [("roster member", "B"), ("extra member", "A"), ("name", "two\nlines scheme=lkh"), ("name", "bell\a")],
)
def test_ids_the_artifacts_cannot_carry_are_refused(tmp_path, capsys, where, bad):
    # the trace separates fields with spaces, so "A B" would also break
    # compare's reading of the cost lines in report.txt; metrics.csv
    # separates them with commas.  The trace names the main list "main" and
    # an area's multicast "area:<id>", so a member "main", "x:y" or "A"
    # would read as one of those or as an area.  The scenario name heads
    # report.txt's run line, which compare reads, so it stays on one line
    doc = json.loads(json.dumps(SMALL))
    if where == "area":
        doc["areas"][bad] = doc["areas"].pop("B")
        doc["events"][1]["to"] = bad
        field, kind = f"areas.{bad}", "area"
    elif where == "roster member":
        doc["areas"]["A"][1] = bad
        doc["events"][2]["member"] = bad
        field, kind = "areas.A[1]", "member"
    elif where == "extra member":
        doc["members"][0] = bad
        doc["events"][0]["member"] = bad
        field, kind = "members[0]", "member"
    else:
        doc["name"] = bad
    if where == "name":
        reason = f"name: {bad!r} holds a character report.txt cannot carry on one line"
    elif any(c.isspace() or c == "," for c in bad):
        reason = f"{field}: {kind} id {bad!r} contains whitespace or a comma"
    else:
        reason = f"{field}: {kind} id {bad!r} collides with a reserved name or an area id"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"
    out = tmp_path / "run"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("interval", (0, 5e-8))
def test_content_frames_need_a_frame_interval_of_one_tick(tmp_path, capsys, interval):
    # an interval that rounds to zero 100 ns ticks would run with no frames
    doc = dict(SMALL, areas={"A": ["u1", "u2"]}, members=[], events=[], horizon=1.0,
               content_frames=True, delays={"frame_interval": interval})
    path = tmp_path / "still.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    assert main(["run", str(path), "--out", str(out)]) == 2
    err = "error: delays.frame_interval: content frames need an interval of at least one 100 ns tick\n"
    assert capsys.readouterr().err == err
    assert not out.exists()
    validate_doc(dict(doc, content_frames=False))
    validate_doc(dict(doc, delays={"frame_interval": 1e-4}))  # 10 000 ticks x 1 area


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


def test_a_run_refusal_names_its_event_by_field_path(tmp_path, capsys):
    doc = dict(SMALL, name="bad", events=[{"time": 1.0, "op": "leave", "member": "w1", "area": "A"}])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    expected = "error: bad: events[0] (t=1.0000000): w1 is not active in A\n"
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == expected
    assert main(["run", str(path), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == expected


def test_a_refused_run_removes_only_the_directories_it_made(tmp_path, capsys):
    bundled = Path(crawsim.__file__).parent / "scenarios" / "handoff.json"
    doc = json.loads(bundled.read_text(encoding="utf-8"))
    doc["events"].append({"time": 1.5, "op": "leave", "member": "u1", "area": "A"})
    path = tmp_path / "inflight.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", str(path), "--out", str(tmp_path / "a" / "b")]) == 2
    assert not (tmp_path / "a").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(["run", str(path), "--out", str(kept)]) == 2
    assert kept.is_dir() and not any(kept.iterdir())
    capsys.readouterr()


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
    [(("u1", "u2"), (2, 1)), (("u2", "u1"), (1, 2))],
)
def test_compare_checks_each_leave_under_every_scheme(tmp_path, capsys, order, expected):
    # every scheme seats a three-member area alike, so a leave re-keys the
    # same number of levels under each and compare checks that it does;
    # each run's report.txt is the source of its costs, and a report whose
    # leave cost differs makes the relation violated
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
    capsys.readouterr()
    assert main(["compare"] + dirs) == 0
    out = capsys.readouterr().out
    for event, cost in enumerate(expected, start=1):
        assert f"event {event} leave: ckc_craw={cost} ckc_plain={cost} lkh={cost} [ok]" in out
    assert "[violated]" not in out
    assert "cost relation holds on 0 joins" in out
    assert "and 2 leaves (every scheme re-keys the leaver's depth)" in out

    report = tmp_path / "lkh" / "report.txt"
    line = f"event 1 leave area=A size=2 cost={expected[0]}\n"
    text = report.read_text(encoding="utf-8")
    assert text.count(line) == 1
    damaged = text.replace(line, f"event 1 leave area=A size=2 cost={expected[0] + 1}\n")
    report.write_text(damaged, encoding="utf-8")
    assert main(["compare"] + dirs) == 0
    out = capsys.readouterr().out
    cost = expected[0]
    assert f"event 1 leave: ckc_craw={cost} ckc_plain={cost} lkh={cost + 1} [violated]" in out
    assert out.count("[ok]") == 1
    assert "cost relation violated on 0 joins" in out


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

    # the same kinds of event, but another member leaves
    other = dict(SMALL, events=SMALL["events"][:2] + [dict(SMALL["events"][2], member="u3")])
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other), encoding="utf-8")
    d = tmp_path / "d"
    main(["run", str(other_path), "--scheme", "lkh", "--out", str(d)])
    capsys.readouterr()
    assert main(["compare", str(a), str(d)]) == 0
    assert "event sequences differ" in capsys.readouterr().out

    assert main(["compare", str(a), str(tmp_path / "nothere")]) == 2
    assert "error:" in capsys.readouterr().err


MISNUMBERED = "{}: cost lines do not number the events 1..4"
NO_RUN_LINE = "{}: the first line is not a run line with a known scheme"


@pytest.mark.parametrize(
    "damage, reason",
    [
        (lambda text: re.sub(r"cost=\d+", "cost=many", text, count=1), MISNUMBERED),
        (lambda text: re.sub(r"\n.* cost=\d+", "", text, count=1), MISNUMBERED),
        (lambda text: text.split("\n", 1)[1], NO_RUN_LINE),
        (lambda text: text.replace("scheme=lkh", "scheme=rot13", 1), NO_RUN_LINE),
        (lambda text: re.sub(r"totals: .*\n", "", text), "{}: expected one totals line, found 0"),
    ],
    ids=("non-integer", "cost-line-deleted", "run-line-deleted", "unknown-scheme", "totals-line-deleted"),
)
def test_compare_refuses_a_damaged_report(small_path, tmp_path, capsys, damage, reason):
    runs = {scheme: tmp_path / scheme for scheme in ("ckc_craw", "lkh")}
    for scheme, out in runs.items():
        assert main(["run", str(small_path), "--scheme", scheme, "--out", str(out)]) == 0
    report = runs["lkh"] / "report.txt"
    report.write_text(damage(report.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    assert main(["compare", str(runs["ckc_craw"]), str(runs["lkh"])]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {reason.format(report)}\n"
    assert f"run {runs['lkh']}" not in captured.out


def test_compare_reads_a_run_directory_that_holds_only_its_report(small_path, tmp_path, capsys):
    full, bare = tmp_path / "full", tmp_path / "bare"
    for scheme in ("ckc_craw", "ckc_plain", "lkh"):
        assert main(["run", str(small_path), "--scheme", scheme, "--out", str(full / scheme)]) == 0
        (bare / scheme).mkdir(parents=True)
        shutil.copy(full / scheme / "report.txt", bare / scheme / "report.txt")
    capsys.readouterr()
    outputs = []
    for root in (full, bare):
        assert main(["compare"] + [str(root / scheme) for scheme in ("ckc_craw", "ckc_plain", "lkh")]) == 0
        outputs.append(capsys.readouterr().out.replace(str(root), "<root>"))
    assert outputs[0] == outputs[1]
    assert "run <root>/lkh: scheme=lkh events=4 keygen=8 enc=25 unicast=5 multicast=15" in outputs[1]
    assert "event 1 join: ckc_craw=1 ckc_plain=2 lkh=4 [ok]" in outputs[1]


ZERO_DELAYS = dict.fromkeys(
    ("t_probe", "t_reauth", "t_reassoc", "t_keygen", "t_keydist", "t_auth_ordinary"), 0.0
)


@pytest.mark.parametrize("n", (64, 256, 1024))
def test_compare_confirms_the_abstracts_join_cost_at_every_size(tmp_path, capsys, n):
    """One join into an area of n - 1 costs 1 key under CRAW, 2 under plain
    CKC, and log2 n + 1 under LKH, with every view consistent and the
    secrecy audit clean.  The nine runs with their audits take about 2 s
    together on a 2-core host."""
    doc = dict(
        SMALL,
        name=f"join{n}",
        delays=ZERO_DELAYS,
        areas={"A": [f"u{i}" for i in range(n - 1)]},
        members=["w1"],
        events=[{"time": 1.0, "op": "join", "member": "w1", "area": "A"}],
    )
    dirs = []
    for scheme in ("ckc_craw", "ckc_plain", "lkh"):
        sim = Simulation(validate_doc(dict(doc, scheme=scheme))).run()
        assert sim.check_consistent()
        assert check_secrecy(sim.recorder) == []
        dirs.append(tmp_path / scheme)
        dirs[-1].mkdir()
        (dirs[-1] / "report.txt").write_text(render_report(sim), encoding="utf-8")
    assert main(["compare"] + [str(d) for d in dirs]) == 0
    out = capsys.readouterr().out
    assert f"event 1 join: ckc_craw=1 ckc_plain=2 lkh={n.bit_length()} [ok]" in out
    assert "cost relation holds" in out


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
