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


def test_run_reports_protocol_refusal_without_traceback(tmp_path, capsys):
    # validate accepts a leave of a member whose move is still in flight;
    # the run refuses it, exits 2 and writes no artifacts
    bundled = Path(crawsim.__file__).parent / "scenarios" / "handoff.json"
    doc = json.loads(bundled.read_text(encoding="utf-8"))
    doc["events"].append({"time": 1.5, "op": "leave", "member": "u1", "area": "A"})
    path = tmp_path / "inflight.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
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
