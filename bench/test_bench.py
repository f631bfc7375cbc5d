"""Benchmark self-checks: python -m pytest -q bench

Every workload, at the default seed and at one other, validates, runs and
passes the correctness gate with no failed operation; a failing operation is
counted rather than raised; tracing puts every wrapper back and its counts
repeat exactly; the host clock samples, leaves out its own time and puts the
signal handler back; and without crawsim's sources the command gives no
result.
"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import run
from hostclock import REFERENCE_S, HostClock
from workloads import WORKLOADS

MODS = run.load_crawsim()
BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_completes_with_no_failed_op(name, seed):
    workload = WORKLOADS[name]
    doc = workload.build(seed)
    assert doc == workload.build(seed)
    MODS["scenario"].validate_doc(doc)
    rep = run.run_rep(MODS, workload, doc, traced=False)
    assert rep.error is None
    assert rep.failed == 0
    assert rep.stats["sim.rows"] > 0


def test_protocol_error_counts_unfinished_ops():
    workload = WORKLOADS["audit_ckc"]
    doc = workload.build(1)
    last = doc["events"][-1]["time"]
    absent = next(m for m in doc["members"] if all(e["member"] != m for e in doc["events"]))
    doc["events"].append({"time": last + 1, "op": "leave", "member": absent, "area": "A0"})
    rep = run.run_rep(MODS, workload, doc, traced=False)
    assert "ProtocolError" in rep.error
    assert (rep.attempted, rep.failed) == (len(doc["events"]), 1)


def _attributes():
    ent, sec, sim = MODS["entities"], MODS["secrecy"], MODS["sim"]
    owners = [*MODS.values(), ent.AreaState, ent.MainList, sec.RunRecorder, sim.Simulation]
    return [dict(vars(owner)) for owner in owners]


def test_tracing_restores_wrappers_and_counts_repeat():
    workload = WORKLOADS["audit_ckc"]
    doc = workload.build(1)
    before = _attributes()
    reps = [run.run_rep(MODS, workload, doc, traced=True) for _ in range(2)]
    assert _attributes() == before
    assert all(rep.error is None for rep in reps)
    counts = [{n: rep.layers[n] for n in (*run.COUNTS, *run.RATIOS)} for rep in reps]
    assert counts[0] == counts[1]
    assert counts[0]["secrecy.edge_hashes"] > 0 and counts[0]["ckc.leave_calls"] > 0


def test_host_clock_excludes_sampling_and_restores_handler():
    handler = signal.getsignal(signal.SIGALRM)
    clock = HostClock()
    clock.start()
    try:
        t0 = run.perf_counter()
        while run.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = run.perf_counter()
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.starts) >= 10
    ref = clock.mapper()
    # no reference time passes inside a sample
    assert ref(clock.starts[3]) == ref(clock.ends[3])
    sampled = sum(b - a for a, b in zip(clock.starts, clock.ends) if t0 <= a and b <= t1)
    wall = t1 - t0 - sampled
    speed = REFERENCE_S / sorted(clock.kernel)[len(clock.kernel) // 2]
    assert 0.5 * speed < (ref(t1) - ref(t0)) / wall < 2 * speed


def test_no_result_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit_ckc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
