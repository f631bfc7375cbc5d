"""crawsim benchmark: one seeded workload, measured end to end or traced.

    python3 bench/run.py --workload ckc_churn --seed 1 --seconds 30 --trace 0

Runs the workload's scenario document through the public API in a closed
loop (validate_doc, Simulation(...), .run(), and check_secrecy on the
audited workload), one repetition after another in this process, until
``--seconds`` have passed.  Every repetition passes a correctness gate:
member views match the server trees, every delivered frame decrypts, every
operation completes, the audit finds nothing, and the four rendered
artifacts hash to the same digest in every repetition.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics, taken
from spans recorded around calls into each crawsim module (see
tracing.py), plus the tracing overhead.  Human-readable lines come first;
the last line of standard output is one JSON object.  bench/README.md
lists the metrics and which layer metric should move which end-to-end
metric on which workload.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import cryptography

from hostclock import HostClock
from tracing import Tracer
from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("ckc", "crypto", "entities", "lkh", "otp", "scenario", "secrecy", "sim")
MIN_REPS = 2  # the artifact digest is compared across repetitions
MIN_TRACED = 2  # per-layer counts must repeat exactly between traced repetitions

END_TO_END = {
    "setup_s": "s",
    "work_s": "s",
    "rekey_per_s": "rows/s",
    "rekey_p50_ms": "ms",
    "rekey_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
COUNTS = (
    "crypto.hash_calls", "crypto.encrypt_calls", "crypto.decrypt_calls", "crypto.decrypt_failed",
    "otp.auth_calls", "otp.auth_rejected",
    "ckc.join_calls", "ckc.refresh_calls", "ckc.leave_calls", "ckc.guard_strings",
    "lkh.join_calls", "lkh.refresh_calls", "lkh.leave_calls",
    "entities.credit_calls",
    "secrecy.record_offered", "secrecy.record_new", "secrecy.edge_hashes",
    "secrecy.edges_found", "secrecy.universe_keys", "secrecy.codes",
    "sim.rows", "sim.deliveries", "sim.keygen_total", "sim.enc_total",
    "sim.unicast_total", "sim.multicast_total",
)
RATIOS = ("ckc.covers_per_leave", "secrecy.record_yield", "secrecy.edge_yield")
# self times of layers that every workload calls; the others are zero on the
# workloads that skip them, so they are printed but left out of the JSON
TIMES = (
    "crypto.aead_s", "entities.area_join_s", "entities.area_leave_s",
    "secrecy.record_s", "sim.self_s", "scenario.validate_s",
)
PRINTED_TIMES = (
    "crypto.hash_s", "otp.auth_s", "ckc.join_s", "ckc.refresh_s", "ckc.leave_s",
    "lkh.join_s", "lkh.refresh_s", "lkh.leave_s", "entities.credit_s",
    "secrecy.edges_s", "secrecy.closure_s", "secrecy.scan_s",
)
PER_LAYER = {
    **{n: "count" for n in COUNTS},
    **{n: "ratio" for n in RATIOS},
    **{n: "s" for n in TIMES},
    "rekey_p99_ms": "ms",
    "trace.overhead": "ratio",
}
# span names behind each per-layer time, and the spans each call count counts
SPANS = {
    "crypto.hash": ("crypto.hash_f", "crypto.hash_f_xor", "crypto.hash_E"),
    "crypto.encrypt": ("crypto.encrypt",),
    "crypto.decrypt": ("crypto.decrypt",),
    "crypto.aead": ("crypto.encrypt", "crypto.decrypt"),
    "otp.auth": ("otp.make_challenge", "otp.verify"),
    "ckc.join": ("ckc.join",),
    "ckc.refresh": ("ckc.refresh",),
    "ckc.leave": ("ckc.leave",),
    "lkh.join": ("lkh.join",),
    "lkh.refresh": ("lkh.refresh",),
    "lkh.leave": ("lkh.leave",),
    "entities.credit": ("entities.credit",),
    "entities.area_join": ("entities.area_join",),
    "entities.area_leave": ("entities.area_leave",),
    "secrecy.record": ("secrecy.record",),
    "secrecy.edges": ("secrecy.edges",),
    "secrecy.closure": ("secrecy.closure",),
    "secrecy.scan": ("secrecy.scan",),
    "sim.self": ("sim.run",),
    "scenario.validate": ("scenario.validate",),
}


def load_crawsim() -> dict:
    """Import crawsim from the sources next to this benchmark, never from an
    installed copy; exit without a result when they are missing."""
    src = ROOT / "src"
    if not (src / "crawsim" / "__init__.py").is_file():
        sys.exit(f"error: no crawsim sources under {src}")
    sys.path.insert(0, str(src))
    return {name: importlib.import_module(f"crawsim.{name}") for name in MODULES}


@dataclass
class Rep:
    """One repetition: a scenario from document to checked result."""

    attempted: int
    traced: bool
    failed: int = 0
    error: str | None = None
    # reference seconds (hostclock.py): wall time corrected for the host's speed
    setup_s: float = 0.0
    run_s: float = 0.0
    audit_s: float = 0.0
    gaps: list[float] = field(default_factory=list)  # between re-keying rows
    wall_s: float = 0.0  # wall seconds from validate_doc to the end of the audit
    scale: float = 1.0  # reference over wall seconds of the repetition, for span times
    digest: str = ""
    stats: dict[str, int] = field(default_factory=dict)  # simulated statistics
    layers: dict[str, float] = field(default_factory=dict)  # traced repetitions only


def _completed(sim) -> int:
    # a move completes with its second row
    return sum(row.kind in ("join", "leave", "move_leave") for row in sim.ledger.events)


def sim_stats(sim) -> dict[str, int]:
    totals = sim.ledger.totals()
    rec = sim.recorder
    return {
        "sim.rows": len(sim.ledger.events),
        "sim.deliveries": len(sim.ledger.frames),
        "sim.keygen_total": totals.key_generations,
        "sim.enc_total": totals.encryptions,
        "sim.unicast_total": totals.unicast_sends,
        "sim.multicast_total": totals.multicast_sends,
        "secrecy.universe_keys": len(rec.key_universe),
        "secrecy.codes": len(rec.codes),
        "ckc.guard_strings": sum(
            len(strings)
            for area in sim.areas.values()
            for strings in getattr(area.tree, "member_strings", {}).values()
        ),
    }


def _digest(mods, sim) -> str:
    s = mods["sim"]
    h = hashlib.sha256()
    for text in (
        s.render_trace(sim.trace),
        s.render_metrics_csv(sim.ledger),
        s.render_report(sim),
        s.render_mainlist(sim),
    ):
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def _gate(sim, violations: list[str], attempted: int) -> list[str]:
    problems = []
    if not sim.check_consistent():
        problems.append("a member view differs from its server tree")
    if violations:
        problems.append(f"secrecy audit found {len(violations)} violations: {violations[0]}")
    dark = sum(not frame.decrypted for frame in sim.ledger.frames)
    if dark:
        problems.append(f"{dark} delivered frames did not decrypt")
    missing = attempted - _completed(sim)
    if missing:
        problems.append(f"{missing} operations did not complete")
    return problems


def run_rep(mods, workload: Workload, doc: dict, traced: bool, clock: HostClock | None = None) -> Rep:
    rep = Rep(attempted=len(doc["events"]), traced=traced)
    stamps: list[float] = []
    tracer = Tracer() if traced else None
    clock = clock or HostClock()
    sim = None
    gc.collect()
    try:
        if tracer is not None:
            tracer.install(mods)
        clock.start()
        try:
            t0 = perf_counter()
            scenario = mods["scenario"].validate_doc(doc)
            sim = mods["sim"].Simulation(scenario, on_event=lambda _sim, _row: stamps.append(perf_counter()))
            t1 = perf_counter()
            sim.run()
            t2 = perf_counter()
            violations = mods["secrecy"].check_secrecy(sim.recorder) if workload.audit else []
            t3 = perf_counter()
        finally:
            clock.stop()
            if tracer is not None:
                tracer.uninstall()
        problems = _gate(sim, violations, rep.attempted)
        rep.digest = _digest(mods, sim)
        rep.stats = sim_stats(sim)
    except Exception:  # a failed repetition is reported, and the loop goes on
        rep.error = traceback.format_exc().strip().splitlines()[-1]
        traceback.print_exc(file=sys.stderr)
        rep.failed = rep.attempted - (_completed(sim) if sim is not None else 0)
        return rep
    if problems:
        rep.error = "; ".join(problems)
        rep.failed = rep.attempted
        return rep
    ref = clock.mapper()
    r0, r1, r2, r3 = ref(t0), ref(t1), ref(t2), ref(t3)
    rep.setup_s, rep.run_s, rep.audit_s = r1 - r0, r2 - r1, r3 - r2
    at = [ref(t) for t in stamps]
    rep.gaps = [b - a for a, b in zip(at, at[1:])]
    rep.wall_s = t3 - t0
    rep.scale = (r3 - r0) / rep.wall_s
    if tracer is not None:
        rep.layers = layer_values(tracer, rep.stats)
    return rep


def layer_values(tracer: Tracer, stats: dict[str, int]) -> dict[str, float]:
    spans = tracer.summary()
    extra = tracer.extra
    out: dict[str, float] = dict(stats)
    for metric, names in SPANS.items():
        out[metric + "_calls"] = sum(spans.get(n, (0, 0.0))[0] for n in names)
        out[metric + "_s"] = sum(spans.get(n, (0, 0.0))[1] for n in names)
    out["crypto.decrypt_failed"] = extra["crypto.decrypt.raised"]
    out["otp.auth_rejected"] = extra["otp.auth_rejected"]
    for name in ("record_offered", "record_new", "edge_hashes", "edges_found"):
        out["secrecy." + name] = extra["secrecy." + name]
    out["ckc.covers_per_leave"] = _ratio(extra["ckc.covers"], out["ckc.leave_calls"])
    out["secrecy.record_yield"] = _ratio(out["secrecy.record_new"], out["secrecy.record_offered"])
    out["secrecy.edge_yield"] = _ratio(out["secrecy.edges_found"], out["secrecy.edge_hashes"])
    out["spans"] = len(tracer.start)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _quantile(values: list[float], q: int, n: int) -> float:
    """The q-th of the n-quantiles, or 0.0 with fewer than two samples."""
    return statistics.quantiles(values, n=n)[q - 1] if len(values) >= 2 else 0.0


def environment(seed: int, workload: str) -> str:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return (
        f"env python={platform.python_version()} cryptography={cryptography.__version__}"
        f" cpu={cpu!r} nproc={os.cpu_count()} workload={workload} seed={seed}"
    )


def end_to_end(reps: list[Rep], audit: bool) -> dict[str, float]:
    """The JSON's end-to-end metrics, plus deliveries_per_s and audit_s on
    the workloads that have them, in reference seconds: medians over
    repetitions of each repetition's value, and percentiles of the gaps of
    all repetitions together."""
    gaps_ms = [g * 1000 for r in reps for g in r.gaps]
    out = {
        "setup_s": _median(r.setup_s for r in reps),
        "work_s": _median(r.run_s + r.audit_s for r in reps),
        "rekey_per_s": _median(r.stats["sim.rows"] / r.run_s for r in reps),
        "rekey_p50_ms": _median(gaps_ms),
        "rekey_p90_ms": _quantile(gaps_ms, 9, 10),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if any(r.stats["sim.deliveries"] for r in reps):
        out["deliveries_per_s"] = _median(r.stats["sim.deliveries"] / r.run_s for r in reps)
    if audit:
        out["audit_s"] = _median(r.audit_s for r in reps)
    return out


def per_layer(traced: list[Rep], untraced: list[Rep]) -> dict[str, float]:
    first = traced[0].layers if traced else {}
    out = {n: first.get(n, 0) for n in (*COUNTS, *RATIOS)}
    for name in (*TIMES, *PRINTED_TIMES):
        out[name] = _median(r.layers[name] * r.scale for r in traced)
    out["rekey_p99_ms"] = _quantile([g * 1000 for r in untraced for g in r.gaps], 99, 100)
    out["trace.overhead"] = _ratio(
        _median(r.run_s + r.audit_s for r in traced),
        _median(r.run_s + r.audit_s for r in untraced),
    )
    return out


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    mods = load_crawsim()
    workload = WORKLOADS[workload_name]
    doc = workload.build(seed)
    print(environment(seed, workload_name))
    print(f"trace={int(trace)} seconds={seconds} ops_per_repetition={len(doc['events'])}")

    reps: list[Rep] = []
    longest = {False: 0.0, True: 0.0}  # wall seconds of the longest repetition of each kind
    deadline = perf_counter() + seconds
    clock = HostClock()
    while True:
        untraced = [r for r in reps if not r.traced]
        traced = [r for r in reps if r.traced]
        enough = len(untraced) >= (1 if trace else MIN_REPS) and len(traced) >= (MIN_TRACED if trace else 0)
        kind = trace and len(traced) < len(untraced)
        # stop at the deadline rather than one repetition past it
        if enough and perf_counter() + longest[kind] > deadline:
            break
        started = perf_counter()
        rep = run_rep(mods, workload, doc, traced=kind, clock=clock)
        longest[kind] = max(longest[kind], perf_counter() - started)
        reference = next((r.digest for r in reps if r.error is None), rep.digest)
        if rep.error is None and rep.digest != reference:
            rep.error = "rendered artifacts differ from the first good repetition"
            rep.failed = rep.attempted
        reps.append(rep)
        status = "ok" if rep.error is None else f"FAILED: {rep.error}"
        print(
            f"rep {len(reps)} {'traced' if rep.traced else 'untraced'} setup={rep.setup_s:.4f}s run={rep.run_s:.4f}s"
            f" audit={rep.audit_s:.4f}s (reference seconds; wall {rep.wall_s:.4f}s, host-speed-scale"
            f" {rep.scale:.4f}) {status}"
        )

    ok = [r for r in reps if r.error is None]
    untraced = [r for r in ok if not r.traced]
    traced = [r for r in ok if r.traced]
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    correct = len(ok) == len(reps)

    if untraced:
        for name, value in untraced[0].stats.items():
            print(f"{name:<24} {value}")
    e2e = end_to_end(untraced, workload.audit)
    units = {**END_TO_END, "deliveries_per_s": "1/s", "audit_s": "s"}
    print(
        f"end-to-end over {len(untraced)} untraced repetitions, {sum(len(r.gaps) for r in untraced)}"
        f" re-keying gaps, in reference seconds:"
    )
    for name, value in e2e.items():
        print(f"  {name:<22} {value:.6g} {units[name]}")
    print(f"  {'ops_failed':<22} {_ratio(failed, attempted):.6g} share")

    if not trace:
        metrics = {n: {"value": e2e[n], "unit": u} for n, u in END_TO_END.items()}
    else:
        layers = per_layer(traced, untraced)
        counts = [{n: r.layers[n] for n in (*COUNTS, *RATIOS)} for r in traced]
        if any(c != counts[0] for c in counts[1:]):
            print("per-layer counts differ between traced repetitions")
            correct = False
        print(f"per-layer over {len(traced)} traced repetitions ({traced[0].layers['spans'] if traced else 0} spans each):")
        for name in (*COUNTS, *RATIOS, *TIMES, *PRINTED_TIMES, "rekey_p99_ms", "trace.overhead"):
            print(f"  {name:<26} {layers[name]:.6g}")
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER.items()}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
