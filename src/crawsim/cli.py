"""Command line interface.

``crawsim run`` executes a scenario and writes four artifacts into --out:
metrics.csv (one row per re-keying event), trace.log (every protocol
message), mainlist.json (final subscriber list), report.txt (costs and
timing).  Outputs are deterministic: re-running the same scenario and seed
reproduces them byte for byte.

``crawsim validate`` checks a scenario file and reports the first offending
field.  ``crawsim compare`` reads the metrics of two or more finished runs
of the same scenario under different schemes and checks the expected cost
relation (joins: otp-combined 1 <= plain 2 <= lkh log2(n)+1; leaves: equal
depth across schemes).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from importlib import resources
from pathlib import Path

from .crypto import ProtocolError
from .entities import SCHEMES
from .scenario import apply_overrides, validate_doc
from .sim import (
    METRICS_HEADER,
    Simulation,
    render_mainlist,
    render_metrics_csv,
    render_report,
    render_trace,
)

BUNDLED = ("tables", "handoff", "departed")


def _load_doc(source: str) -> dict:
    """Resolve a scenario argument: a file path, or a bundled scenario name."""
    path = Path(source)
    if path.is_file():
        raw = path.read_text(encoding="utf-8")
    else:
        name = source.removesuffix(".json")
        if name not in BUNDLED:
            raise ValueError(
                f"{source!r} is neither a scenario file nor a bundled scenario "
                f"(bundled: {', '.join(BUNDLED)})"
            )
        raw = (resources.files("crawsim") / "scenarios" / f"{name}.json").read_text(
            encoding="utf-8"
        )
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: expected a JSON object at top level")
    return doc


def cmd_run(args) -> int:
    try:
        doc = _load_doc(args.scenario)
        doc = apply_overrides(doc, seed=args.seed, scheme=args.scheme, pairs=args.override)
        scenario = validate_doc(doc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sim = Simulation(scenario).run()
    except ProtocolError as exc:
        # validation does not replay event timings, so a scenario it accepts
        # can still ask for an operation the protocol refuses mid-run
        print(f"error: {scenario.name}: {exc}", file=sys.stderr)
        return 2
    out: Path = args.out
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(render_metrics_csv(sim.ledger), encoding="utf-8")
    (out / "trace.log").write_text(render_trace(sim.trace), encoding="utf-8")
    (out / "mainlist.json").write_text(render_mainlist(sim), encoding="utf-8")
    (out / "report.txt").write_text(render_report(sim), encoding="utf-8")
    totals = sim.ledger.totals()
    print(
        f"{scenario.name}: scheme={scenario.scheme} events={len(sim.ledger.events)}"
        f" keygen={totals.key_generations} enc={totals.encryptions}"
        f" unicast={totals.unicast_sends} multicast={totals.multicast_sends}"
        f" -> {out}"
    )
    return 0


def cmd_validate(args) -> int:
    try:
        scenario = validate_doc(_load_doc(args.scenario))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(
        f"ok: {scenario.name} scheme={scenario.scheme} areas={len(scenario.areas)}"
        f" members={sum(len(v) for v in scenario.areas.values()) + len(scenario.extra_members)}"
        f" events={len(scenario.events)}"
    )
    return 0


def _read_metrics(run_dir: Path) -> list[dict]:
    path = run_dir / "metrics.csv"
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != METRICS_HEADER.split(","):
            raise ValueError(f"{path}: unexpected header {reader.fieldnames}")
        return list(reader)


def _event_cost(row: dict) -> int:
    """Per-event re-keying cost: keys produced at a join (the individual key
    counts when server-minted), tree levels re-keyed at a leave."""
    scheme, kind = row["scheme"], row["kind"]
    if kind.endswith("join"):
        return int(row["keygen"]) + (1 if scheme == "lkh" else 0)
    if scheme == "lkh":
        return int(row["keygen"]) + 1
    return int(row["multicast"])


def cmd_compare(args) -> int:
    runs: list[tuple[str, list[dict]]] = []
    for run_dir in args.runs:
        try:
            rows = _read_metrics(Path(run_dir))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        schemes = {row["scheme"] for row in rows}
        if len(schemes) != 1:
            print(f"error: {run_dir}: expected a single scheme, found {sorted(schemes)}", file=sys.stderr)
            return 2
        runs.append((schemes.pop(), rows))
        rows_c = rows
        totals = [sum(int(r[c]) for r in rows_c) for c in ("keygen", "enc", "unicast", "multicast")]
        print(
            f"run {run_dir}: scheme={runs[-1][0]} events={len(rows_c)}"
            f" keygen={totals[0]} enc={totals[1]} unicast={totals[2]} multicast={totals[3]}"
        )
    if len({scheme for scheme, _ in runs}) != len(runs):
        print("error: runs must use distinct schemes", file=sys.stderr)
        return 2
    lengths = {len(rows) for _, rows in runs}
    kinds_aligned = len(lengths) == 1 and all(
        len({rows[i]["kind"] for _, rows in runs}) == 1 for i in range(lengths.pop())
    )
    if not kinds_aligned:
        print("event sequences differ between runs; no per-event comparison")
        return 0
    print("per-event cost (join: keys produced; leave: levels re-keyed):")
    all_ok = True
    for i in range(len(runs[0][1])):
        kind = runs[0][1][i]["kind"]
        costs = {scheme: _event_cost(rows[i]) for scheme, rows in runs}
        if kind.endswith("join"):
            ok = costs.get("ckc_craw", 1) == 1
            ordered = [costs[s] for s in ("ckc_craw", "ckc_plain", "lkh") if s in costs]
            ok = ok and ordered == sorted(ordered)
        else:
            ok = len(set(costs.values())) == 1
        all_ok = all_ok and ok
        shown = " ".join(f"{s}={costs[s]}" for s in sorted(costs))
        print(f"  event {i + 1} {kind}: {shown} [{'ok' if ok else 'violated'}]")
    verdict = "holds" if all_ok else "violated"
    print(f"cost relation {verdict}: joins otp-combined(1) <= plain(2) <= lkh(log2 n + 1); leaves equal")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="crawsim",
        description="group re-keying simulator for mobile multicast areas",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its artifacts")
    p_run.add_argument("scenario", help="scenario file or bundled name (tables, handoff, departed)")
    p_run.add_argument("--out", type=Path, required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--scheme", choices=SCHEMES, default=None, help="override the scheme")
    p_run.add_argument(
        "--override", action="append", default=[], metavar="KEY=VALUE",
        help="override any scenario field, dotted paths allowed (delays.t_probe=0.02)",
    )
    p_run.set_defaults(fn=cmd_run)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(fn=cmd_validate)

    p_cmp = sub.add_parser("compare", help="compare metrics of finished runs")
    p_cmp.add_argument("runs", nargs="+", help="output directories of crawsim run")
    p_cmp.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
