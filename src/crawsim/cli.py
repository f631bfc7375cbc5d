"""Command line interface.

``crawsim run`` executes a scenario and writes four artifacts into --out:
metrics.csv (one row per re-keying event), trace.log (every protocol
message), mainlist.json (final subscriber list), report.txt (costs and
timing).  Outputs are deterministic: re-running the same scenario and seed
reproduces them byte for byte.

``crawsim validate`` checks a scenario file and reports the first offending
field, then replays it and reports an operation the protocol refuses.
``crawsim compare`` reads two or more finished runs of the same scenario
under different schemes, each event's cost from the run's own report.txt,
and checks the join cost relation (otp-combined 1 <= plain 2 <= lkh
log2(n)+1).  A leave costs the leaver's depth, which the schemes' trees
need not share, so leave costs are shown, marked where they differ, and
not checked.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from importlib import resources
from pathlib import Path

from .crypto import ProtocolError
from .entities import SCHEMES
from .scenario import apply_overrides, read_doc, validate_doc
from .sim import (
    METRICS_HEADER,
    Simulation,
    render_mainlist,
    render_metrics_csv,
    render_report,
    render_trace,
)

BUNDLED = ("tables", "handoff", "departed")
_COST_LINE = re.compile(r"  event (\d+) \S+ area=\S+ size=\d+ cost=(\d+)$")


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
    return read_doc(raw, source)


def _make_out(out: Path) -> list[Path]:
    """Create the output directory, and its missing parents, before any
    simulation time is spent; the directories this made, deepest first."""
    made = [path for path in (out, *out.parents) if not path.exists()]
    out.mkdir(parents=True, exist_ok=True)
    if not os.access(out, os.W_OK | os.X_OK):
        raise PermissionError(f"{out}: not a writable directory")
    return made


def cmd_run(args) -> int:
    try:
        doc = _load_doc(args.scenario)
        doc = apply_overrides(doc, seed=args.seed, scheme=args.scheme, pairs=args.override)
        scenario = validate_doc(doc)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out: Path = args.out
    try:
        made = _make_out(out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        sim = Simulation(scenario).run()
    except ProtocolError as exc:
        # validation does not replay event timings, so a scenario it accepts
        # can still ask for an operation the protocol refuses mid-run
        for path in made:
            path.rmdir()
        print(f"error: {scenario.name}: {exc}", file=sys.stderr)
        return 2
    try:
        (out / "metrics.csv").write_text(render_metrics_csv(sim.ledger), encoding="utf-8")
        (out / "trace.log").write_text(render_trace(sim.trace), encoding="utf-8")
        (out / "mainlist.json").write_text(render_mainlist(sim), encoding="utf-8")
        (out / "report.txt").write_text(render_report(sim), encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        # the field checks do not replay event timings; the run does, so a
        # scenario the protocol would refuse mid-run is refused here too
        Simulation(scenario).run()
    except ProtocolError as exc:
        print(f"error: {scenario.name}: {exc}", file=sys.stderr)
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
        rows = list(reader)
    for line, row in enumerate(rows, start=2):
        if None in row or None in row.values():  # DictReader's marks of a long or short row
            raise ValueError(f"{path}: line {line}: expected {len(reader.fieldnames)} fields")
    return rows


def _read_costs(run_dir: Path) -> dict[int, int]:
    """Event id -> re-keying cost, from the cost lines of the run's own
    report.txt: keys produced at a join, the leaver's depth at a leave."""
    path = run_dir / "report.txt"
    costs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        match = _COST_LINE.match(line)
        if match:
            costs[int(match[1])] = int(match[2])
    return costs


def cmd_compare(args) -> int:
    runs: list[tuple[str, list[dict], list[int]]] = []
    for run_dir in args.runs:
        try:
            rows = _read_metrics(Path(run_dir))
            costs = _read_costs(Path(run_dir))
            event_costs = [costs[int(row["event_id"])] for row in rows]
            totals = [sum(int(r[c]) for r in rows) for c in ("keygen", "enc", "unicast", "multicast")]
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except KeyError as exc:
            print(f"error: {run_dir}: report.txt gives no cost for event {exc}", file=sys.stderr)
            return 2
        schemes = {row["scheme"] for row in rows}
        if len(schemes) != 1:
            print(f"error: {run_dir}: expected a single scheme, found {sorted(schemes)}", file=sys.stderr)
            return 2
        runs.append((schemes.pop(), rows, event_costs))
        print(
            f"run {run_dir}: scheme={runs[-1][0]} events={len(rows)}"
            f" keygen={totals[0]} enc={totals[1]} unicast={totals[2]} multicast={totals[3]}"
        )
    if len({scheme for scheme, _, _ in runs}) != len(runs):
        print("error: runs must use distinct schemes", file=sys.stderr)
        return 2
    lengths = {len(rows) for _, rows, _ in runs}
    kinds_aligned = len(lengths) == 1 and all(
        len({rows[i]["kind"] for _, rows, _ in runs}) == 1 for i in range(lengths.pop())
    )
    if not kinds_aligned:
        print("event sequences differ between runs; no per-event comparison")
        return 0
    print("per-event cost (join: keys produced; leave: levels re-keyed):")
    all_ok = True
    joins = leaves = differ = 0
    for i in range(len(runs[0][1])):
        kind = runs[0][1][i]["kind"]
        costs = {scheme: event_costs[i] for scheme, _, event_costs in runs}
        if kind.endswith("join"):
            joins += 1
            ok = costs.get("ckc_craw", 1) == 1
            ordered = [costs[s] for s in SCHEMES if s in costs]
            ok = ok and ordered == sorted(ordered)
            all_ok = all_ok and ok
            mark = "ok" if ok else "violated"
        else:
            # a leave re-keys the leaver's depth, and each scheme places
            # members by its own rule, so the depths need not agree
            leaves += 1
            same = len(set(costs.values())) == 1
            differ += not same
            mark = "ok" if same else "depths differ"
        shown = " ".join(f"{s}={costs[s]}" for s in sorted(costs))
        print(f"  event {i + 1} {kind}: {shown} [{mark}]")
    verdict = "holds" if all_ok else "violated"
    print(
        f"cost relation {verdict} on {joins} joins: otp-combined(1) <= plain(2) <= lkh(log2 n + 1);"
        f" {leaves} leaves cost the leaver's depth, not checked ({differ} at differing depths)"
    )
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
        help="override any scenario field by dotted path (delays.t_probe=0.02, events.0.time=1.5)",
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
