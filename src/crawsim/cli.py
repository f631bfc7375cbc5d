"""Command line interface.

``crawsim run`` executes a scenario and writes four artifacts into --out:
metrics.csv (one row per re-keying event), trace.log (every protocol
message), mainlist.json (final subscriber list), report.txt (costs and
timing).  Outputs are deterministic: re-running the same scenario and seed
reproduces them byte for byte.

``crawsim validate`` checks a scenario file and reports the first offending
field, then replays it and reports an operation the protocol refuses.
``crawsim compare`` reads two or more finished runs of the same scenario
under different schemes, each from its report.txt alone (scheme, totals,
and each event's kind, member, area and cost), and checks the join cost
relation (otp-combined 1 <= plain 2 <= lkh log2(n)+1) and that a leave
costs every scheme the same: the leaver's depth in the one tree that every
scheme builds.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from importlib import resources
from pathlib import Path

from .crypto import ProtocolError
from .entities import SCHEMES
from .scenario import apply_overrides, read_doc, validate_doc
from .sim import Simulation, render_mainlist, render_metrics_csv, render_report, render_trace

BUNDLED = ("tables", "handoff", "departed")
# the lines of report.txt that compare reads; a scenario name may hold
# spaces, so the run line is matched from its end
_RUN_LINE = re.compile(rf"run: .* scheme=({'|'.join(SCHEMES)}) seed=-?\d+ horizon=\S+$")
_TOTALS_LINE = re.compile(r"totals: (keygen=\d+ enc=\d+ unicast=\d+ multicast=\d+)$")
_EVENT_LINE = re.compile(r"  event \d+ t=\S+ (\S+) member=(\S+) area=(\S+) ")
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


def _read_report(run_dir: Path) -> tuple[str, str, list[tuple[str, str, str, int]]]:
    """A finished run's scheme, totals, and each event's kind, member, area
    and re-keying cost in event-id order, all from its report.txt: keys
    produced at a join, the leaver's depth at a leave."""
    path = run_dir / "report.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    run = _RUN_LINE.match(lines[0]) if lines else None
    totals = [m[1] for m in map(_TOTALS_LINE.match, lines) if m]
    if run is None:
        raise ValueError(f"{path}: the first line is not a run line with a known scheme")
    if len(totals) != 1:
        raise ValueError(f"{path}: expected one totals line, found {len(totals)}")
    events = [m.groups() for m in map(_EVENT_LINE.match, lines) if m]
    costs = sorted((int(m[1]), int(m[2])) for m in map(_COST_LINE.match, lines) if m)
    if [event_id for event_id, _ in costs] != list(range(1, len(events) + 1)):
        raise ValueError(f"{path}: cost lines do not number the events 1..{len(events)}")
    return run[1], totals[0], [(*event, cost) for event, (_, cost) in zip(events, costs)]


def cmd_compare(args) -> int:
    runs: list[tuple[str, list[tuple[str, str, str, int]]]] = []
    for run_dir in args.runs:
        try:
            scheme, totals, events = _read_report(Path(run_dir))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        runs.append((scheme, events))
        print(f"run {run_dir}: scheme={scheme} events={len(events)} {totals}")
    if len({scheme for scheme, _ in runs}) != len(runs):
        print("error: runs must use distinct schemes", file=sys.stderr)
        return 2
    # runs pair event by event on (kind, member, area)
    if len({tuple(event[:3] for event in events) for _, events in runs}) != 1:
        print("event sequences differ between runs; no per-event comparison")
        return 0
    print("per-event cost (join: keys produced; leave: levels re-keyed):")
    all_ok = True
    joins = leaves = 0
    for i, (kind, *_) in enumerate(runs[0][1]):
        costs = {scheme: events[i][3] for scheme, events in runs}
        if kind.endswith("join"):
            joins += 1
            ordered = [costs[s] for s in SCHEMES if s in costs]
            ok = costs.get("ckc_craw", 1) == 1 and ordered == sorted(ordered)
        else:
            # a leave re-keys the leaver's depth, and every scheme seats
            # members by one rule, so the depths agree
            leaves += 1
            ok = len(set(costs.values())) == 1
        all_ok = all_ok and ok
        shown = " ".join(f"{s}={costs[s]}" for s in sorted(costs))
        print(f"  event {i + 1} {kind}: {shown} [{'ok' if ok else 'violated'}]")
    verdict = "holds" if all_ok else "violated"
    print(
        f"cost relation {verdict} on {joins} joins (otp-combined(1) <= plain(2) <= lkh(log2 n + 1))"
        f" and {leaves} leaves (every scheme re-keys the leaver's depth)"
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
