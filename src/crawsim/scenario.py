"""Scenario files: strict JSON loading and validation.

A scenario pins everything a run depends on: the scheme, the seed, the
initial per-area rosters, extra registered members, timed events, and the
delay model.  Validation failures name the offending field so a bad file is
diagnosable without reading the loader.
"""

from __future__ import annotations

import json
from pathlib import Path

from .entities import SCHEMES
from .sim import DelayConfig, Scenario, ScenarioEvent, need_seconds, to_ticks

SCHEMA_VERSION = 1

# when a file omits "horizon", leave room after the last event for any
# in-flight hand-off (well under two seconds with default delays)
_HORIZON_MARGIN = to_ticks(2.0)

# with content frames, a run traces one line and records one ciphertext per
# area per frame tick, so frame ticks x areas is bounded before any run
MAX_FRAMES = 100_000

# each event may re-key an area holding every registered member, so events x
# registered members bounds a run's re-keying work before it starts
MAX_EVENT_MEMBERS = 10_000_000

_TOP_KEYS = {
    "schema_version",
    "name",
    "seed",
    "scheme",
    "group",
    "horizon",
    "content_frames",
    "delays",
    "areas",
    "members",
    "events",
}

_EVENT_KEYS = {
    "join": {"time", "op", "member", "area"},
    "leave": {"time", "op", "member", "area"},
    "move": {"time", "op", "member", "from", "to"},
}


def _fail(field: str, msg: str) -> None:
    raise ValueError(f"{field}: {msg}")


def _need_str(doc: dict, field: str, default: str | None = None) -> str:
    value = doc.get(field, default)
    if not isinstance(value, str) or not value:
        _fail(field, "expected a non-empty string")
    return value


def _need_id(value, field: str, what: str, areas=()) -> None:
    """Refuse an area or member id the artifacts cannot carry: the trace
    separates fields with spaces and metrics.csv with commas, names the main
    list ``main`` and an area's multicast ``area:<id>``, and must not read a
    member as an area."""
    if not isinstance(value, str) or not value:
        _fail(field, f"{what} ids must be non-empty strings")
    if any(c.isspace() or c == "," for c in value):
        _fail(field, f"{what} id {value!r} contains whitespace or a comma")
    if ":" in value or value == "main" or value in areas:
        _fail(field, f"{what} id {value!r} collides with a reserved name or an area id")


def validate_doc(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ValueError("scenario: expected a JSON object at top level")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        _fail(sorted(unknown)[0], "unknown top-level field")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # refuses True and 1.0
        _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    name = _need_str(doc, "name")
    if not name.isprintable():  # report.txt's first line carries it
        _fail("name", f"{name!r} holds a character report.txt cannot carry on one line")
    seed = doc.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        _fail("seed", f"expected an integer, got {seed!r}")
    scheme = _need_str(doc, "scheme")
    if scheme not in SCHEMES:
        _fail("scheme", f"expected one of {', '.join(SCHEMES)}")
    group_id = _need_str(doc, "group", default="group")

    delays_doc = doc.get("delays", {})
    if not isinstance(delays_doc, dict):
        _fail("delays", "expected an object")
    delays = DelayConfig.from_seconds(delays_doc)

    frames = doc.get("content_frames", False)
    if not isinstance(frames, bool):
        _fail("content_frames", "expected true or false")

    areas_doc = doc.get("areas")
    if not isinstance(areas_doc, dict) or not areas_doc:
        _fail("areas", "expected a non-empty object mapping area id to member list")
    roster: set[str] = set()
    areas: dict[str, list[str]] = {}
    for area_id, members in areas_doc.items():
        _need_id(area_id, "areas" if not area_id else f"areas.{area_id}", "area")
        if not isinstance(members, list):
            _fail(f"areas.{area_id}", "expected a list of member ids")
        for i, member in enumerate(members):
            _need_id(member, f"areas.{area_id}[{i}]", "member", areas_doc)
            if member in roster:
                _fail(f"areas.{area_id}[{i}]", f"{member} appears more than once")
            roster.add(member)
        areas[area_id] = list(members)

    extra_doc = doc.get("members", [])
    if not isinstance(extra_doc, list):
        _fail("members", "expected a list of member ids")
    extra: list[str] = []
    for i, member in enumerate(extra_doc):
        _need_id(member, f"members[{i}]", "member", areas_doc)
        if member in roster:
            _fail(f"members[{i}]", f"{member} appears more than once")
        roster.add(member)
        extra.append(member)

    events_doc = doc.get("events", [])
    if not isinstance(events_doc, list):
        _fail("events", "expected a list")
    if len(events_doc) * len(roster) > MAX_EVENT_MEMBERS:
        _fail("events", f"{len(events_doc)} events x {len(roster)} members exceeds the limit of {MAX_EVENT_MEMBERS}")
    events: list[ScenarioEvent] = []
    last_time = 0.0
    for i, ev in enumerate(events_doc):
        where = f"events[{i}]"
        if not isinstance(ev, dict):
            _fail(where, "expected an object")
        op = ev.get("op")
        if not isinstance(op, str) or op not in _EVENT_KEYS:
            _fail(f"{where}.op", "expected join, leave, or move")
        unknown = set(ev) - _EVENT_KEYS[op]
        if unknown:
            _fail(f"{where}.{sorted(unknown)[0]}", f"unknown field for op {op!r}")
        seconds = need_seconds(ev.get("time"), f"{where}.time")
        member = ev.get("member")
        if not isinstance(member, str) or member not in roster:
            _fail(f"{where}.member", f"{member!r} is not a registered member")
        if op == "move":
            src, dst = ev.get("from"), ev.get("to")
            if not isinstance(src, str) or src not in areas:
                _fail(f"{where}.from", f"{src!r} is not a declared area")
            if not isinstance(dst, str) or dst not in areas:
                _fail(f"{where}.to", f"{dst!r} is not a declared area")
            if src == dst:
                _fail(f"{where}.to", "source and destination must differ")
            events.append(ScenarioEvent(i, to_ticks(seconds), "move", member, src=src, dst=dst))
        else:
            area = ev.get("area")
            if not isinstance(area, str) or area not in areas:
                _fail(f"{where}.area", f"{area!r} is not a declared area")
            events.append(ScenarioEvent(i, to_ticks(seconds), op, member, area=area))
        last_time = max(last_time, seconds)
    events.sort(key=lambda e: e.time)  # stable: same-tick events keep file order

    if "horizon" in doc:
        horizon = to_ticks(need_seconds(doc["horizon"], "horizon"))
    else:
        horizon = to_ticks(last_time) + _HORIZON_MARGIN
    if events and horizon < events[-1].time:
        _fail("horizon", "must not be earlier than the last event")
    if frames:
        if delays.frame_interval == 0:
            _fail("delays.frame_interval", "content frames need an interval of at least one 100 ns tick")
        if horizon // delays.frame_interval * len(areas) > MAX_FRAMES:
            _fail("horizon", f"frame ticks x {len(areas)} areas exceeds the limit of {MAX_FRAMES} content frames")

    return Scenario(
        name=name,
        seed=seed,
        scheme=scheme,
        group_id=group_id,
        horizon=horizon,
        delays=delays,
        areas=areas,
        extra_members=extra,
        events=events,
        frames_enabled=frames,
    )


def read_doc(raw: str, source) -> dict:
    """Parse a scenario document's text; ``source`` names it in errors."""
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{source}: expected a JSON object at top level")
    return doc


def load_scenario(path: str | Path) -> Scenario:
    return validate_doc(read_doc(Path(path).read_text(encoding="utf-8"), path))


def apply_overrides(
    doc: dict,
    seed: int | None = None,
    scheme: str | None = None,
    pairs: list[str] | None = None,
) -> dict:
    """Apply command-line overrides to a raw scenario document.

    ``pairs`` are dotted ``key=value`` strings such as
    ``delays.t_probe=0.02`` or ``events.0.time=1.5``: a decimal part
    indexes a list, and a missing object on the path is created.  Values
    parse as JSON when possible and fall back to strings.
    """
    out = json.loads(json.dumps(doc))  # deep copy, json-only types
    if seed is not None:
        out["seed"] = seed
    if scheme is not None:
        out["scheme"] = scheme
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"override {pair!r}: expected key=value")
        dotted, _, raw_value = pair.partition("=")
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        node = out
        *path, last = dotted.split(".")
        for part in path:
            key = _slot(node, part, pair)
            node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
        node[_slot(node, last, pair)] = value
    return out


def _slot(node, part: str, pair: str) -> str | int:
    """The key ``part`` names in an object, or the index it names in a list."""
    if isinstance(node, dict):
        return part
    if not isinstance(node, list):
        raise ValueError(f"override {pair!r}: cannot look up {part!r} in {node!r}")
    if not (part.isascii() and part.isdigit() and int(part) < len(node)):
        raise ValueError(f"override {pair!r}: {part!r} is not an index of a {len(node)}-item list")
    return int(part)
