"""Deterministic discrete-event simulator for one multicast group.

Time is integer ticks at 100 nanoseconds so every delay constant in the
timing model is represented exactly; seconds appear only at the formatting
boundary.  A binary heap orders work as (tick, priority, sequence): protocol
steps run before content frames scheduled on the same tick, and equal keys
preserve scheduling order, so a run is a pure function of the scenario and
its seed.

The scheme fixes the auth mode (``entities.AUTH_MODES``).  Under ``otp``
the member's individual key falls out of the accepted one-time password, so
the join setup is the re-authentication delay alone.  Under ``ordinary``
the server mints the individual key and ships it over a secured channel,
which costs the key-generation and distribution delays.

Each scenario operation is one procedure.  ``_join`` and ``_move`` are
generators that yield the tick at which their next phase starts;
``_advance`` runs one up to its next ``yield`` and schedules the rest.  A
leave has no wait and runs at once.  Work on one tick runs in scheduling
order, so each wait is exactly one ``yield``: under ordinary auth a join
always waits for key preparation, even a zero-length one, and under otp it
goes straight on.

Every re-keying event goes through one of two steps.  ``_key_in`` keys a
member into an area (a ``join``), and ``_key_out`` keys one out (a
``leave``); each re-keys the area, traces and records the payloads, and
books the ledger row.  A move is ``_key_in`` at the destination, then
``_key_out`` at the source, at one tick.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterator, NamedTuple

from .crypto import DecryptionError, ProtocolError, decrypt, encrypt, fingerprint, random_key
from .entities import (
    AUTH_MODES,
    STATUS_ACTIVE,
    STATUS_LEFT,
    STATUS_MOVING,
    AreaState,
    MainList,
    MobileMember,
    ProtocolMessage,
    run_auth,
)
from .otp import ClientSecret
from .secrecy import CipherRecord, RunRecorder
from .tree import Rekey, RekeyCounters, WireMessage

TICKS_PER_SECOND = 10_000_000  # 100 ns resolution


def to_ticks(seconds: float) -> int:
    if seconds < 0:
        raise ValueError("durations cannot be negative")
    return round(seconds * TICKS_PER_SECOND)


def need_seconds(value, field: str) -> float:
    """``value`` as a finite, non-negative number of seconds whose tick
    count is finite too, or a ValueError that names ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{field}: expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{field}: expected a finite number, got {value!r}")
    if value < 0:
        raise ValueError(f"{field}: must be non-negative")
    if value * TICKS_PER_SECOND > sys.float_info.max:  # exact for an int of any size
        raise ValueError(f"{field}: too large to count in ticks")
    return float(value)


def fmt_ticks(ticks: int) -> str:
    """Render ticks as seconds with a fixed seven-place fraction."""
    return f"{ticks // TICKS_PER_SECOND}.{ticks % TICKS_PER_SECOND:07d}"


@dataclass(frozen=True)
class DelayConfig:
    """Timing model in ticks.  Defaults follow the wireless measurements the
    simulator is calibrated against."""

    probe: int = to_ticks(0.0195167)
    reauth: int = to_ticks(0.002517)
    reassoc: int = to_ticks(0.924)
    keygen: int = to_ticks(0.939)
    keydist: int = to_ticks(0.0)
    auth_ordinary: int = to_ticks(0.000237)
    frame_interval: int = to_ticks(0.01)

    _JSON_FIELDS = {
        "t_probe": "probe",
        "t_reauth": "reauth",
        "t_reassoc": "reassoc",
        "t_keygen": "keygen",
        "t_keydist": "keydist",
        "t_auth_ordinary": "auth_ordinary",
        "frame_interval": "frame_interval",
    }

    @classmethod
    def from_seconds(cls, mapping: dict) -> "DelayConfig":
        kwargs = {}
        for key, value in mapping.items():
            if key not in cls._JSON_FIELDS:
                raise ValueError(f"delays: unknown field {key!r}")
            kwargs[cls._JSON_FIELDS[key]] = to_ticks(need_seconds(value, f"delays.{key}"))
        return cls(**kwargs)

    def handoff_total(self) -> int:
        return self.probe + self.reauth + self.reassoc

    def auth(self, mode: str) -> int:
        return self.reauth if mode == "otp" else self.auth_ordinary

    def key_prep(self, mode: str) -> int:
        """The individual key's generation and delivery; otp needs none."""
        return 0 if mode == "otp" else self.keygen + self.keydist

    def join_setup(self, mode: str) -> int:
        """Setup latency between the join request and a usable group key."""
        return self.auth(mode) + self.key_prep(mode)

    def join_setup_delta(self) -> int:
        return self.join_setup("ordinary") - self.join_setup("otp")


@dataclass(frozen=True)
class ScenarioEvent:
    time: int  # ticks
    op: str  # "join" | "leave" | "move"
    member: str
    area: str | None = None  # join / leave
    src: str | None = None  # move
    dst: str | None = None


@dataclass
class Scenario:
    name: str
    seed: int
    scheme: str
    group_id: str
    horizon: int  # ticks
    delays: DelayConfig
    areas: dict[str, list[str]]  # initial roster per area
    extra_members: list[str]  # registered, not initially joined
    events: list[ScenarioEvent]
    frames_enabled: bool = False


@dataclass
class EventRow:
    event_id: int
    time: int
    kind: str  # join / leave / move_join / move_leave
    scheme: str
    area: str
    member: str
    size: int  # members keyed in the area after the event
    depth: int  # leaf depth of the joiner or leaver
    cost: int  # the scheme's re-keying cost (``Rekey.cost``)
    counters: RekeyCounters


@dataclass
class JoinSetupRecord:
    member: str
    area: str
    mode: str  # "otp" or "ordinary"
    start: int
    done: int

    def setup(self) -> int:
        return self.done - self.start


@dataclass
class HandoffRecord:
    member: str
    src: str
    dst: str
    start: int
    probe: int
    auth: int
    key_prep: int  # individual-key generation wait, zero for otp
    reassoc: int
    completed: bool

    def total(self) -> int:
        return self.probe + self.auth + self.key_prep + self.reassoc


class FrameRecord(NamedTuple):
    time: int
    area: str
    member: str
    decrypted: bool


@dataclass
class MetricsLedger:
    events: list[EventRow] = field(default_factory=list)
    setups: list[JoinSetupRecord] = field(default_factory=list)
    handoffs: list[HandoffRecord] = field(default_factory=list)
    frames: list[FrameRecord] = field(default_factory=list)

    def totals(self) -> RekeyCounters:
        total = RekeyCounters(0, 0, 0, 0)
        for row in self.events:
            total = total + row.counters
        return total


_PRIO_OP = 0
_PRIO_FRAME = 1


class Simulation:
    """Runs one scenario to completion.

    ``on_event`` is invoked as ``on_event(sim, row)`` after every re-keying
    event, with all state and recorder updates already applied; test suites
    hang invariant checks there.
    """

    def __init__(self, scenario: Scenario, on_event: Callable | None = None):
        self.sc = scenario
        self.rng = Random(scenario.seed)
        self.recorder = RunRecorder()
        self.ledger = MetricsLedger()
        self.trace: list[ProtocolMessage] = []
        self.on_event = on_event
        self.mainlist = MainList(scenario.group_id)
        self.areas = {
            area_id: AreaState(area_id, scenario.scheme, self.rng) for area_id in sorted(scenario.areas)
        }
        self.mode = AUTH_MODES[scenario.scheme]
        self.auth_delay = scenario.delays.auth(self.mode)
        self.key_prep = scenario.delays.key_prep(self.mode)
        self.members: dict[str, MobileMember] = {}
        self._heap: list = []
        self._seq = itertools.count()
        self._frame_seq: dict[str, int] = {a: 0 for a in self.areas}
        self._register_all()
        self._bootstrap()
        for ev in scenario.events:
            self._schedule(ev.time, _PRIO_OP, self._dispatch, ev)
        if scenario.frames_enabled and scenario.delays.frame_interval > 0:
            first = scenario.delays.frame_interval
            self._schedule(first, _PRIO_FRAME, self._frame_tick, first)

    # -- setup -----------------------------------------------------------

    def _register_all(self) -> None:
        roster = [m for a in sorted(self.sc.areas) for m in self.sc.areas[a]]
        roster += list(self.sc.extra_members)
        for member_id in roster:
            if self.mode == "otp":
                member = MobileMember(member_id, secret=ClientSecret(member_id, b"pw:" + member_id.encode(), self.rng))
            else:
                member = MobileMember(member_id, credential=random_key(self.rng))
            self.mainlist.register(member)
            self._note_auth_material(member)
            self.members[member_id] = member

    def _bootstrap(self) -> None:
        """Key the initial rosters at t=0 in one batch, without trace or
        metric rows: seat every member of an area on its tree in roster order
        (no refreshes, no payloads), then hand each its whole root path in
        one unicast chain under its individual key."""
        for area_id in sorted(self.sc.areas):
            area = self.areas[area_id]
            seated = []
            for member_id in self.sc.areas[area_id]:
                member = self.members[member_id]
                attempt = run_auth(self.mainlist, member, self.rng)
                if not attempt.accepted:
                    raise ProtocolError(f"bootstrap auth failed for {member_id}")
                self._note_auth_material(member)
                area.tree.seat(member_id, attempt.individual_key, area.rng)
                self.mainlist.advance(member_id, STATUS_ACTIVE, 0, last_area=area_id)
                self.recorder.open_window(member_id, area_id, 0)
                seated.append((member_id, attempt.individual_key))
            self.recorder.record_keys(*area.tree.drain_stored())
            for member_id, individual_key in seated:
                chain = area.hand_out(member_id, individual_key)
                self._record_msgs(area, 0, chain, "key_unicast", target=member_id)
            self._note_views(area)

    # -- plumbing ---------------------------------------------------------

    def _schedule(self, ticks: int, prio: int, fn: Callable, *args) -> None:
        heapq.heappush(self._heap, (ticks, prio, next(self._seq), fn, args))

    def _emit(self, ticks: int, kind: str, src: str, dst: str, info: str = "-") -> None:
        self.trace.append(ProtocolMessage(ticks, kind, src, dst, info))

    def _note_auth_material(self, member: MobileMember) -> None:
        if member.secret is None:
            return
        entry = self.mainlist.lookup(member.member_id)
        self.recorder.record_keys([entry.auth.stored_hash])
        self.recorder.note_knowledge(member.member_id, [entry.auth.stored_hash])

    def _record_msgs(
        self, area: AreaState, ticks: int, msgs: list[WireMessage], kind: str, target: str | None = None
    ) -> None:
        for msg in msgs:
            for p in msg.payloads:
                self.recorder.record_ciphertext(
                    CipherRecord(p.enc_key, ticks, area.area_id, kind, target=target, ciphertext=p.ciphertext)
                )

    def _note_views(self, area: AreaState) -> None:
        """Note the keys each present member's view stored since it was last
        noted."""
        for member_id, view in area.views.items():
            stored = view.drain_gains()
            if stored:
                self.recorder.note_knowledge(member_id, stored)

    def _append_event(self, ticks: int, kind: str, area: AreaState, member_id: str, rekey: Rekey) -> EventRow:
        row = EventRow(
            event_id=len(self.ledger.events) + 1,
            time=ticks,
            kind=kind,
            scheme=self.sc.scheme,
            area=area.area_id,
            member=member_id,
            size=area.size(),
            depth=len(rekey.notice.leaf) - 1,
            cost=rekey.cost,
            counters=rekey.counters,
        )
        self.ledger.events.append(row)
        if self.on_event is not None:
            self.on_event(self, row)
        return row

    # -- event dispatch ---------------------------------------------------

    def _dispatch(self, ev: ScenarioEvent) -> None:
        if self.members[ev.member].busy:
            raise ProtocolError(f"{ev.member} already has an operation in flight")
        if ev.op == "leave":
            self._leave(ev)
        else:
            self._advance((self._join if ev.op == "join" else self._move)(ev))

    def _advance(self, op: Iterator[int]) -> None:
        """Run an operation up to its next wait, then schedule the rest at
        the tick it yielded."""
        ticks = next(op, None)
        if ticks is not None:
            self._schedule(ticks, _PRIO_OP, self._advance, op)

    def run(self) -> "Simulation":
        while self._heap:
            ticks, _prio, _seq, fn, args = heapq.heappop(self._heap)
            fn(*args)
        return self

    def check_consistent(self) -> bool:
        return all(area.consistent() for area in self.areas.values())

    # -- operations -------------------------------------------------------

    def _join(self, ev: ScenarioEvent) -> Iterator[int]:
        member = self.members[ev.member]
        area = self.areas[ev.area]
        keyed_in = self.mainlist.area_of(ev.member)
        if keyed_in is not None:
            raise ProtocolError(f"{ev.member} is already keyed in {keyed_in}")
        member.busy = True
        t = ev.time
        self._emit(t, "igmp_connect", ev.member, area.area_id)
        self._emit(t, "join_request", ev.member, area.area_id, f"member={ev.member}")
        attempt = run_auth(self.mainlist, member, self.rng)
        self._emit(t, "auth_challenge", ev.member, area.area_id, attempt.detail)
        self._emit(t, "mainlist_query", area.area_id, "main", f"member={ev.member}")
        self._emit(t, "mainlist_update", "main", area.area_id, f"record member={ev.member}")
        t += self.auth_delay
        yield t
        self._emit(t, "auth_result", area.area_id, ev.member, "accepted" if attempt.accepted else "rejected")
        if not attempt.accepted:
            member.busy = False
            return
        self._note_auth_material(member)
        # otp goes straight on: even a zero wait would let work already
        # queued on this tick run first
        if self.mode == "ordinary":
            t += self.key_prep
            yield t
        self.ledger.setups.append(JoinSetupRecord(ev.member, area.area_id, self.mode, ev.time, t))
        member.busy = False
        self._key_in(ev.member, area, attempt.individual_key, t, "join")

    def _leave(self, ev: ScenarioEvent) -> None:
        area = self.areas[ev.area]
        if self.mainlist.area_of(ev.member) != area.area_id:
            raise ProtocolError(f"{ev.member} is not active in {area.area_id}")
        t = ev.time
        self._emit(t, "leave_request", ev.member, area.area_id, f"member={ev.member}")
        self._emit(t, "leave_request", area.area_id, "main", f"member={ev.member}")
        self.mainlist.advance(ev.member, STATUS_LEFT, t, last_area=area.area_id)
        self._emit(t, "mainlist_update", area.area_id, "main", f"member={ev.member} status=left")
        self._key_out(ev.member, area, t, "leave")

    def _move(self, ev: ScenarioEvent) -> Iterator[int]:
        member = self.members[ev.member]
        if ev.src == ev.dst:
            raise ProtocolError("move source and destination are the same area")
        if self.mainlist.area_of(ev.member) != ev.src:
            raise ProtocolError(f"{ev.member} is not active in {ev.src}")
        member.busy = True
        d = self.sc.delays
        # the probe phase scans channels; no protocol messages yet
        t = ev.time + d.probe
        yield t
        self._emit(t, "handoff_leave", ev.member, ev.src)
        self._emit(t, "handoff_join", ev.member, ev.dst)
        attempt = run_auth(self.mainlist, member, self.rng)
        self._emit(t, "auth_challenge", ev.member, ev.dst, attempt.detail)
        self.mainlist.advance(ev.member, STATUS_MOVING, t)
        self._emit(t, "mainlist_update", ev.src, "main", f"member={ev.member} status=moving")
        self._emit(t, "mainlist_query", ev.dst, "main", f"member={ev.member}")
        self._emit(t, "mainlist_update", "main", ev.dst, f"record member={ev.member}")
        t += self.auth_delay
        yield t
        self._emit(t, "auth_result", ev.dst, ev.member, "accepted" if attempt.accepted else "rejected")
        done = attempt.accepted
        if done:
            self._note_auth_material(member)
            t += self.key_prep + d.reassoc
            yield t
            self._key_in(ev.member, self.areas[ev.dst], attempt.individual_key, t, "move_join")
            # the old area serves the member until this acknowledgement
            self._emit(t, "area_join_ack", ev.dst, ev.src, f"member={ev.member}")
            self._key_out(ev.member, self.areas[ev.src], t, "move_leave")
        else:
            # the member never detached from the serving area; revert status
            self.mainlist.advance(ev.member, STATUS_ACTIVE, t)
            self._emit(t, "mainlist_update", ev.dst, "main", f"member={ev.member} status=active")
        # a refused hand-off spent nothing past its auth
        self.ledger.handoffs.append(
            HandoffRecord(
                ev.member, ev.src, ev.dst, ev.time, probe=d.probe, auth=self.auth_delay,
                key_prep=self.key_prep if done else 0, reassoc=d.reassoc if done else 0, completed=done,
            )
        )
        member.busy = False

    # -- keying in and out ------------------------------------------------

    def _publish_rekey(self, area: AreaState, ticks: int, rekey: Rekey, target: str | None) -> None:
        """Trace an event's payloads, then record what it stored, sent and
        taught each present member."""
        for msg in rekey.unicasts:
            self._emit(ticks, "key_unicast", area.area_id, target or "-", msg.info())
        for msg in rekey.multicasts:
            self._emit(ticks, "key_multicast", area.area_id, f"area:{area.area_id}", msg.info())
        self.recorder.record_keys(*area.tree.drain_stored())
        self._record_msgs(area, ticks, rekey.unicasts, "key_unicast", target=target)
        self._record_msgs(area, ticks, rekey.multicasts, "key_multicast")
        self._note_views(area)

    def _key_in(self, member_id: str, area: AreaState, individual_key: bytes, ticks: int, kind: str) -> None:
        if self.mode == "ordinary":
            # individual key travels over the registration-secured channel;
            # it is not part of the re-keying payload accounting
            self._emit(ticks, "key_unicast", area.area_id, member_id, f"individual-key {fingerprint(individual_key)}")
        rekey = area.join(member_id, individual_key)
        self._publish_rekey(area, ticks, rekey, target=member_id)
        self.mainlist.advance(member_id, STATUS_ACTIVE, ticks, last_area=area.area_id)
        self._emit(ticks, "mainlist_update", area.area_id, "main", f"member={member_id} status=active")
        self.recorder.open_window(member_id, area.area_id, ticks)
        self._append_event(ticks, kind, area, member_id, rekey)

    def _key_out(self, member_id: str, area: AreaState, ticks: int, kind: str) -> None:
        rekey = area.leave(member_id)
        self._publish_rekey(area, ticks, rekey, target=None)
        self.recorder.close_window(member_id, area.area_id, ticks)
        self._append_event(ticks, kind, area, member_id, rekey)

    # -- content ----------------------------------------------------------

    def _frame_tick(self, ticks: int) -> None:
        for area_id, area in self.areas.items():  # built in sorted order
            if area.size() == 0:
                continue
            self._frame_seq[area_id] += 1
            seq = self._frame_seq[area_id]
            group_key = area.group_key()
            frame = encrypt(group_key, f"{area_id}:{seq}".encode("ascii"))
            self._emit(ticks, "content_frame", area_id, f"area:{area_id}", f"seq={seq} {frame.fingerprint()}")
            self.recorder.record_ciphertext(
                CipherRecord(group_key, ticks, area_id, "content_frame", ciphertext=frame)
            )
            for member_id, view in area.views.items():
                self.mainlist.credit(member_id)
                try:
                    decrypt(view.group_key(), frame)
                    ok = True
                except DecryptionError:
                    ok = False
                self.ledger.frames.append(FrameRecord(ticks, area_id, member_id, ok))
        nxt = ticks + self.sc.delays.frame_interval
        if nxt <= self.sc.horizon:
            self._schedule(nxt, _PRIO_FRAME, self._frame_tick, nxt)


# -- deterministic renderers ----------------------------------------------

METRICS_HEADER = "event_id,time,kind,scheme,area,keygen,enc,unicast,multicast"


def render_metrics_csv(ledger: MetricsLedger) -> str:
    lines = [METRICS_HEADER]
    for row in ledger.events:
        c = row.counters
        lines.append(
            f"{row.event_id},{fmt_ticks(row.time)},{row.kind},{row.scheme},{row.area},"
            f"{c.key_generations},{c.encryptions},{c.unicast_sends},{c.multicast_sends}"
        )
    return "\n".join(lines) + "\n"


def render_trace(trace: list[ProtocolMessage]) -> str:
    lines = [f"{fmt_ticks(m.time)} {m.kind} {m.src}->{m.dst} {m.info}" for m in trace]
    return "\n".join(lines) + "\n" if lines else ""


def render_mainlist(sim: Simulation) -> str:
    doc = {
        "group": sim.mainlist.group_id,
        "scheme": sim.sc.scheme,
        "entries": sim.mainlist.to_doc(fmt_ticks),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def render_report(sim: Simulation) -> str:
    sc = sim.sc
    d = sc.delays
    out = []
    sizes = " ".join(f"{a}={len(sc.areas[a])}" for a in sorted(sc.areas))
    out.append(f"run: {sc.name} scheme={sc.scheme} seed={sc.seed} horizon={fmt_ticks(sc.horizon)}")
    out.append(f"initial areas: {sizes}")
    out.append("")
    out.append("re-keying events:")
    for row in sim.ledger.events:
        c = row.counters
        out.append(
            f"  event {row.event_id} t={fmt_ticks(row.time)} {row.kind} member={row.member}"
            f" area={row.area} size={row.size} keygen={c.key_generations}"
            f" enc={c.encryptions} unicast={c.unicast_sends} multicast={c.multicast_sends}"
        )
    totals = sim.ledger.totals()
    out.append(
        f"totals: keygen={totals.key_generations} enc={totals.encryptions}"
        f" unicast={totals.unicast_sends} multicast={totals.multicast_sends}"
    )
    out.append("")
    out.append("re-keying cost, joins (keys the server produced for the event,")
    out.append("individual key included when server-minted):")
    for row in sim.ledger.events:
        if row.kind.endswith("join"):
            out.append(
                f"  event {row.event_id} {row.kind} area={row.area} size={row.size} cost={row.cost}"
            )
    out.append("re-keying cost, leaves (tree levels re-keyed, the leaver's depth):")
    for row in sim.ledger.events:
        if row.kind.endswith("leave"):
            out.append(
                f"  event {row.event_id} {row.kind} area={row.area} size={row.size} cost={row.cost}"
            )
    out.append("")
    out.append("timing model:")
    out.append(f"  join setup (otp auth) = {fmt_ticks(d.join_setup('otp'))}")
    out.append(f"  join setup (ordinary auth) = {fmt_ticks(d.join_setup('ordinary'))}")
    out.append(f"  join setup delta = {fmt_ticks(d.join_setup_delta())}")
    out.append(f"  hand-off = probe + reauth + reassoc = {fmt_ticks(d.handoff_total())}")
    if sim.ledger.setups:
        out.append("realized join setups:")
        for s in sim.ledger.setups:
            out.append(f"  member={s.member} area={s.area} mode={s.mode} setup={fmt_ticks(s.setup())}")
    if sim.ledger.handoffs:
        out.append("realized hand-offs:")
        for h in sim.ledger.handoffs:
            state = "completed" if h.completed else "refused"
            out.append(
                f"  member={h.member} {h.src}->{h.dst} probe={fmt_ticks(h.probe)}"
                f" auth={fmt_ticks(h.auth)} key_prep={fmt_ticks(h.key_prep)}"
                f" reassoc={fmt_ticks(h.reassoc)} total={fmt_ticks(h.total())} {state}"
            )
    if sim.ledger.frames:
        delivered = Counter(fr.member for fr in sim.ledger.frames)
        decrypted = Counter(fr.member for fr in sim.ledger.frames if fr.decrypted)
        out.append("")
        out.append("content delivery:")
        for member_id in sorted(delivered):
            out.append(
                f"  member={member_id} delivered={delivered[member_id]} decrypted={decrypted[member_id]}"
            )
    out.append("")
    return "\n".join(out)
