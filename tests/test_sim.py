"""Event-driven simulator: timing model, operation guards, determinism,
trace/metrics agreement, content frames, and the secrecy audit."""

from __future__ import annotations

import hashlib
import json
import pickle
import random
import time
from collections import defaultdict
from importlib import resources

import pytest
from test_acceptance import ZERO_DELAYS, random_scenario

from crawsim import crypto, entities
from crawsim.crypto import KEY_WIDTH, ProtocolError, fingerprint
from crawsim.entities import MainList
from crawsim.otp import ClientSecret
from crawsim.scenario import apply_overrides, validate_doc
from crawsim.secrecy import check_secrecy
from oracles import operational_decrypt_check
from crawsim.sim import (
    METRICS_HEADER,
    TICKS_PER_SECOND,
    DelayConfig,
    Simulation,
    fmt_ticks,
    render_mainlist,
    render_metrics_csv,
    render_report,
    render_trace,
    to_ticks,
)
from crawsim.tree import MemberKeyView, PositionTree

AREAS = {
    "A": ["u1", "u2", "u3", "u4", "u5", "u6", "u7", "u8"],
    "B": ["v1", "v2", "v3", "v4", "v5", "v6", "v7"],
}


def scenario(events, *, scheme="ckc_craw", seed=5, frames=False, horizon=4.0, **extra):
    doc = {
        "schema_version": 1,
        "name": "t",
        "seed": seed,
        "scheme": scheme,
        "group": "g1",
        "horizon": horizon,
        "content_frames": frames,
        "areas": {k: list(v) for k, v in AREAS.items()},
        "members": ["w1"],
        "events": events,
    }
    doc.update(extra)
    return validate_doc(doc)


JOIN_W1 = {"time": 1.0, "op": "join", "member": "w1", "area": "A"}
LEAVE_U8 = {"time": 1.0, "op": "leave", "member": "u8", "area": "A"}
MOVE_U1 = {"time": 1.0, "op": "move", "member": "u1", "from": "A", "to": "B"}


def test_tick_conversions():
    assert to_ticks(0.9460337) == 9460337
    assert to_ticks(0) == 0
    assert fmt_ticks(9460337) == "0.9460337"
    assert fmt_ticks(123) == "0.0000123"
    assert fmt_ticks(3 * TICKS_PER_SECOND + 1) == "3.0000001"
    with pytest.raises(ValueError):
        to_ticks(-0.1)


def test_delay_model_exact_values():
    d = DelayConfig()
    assert d.handoff_total() == to_ticks(0.9460337)
    assert d.join_setup("otp") == to_ticks(0.0025170)
    assert d.join_setup("ordinary") == to_ticks(0.9392370)
    assert d.join_setup_delta() == to_ticks(0.9367200)
    custom = DelayConfig.from_seconds({"t_probe": 0.5, "t_keygen": 0.25})
    assert custom.probe == to_ticks(0.5)
    assert custom.keygen == to_ticks(0.25)
    assert custom.reauth == d.reauth  # untouched fields keep their defaults
    with pytest.raises(ValueError):
        DelayConfig.from_seconds({"t_warp": 1.0})
    with pytest.raises(ValueError):
        DelayConfig.from_seconds({"t_probe": -1.0})
    with pytest.raises(ValueError):
        DelayConfig.from_seconds({"t_probe": True})


def test_runs_are_deterministic_and_seed_sensitive():
    base = scenario([JOIN_W1, MOVE_U1.copy() | {"time": 2.0}, LEAVE_U8 | {"time": 3.0}], frames=True)
    one = Simulation(base).run()
    two = Simulation(scenario([JOIN_W1, MOVE_U1 | {"time": 2.0}, LEAVE_U8 | {"time": 3.0}], frames=True)).run()
    assert render_trace(one.trace) == render_trace(two.trace)
    assert render_metrics_csv(one.ledger) == render_metrics_csv(two.ledger)
    assert render_mainlist(one) == render_mainlist(two)
    assert render_report(one) == render_report(two)
    other = Simulation(
        scenario([JOIN_W1, MOVE_U1 | {"time": 2.0}, LEAVE_U8 | {"time": 3.0}], frames=True, seed=6)
    ).run()
    assert render_trace(other.trace) != render_trace(one.trace)  # key material differs
    # event kinds and times do not depend on the seed (tree shapes may,
    # because code digits are drawn at random)
    assert [(r.kind, r.time) for r in other.ledger.events] == [
        (r.kind, r.time) for r in one.ledger.events
    ]


def test_join_completion_times_by_auth_mode():
    sim = Simulation(scenario([JOIN_W1])).run()
    row = sim.ledger.events[0]
    assert row.kind == "join"
    assert row.time == to_ticks(1.0) + to_ticks(0.0025170)
    setup = sim.ledger.setups[0]
    assert sim.mode == "otp"
    assert setup.setup() == sim.sc.delays.join_setup("otp")

    for scheme in ("ckc_plain", "lkh"):
        sim = Simulation(scenario([JOIN_W1], scheme=scheme)).run()
        row = sim.ledger.events[0]
        assert row.time == to_ticks(1.0) + to_ticks(0.9392370)
        setup = sim.ledger.setups[0]
        assert sim.mode == "ordinary"
        assert setup.setup() == sim.sc.delays.join_setup("ordinary")
        assert setup.setup() - to_ticks(0.0025170) == sim.sc.delays.join_setup_delta()


def test_handoff_timeline_otp():
    sim = Simulation(scenario([MOVE_U1])).run()
    h = sim.ledger.handoffs[0]
    assert h.completed
    assert (h.probe, h.auth, h.key_prep, h.reassoc) == (
        to_ticks(0.0195167), to_ticks(0.002517), 0, to_ticks(0.924),
    )
    assert h.total() == to_ticks(0.9460337)
    kinds = [r.kind for r in sim.ledger.events]
    assert kinds == ["move_join", "move_leave"]
    t_done = to_ticks(1.0) + to_ticks(0.9460337)
    assert all(r.time == t_done for r in sim.ledger.events)
    assert sim.mainlist.area_of("u1") == "B"
    assert sim.areas["A"].size() == 7 and sim.areas["B"].size() == 8


def test_handoff_timeline_ordinary_includes_key_prep():
    sim = Simulation(scenario([MOVE_U1], scheme="lkh")).run()
    h = sim.ledger.handoffs[0]
    d = sim.sc.delays
    assert h.completed
    assert h.auth == d.auth_ordinary
    assert h.key_prep == d.keygen + d.keydist
    assert h.total() == d.probe + d.auth_ordinary + d.keygen + d.keydist + d.reassoc
    assert sim.ledger.events[0].time == to_ticks(1.0) + h.total()


def test_busy_member_rejects_overlapping_operation():
    sim = Simulation(scenario([MOVE_U1, {"time": 1.5, "op": "leave", "member": "u1", "area": "A"}]))
    with pytest.raises(ProtocolError, match="in flight"):
        sim.run()


def test_join_requires_not_being_keyed_elsewhere():
    sim = Simulation(scenario([{"time": 1.0, "op": "join", "member": "u1", "area": "B"}]))
    with pytest.raises(ProtocolError, match="already keyed"):
        sim.run()


def test_leave_requires_activity_in_that_area():
    sim = Simulation(scenario([{"time": 1.0, "op": "leave", "member": "u1", "area": "B"}]))
    with pytest.raises(ProtocolError, match="not active"):
        sim.run()


def test_move_requires_activity_in_source():
    events = [LEAVE_U8, {"time": 2.0, "op": "move", "member": "u8", "from": "A", "to": "B"}]
    sim = Simulation(scenario(events))
    with pytest.raises(ProtocolError, match="not active"):
        sim.run()


REFUSALS = {
    # each event list puts the refused event after a later-timed one, so
    # the path is its document position, not its place in time order
    "in_flight": (
        [{"time": 2.0, "op": "leave", "member": "u2", "area": "A"}, MOVE_U1,
         {"time": 1.5, "op": "leave", "member": "u1", "area": "A"}],
        "events[2] (t=1.5000000): u1 already has an operation in flight",
    ),
    "already_keyed": (
        [{"time": 2.0, "op": "leave", "member": "u2", "area": "A"},
         {"time": 1.0, "op": "join", "member": "u1", "area": "B"}],
        "events[1] (t=1.0000000): u1 is already keyed in A",
    ),
    "leave_not_active": (
        [{"time": 3.0, "op": "join", "member": "w1", "area": "A"},
         {"time": 1.0, "op": "leave", "member": "u1", "area": "B"}],
        "events[1] (t=1.0000000): u1 is not active in B",
    ),
    "move_not_active": (
        [{"time": 3.0, "op": "join", "member": "w1", "area": "A"}, LEAVE_U8,
         {"time": 2.0, "op": "move", "member": "u8", "from": "A", "to": "B"}],
        "events[2] (t=2.0000000): u8 is not active in A",
    ),
}


@pytest.mark.parametrize("kind", sorted(REFUSALS))
def test_a_refusal_names_its_event_by_field_path_and_time(kind):
    events, message = REFUSALS[kind]
    with pytest.raises(ProtocolError) as refused:
        Simulation(scenario(events)).run()
    assert str(refused.value) == message


def test_rejected_join_changes_nothing():
    sim = Simulation(scenario([JOIN_W1], scheme="ckc_plain"))
    sim.members["w1"].credential = b"\x00" * 16
    sim.run()
    text = render_trace(sim.trace)
    assert "auth_result A->w1 rejected" in text
    assert sim.mainlist.area_of("w1") is None
    assert not sim.members["w1"].busy
    assert sim.mainlist.lookup("w1").status == "registered"
    assert sim.ledger.events == [] == sim.ledger.setups
    assert sim.areas["A"].size() == 8
    assert sim.check_consistent()


def test_rejected_otp_join_changes_nothing():
    sim = Simulation(scenario([JOIN_W1]))
    entry = sim.mainlist.lookup("w1")
    entry.auth = sim.mainlist.lookup("u1").auth  # verifier mismatch
    sim.run()
    assert "auth_result A->w1 rejected" in render_trace(sim.trace)
    assert sim.mainlist.area_of("w1") is None
    assert sim.ledger.events == []
    assert sim.check_consistent()


def test_rejected_handoff_reverts_to_source_area():
    sim = Simulation(scenario([MOVE_U1], scheme="ckc_plain"))
    sim.members["u1"].credential = b"\x00" * 16
    sim.run()
    assert "auth_result B->u1 rejected" in render_trace(sim.trace)
    h = sim.ledger.handoffs[0]
    assert not h.completed
    assert h.key_prep == 0 and h.reassoc == 0
    entry = sim.mainlist.lookup("u1")
    assert entry.status == "active"
    assert entry.last_area == "A"
    assert sim.mainlist.area_of("u1") == "A"
    assert "u1" in sim.areas["A"].views and "u1" not in sim.areas["B"].views
    assert sim.ledger.events == []
    assert sim.check_consistent()


@pytest.mark.parametrize("scheme", ("ckc_craw", "lkh"))
def test_rejected_join_and_handoff_leave_only_the_later_leave(scheme):
    events = [JOIN_W1, MOVE_U1, {"time": 3.0, "op": "leave", "member": "u1", "area": "A"}]
    sim = Simulation(scenario(events, scheme=scheme))
    for member_id in ("w1", "u1"):
        member = sim.members[member_id]
        if isinstance(member.credential, ClientSecret):
            member.credential.current_nonce = b"\x00" * 16  # verifier no longer matches
        else:
            member.credential = b"\x00" * 16
    sim.run()
    lines = render_trace(sim.trace).splitlines()
    d = sim.sc.delays
    auth = d.reauth if scheme == "ckc_craw" else d.auth_ordinary
    t_join, t_move = to_ticks(1.0) + auth, to_ticks(1.0) + d.probe
    assert f"{fmt_ticks(t_join)} auth_result A->w1 rejected" in lines
    assert f"{fmt_ticks(t_move)} mainlist_update A->main member=u1 status=moving" in lines
    assert f"{fmt_ticks(t_move + auth)} auth_result B->u1 rejected" in lines
    assert f"{fmt_ticks(t_move + auth)} mainlist_update B->main member=u1 status=active" in lines

    [h] = sim.ledger.handoffs
    assert (h.member, h.src, h.dst, h.start, h.completed) == ("u1", "A", "B", to_ticks(1.0), False)
    assert (h.probe, h.auth, h.key_prep, h.reassoc) == (d.probe, auth, 0, 0)
    report = render_report(sim)
    assert f"member=u1 A->B probe={fmt_ticks(d.probe)} auth={fmt_ticks(auth)}" in report
    assert f"key_prep=0.0000000 reassoc=0.0000000 total={fmt_ticks(d.probe + auth)} refused" in report

    assert [(r.kind, r.member, r.area, r.time) for r in sim.ledger.events] == [("leave", "u1", "A", to_ticks(3.0))]
    assert sim.ledger.setups == []
    assert [sim.mainlist.area_of(m) for m in ("w1", "u1")] == [None, None]
    assert sim.check_consistent()
    assert check_secrecy(sim.recorder) == []


def test_trace_payload_lines_match_counters():
    events = [JOIN_W1, {"time": 2.0, "op": "leave", "member": "w1", "area": "A"}]
    sim = Simulation(scenario(events)).run()
    totals = sim.ledger.totals()
    lines = render_trace(sim.trace).splitlines()
    multis = [ln for ln in lines if " key_multicast " in ln]
    unis = [ln for ln in lines if " key_unicast " in ln]
    assert len(multis) == totals.multicast_sends
    assert len(unis) == totals.unicast_sends

    sim = Simulation(scenario(events, scheme="lkh")).run()
    lines = render_trace(sim.trace).splitlines()
    multis = [ln for ln in lines if " key_multicast " in ln]
    join_row, leave_row = sim.ledger.events
    d = join_row.depth
    # joins send one payload per level; the reported leave count books two
    # per level while only 2(d-1) carry fresh keys on the wire
    assert len(multis) == d + 2 * (d - 1)
    assert join_row.counters.multicast_sends + leave_row.counters.multicast_sends == 3 * d
    unis = [ln for ln in lines if " key_unicast " in ln]
    assert len(unis) == d + 1  # key chain plus the individual-key delivery


def test_metrics_csv_shape():
    events = [JOIN_W1, MOVE_U1 | {"time": 2.0}, {"time": 3.0, "op": "leave", "member": "u8", "area": "A"}]
    sim = Simulation(scenario(events)).run()
    text = render_metrics_csv(sim.ledger)
    lines = text.strip().split("\n")
    assert lines[0] == METRICS_HEADER == "event_id,time,kind,scheme,area,keygen,enc,unicast,multicast"
    assert len(lines) == 1 + 4  # join, move_join, move_leave, leave
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        assert int(cells[0]) == i
        whole, frac = cells[1].split(".")
        assert whole.isdigit() and len(frac) == 7
        assert cells[2] in {"join", "leave", "move_join", "move_leave"}
        assert cells[3] == "ckc_craw"
        assert all(c.isdigit() for c in cells[5:])


def test_mainlist_document():
    events = [JOIN_W1, MOVE_U1 | {"time": 2.0}, {"time": 3.0, "op": "leave", "member": "u8", "area": "A"}]
    sim = Simulation(scenario(events)).run()
    doc = json.loads(render_mainlist(sim))
    assert doc["group"] == "g1" and doc["scheme"] == "ckc_craw"
    by_member = {e["member"]: e for e in doc["entries"]}
    assert list(by_member) == sorted(by_member)
    assert by_member["u1"]["status"] == "active"
    assert by_member["u1"]["last_area"] == "B"
    assert by_member["u8"]["status"] == "left"
    assert by_member["w1"]["status"] == "active"
    assert by_member["v1"]["auth"]["kind"] == "otp"


def test_mainlist_document_names_a_non_default_group():
    sim = Simulation(scenario([JOIN_W1], group="news")).run()
    doc = json.loads(render_mainlist(sim))
    assert doc["group"] == "news"
    assert len(doc["entries"]) == 16
    assert all(entry["group"] == "news" for entry in doc["entries"])


def test_frames_delivery_and_accounting():
    events = [{"time": 1.0, "op": "leave", "member": "u8", "area": "A"}]
    sim = Simulation(scenario(events, frames=True, horizon=2.0)).run()
    per = {}
    for fr in sim.ledger.frames:
        assert fr.decrypted  # every delivered frame opened with the member's own view
        per[fr.member] = per.get(fr.member, 0) + 1
    assert per["u8"] == 99  # frames at 0.01 .. 0.99; the 1.00 frame follows the leave
    assert per["u1"] == 200
    assert all(per[f"v{i}"] == 200 for i in range(1, 8))
    assert sim.mainlist.lookup("u8").service_accounting == 99
    assert sim.mainlist.lookup("u1").service_accounting == 200
    last_u8 = max(fr.time for fr in sim.ledger.frames if fr.member == "u8")
    assert last_u8 < to_ticks(1.0)


def test_each_member_opens_frames_with_its_own_key():
    # u7 reads each area-A frame after u1..u6 have opened it under the right
    # key; a wrong root key in u7's view must still fail, frame after frame.
    broken_at = []

    def break_u7(sim, row):
        if row.kind == "leave" and row.member == "u8":
            view = sim.areas["A"].views["u7"]
            view.keys[view.leaf[0]] = bytes(KEY_WIDTH)
            broken_at.append(row.time)

    sim = Simulation(scenario([LEAVE_U8], frames=True, horizon=2.0), on_event=break_u7).run()
    (t,) = broken_at
    late_u7 = [fr for fr in sim.ledger.frames if fr.member == "u7" and fr.time >= t]
    assert late_u7 and [fr for fr in sim.ledger.frames if not fr.decrypted] == late_u7
    n = sum(fr.member == "u7" for fr in sim.ledger.frames)
    assert f"  member=u7 delivered={n} decrypted={n - len(late_u7)}\n" in render_report(sim)


def test_frames_are_opened_once_per_key_not_per_delivery(monkeypatch):
    real_aesgcm = crypto.AESGCM
    opened = []

    class CountingAESGCM:
        def __init__(self, key):
            self.key = key
            self.inner = real_aesgcm(key)

        def encrypt(self, nonce, data, aad):
            return self.inner.encrypt(nonce, data, aad)

        def decrypt(self, nonce, data, aad):
            plaintext = self.inner.decrypt(nonce, data, aad)
            opened.append((self.key, nonce, data))
            return plaintext

    sim = Simulation(scenario([], frames=True, horizon=1.0))
    monkeypatch.setattr(crypto, "AESGCM", CountingAESGCM)
    sim.run()
    frames = {
        (r.enc_key, r.ciphertext.nonce, r.ciphertext.body)
        for r in sim.recorder.ciphertexts
        if r.kind == "content_frame"
    }
    assert len(frames) == 200  # two areas, 100 ticks
    assert len(sim.ledger.frames) == 15 * 100
    assert all(fr.decrypted for fr in sim.ledger.frames)
    assert len(opened) == len(set(opened)) == len(frames)
    assert set(opened) == frames


# (deliveries, SHA-256 of repr(list(sim.ledger.frames))), taken while the
# ledger still kept one FrameRecord per delivery in a list
PINNED_DELIVERIES = {
    ("handoff", "ckc_craw"): (4500, "57c637fd4b9b61f587aed00ed29706ac254df0fa1cf5917aabea154a74cff9ff"),
    ("handoff", "ckc_plain"): (4500, "513243e03563ce19b352f7b470883deeb4dcb05ca6dc045cbbdb165b6adf6d53"),
    ("handoff", "lkh"): (4500, "513243e03563ce19b352f7b470883deeb4dcb05ca6dc045cbbdb165b6adf6d53"),
    ("departed", "ckc_craw"): (1499, "725d30364e79f186181d6ed41b6f15704e9c5e2cc47cd59ea428b2d96c2be163"),
    ("departed", "ckc_plain"): (1499, "725d30364e79f186181d6ed41b6f15704e9c5e2cc47cd59ea428b2d96c2be163"),
    ("departed", "lkh"): (1499, "725d30364e79f186181d6ed41b6f15704e9c5e2cc47cd59ea428b2d96c2be163"),
    (1, "ckc_craw"): (54, "06102d912318450f389e67720a2b8a2cc1ae8fd5bfb5e6c3188bb96cd76ec773"),
    (2, "ckc_plain"): (262, "f24853864fb7c6789e7b0e9083ca40bccbff0873e53b0c41e192c2cd95611b85"),
    (3, "lkh"): (362, "b60263868db5801516d4b00ec1c74b930a88a2d49ce1854c125aa2045f68bd7a"),
}


def bundled_doc(name: str) -> dict:
    return json.loads((resources.files("crawsim") / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("source, scheme", PINNED_DELIVERIES, ids=lambda v: str(v))
def test_frame_log_expands_to_the_pinned_deliveries(source, scheme):
    if isinstance(source, int):
        sc = random_scenario(source, scheme, frames=True)
    else:
        sc = validate_doc(apply_overrides(bundled_doc(source), scheme=scheme))
    sim = Simulation(sc).run()
    deliveries, digest = PINNED_DELIVERIES[source, scheme]
    assert len(sim.ledger.frames) == deliveries
    assert hashlib.sha256(repr(list(sim.ledger.frames)).encode()).hexdigest() == digest


def test_frame_log_does_not_grow_with_the_horizon():
    # departed: u8 leaves area A at 1.0 s, so the 8-member audience of the
    # frames at 0.01 .. 0.99 s gives way to a 7-member one for good
    short, long = (
        Simulation(validate_doc(apply_overrides(bundled_doc("departed"), pairs=[f"horizon={h}"]))).run()
        for h in (2, 20)
    )
    assert len(short.ledger.frames.runs) == len(long.ledger.frames.runs) == 2
    assert len(short.ledger.frames) == 99 * 8 + 101 * 7
    assert len(long.ledger.frames) == 99 * 8 + 1901 * 7  # about tenfold
    assert list(long.ledger.frames)[: len(short.ledger.frames)] == list(short.ledger.frames)


def test_a_frame_whose_outcome_changes_within_a_stretch_is_refused(monkeypatch):
    # no key changes between two re-keying events, so every frame of a
    # stretch opens as its first did; one that does not is refused, not
    # logged as a new run
    real = crypto.decrypt
    frames = []

    def second_frame_fails(key, frame):
        if frame not in frames:
            frames.append(frame)
        if len(frames) == 2:
            raise crypto.DecryptionError("spoiled")
        return real(key, frame)

    monkeypatch.setattr("crawsim.sim.decrypt", second_frame_fails)
    with pytest.raises(ProtocolError) as refused:
        Simulation(validate_doc(bundled_doc("departed"))).run()
    assert str(refused.value) == "area A: a frame's outcomes changed within a re-keying stretch"


@pytest.mark.parametrize(
    "source, scheme", [("handoff", s) for s in ("ckc_craw", "ckc_plain", "lkh")] + [(3, "lkh")],
    ids=lambda v: str(v),
)
def test_the_ledger_keeps_no_key_material(source, scheme):
    # the frame log keeps ids and outcomes; the readers' keys go at each bill
    if isinstance(source, int):
        sc = random_scenario(source, scheme, frames=True)
    else:
        sc = validate_doc(apply_overrides(bundled_doc(source), scheme=scheme))
    sim = Simulation(sc).run()
    dumped = pickle.dumps(sim.ledger)
    assert sim.recorder.key_universe and len(sim.ledger.frames) > 0
    assert [key for key in sim.recorder.key_universe if key in dumped] == []


def assert_billed_as_delivered(sim: Simulation) -> None:
    delivered = sim.ledger.frames.tally()
    for member_id, entry in sim.mainlist.entries.items():
        assert entry.service_accounting == delivered.get(member_id, [0, 0])[0], member_id


@pytest.mark.parametrize(
    "source, scheme", [("handoff", s) for s in ("ckc_craw", "ckc_plain", "lkh")] + [(3, "lkh")],
    ids=lambda v: str(v),
)
def test_billing_is_exact_at_every_hook_and_after_the_run(source, scheme):
    # frames are billed once per area per stretch, so a bill is due before
    # each hook sees the main list, and once more when the run ends
    if isinstance(source, int):
        sc = random_scenario(source, scheme, frames=True)
    else:
        sc = validate_doc(apply_overrides(bundled_doc(source), scheme=scheme))
    checked = []

    def hook(sim, row):
        assert_billed_as_delivered(sim)
        checked.append(row.event_id)

    sim = Simulation(sc, on_event=hook).run()
    assert checked and len(sim.ledger.frames) > 0
    assert_billed_as_delivered(sim)


def test_credit_calls_do_not_grow_with_the_horizon(monkeypatch):
    # handoff has one move, so each area has two stretches whatever the
    # horizon: one bill each, where one per frame tick grows tenfold
    calls = []
    real = MainList.credit

    def counting_credit(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(MainList, "credit", counting_credit)

    def count(horizon):
        calls.clear()
        Simulation(validate_doc(apply_overrides(bundled_doc("handoff"), pairs=[f"horizon={horizon}"]))).run()
        return len(calls)

    assert count(20) == count(200) > 0


def test_no_frame_is_sent_past_the_horizon():
    def run(interval):
        doc = {
            "schema_version": 1, "name": "t", "seed": 1, "scheme": "ckc_craw", "group": "g1",
            "horizon": 1.0, "content_frames": True, "delays": {"frame_interval": interval},
            "areas": {"A": ["u1", "u2"], "B": ["v1"], "C": []}, "members": [], "events": [],
        }
        sim = Simulation(validate_doc(doc)).run()
        frames = [line for line in render_trace(sim.trace).splitlines() if " content_frame " in line]
        return sim, frames

    # the first frame would fall at 5 s, past the 1 s horizon
    sim, frames = run(5.0)
    assert frames == [] and len(sim.ledger.frames) == 0
    assert "content delivery:" not in render_report(sim)
    assert all(entry.service_accounting == 0 for entry in sim.mainlist.entries.values())
    # a frame on the horizon itself is sent: one per non-empty area
    sim, frames = run(1.0)
    assert [line.split()[2] for line in frames] == ["A->area:A", "B->area:B"]
    assert all(line.startswith("1.0000000 ") for line in frames)
    assert len(sim.ledger.frames) == 3
    assert all(entry.service_accounting == 1 for entry in sim.mainlist.entries.values())


@pytest.mark.parametrize("scheme", ("ckc_craw", "ckc_plain", "lkh"))
@pytest.mark.parametrize("source", ("tables", "handoff", "departed", "churn"))
def test_recorder_holds_every_key_stored(monkeypatch, source, scheme):
    """Every key a tree or a view stores reaches the recorder, and nothing
    else does: the universe is the trees' keys, the ciphertext keys and the
    OTP verifiers; each member knows its views' keys and its verifiers.
    Budget: about 1.5 s for all twelve runs."""
    tree_keys, premises, view_keys, verifiers = set(), {}, defaultdict(set), defaultdict(set)

    def wrap(owner, name, log):
        original = getattr(owner, name)

        def wrapper(self, *args):
            out = original(self, *args)
            log(self, *args)
            return out

        monkeypatch.setattr(owner, name, wrapper)

    def log_set(tree, code, key, derived_from=None):
        tree_keys.add(key)
        if derived_from is not None:
            premises[key] = derived_from

    def log_auth(sim, member):
        if sim.mode == "otp":
            verifiers[member.member_id].add(sim.mainlist.lookup(member.member_id).auth.stored_hash)

    wrap(PositionTree, "__init__", lambda tree, group_key: tree_keys.add(group_key))
    wrap(PositionTree, "_set", log_set)
    wrap(MemberKeyView, "__post_init__", lambda view: view_keys[view.member_id].update(view.keys.values()))
    # a refresh pass writes each position at most once per view, so what
    # the views hold after it is every key it stored
    def log_pass(views, rekey):
        for view in views:
            view_keys[view.member_id].update(view.keys.values())

    for name in (
        "ckc_member_refresh_join", "ckc_member_refresh_leave",
        "lkh_member_refresh_join", "lkh_member_refresh_leave",
    ):
        wrap(entities, name, log_pass)
    wrap(Simulation, "_note_auth_material", log_auth)

    if source == "churn":
        sc = random_scenario(7, scheme, sizes=[6, 5, 4], n_ops=40)
    else:
        sc = validate_doc(apply_overrides(bundled_doc(source), scheme=scheme))
    rec = Simulation(sc).run().recorder

    enc_keys = {r.enc_key for r in rec.ciphertexts}
    assert rec.key_universe == tree_keys | enc_keys | set().union(*verifiers.values())
    assert rec.derived == premises and (premises or scheme == "lkh")
    assert sorted(rec.knowledge) == sorted(view_keys.keys() | verifiers.keys())
    for member, known in rec.knowledge.items():
        assert known == view_keys.get(member, set()) | verifiers.get(member, set()), member


@pytest.mark.parametrize("scheme", ("ckc_craw", "ckc_plain", "lkh"))
def test_mixed_run_passes_secrecy_audit(scheme):
    events = [
        JOIN_W1,
        {"time": 2.0, "op": "move", "member": "u1", "from": "A", "to": "B"},
        {"time": 3.0, "op": "leave", "member": "u8", "area": "A"},
        {"time": 3.5, "op": "leave", "member": "w1", "area": "A"},
    ]
    sim = Simulation(scenario(events, scheme=scheme, frames=True, horizon=4.0)).run()
    assert sim.check_consistent()
    assert check_secrecy(sim.recorder) == []
    assert operational_decrypt_check(sim.recorder) == []


@pytest.mark.parametrize("scheme", ("ckc_craw", "ckc_plain", "lkh"))
def test_large_bootstrap_is_quick_and_consistent(scheme):
    # the t=0 roster is keyed in one batch; keyed as 1024 sequential joins,
    # each refreshing every member already seated, it took about 11 s
    doc = {
        "schema_version": 1,
        "name": "big",
        "seed": 1,
        "scheme": scheme,
        "group": "g1",
        "horizon": 1.0,
        "areas": {"A": [f"m{i}" for i in range(1024)]},
        "members": [],
        "events": [],
    }
    sc = validate_doc(doc)
    t0 = time.perf_counter()
    sim = Simulation(sc)
    elapsed = time.perf_counter() - t0
    assert sim.check_consistent()
    assert elapsed < 3.0


def churn_scenario(n: int, scheme: str, n_ops: int = 48):
    """One area of ``n`` members, then ``n_ops`` events one second apart
    under zero delays, alternating a leave of a random present member with
    a join of a random absent one (a member that left, or ``w1``)."""
    rng = random.Random(n)
    present, absent = [f"m{i}" for i in range(n)], ["w1"]
    events = []
    for t in range(1, n_ops + 1):
        op, src, dst = ("leave", present, absent) if t % 2 else ("join", absent, present)
        member = src.pop(rng.randrange(len(src)))
        dst.append(member)
        events.append({"time": float(t), "op": op, "member": member, "area": "A"})
    return validate_doc({
        "schema_version": 1,
        "name": f"churn{n}",
        "seed": n,
        "scheme": scheme,
        "group": "g1",
        "horizon": float(n_ops + 1),
        "delays": ZERO_DELAYS,
        "areas": {"A": [f"m{i}" for i in range(n)]},
        "members": ["w1"],
        "events": events,
    })


def test_churn_at_scale_stays_consistent_and_secret():
    """48 alternating leaves and joins in one area of 64, 256 and 1024
    members, under every scheme: every view matches its tree after every
    event, and the secrecy audit finds nothing.  Budget: the whole matrix
    of nine runs with their audits in under 8 s; it takes about 4 s on a
    2-core host."""
    started = time.perf_counter()
    for n in (64, 256, 1024):
        for scheme in ("ckc_craw", "ckc_plain", "lkh"):
            checked = []
            sim = Simulation(
                churn_scenario(n, scheme), on_event=lambda s, row: checked.append(s.check_consistent())
            ).run()
            assert checked == [True] * 48, (n, scheme)
            assert check_secrecy(sim.recorder) == [], (n, scheme)
    elapsed = time.perf_counter() - started
    assert elapsed < 8.0, f"churn matrix took {elapsed:.2f}s"


@pytest.mark.parametrize("scheme", ("ckc_craw", "ckc_plain", "lkh"))
def test_a_4096_member_area_bootstraps_churns_and_audits_clean(scheme):
    """One area of 4096 members: the t=0 roster is keyed within a budget of
    1.5 s (0.2 to 0.4 s on a 2-core host; 1.8 to 2.0 s while every seat
    scanned all leaves), every view matches its tree after each of 8
    alternating leaves and joins, and the secrecy audit finds nothing."""
    checked = []
    started = time.perf_counter()
    sim = Simulation(
        churn_scenario(4096, scheme, n_ops=8), on_event=lambda s, row: checked.append(s.check_consistent())
    )
    elapsed = time.perf_counter() - started
    assert sim.check_consistent()
    assert elapsed < 1.5, f"4096-member bootstrap took {elapsed:.2f}s"
    sim.run()
    assert checked == [True] * 8
    assert check_secrecy(sim.recorder) == []


@pytest.mark.parametrize("scheme", ("ckc_craw", "ckc_plain", "lkh"))
def test_bootstrap_chains_are_audited(scheme):
    sim = Simulation(scenario([JOIN_W1], scheme=scheme))
    boot = [c for c in sim.recorder.ciphertexts if c.time == 0]
    # one unicast per initial member, under its individual key
    views = {m: sim.areas[a].views[m] for a in sorted(AREAS) for m in AREAS[a]}
    assert [(c.target, c.enc_key) for c in boot] == [(m, view.keys[view.leaf]) for m, view in views.items()]
    assert {c.kind for c in boot} == {"key_unicast"}
    sim.run()
    assert check_secrecy(sim.recorder) == []
    # a later joiner that somehow held one individual key could open a t=0 unicast
    assert boot[0].target == "u1"
    sim.recorder.note_knowledge("w1", [boot[0].enc_key])
    held = fingerprint(boot[0].enc_key)
    assert f"w1 can derive the key of a key_unicast in A at t=0 via held {held}" in check_secrecy(sim.recorder)


def test_report_sections():
    sim = Simulation(scenario([JOIN_W1, MOVE_U1 | {"time": 2.0}])).run()
    text = render_report(sim)
    assert "run: t scheme=ckc_craw seed=5" in text
    assert "initial areas: A=8 B=7" in text
    assert "join setup (otp auth) = 0.0025170" in text
    assert "join setup (ordinary auth) = 0.9392370" in text
    assert "join setup delta = 0.9367200" in text
    assert "hand-off = probe + reauth + reassoc = 0.9460337" in text
    assert "total=0.9460337 completed" in text
    assert "mode=otp setup=0.0025170" in text


# SHA-256 of render_trace + render_metrics_csv for SAME_TICK_EVENTS.
SAME_TICK_SHA256 = {
    "ckc_craw": "9f1fb7042b83fc0e85cdbc75e0619e8b34714541c0743a233a1d69bf2b5ab0c5",
    "ckc_plain": "fd8a95cb156a31ede3f70f20b5434439ec9186d1908735b4cf656f9689128bf3",
    "lkh": "b0075bfe94f7c7d85b064697b8513476110c30b2c4a842a041f0affd5856edff",
}
SAME_TICK_EVENTS = [
    {"time": 1.0, "op": "join", "member": "x", "area": "A"},
    {"time": 1.0, "op": "join", "member": "y", "area": "B"},
    {"time": 1.0, "op": "move", "member": "a1", "from": "A", "to": "B"},
    {"time": 1.0, "op": "leave", "member": "b1", "area": "B"},
]


@pytest.mark.parametrize("scheme", sorted(SAME_TICK_SHA256))
def test_same_tick_order_under_zero_delays(scheme):
    """With every delay zero, each phase of every operation lands on one
    tick, so only the order of the waits orders them: under ordinary auth a
    join waits for its (empty) key preparation, under otp it does not."""
    zero = ("t_probe", "t_reauth", "t_reassoc", "t_keygen", "t_keydist", "t_auth_ordinary")
    doc = {
        "schema_version": 1,
        "name": "same_tick",
        "seed": 5,
        "scheme": scheme,
        "group": "g1",
        "horizon": 2.0,
        "delays": {k: 0 for k in zero},
        "areas": {"A": ["a1", "a2", "a3"], "B": ["b1", "b2"]},
        "members": ["x", "y"],
        "events": SAME_TICK_EVENTS,
    }
    sim = Simulation(validate_doc(doc)).run()
    text = render_trace(sim.trace) + render_metrics_csv(sim.ledger)
    assert hashlib.sha256(text.encode()).hexdigest() == SAME_TICK_SHA256[scheme]


def shared_tick_doc(trial: int) -> dict:
    """A legal random document whose events share ticks: at most six
    members in one to three areas, every delay zero, content frames on, and
    one to three operations on each event tick, no member twice in one
    tick.  Event ticks fall on frame ticks too, and the first may be t=0."""
    rng = random.Random(7000 + trial)
    n_areas = rng.randint(1, 3)
    members = [f"m{i}" for i in range(rng.randint(2, 6))]
    location = {m: rng.choice([None] + [f"A{a}" for a in range(n_areas)]) for m in members}
    areas = {f"A{a}": [m for m in members if location[m] == f"A{a}"] for a in range(n_areas)}
    extra = [m for m in members if location[m] is None]
    events = []
    t = rng.choice([0.0, 0.25])
    for _ in range(rng.randint(2, 5)):
        for m in rng.sample(members, rng.randint(1, min(3, len(members)))):
            here = location[m]
            ops = (["leave", "move"] if n_areas > 1 else ["leave"]) if here else ["join"]
            op = rng.choice(ops)
            if op == "join":
                location[m] = rng.choice(sorted(areas))
                events.append({"time": t, "op": "join", "member": m, "area": location[m]})
            elif op == "leave":
                location[m] = None
                events.append({"time": t, "op": "leave", "member": m, "area": here})
            else:
                location[m] = rng.choice(sorted(set(areas) - {here}))
                events.append({"time": t, "op": "move", "member": m, "from": here, "to": location[m]})
        t += rng.choice([0.25, 0.5, 1.0])
    return {
        "schema_version": 1,
        "name": f"ticks{trial}",
        "seed": trial,
        "scheme": "ckc_craw",
        "group": "g1",
        "horizon": t + 0.5,
        "content_frames": True,
        "delays": ZERO_DELAYS | {"frame_interval": 0.25},
        "areas": areas,
        "members": extra,
        "events": events,
    }


def test_schemes_agree_on_windows_frames_and_entries_under_zero_delays():
    """A metamorphic check: with every delay zero, the scheme changes only
    key material, so one document gives the same membership windows, the
    same frame deliveries and the same main-list entries (their auth
    material aside) under all three schemes.  Each run also stays
    consistent and audits clean, though its events share ticks.  Forty
    random documents and the three bundled scenarios with delays zeroed.
    Budget: 10 seconds (about 0.5 s on a 2-core host)."""
    docs = [shared_tick_doc(trial) for trial in range(40)]
    for name in ("tables", "handoff", "departed"):
        doc = bundled_doc(name)
        docs.append(dict(doc, delays=doc.get("delays", {}) | ZERO_DELAYS))
    started = time.monotonic()
    shared = 0
    for doc in docs:
        seen = []
        for scheme in ("ckc_craw", "ckc_plain", "lkh"):
            sim = Simulation(validate_doc(dict(doc, scheme=scheme))).run()
            assert sim.check_consistent()
            assert check_secrecy(sim.recorder) == [], (doc["name"], scheme)
            windows = {m: [(w.area, w.start, w.end) for w in ws] for m, ws in sim.recorder.windows.items()}
            entries = json.loads(render_mainlist(sim))["entries"]
            for entry in entries:
                del entry["auth"]
            seen.append((windows, list(sim.ledger.frames), entries))
        assert seen[0] == seen[1] == seen[2], doc["name"]
        ticks = [e["time"] for e in doc["events"]]
        shared += len(ticks) > len(set(ticks))
    elapsed = time.monotonic() - started
    assert shared >= 30  # most documents put several events on one tick
    assert elapsed < 10.0, f"metamorphic check took {elapsed:.1f}s"
