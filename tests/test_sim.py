"""Event-driven simulator: timing model, operation guards, determinism,
trace/metrics agreement, content frames, and the secrecy audit."""

from __future__ import annotations

import hashlib
import json
import time

import pytest

from crawsim import crypto
from crawsim.crypto import KEY_WIDTH, ProtocolError, fingerprint
from crawsim.scenario import validate_doc
from crawsim.secrecy import check_secrecy, operational_decrypt_check
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
    assert setup.mode == "otp"
    assert setup.setup() == sim.sc.delays.join_setup("otp")

    for scheme in ("ckc_plain", "lkh"):
        sim = Simulation(scenario([JOIN_W1], scheme=scheme)).run()
        row = sim.ledger.events[0]
        assert row.time == to_ticks(1.0) + to_ticks(0.9392370)
        setup = sim.ledger.setups[0]
        assert setup.mode == "ordinary"
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
        if member.secret is not None:
            member.secret.current_nonce = b"\x00" * 16  # verifier no longer matches
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


def test_large_lkh_bootstrap_is_quick_and_consistent():
    # the t=0 roster is keyed in one batch; keyed as 1024 sequential joins,
    # each refreshing every member already seated, it took about 11 s
    doc = {
        "schema_version": 1,
        "name": "big",
        "seed": 1,
        "scheme": "lkh",
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


@pytest.mark.parametrize("scheme", ("ckc_craw", "ckc_plain", "lkh"))
def test_bootstrap_chains_are_audited(scheme):
    sim = Simulation(scenario([JOIN_W1], scheme=scheme))
    boot = [c for c in sim.recorder.ciphertexts if c.time == 0]
    # one unicast chain per initial member, one link per level of its leaf
    views = {m: sim.areas[a].views[m] for a in sorted(AREAS) for m in AREAS[a]}
    assert [c.target for c in boot] == [m for m, view in views.items() for _ in view.leaf[1:]]
    assert {c.kind for c in boot} == {"key_unicast"}
    sim.run()
    assert check_secrecy(sim.recorder) == []
    # a later joiner that somehow held one chain key could open a t=0 link
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
    "ckc_craw": "6f791ba926ca96e30eba4cd694a0fe29a13c9970b4a00c652cbe07586551ee1b",
    "ckc_plain": "24bdc00f61c9586af16b6addebe4e48a1275d5eb837f3dcdd5f1ff00da165bc4",
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
