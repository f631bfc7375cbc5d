"""Main-list lifecycle, authentication dispatch, and per-area join/leave
orchestration across all three schemes."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from crawsim.ckc import ckc_member_refresh_leave
from crawsim.crypto import ProtocolError, decrypt, random_key
from crawsim.entities import (
    SCHEMES,
    STATUS_ACTIVE,
    STATUS_LEFT,
    STATUS_MOVING,
    STATUS_REGISTERED,
    AreaState,
    MainList,
    MobileMember,
    ProtocolMessage,
    run_auth,
)
from crawsim.crypto import encrypt
from crawsim.lkh import lkh_member_refresh_leave
from crawsim.otp import ClientSecret
from crawsim.tree import JoinNotice, LeaveNotice, WireMessage, WirePayload


def make_member(mainlist: MainList, member_id: str, rng: random.Random) -> MobileMember:
    member = MobileMember(member_id, secret=ClientSecret(member_id, b"pw:" + member_id.encode(), rng))
    mainlist.register(member)
    return member


def test_message_kind_is_validated():
    msg = ProtocolMessage(0, "join_request", "u1", "A")
    assert msg.kind == "join_request"
    with pytest.raises(ProtocolError):
        ProtocolMessage(0, "teleport_request", "u1", "A")


def test_register_and_duplicate_rejected():
    ml = MainList("g1")
    ml.register(MobileMember("u1"))
    assert ml.lookup("u1").status == STATUS_REGISTERED
    assert ml.lookup("u2") is None
    with pytest.raises(ProtocolError):
        ml.register(MobileMember("u1"))


def test_status_walk_through_the_lifecycle():
    ml = MainList("g1")
    ml.register(MobileMember("u1"))
    ml.advance("u1", STATUS_ACTIVE, 10, last_area="A")
    ml.advance("u1", STATUS_MOVING, 20)
    entry = ml.advance("u1", STATUS_ACTIVE, 30, last_area="B")
    assert entry.last_area == "B"
    assert entry.last_update == 30
    ml.advance("u1", STATUS_LEFT, 40)
    # a departed subscriber may come back
    assert ml.advance("u1", STATUS_ACTIVE, 50, last_area="A").status == STATUS_ACTIVE


def test_area_of_follows_the_main_list_status():
    ml = MainList("g1")
    ml.register(MobileMember("u1"))
    assert ml.area_of("u1") is None  # registered, never keyed in
    assert ml.area_of("u9") is None
    ml.advance("u1", STATUS_ACTIVE, 10, last_area="A")
    assert ml.area_of("u1") == "A"
    ml.advance("u1", STATUS_MOVING, 20)
    assert ml.area_of("u1") == "A"  # still served by the source area
    ml.advance("u1", STATUS_ACTIVE, 30, last_area="B")
    assert ml.area_of("u1") == "B"
    entry = ml.advance("u1", STATUS_LEFT, 40, last_area="B")
    assert entry.last_area == "B" and ml.area_of("u1") is None


def test_illegal_transitions_rejected():
    bad = [
        (STATUS_REGISTERED, STATUS_MOVING),
        (STATUS_REGISTERED, STATUS_LEFT),
        (STATUS_ACTIVE, STATUS_ACTIVE),
        (STATUS_ACTIVE, STATUS_REGISTERED),
        (STATUS_MOVING, STATUS_LEFT),
        (STATUS_MOVING, STATUS_MOVING),
        (STATUS_LEFT, STATUS_MOVING),
        (STATUS_LEFT, STATUS_LEFT),
    ]
    for src, dst in bad:
        ml = MainList("g1")
        ml.register(MobileMember("u1")).status = src
        with pytest.raises(ProtocolError):
            ml.advance("u1", dst, 1)


def test_advance_and_credit_require_registration():
    ml = MainList("g1")
    with pytest.raises(ProtocolError):
        ml.advance("ghost", STATUS_ACTIVE, 0)
    with pytest.raises(ProtocolError):
        ml.credit("ghost")


def test_accounting_only_increases():
    ml = MainList("g1")
    ml.register(MobileMember("u1"))
    for n in range(1, 201):
        ml.credit("u1")
        assert ml.lookup("u1").service_accounting == n


def test_entry_documents():
    rng = random.Random(1)
    ml = MainList("g1")
    make_member(ml, "u1", rng)
    ml.register(MobileMember("u2", credential=random_key(rng)))
    docs = ml.to_doc(str)
    assert [d["member"] for d in docs] == ["u1", "u2"]
    assert docs[0]["auth"]["kind"] == "otp"
    assert docs[0]["auth"]["session_index"] == 1
    assert len(docs[0]["auth"]["verifier"]) == 12
    assert docs[1]["auth"] == {"kind": "credential", "tag": docs[1]["auth"]["tag"]}
    assert docs[0]["status"] == STATUS_REGISTERED


def test_otp_auth_accepts_and_rolls_forward():
    rng = random.Random(11)
    ml = MainList("g1")
    member = make_member(ml, "u1", rng)
    keys = []
    for i in range(5):
        attempt = run_auth(ml, member, rng)
        assert attempt.accepted
        keys.append(attempt.individual_key)
        entry = ml.lookup("u1")
        assert entry.auth.session_index == i + 2
    assert len(set(keys)) == len(keys)


def test_otp_auth_without_registration_recovers():
    rng = random.Random(12)
    ml = MainList("g1")
    member = MobileMember("u1", secret=ClientSecret("u1", b"pw:u1", rng))
    attempt = run_auth(ml, member, rng)
    assert not attempt.accepted
    # the client discarded its pending state, so a later registration
    # followed by a fresh attempt still lines up
    ml.register(member)
    assert run_auth(ml, member, rng).accepted


def test_credential_auth_paths():
    rng = random.Random(13)
    ml = MainList("g1")
    cred = random_key(rng)
    good = MobileMember("u1", credential=cred)
    ml.register(good)
    first = run_auth(ml, good, rng)
    second = run_auth(ml, good, rng)
    assert first.accepted and second.accepted
    assert first.individual_key != second.individual_key  # minted per session
    impostor = MobileMember("u1", credential=random_key(rng))
    assert not run_auth(ml, impostor, rng).accepted
    stranger = MobileMember("u9", credential=cred)
    assert not run_auth(ml, stranger, rng).accepted


def test_wire_message_info_format():
    ct = encrypt(b"\x01" * 16, b"payload")
    payload = WirePayload("12", b"\x01" * 16, ct)
    msg = WireMessage("code=12", [payload, payload])
    desc, fps = msg.info().split(" ")
    assert desc == "code=12"
    assert fps == f"{ct.fingerprint()}+{ct.fingerprint()}"


@pytest.mark.parametrize("scheme", SCHEMES)
def test_area_join_leave_keeps_every_view_consistent(scheme):
    rng = random.Random(101)
    area = AreaState("A", scheme, rng)
    for i in range(1, 9):
        outcome = area.join(f"u{i}", random_key(rng))
        assert isinstance(outcome.notice, JoinNotice)
        assert area.size() == i
        assert area.consistent()
    for view in area.views.values():
        assert view.group_key() == area.group_key()
    for victim in ("u1", "u5", "u8"):
        outcome = area.leave(victim)
        assert isinstance(outcome.notice, LeaveNotice)
        assert victim not in area.views
        assert area.consistent()
        for view in area.views.values():
            assert view.group_key() == area.group_key()
    assert sorted(area.views) == ["u2", "u3", "u4", "u6", "u7"]
    # one wrong key in one present view is enough for the oracle to object
    view = area.views["u2"]
    code = view.leaf
    kept = view.keys[code]
    view.keys[code] = bytes(b ^ 1 for b in kept)
    assert not area.consistent()
    view.keys[code] = kept
    assert area.consistent()
    # a non-member's leave is refused before any change or draw
    before = (area.tree.dump(), rng.getstate(), sorted(area.views))
    with pytest.raises(ProtocolError):
        area.leave("nobody")
    assert (area.tree.dump(), rng.getstate(), sorted(area.views)) == before
    with pytest.raises(ProtocolError):
        AreaState("A", "mystery", rng)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_member_views_refuse_a_missed_notice_their_own_leave_and_any_mismatch(scheme):
    refresh_leave = lkh_member_refresh_leave if scheme == "lkh" else ckc_member_refresh_leave
    rng = random.Random(58)
    area = AreaState("A", scheme, rng)
    for i in range(6):
        area.join(f"u{i}", random_key(rng))
    departed = area.views["u5"]
    outcome = area.leave("u5")
    with pytest.raises(ProtocolError, match="departed member cannot refresh"):
        refresh_leave(departed, outcome.notice, outcome.multicasts)
    # the oracle refuses a view that is right but for one thing
    view = area.views["u1"]
    assert area.tree.view_matches(view)
    sibling = next(c for c in area.tree._children(view.leaf[:-1]) if c != view.leaf)
    for wrong in (
        replace(view, epoch=view.epoch - 1),
        replace(view, keys={c: k for c, k in view.keys.items() if c != view.leaf}),
        replace(view, keys={**view.keys, sibling: area.tree.nodes[sibling]}),
    ):
        assert not area.tree.view_matches(wrong)
    # a member that misses one announcement cannot follow the next
    lagging = area.views.pop("u0")
    area.join("u6", random_key(rng))
    area.views["u0"] = lagging
    with pytest.raises(ProtocolError, match=r"u0 missed an announcement \(view at 7, notice 9\)"):
        area.leave("u6")


def test_join_outcome_counters_by_scheme():
    rng = random.Random(55)
    for scheme, expected_keygen, expected_cost in (
        ("ckc_craw", 1, 1),
        ("ckc_plain", 2, 2),
    ):
        area = AreaState("A", scheme, rng)
        for i in range(7):
            area.join(f"u{i}", random_key(rng))
        outcome = area.join("u7", random_key(rng))
        assert outcome.counters.key_generations == expected_keygen
        assert outcome.counters.encryptions == 1
        assert outcome.counters.unicast_sends == 1
        assert outcome.counters.multicast_sends == 0
        assert outcome.cost == expected_cost
        assert len(outcome.unicasts) == 1
        assert not outcome.multicasts

    area = AreaState("A", "lkh", rng)
    for i in range(7):
        area.join(f"u{i}", random_key(rng))
    outcome = area.join("u7", random_key(rng))
    d = len(outcome.notice.leaf) - 1
    assert d == 3  # eighth member of a balanced binary tree
    assert outcome.counters.key_generations == d
    assert outcome.counters.encryptions == 3 * d
    assert outcome.counters.unicast_sends == d
    assert outcome.counters.multicast_sends == d
    assert outcome.cost == d + 1
    assert len(outcome.unicasts) == d
    assert len(outcome.multicasts) == d


@pytest.mark.parametrize("scheme", SCHEMES)
def test_batch_seat_and_hand_out_equal_sequential_joins(scheme):
    key_rng = random.Random(99)
    keys = [random_key(key_rng) for _ in range(40)]
    batch = AreaState("A", scheme, random.Random(3))
    sequential = AreaState("A", scheme, random.Random(3))
    member_ids = [f"m{i:02d}" for i in range(40)]
    for m, k in zip(member_ids, keys):
        batch.tree.seat(m, k, batch.rng)
    for m, k in zip(member_ids, keys):
        msgs = batch.hand_out(m, k)
        # one chain link per level above the member's leaf
        assert len(msgs) == len(batch.views[m].leaf) - 1
    for m, k in zip(member_ids, keys):
        sequential.join(m, k)
    assert batch.tree.dump() == sequential.tree.dump()
    assert batch.rng.getstate() == sequential.rng.getstate()
    for m in member_ids:
        vb, vs = batch.views[m], sequential.views[m]
        assert (vb.leaf, vb.keys, vb.epoch) == (vs.leaf, vs.keys, vs.epoch)
    assert batch.consistent() and sequential.consistent()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_audit_handle_opens_its_own_payload(scheme):
    # the secrecy audit reads enc_key as the key that protects a payload
    rng = random.Random(57)
    area = AreaState("A", scheme, rng)
    seated = [(f"s{i}", random_key(rng)) for i in range(6)]
    for m, key in seated:
        area.tree.seat(m, key, area.rng)
    msgs = [msg for m, key in seated for msg in area.hand_out(m, key)]
    present = [m for m, _ in seated]
    for i in range(30):
        if present and rng.random() < 0.4:
            outcome = area.leave(present.pop(rng.randrange(len(present))))
        else:
            present.append(f"j{i}")
            outcome = area.join(present[-1], random_key(rng))
        msgs += outcome.unicasts + outcome.multicasts
    assert area.consistent()
    payloads = [(msg.desc, p) for msg in msgs for p in msg.payloads]
    assert len(payloads) > 60
    for desc, p in payloads:
        decrypt(p.enc_key, p.ciphertext)
        field, _, position = desc.split()[0].partition("=")
        if field == "label":  # LKH, and every t=0 chain: under a child of the label
            assert p.under[:-1] == position, desc
        else:  # CKC: a join unicast under the joiner's leaf, a leave under a cover
            assert p.under == position, desc


def test_leave_outcome_counters_by_scheme():
    rng = random.Random(56)
    for scheme in ("ckc_craw", "ckc_plain"):
        area = AreaState("A", scheme, rng)
        for i in range(8):
            area.join(f"u{i}", random_key(rng))
        outcome = area.leave("u3")
        d = len(outcome.notice.leaf) - 1
        assert d == 3
        assert outcome.counters.key_generations == 1
        assert outcome.counters.encryptions == d
        assert outcome.counters.unicast_sends == 0
        assert outcome.counters.multicast_sends == d
        assert outcome.cost == d
        assert len(outcome.multicasts) == d

    area = AreaState("A", "lkh", rng)
    for i in range(8):
        area.join(f"u{i}", random_key(rng))
    outcome = area.leave("u3")
    d = len(outcome.notice.leaf) - 1
    assert d == 3
    # reported accounting: d-1 fresh keys, two encryptions per level
    assert outcome.counters.key_generations == d - 1
    assert outcome.counters.encryptions == 2 * d
    assert outcome.counters.multicast_sends == 2 * d
    assert len(outcome.multicasts) == 2 * (d - 1)  # realized payload messages
