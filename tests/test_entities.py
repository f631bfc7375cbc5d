"""Main-list lifecycle, authentication dispatch, and per-area join/leave
orchestration across all three schemes."""

from __future__ import annotations

import random

import pytest

from crawsim.crypto import ProtocolError, decrypt, random_key
from crawsim.entities import (
    SCHEMES,
    STATUS_ACTIVE,
    STATUS_LEFT,
    STATUS_MOVING,
    STATUS_REGISTERED,
    AreaState,
    MainList,
    MainListEntry,
    MainServer,
    MobileMember,
    ProtocolMessage,
    run_auth,
)
from crawsim.crypto import encrypt
from crawsim.otp import ClientSecret
from crawsim.tree import WireMessage, WirePayload


def make_member(main: MainServer, member_id: str, rng: random.Random) -> MobileMember:
    secret = ClientSecret(member_id, b"pw:" + member_id.encode(), rng)
    main.register_otp(secret)
    return MobileMember(member_id, secret=secret)


def test_message_kind_is_validated():
    msg = ProtocolMessage(0, "join_request", "u1", "A")
    assert msg.kind == "join_request"
    with pytest.raises(ProtocolError):
        ProtocolMessage(0, "teleport_request", "u1", "A")


def test_register_and_duplicate_rejected():
    ml = MainList()
    ml.register(MainListEntry("u1", "g1"))
    assert ml.lookup("u1", "g1").status == STATUS_REGISTERED
    assert ml.lookup("u1", "g2") is None
    with pytest.raises(ProtocolError):
        ml.register(MainListEntry("u1", "g1"))
    ml.register(MainListEntry("u1", "g2"))  # same member, different group is fine


def test_status_walk_through_the_lifecycle():
    ml = MainList()
    ml.register(MainListEntry("u1", "g1"))
    ml.advance("u1", "g1", STATUS_ACTIVE, 10, last_area="A")
    ml.advance("u1", "g1", STATUS_MOVING, 20)
    entry = ml.advance("u1", "g1", STATUS_ACTIVE, 30, last_area="B")
    assert entry.last_area == "B"
    assert entry.last_update == 30
    ml.advance("u1", "g1", STATUS_LEFT, 40)
    # a departed subscriber may come back
    assert ml.advance("u1", "g1", STATUS_ACTIVE, 50, last_area="A").status == STATUS_ACTIVE


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
        ml = MainList()
        ml.register(MainListEntry("u1", "g1", status=src))
        with pytest.raises(ProtocolError):
            ml.advance("u1", "g1", dst, 1)


def test_advance_and_credit_require_registration():
    ml = MainList()
    with pytest.raises(ProtocolError):
        ml.advance("ghost", "g1", STATUS_ACTIVE, 0)
    with pytest.raises(ProtocolError):
        ml.credit("ghost", "g1")


def test_accounting_only_increases():
    rng = random.Random(7)
    ml = MainList()
    ml.register(MainListEntry("u1", "g1"))
    total = 0
    for _ in range(200):
        units = rng.randrange(0, 5)
        ml.credit("u1", "g1", units)
        total += units
        assert ml.lookup("u1", "g1").service_accounting == total
    with pytest.raises(ProtocolError):
        ml.credit("u1", "g1", -1)
    assert ml.lookup("u1", "g1").service_accounting == total


def test_entry_documents():
    rng = random.Random(1)
    main = MainServer("g1")
    make_member(main, "u1", rng)
    main.register_credential("u2", random_key(rng))
    docs = main.mainlist.to_doc(str)
    assert [d["member"] for d in docs] == ["u1", "u2"]
    assert docs[0]["auth"]["kind"] == "otp"
    assert docs[0]["auth"]["session_index"] == 1
    assert len(docs[0]["auth"]["verifier"]) == 12
    assert docs[1]["auth"] == {"kind": "credential", "tag": docs[1]["auth"]["tag"]}
    assert docs[0]["status"] == STATUS_REGISTERED


def test_otp_auth_accepts_and_rolls_forward():
    rng = random.Random(11)
    main = MainServer("g1")
    member = make_member(main, "u1", rng)
    keys = []
    for i in range(5):
        attempt = run_auth(main, member, rng)
        assert attempt.accepted
        keys.append(attempt.individual_key)
        entry = main.mainlist.lookup("u1", "g1")
        assert entry.auth.session_index == i + 2
    assert len(set(keys)) == len(keys)


def test_otp_auth_without_registration_recovers():
    rng = random.Random(12)
    main = MainServer("g1")
    secret = ClientSecret("u1", b"pw:u1", rng)
    member = MobileMember("u1", secret=secret)
    attempt = run_auth(main, member, rng)
    assert not attempt.accepted
    # the client discarded its pending state, so a later registration
    # followed by a fresh attempt still lines up
    main.register_otp(secret)
    assert run_auth(main, member, rng).accepted


def test_credential_auth_paths():
    rng = random.Random(13)
    main = MainServer("g1")
    cred = random_key(rng)
    main.register_credential("u1", cred)
    good = MobileMember("u1", credential=cred)
    first = run_auth(main, good, rng)
    second = run_auth(main, good, rng)
    assert first.accepted and second.accepted
    assert first.individual_key != second.individual_key  # minted per session
    impostor = MobileMember("u1", credential=random_key(rng))
    assert not run_auth(main, impostor, rng).accepted
    stranger = MobileMember("u9", credential=cred)
    assert not run_auth(main, stranger, rng).accepted


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
    members = {}
    for i in range(1, 9):
        m = MobileMember(f"u{i}")
        members[m.member_id] = m
        outcome = area.join(m, random_key(rng))
        assert outcome.kind == "join"
        assert area.size() == i
        assert area.consistent()
    for m in members.values():
        assert m.group_key_for("A") == area.group_key()
    for victim in ("u1", "u5", "u8"):
        outcome = area.leave(members.pop(victim))
        assert outcome.kind == "leave"
        assert area.consistent()
        for m in members.values():
            assert m.group_key_for("A") == area.group_key()
    # one wrong key in one present view is enough for the oracle to object
    view = members["u2"].views["A"]
    code = view.leaf
    kept = view.keys[code]
    view.keys[code] = bytes(b ^ 1 for b in kept)
    assert not area.consistent()
    view.keys[code] = kept
    assert area.consistent()
    with pytest.raises(ProtocolError):
        area.leave(MobileMember("nobody"))
    with pytest.raises(ProtocolError):
        AreaState("A", "mystery", rng)


def test_join_outcome_counters_by_scheme():
    rng = random.Random(55)
    for scheme, expected_keygen, expected_cost in (
        ("ckc_craw", 1, 1),
        ("ckc_plain", 2, 2),
    ):
        area = AreaState("A", scheme, rng)
        for i in range(7):
            area.join(MobileMember(f"u{i}"), random_key(rng))
        outcome = area.join(MobileMember("u7"), random_key(rng))
        assert outcome.counters.key_generations == expected_keygen
        assert outcome.counters.encryptions == 1
        assert outcome.counters.unicast_sends == 1
        assert outcome.counters.multicast_sends == 0
        assert outcome.keys_produced == expected_cost
        assert len(outcome.unicast_msgs) == 1
        assert not outcome.multicast_msgs

    area = AreaState("A", "lkh", rng)
    for i in range(7):
        area.join(MobileMember(f"u{i}"), random_key(rng))
    outcome = area.join(MobileMember("u7"), random_key(rng))
    d = outcome.depth
    assert d == 3  # eighth member of a balanced binary tree
    assert outcome.counters.key_generations == d
    assert outcome.counters.encryptions == 3 * d
    assert outcome.counters.unicast_sends == d
    assert outcome.counters.multicast_sends == d
    assert outcome.keys_produced == d + 1
    assert len(outcome.unicast_msgs) == d
    assert len(outcome.multicast_msgs) == d


@pytest.mark.parametrize("scheme", SCHEMES)
def test_batch_seat_and_hand_out_equal_sequential_joins(scheme):
    key_rng = random.Random(99)
    keys = [random_key(key_rng) for _ in range(40)]
    batch = AreaState("A", scheme, random.Random(3))
    sequential = AreaState("A", scheme, random.Random(3))
    batch_members = [MobileMember(f"m{i:02d}") for i in range(40)]
    sequential_members = [MobileMember(f"m{i:02d}") for i in range(40)]
    for m, k in zip(batch_members, keys):
        batch.seat(m, k)
    for m, k in zip(batch_members, keys):
        msgs = batch.hand_out(m, k)
        # one chain link per level above the member's leaf
        assert len(msgs) == len(m.views["A"].leaf) - 1
    for m, k in zip(sequential_members, keys):
        sequential.join(m, k)
    assert batch.tree.dump() == sequential.tree.dump()
    assert batch.rng.getstate() == sequential.rng.getstate()
    for b, s in zip(batch_members, sequential_members):
        vb, vs = b.views["A"], s.views["A"]
        assert (vb.leaf, vb.keys, vb.epoch) == (vs.leaf, vs.keys, vs.epoch)
    assert batch.consistent() and sequential.consistent()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_audit_handle_opens_its_own_payload(scheme):
    # the secrecy audit reads enc_key as the key that protects a payload
    rng = random.Random(57)
    area = AreaState("A", scheme, rng)
    seated = [(MobileMember(f"s{i}"), random_key(rng)) for i in range(6)]
    for m, key in seated:
        area.seat(m, key)
    msgs = [msg for m, key in seated for msg in area.hand_out(m, key)]
    present = [m for m, _ in seated]
    for i in range(30):
        if present and rng.random() < 0.4:
            outcome = area.leave(present.pop(rng.randrange(len(present))))
        else:
            present.append(MobileMember(f"j{i}"))
            outcome = area.join(present[-1], random_key(rng))
        msgs += outcome.unicast_msgs + outcome.multicast_msgs
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
        members = [MobileMember(f"u{i}") for i in range(8)]
        for m in members:
            area.join(m, random_key(rng))
        outcome = area.leave(members[3])
        d = outcome.depth
        assert d == 3
        assert outcome.counters.key_generations == 1
        assert outcome.counters.encryptions == d
        assert outcome.counters.unicast_sends == 0
        assert outcome.counters.multicast_sends == d
        assert outcome.keys_produced == d
        assert len(outcome.multicast_msgs) == d

    area = AreaState("A", "lkh", rng)
    members = [MobileMember(f"u{i}") for i in range(8)]
    for m in members:
        area.join(m, random_key(rng))
    outcome = area.leave(members[3])
    d = outcome.depth
    assert d == 3
    # reported accounting: d-1 fresh keys, two encryptions per level
    assert outcome.counters.key_generations == d - 1
    assert outcome.counters.encryptions == 2 * d
    assert outcome.counters.multicast_sends == 2 * d
    assert len(outcome.multicast_msgs) == 2 * (d - 1)  # realized payload messages
