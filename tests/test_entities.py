"""Main-list lifecycle, authentication dispatch, and per-area join/leave
orchestration across all three schemes."""

from __future__ import annotations

import copy
import random
from dataclasses import fields, replace

import pytest

from crawsim import crypto, entities
from crawsim.ckc import ROOT_CODE, ckc_member_refresh_leave
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
from crawsim.otp import AuthRecord, ClientSecret
from crawsim.tree import (
    JoinNotice, LeaveNotice, MemberKeyView, Rekey, WireMessage, WirePayload, path_codes, promoted,
)
from oracles import dump, scan_covers, scan_occupant, scan_on_path


def make_member(mainlist: MainList, member_id: str, rng: random.Random) -> MobileMember:
    member = MobileMember(member_id, ClientSecret(member_id, b"pw:" + member_id.encode(), rng))
    mainlist.register(member)
    return member


def test_message_kind_is_validated():
    msg = ProtocolMessage(0, "join_request", "u1", "A")
    assert msg.kind == "join_request"
    with pytest.raises(ProtocolError):
        ProtocolMessage(0, "teleport_request", "u1", "A")


def test_register_and_duplicate_rejected():
    ml = MainList("g1")
    ml.register(MobileMember("u1", b"cred:u1"))
    assert ml.lookup("u1").status == STATUS_REGISTERED
    assert ml.lookup("u2") is None
    with pytest.raises(ProtocolError):
        ml.register(MobileMember("u1", b"cred:u1"))


def test_a_member_holds_one_credential_and_its_entry_one_auth():
    # the credential's type is the auth mode: a one-time-password secret
    # enrols its first verifier, shared key bytes enrol themselves
    with pytest.raises(TypeError):
        MobileMember("u1")
    rng = random.Random(3)
    ml = MainList("g1")
    make_member(ml, "u1", rng)
    otp_entry = ml.lookup("u1")
    key = random_key(rng)
    shared_entry = ml.register(MobileMember("u2", key))
    assert isinstance(otp_entry.auth, AuthRecord) and otp_entry.auth.session_index == 1
    assert shared_entry.auth == key
    # material of the other mode never authenticates
    assert not run_auth(ml, MobileMember("u1", key), rng).accepted
    assert not run_auth(ml, MobileMember("u2", ClientSecret("u2", b"pw:u2", rng)), rng).accepted


def test_status_walk_through_the_lifecycle():
    ml = MainList("g1")
    ml.register(MobileMember("u1", b"cred:u1"))
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
    ml.register(MobileMember("u1", b"cred:u1"))
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
        ml.register(MobileMember("u1", b"cred:u1")).status = src
        with pytest.raises(ProtocolError):
            ml.advance("u1", dst, 1)


def test_advance_and_credit_require_registration():
    ml = MainList("g1")
    with pytest.raises(ProtocolError):
        ml.advance("ghost", STATUS_ACTIVE, 0)
    with pytest.raises(ProtocolError):
        ml.credit(["ghost"], 1)


def test_credit_refuses_a_bare_string_and_any_unknown_id():
    # a string is iterable: credit("u1") must not bill members "u" and "1"
    ml = MainList("g1")
    for member_id in ("u1", "u", "1"):
        ml.register(MobileMember(member_id, b"cred:" + member_id.encode()))
    with pytest.raises(ProtocolError, match="not the string 'u1'"):
        ml.credit("u1", 1)
    with pytest.raises(ProtocolError, match="unknown member ghost"):
        ml.credit(["u", "ghost"], 1)
    assert [ml.lookup(m).service_accounting for m in ("u1", "u", "1")] == [0, 0, 0]
    ml.credit(("u1", "u"), 1)
    assert [ml.lookup(m).service_accounting for m in ("u1", "u", "1")] == [1, 1, 0]


def test_credit_bills_a_positive_int_of_frames_or_nothing():
    ml = MainList("g1")
    for member_id in ("u1", "u2", "u3"):
        ml.register(MobileMember(member_id, b"cred:" + member_id.encode()))
    ml.credit(["u1", "u2"], 3)
    assert [ml.lookup(m).service_accounting for m in ("u1", "u2", "u3")] == [3, 3, 0]
    for frames in (True, False, 0, -1, 1.5, 3.0, "3", None):
        with pytest.raises(ProtocolError, match="positive whole number of frames"):
            ml.credit(["u1", "u3"], frames)
        assert [ml.lookup(m).service_accounting for m in ("u1", "u2", "u3")] == [3, 3, 0]


def test_accounting_only_increases():
    ml = MainList("g1")
    ml.register(MobileMember("u1", b"cred:u1"))
    for n in range(1, 201):
        ml.credit(["u1"], 1)
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
    member = MobileMember("u1", ClientSecret("u1", b"pw:u1", rng))
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
    before = (dump(area.tree), rng.getstate(), sorted(area.views))
    with pytest.raises(ProtocolError):
        area.leave("nobody")
    assert (dump(area.tree), rng.getstate(), sorted(area.views)) == before
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
        refresh_leave([departed], outcome)
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
    # the d path keys and the minted individual key
    assert outcome.counters.key_generations == d + 1
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
        # one payload, under the member's leaf
        assert [(p.under, p.enc_key) for msg in msgs for p in msg.payloads] == [(batch.views[m].leaf, k)]
    for m, k in zip(member_ids, keys):
        sequential.join(m, k)
    assert dump(batch.tree) == dump(sequential.tree)
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
        if field == "label":  # LKH: under a child of the label
            assert p.under[:-1] == position, desc
        else:  # a join or t=0 unicast under the member's leaf, a CKC leave under a cover
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
    # d-1 fresh keys, each sent under both its children
    assert outcome.counters.key_generations == d - 1
    assert outcome.counters.encryptions == 2 * (d - 1)
    assert outcome.counters.multicast_sends == 2 * (d - 1)
    assert outcome.cost == d
    assert len(outcome.multicasts) == 2 * (d - 1)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_shrunk_tree_keeps_the_depth_of_its_peak(scheme):
    # The tree never rebalances: grow one area to 64 members, then let all
    # leave but m0 and the first member of each sibling subtree off m0's
    # root path.  The 7 left sit in a comb, and a leave of its deepest
    # member costs 6 against ceil(log2 8) = 3 for a balanced tree of the 8
    # members after one more join.  These pin today's costs, so a
    # rebalancing rule changes them on purpose.
    rng = random.Random(59)
    area = AreaState("A", scheme, rng)
    members = [f"m{i}" for i in range(64)]
    for m in members:
        area.join(m, random_key(rng))
    tree, leaves = area.tree, area.tree.leaves
    siblings = [
        sib
        for code in path_codes(leaves["m0"])[1:]
        for sib in tree._children(code[:-1])
        if sib != code
    ]
    kept = {"m0"} | {next(m for m in members if leaves[m].startswith(sib)) for sib in siblings}
    for m in members:
        if m not in kept:
            area.leave(m)
    assert sorted(len(leaf) - 1 for leaf in leaves.values()) == [1, 2, 3, 4, 5, 6, 6]
    assert area.consistent()

    join_cost = {"ckc_craw": 1, "ckc_plain": 2, "lkh": 3}[scheme]
    assert area.join("new", random_key(rng)).cost == join_cost
    deepest = max(leaves, key=lambda m: len(leaves[m]))
    assert area.leave(deepest).cost == 6
    assert area.consistent()


def test_a_promotion_recodes_its_subtree_in_place_by_one_rule():
    # Grow a balanced 64-member LKH area (leaves r000000 .. r111111) and
    # let three leaves under r0000 go, so that one member sits at r0000
    # beside the three-level subtree r0001.  When it leaves, r0001 moves
    # into r000, and the promoted codes reuse old ones: r00010 -> r0000
    # (the leaver's), r000110 -> r00010, r00011 -> r0001.
    rng = random.Random(61)
    area = AreaState("A", "lkh", rng)
    for i in range(64):
        area.join(f"m{i}", random_key(rng))
    tree = area.tree
    for code in ("r000000", "r000010", "r00000"):
        area.leave(scan_occupant(tree, code))
    leaf, src = "r0000", "r0001"
    member = scan_occupant(tree, leaf)
    assert "r000111" in tree.nodes

    nodes, leaves = tree.nodes, tree.leaves
    old_nodes, old_leaves = dict(nodes), dict(leaves)
    notice = area.leave(member).notice
    assert notice.leaf == leaf and notice.promoted_src == src
    assert tree.nodes is nodes and tree.leaves is leaves
    assert promoted("r00010", src) == leaf and promoted(leaf, src) == leaf
    for m, c in old_leaves.items():
        if m != member:
            assert leaves[m] == area.views[m].leaf == promoted(c, src)
    # the promoted keys keep their values; only positions above the
    # leaver's old parent are re-keyed
    for c, key in old_nodes.items():
        if c.startswith(src):
            assert nodes[promoted(c, src)] == key
    assert area.consistent()

    # a notice names only what a member cannot work out for itself: no
    # joiner id, split leaf (the occupant leaf's parent) or promotion target
    # (the promoted root's parent)
    assert [f.name for f in fields(JoinNotice)] == ["epoch", "leaf", "occupant_leaf", "affected_codes"]
    assert [f.name for f in fields(LeaveNotice)] == [
        "epoch", "member_id", "leaf", "promoted_src", "affected_codes", "cover_codes",
    ]


@pytest.mark.parametrize(
    "scheme, whole_area",
    [pytest.param(s, False, id=s) for s in SCHEMES]
    + [pytest.param(s, True, id=f"{s}-whole-area") for s in SCHEMES],
)
def test_a_refresh_stores_exactly_what_the_event_changed_on_the_members_path(
    scheme, whole_area, monkeypatch
):
    # Against full scans of the event (the oracles), each member refresh of a
    # seeded churn on a 96-member area stores the group key and the rolled
    # middle keys on its path (CKC), or the opened keys on its path (LKH).
    # One-view mode splits each event's pass into passes over one view at a
    # time, each of which opens only its one cover (CKC leave) or the
    # payloads under its path (LKH).  Whole-area mode runs each event's pass
    # over the whole area, where the views of a run share one roll or open:
    # each view still stores exactly its oracle keys, and the event's real
    # AES-GCM opens are exactly the union of the views' oracle positions,
    # with no (position, key) opened twice.
    opened, decrypted = [], []
    opened_by, decrypt_by = Rekey.opened, crypto.decrypt

    class LoggedHeld(set):
        """A view's ``held`` set that logs each key a refresh records."""

        def __init__(self, keys):
            super().__init__(keys)
            self.log = []

        def add(self, key):
            self.log.append(key)
            super().add(key)

    def logged_open(rekey, under, key):
        opened.append(under)
        return opened_by(rekey, under, key)

    def logged_decrypt(key, ct):
        decrypted.append((key, ct))
        return decrypt_by(key, ct)

    refreshes = []

    def expected(name, view, before, rekey):
        """The view's oracle: the positions it stores keys at, in order, and
        the payloads it opens."""
        on_path = scan_on_path(view.leaf, rekey.notice.affected_codes)
        if scheme == "lkh":
            return on_path, [view.leaf[: len(c) + 1] for c in on_path]
        if name.endswith("leave"):
            return [ROOT_CODE] + on_path, scan_covers(before, rekey)
        return [ROOT_CODE] + on_path, []

    def stored(view):
        # each recorded key by the position the view now holds it at
        code_of = {key: code for code, key in view.keys.items()}
        return [code_of[key] for key in view.held.log]

    def checked(name):
        refresh = getattr(entities, name)

        def wrapper(views, rekey):
            views = list(views)
            before = {view.member_id: view.leaf for view in views}
            for view in views:
                view.held = LoggedHeld(view.held)
            passes = [views] if whole_area else [[view] for view in views]
            union = set()
            decrypted.clear()
            for batch in passes:
                opened.clear()
                refresh(batch, rekey)
                for view in batch:
                    keys, opens = expected(name, view, before[view.member_id], rekey)
                    assert stored(view) == keys
                    if not whole_area:
                        assert opened == opens
                    union.update(opens)
                    refreshes.append(name)
            position = {p.ciphertext: code for code, p in rekey.index.items()}
            real = [(position[ct], key) for key, ct in decrypted]
            assert len(set(real)) == len(real)
            assert {code for code, _ in real} == union

        monkeypatch.setattr(entities, name, wrapper)

    monkeypatch.setattr(Rekey, "opened", logged_open)
    monkeypatch.setattr(crypto, "decrypt", logged_decrypt)
    prefix = "lkh" if scheme == "lkh" else "ckc"
    for event in ("join", "leave"):
        checked(f"{prefix}_member_refresh_{event}")

    rng = random.Random(67)
    area = AreaState("A", scheme, rng)
    for i in range(96):
        area.join(f"m{i}", random_key(rng))
    for i in range(96, 156):
        area.leave(rng.choice(sorted(area.views)))
        area.join(f"m{i}", random_key(rng))
    assert area.consistent()
    assert refreshes.count(f"{prefix}_member_refresh_leave") == 60 * 95


@pytest.mark.parametrize("scheme", ("ckc_craw", "lkh"))
def test_one_pass_over_an_area_equals_one_pass_per_member(scheme, monkeypatch):
    # Each event's pass reads the event once for every view.  On a seeded
    # churn of a 96-member area it leaves every view, and the event's memo,
    # as passes over one view at a time in view order do on a copy, and a
    # view that missed an announcement stops both at itself.
    def state(views):
        return [(v.member_id, v.leaf, v.keys, v.epoch, v.held) for v in views]

    def copied(view):
        out = MemberKeyView(view.member_id, view.leaf, dict(view.keys), view.epoch)
        out.held = set(view.held)
        return out

    def refused(refresh, batches, rekey):
        try:
            for batch in batches:
                refresh(batch, rekey)
        except ProtocolError as exc:
            return str(exc)
        return None

    passes = []

    def compared(name):
        refresh = getattr(entities, name)

        def wrapper(views, rekey):
            views = list(views)
            # the same event with its own (empty) memo
            alone, alone_rekey = [copied(v) for v in views], replace(rekey)
            alone_refusal = refused(refresh, [[view] for view in alone], alone_rekey)
            refusal = refused(refresh, [views], rekey)
            assert (state(views), rekey.memo, refusal) == (
                state(alone), alone_rekey.memo, alone_refusal
            )
            passes.append(name)
            if refusal is not None:
                raise ProtocolError(refusal)

        monkeypatch.setattr(entities, name, wrapper)

    prefix = "lkh" if scheme == "lkh" else "ckc"
    for event in ("join", "leave"):
        compared(f"{prefix}_member_refresh_{event}")

    rng = random.Random(71)
    area = AreaState("A", scheme, rng)
    for i in range(96):
        area.join(f"m{i}", random_key(rng))
    for i in range(96, 156):
        area.leave(rng.choice(sorted(area.views)))
        area.join(f"m{i}", random_key(rng))
    assert area.consistent()
    assert (passes.count(f"{prefix}_member_refresh_join"), len(passes)) == (156, 216)

    for event in ("join", "leave"):
        lagged = copy.deepcopy(area)
        views = list(lagged.views.values())
        middle = views[48]
        middle.epoch -= 1
        before = [copied(v) for v in views]
        with pytest.raises(ProtocolError, match=rf"^{middle.member_id} missed an announcement"):
            if event == "join":
                lagged.join("late", random_key(rng))
            else:
                lagged.leave(views[-1].member_id)
        # the views before it are refreshed and the views after it (but the
        # last, which is the leaver on a leave) are untouched
        assert all(v.epoch == lagged.tree.epoch for v in views[:48])
        assert state(views[49:95]) == state(before[49:95])
