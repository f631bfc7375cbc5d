"""Code-based key tree: join/leave mechanics, member-side refresh, counters,
and the view-vs-tree consistency oracle."""

from __future__ import annotations

import random
import time
from dataclasses import replace

import pytest

from crawsim import ckc, crypto, entities, lkh
from crawsim.ckc import (
    ROOT_CODE,
    CkcTree,
    build_joiner_view,
    ckc_join,
    ckc_leave,
    ckc_member_refresh_join,
    ckc_member_refresh_leave,
)
from crawsim.crypto import (
    KEY_WIDTH, DecryptionError, ProtocolError, decrypt, encrypt, hash_f, hash_f_xor, random_key,
)
from crawsim.entities import AreaState
from crawsim.scenario import validate_doc
from crawsim.secrecy import check_secrecy
from crawsim.sim import Simulation
from crawsim.tree import MemberKeyView, Rekey, WireMessage, WirePayload, path_codes
from oracles import dump, realized_counts, rekeyed_middles, scan_occupant, scan_shallowest_leaf
from test_acceptance import ZERO_DELAYS, random_scenario


class Harness:
    """Server tree plus every member's locally maintained view.

    Across tenures the harness also remembers, per member id, every key
    value it ever held; the tree keeps, for each key it derived as
    f(a xor b), the pair (a, b).  Every leave checks the cover rule against
    both.
    """

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.tree = CkcTree.new(self.rng)
        self.views: dict[str, MemberKeyView] = {}
        self.individual: dict[str, bytes] = {}
        self.held: dict[str, set[bytes]] = {}

    def join(self, member: str):
        ik = random_key(self.rng)
        self.individual[member] = ik
        res = ckc_join(self.tree, member, ik, self.rng)
        ckc_member_refresh_join(self.views.values(), res)
        self.views[member] = build_joiner_view(
            member, ik, res.unicasts, res.notice.leaf, res.notice.epoch
        )
        self._note()
        return res

    def leave(self, member: str):
        leaf = self.tree.leaves[member]
        canonical = [
            sib
            for code in path_codes(leaf)[1:]
            for sib in sorted(c for c in self.tree.nodes if c[:-1] == code[:-1])
            if sib != code
        ]
        res = ckc_leave(self.tree, member, self.rng)
        assert res.notice.cover_codes == canonical
        self.assert_covers_not_reproducible(res)
        departed = self.views.pop(member)
        ckc_member_refresh_leave(self.views.values(), res)
        self._note()
        return res, departed

    def _note(self):
        """After an event: what each present member now holds."""
        for member, view in self.views.items():
            self.held.setdefault(member, set()).update(view.keys.values())

    def assert_covers_not_reproducible(self, res):
        """Neither the leaver nor any departed member (one that is not back)
        holds a cover key, or both keys a cover key was derived from."""
        exposed = [m for m in self.held if m not in self.tree.leaves]
        covers = [(p.under, p.enc_key) for msg in res.multicasts for p in msg.payloads]
        assert [code for code, _ in covers] == res.notice.cover_codes
        for code, key in covers:
            premises = self.tree.derived.get(key, ())
            for m in exposed:
                assert key not in self.held[m], f"{m} holds cover {code}"
                assert not (premises and set(premises) <= self.held[m]), (
                    f"{m} can recompute cover {code}"
                )

    def grow(self, n: int, prefix: str = "u"):
        for i in range(len(self.views) + 1, len(self.views) + n + 1):
            self.join(f"{prefix}{i}")

    def assert_consistent(self):
        for member, view in self.views.items():
            assert self.tree.view_matches(view), f"{member} view diverged"


def test_join_counters_craw_and_plain():
    h = Harness()
    h.grow(7)
    res = h.join("u8")
    assert (res.counters.key_generations, res.counters.encryptions) == (1, 1)
    assert (res.counters.unicast_sends, res.counters.multicast_sends) == (1, 0)
    # both CKC schemes seat alike; ``AreaState.join`` counts the key a
    # ckc_plain server mints (test_entities)


def test_join_unicast_contents():
    h = Harness(seed=1)
    h.grow(7)
    res = h.join("u8")
    unicast = res.unicasts[0].payloads[0].ciphertext
    plaintext = decrypt(h.individual["u8"], unicast)
    leaf = res.notice.leaf
    # AK', then the middle keys top-down, then the parent code
    path = [h.tree.group_key()] + [h.tree.nodes[c] for c in res.notice.affected_codes]
    assert res.notice.affected_codes == [leaf[:i] for i in range(2, len(leaf))]
    assert plaintext == b"".join(path) + leaf[:-1].encode("ascii")
    # nobody else's individual key opens the unicast
    for other in ("u1", "u4", "u7"):
        with pytest.raises(DecryptionError):
            decrypt(h.individual[other], unicast)


def test_join_consistency_sweep():
    # every member view equals the server tree after each join, n = 2..33
    h = Harness(seed=2)
    for n in range(1, 34):
        h.join(f"m{n}")
        h.assert_consistent()


def test_balanced_depth_for_powers_of_two():
    h = Harness(seed=3)
    for k, n in ((1, 2), (2, 4), (3, 8), (4, 16)):
        h.grow(n - len(h.views))
        depths = {len(c) - 1 for c in h.tree.leaves.values()}
        assert depths == {k}, f"n={n} not balanced: {depths}"


def test_off_path_member_only_group_key_changes():
    h = Harness(seed=4)
    h.grow(8)
    # pick a member in the opposite root subtree from the next insertion point
    split = scan_shallowest_leaf(h.tree)
    off = next(m for m, c in h.tree.leaves.items() if c[1] != split[1])
    before = dict(h.views[off].keys)
    h.join("u9")
    after = h.views[off].keys
    changed = {c for c in after if before.get(c) != after[c]}
    assert changed == {ROOT_CODE}
    h.assert_consistent()


def test_occupant_slides_down_and_keeps_individual_key():
    h = Harness(seed=5)
    h.grow(8)
    split = scan_shallowest_leaf(h.tree)
    occupant = scan_occupant(h.tree, split)
    ik_before = h.views[occupant].keys[split]
    res = h.join("u9")
    occ_view = h.views[occupant]
    assert occ_view.leaf == res.notice.occupant_leaf
    assert occ_view.keys[occ_view.leaf] == ik_before
    # the split position is now an internal key rolled from the occupant's
    # individual key under AK'
    assert occ_view.keys[split] == hash_f_xor(h.tree.group_key(), ik_before)
    h.assert_consistent()


def test_join_refresh_is_idempotent():
    h = Harness(seed=6)
    h.grow(4)
    res = h.join("u5")
    snapshot = {m: (v.leaf, dict(v.keys), v.epoch) for m, v in h.views.items()}
    ckc_member_refresh_join(h.views.values(), res)  # stale re-delivery
    assert snapshot == {m: (v.leaf, dict(v.keys), v.epoch) for m, v in h.views.items()}


def test_leave_cover_and_counters_n8():
    h = Harness(seed=7)
    h.grow(8)
    res, departed = h.leave("u8")
    assert len(res.multicasts) == 3  # log2 8
    c = res.counters
    assert (c.key_generations, c.encryptions, c.unicast_sends, c.multicast_sends) == (1, 3, 0, 3)
    h.assert_consistent()
    # the departed member's keys open none of the cover payloads
    for key in departed.keys.values():
        for msg in res.multicasts:
            with pytest.raises(DecryptionError):
                decrypt(key, msg.payloads[0].ciphertext)


def test_leave_fresh_group_key_not_derivable():
    h = Harness(seed=8)
    h.grow(4)
    old_ak = h.tree.group_key()
    h.leave("u2")
    assert h.tree.group_key() != old_ak
    h.assert_consistent()


def test_leave_promotion_recodes_sibling_subtree():
    h = Harness(seed=9)
    h.grow(8)
    leaver = "u5"
    leaf = h.tree.leaves[leaver]
    res, _ = h.leave(leaver)
    if res.notice.promoted_src is not None:
        assert res.notice.promoted_src[:-1] == leaf[:-1]
        # promoted members' codes dropped the digit at the promotion depth
        for view in h.views.values():
            assert not view.leaf.startswith(res.notice.promoted_src)
    h.assert_consistent()


def test_leave_counters_track_depth_sweep():
    for n, expected in ((2, 1), (4, 2), (8, 3), (16, 4)):
        h = Harness(seed=n)
        h.grow(n)
        res, _ = h.leave(f"u{n}")
        assert res.counters.multicast_sends == expected, f"n={n}"
        assert res.counters.key_generations == 1
        h.assert_consistent()


def test_last_member_leave_empties_tree():
    h = Harness(seed=10)
    h.join("solo")
    res, _ = h.leave("solo")
    assert res.multicasts == []
    assert res.counters.multicast_sends == 0
    assert res.counters.key_generations == 1  # group key still rolls
    assert h.tree.member_count() == 0
    assert ROOT_CODE in h.tree.nodes


def test_rejoin_after_total_drain():
    h = Harness(seed=11)
    h.grow(3)
    for m in ("u1", "u2", "u3"):
        h.leave(m)
    h.grow(3, prefix="w")
    h.assert_consistent()


def test_duplicate_join_and_unknown_leave_raise():
    h = Harness(seed=12)
    h.join("u1")
    h.join("u2")
    ik = random_key(h.rng)
    # a refused seat or unseat changes nothing and draws nothing
    for refused in (
        lambda: ckc_join(h.tree, "u1", ik, h.rng),
        lambda: ckc_leave(h.tree, "ghost", h.rng),
    ):
        snapshot, state = dump(h.tree), h.rng.getstate()
        with pytest.raises(ProtocolError):
            refused()
        assert dump(h.tree) == snapshot
        assert h.rng.getstate() == state


def test_member_codes_are_exactly_path_prefixes():
    h = Harness(seed=14)
    h.grow(13)
    for view in h.views.values():
        prefixes = [view.leaf[:i] for i in range(1, len(view.leaf) + 1)]
        assert sorted(view.keys) == sorted(prefixes)


def test_dump_is_deterministic_and_fingerprinted():
    h1, h2 = Harness(seed=16), Harness(seed=16)
    h1.grow(5)
    h2.grow(5)
    assert dump(h1.tree) == dump(h2.tree)
    assert len(h1.tree.group_key().hex()) == 32
    assert h1.tree.group_key().hex() not in dump(h1.tree)  # no raw keys


def test_randomized_sequences_stay_consistent():
    # module-level churn: random joins/leaves, up to 64 members; every
    # event re-keys the middles its leaf names, top-down, and counts what
    # it sends
    rng = random.Random(17)
    for trial in range(60):
        h = Harness(seed=1000 + trial)
        alive: list[str] = []
        counter = 0
        for _ in range(rng.randint(10, 40)):
            joined = not (alive and (rng.random() < 0.4 or len(alive) >= 64))
            if joined:
                counter += 1
                member = f"r{counter}"
                alive.append(member)
                res = h.join(member)
            else:
                member = rng.choice(alive)
                alive.remove(member)
                res, _ = h.leave(member)
            assert res.notice.affected_codes == rekeyed_middles(res.notice.leaf, joined)
            c = res.counters
            assert (c.encryptions, c.unicast_sends, c.multicast_sends) == realized_counts(res)
            h.assert_consistent()


def test_randomized_churn_with_rejoins_keeps_covers_safe():
    # departed members come back under their old ids, so their remembered
    # keys span several tenures; Harness.leave checks every cover set
    # against that memory
    rng = random.Random(18)
    for trial in range(40):
        h = Harness(seed=2000 + trial)
        pool = [f"p{i}" for i in range(rng.randint(3, 24))]
        rejoined = 0
        for _ in range(rng.randint(20, 60)):
            present = sorted(h.views)
            absent = [m for m in pool if m not in h.views]
            if present and (not absent or rng.random() < 0.45):
                h.leave(rng.choice(present))
            else:
                member = rng.choice(absent)
                rejoined += member in h.held
                h.join(member)
            h.assert_consistent()
        assert rejoined > 0


def test_refresh_refuses_a_leave_without_its_cover_payload():
    h = Harness(seed=19)
    h.grow(8)
    res = ckc_leave(h.tree, "u8", h.rng)
    mine = h.views["u7"]
    dropped = [msg for msg in res.multicasts if not mine.leaf.startswith(msg.payloads[0].under)]
    with pytest.raises(ProtocolError, match="u7 matches 0 cover nodes, expected 1"):
        ckc_member_refresh_leave([mine], replace(res, multicasts=dropped))


def test_every_leave_indexes_one_cover_per_level_below_which_each_member_sits_once():
    # A remaining member takes the first index position that prefixes its
    # leaf as its one cover.  That is sound because, on every leave of a
    # seeded churn, the index holds exactly the sibling of each position on
    # the leaver's path below the root, top-down, no cover prefixes
    # another, and every remaining member's leaf extends exactly one.
    rng = random.Random(71)
    area = AreaState("A", "ckc_craw", rng)
    for i in range(96):
        area.join(f"m{i}", random_key(rng))
    for i in range(96, 156):
        tree = area.tree
        leaver = rng.choice(sorted(area.views))
        leaf = tree.leaves[leaver]
        siblings = [
            [sib for sib in tree._children(code[:-1]) if sib != code]
            for code in path_codes(leaf)[1:]
        ]
        others = [c for m, c in tree.leaves.items() if m != leaver]
        covers = list(area.leave(leaver).index)
        assert [len(level) for level in siblings] == [1] * (len(leaf) - 1)
        assert covers == [sib for (sib,) in siblings]
        assert not [(a, b) for a in covers for b in covers if a != b and b.startswith(a)]
        for other in others:
            assert sum(other.startswith(code) for code in covers) == 1, other
        area.join(f"m{i}", random_key(rng))
    assert area.consistent()


def _area(scheme: str, n: int, seed: int) -> AreaState:
    rng = random.Random(seed)
    area = AreaState("A", scheme, rng)
    for i in range(1, n + 1):
        area.join(f"u{i}", random_key(rng))
    return area


def _event(area: AreaState, event: str):
    """One more join, or the leave of a deepest member."""
    if event == "join":
        return area.join("new", random_key(area.rng))
    leaves = area.tree.leaves
    return area.leave(max(leaves, key=lambda m: len(leaves[m])))


@pytest.mark.parametrize(
    ("scheme", "event"),
    (
        pytest.param("ckc_craw", "join", id="join"),
        pytest.param("ckc_craw", "leave", id="leave"),
        pytest.param("lkh", "join", id="lkh-join"),
        pytest.param("lkh", "leave", id="lkh-leave"),
    ),
)
def test_an_event_rolls_each_middle_key_once_for_all_its_members(scheme, event, monkeypatch):
    # the server rolls each affected position once, and the members below
    # it, who all hold the same K, share one more roll; likewise the members
    # that open a payload with the same key share one open
    area = _area(scheme, 96, seed=23)
    rolls, opens = [], []

    def counting_roll(a, b):
        rolls.append((a, b))
        return hash_f_xor(a, b)

    def counting_open(key, ct):
        opens.append((key, ct))
        return decrypt(key, ct)

    monkeypatch.setattr(ckc, "hash_f_xor", counting_roll)
    # every name a member-side open resolves to
    for module in (crypto, lkh):
        monkeypatch.setattr(module, "decrypt", counting_open)
    res = _event(area, event)
    assert len(res.notice.affected_codes) >= 3
    assert len(rolls) <= 2 * len(res.notice.affected_codes)
    # each open by the payload it read: the joiner's unicast or a multicast
    sent = {
        id(p.ciphertext): (kind, p.under)
        for kind, msgs in (("unicast", res.unicasts), ("multicast", res.multicasts))
        for msg in msgs
        for p in msg.payloads
    }
    opened = [(sent[id(ct)], key) for key, ct in opens]
    assert len(opened) == len(set(opened))
    multicast = [where for where, _key in opened if where[0] == "multicast"]
    assert len(multicast) <= len(res.index)
    assert bool(multicast) == bool(res.index)  # a CKC join multicasts nothing
    assert area.consistent()


@pytest.mark.parametrize(
    ("scheme", "event", "rolled"),
    (
        pytest.param("ckc_craw", "join", True, id="join"),
        pytest.param("ckc_craw", "leave", True, id="leave"),
        pytest.param("ckc_craw", "leave", False, id="leave-cover"),
        pytest.param("lkh", "join", False, id="lkh-join"),
        pytest.param("lkh", "leave", False, id="lkh-leave"),
    ),
)
def test_a_member_holding_a_wrong_middle_key_gets_its_own_roll(scheme, event, rolled, monkeypatch):
    # rolls and opens are shared by input bytes, not by position: a member
    # holding a wrong key at a position the event rolls (the root's child on
    # the event's path) or opens a payload under (the root's other child),
    # with members before and after it that hold the right one, ends off the
    # tree alone
    area = _area(scheme, 96, seed=24)
    tree = area.tree
    if event == "join":
        path = tree.shallowest_leaf()  # the joiner's path runs through it
        leaver = None
    else:
        leaver = max(tree.leaves, key=lambda m: len(tree.leaves[m]))
        path = tree.leaves[leaver]
    spot = path[:2] if rolled else next(c for c in tree._children(tree.ROOT) if c != path[:2])
    sharing = [m for m, v in area.views.items() if v.leaf.startswith(spot) and m != leaver]
    victim = sharing[len(sharing) // 2]
    view = area.views[victim]
    spoiled = view.keys[spot] = bytes(b ^ 1 for b in view.keys[spot])
    failed = []

    def tolerant(refresh):
        # the event's pass one view at a time, so a failed open stops only
        # its own member's refresh
        def run(views, rekey):
            for view in views:
                try:
                    refresh([view], rekey)
                except DecryptionError:
                    failed.append(view.member_id)
        return run

    for name in ("ckc_member_refresh_leave", "lkh_member_refresh_join", "lkh_member_refresh_leave"):
        monkeypatch.setattr(entities, name, tolerant(getattr(entities, name)))
    res = _event(area, event)
    if rolled:
        assert spot in res.notice.affected_codes
        assert view.keys[spot] == hash_f_xor(tree.group_key(), spoiled)
    assert failed == ([] if rolled else [victim])
    assert [m for m, v in area.views.items() if not tree.view_matches(v)] == [victim]


@pytest.mark.parametrize(
    ("scheme", "event", "rolled"),
    (
        pytest.param("ckc_craw", "join", True, id="join"),
        pytest.param("ckc_craw", "leave", True, id="leave"),
        pytest.param("ckc_craw", "leave", False, id="leave-cover"),
        pytest.param("lkh", "join", False, id="lkh-join"),
        pytest.param("lkh", "leave", False, id="lkh-leave"),
    ),
)
def test_a_wrong_middle_key_inside_a_run_stays_with_its_member(scheme, event, rolled, monkeypatch):
    # A pass takes the members below a position as one run of the
    # leaf-ordered views, and the next view whose inputs are the same
    # objects takes the last result.  A member in the middle of such a run
    # holds a wrong key at a position the event rolls (the root's child on
    # the event's path) or opens a payload under (the root's other child),
    # and the whole area refreshes in one pass; an open that fails leaves
    # the member its own key, so the pass goes on.  It alone rolls or opens
    # its wrong key, and it alone ends off the tree.
    area = _area(scheme, 96, seed=25)
    tree = area.tree
    if event == "join":
        path = tree.shallowest_leaf()  # the joiner's path runs through it
        leaver = None
    else:
        leaver = max(tree.leaves, key=lambda m: len(tree.leaves[m]))
        path = tree.leaves[leaver]
    spot = path[:2] if rolled else next(c for c in tree._children(tree.ROOT) if c != path[:2])
    run = sorted(
        (v for m, v in area.views.items() if v.leaf.startswith(spot) and m != leaver),
        key=lambda v: v.leaf,
    )
    view = run[len(run) // 2]
    # its neighbours in the run hold the right key
    assert run[len(run) // 2 - 1].keys[spot] == run[len(run) // 2 + 1].keys[spot] == tree.nodes[spot]
    spoiled = view.keys[spot] = bytes(b ^ 1 for b in view.keys[spot])
    failed = []
    opened_by = Rekey.opened

    def tolerant(rekey, under, key):
        try:
            return opened_by(rekey, under, key)
        except DecryptionError:
            failed.append(key)
            return key

    monkeypatch.setattr(Rekey, "opened", tolerant)
    res = _event(area, event)
    if rolled:
        assert spot in res.notice.affected_codes
        assert view.keys[spot] == hash_f_xor(tree.group_key(), spoiled)
    assert failed == ([] if rolled else [spoiled])
    assert [m for m, v in area.views.items() if not tree.view_matches(v)] == [view.member_id]


def test_a_whole_area_leave_refuses_a_member_under_no_cover(monkeypatch):
    # Every remaining member sits below one cover of a leave.  A whole-area
    # pass over an event that lost the cover of one member (a leaf sibling
    # of the leaver) refuses, naming that member, before any view opens a
    # payload or takes a new group key, though after the views followed
    # the notice's epoch and promotion.
    area = _area("ckc_craw", 24, seed=26)
    tree = area.tree
    siblings = {
        m: [c for c in tree._children(leaf[:-1]) if c != leaf and c in tree.occupants]
        for m, leaf in sorted(tree.leaves.items())
    }
    leaver, (sibling,) = next((m, sib) for m, sib in siblings.items() if sib)
    stray = tree.occupants[sibling]
    res = ckc_leave(tree, leaver, area.rng)
    del area.views[leaver]
    kept = [msg for msg in res.multicasts if msg.payloads[0].under != sibling]
    assert len(kept) == len(res.multicasts) - 1
    roots = {m: v.keys[ROOT_CODE] for m, v in area.views.items()}
    opens = []

    def counting_open(key, ct):
        opens.append(key)
        return decrypt(key, ct)

    monkeypatch.setattr(crypto, "decrypt", counting_open)
    with pytest.raises(ProtocolError, match=f"^{stray} matches 0 cover nodes, expected 1$"):
        ckc_member_refresh_leave(area.views.values(), replace(res, multicasts=kept))
    assert opens == []
    assert {m: v.keys[ROOT_CODE] for m, v in area.views.items()} == roots
    # the refusal comes after ``following``: every view has taken the
    # event's epoch, and the promoted run (the stray's) its new code
    assert res.notice.promoted_src == sibling
    assert {m: v.leaf for m, v in area.views.items()} == tree.leaves
    assert {v.epoch for v in area.views.values()} == {tree.epoch}


def test_a_wrong_group_key_inside_a_join_run_stays_with_its_member():
    # A join rolls AK' = f(AK) on every view, then each middle key on the
    # joiner's path to f(AK' xor K).  A member in the middle of the run
    # below the root's child on that path holds a wrong AK, while its
    # neighbours hold the right AK and every one of them the same K.  It
    # alone gets f(wrong AK) and its own f(AK' xor K) roll of that pair, and
    # it alone ends off the tree.
    area = _area("ckc_craw", 96, seed=27)
    tree = area.tree
    spot = tree.shallowest_leaf()[:2]  # the joiner's path runs through it
    run = sorted((v for v in area.views.values() if v.leaf.startswith(spot)), key=lambda v: v.leaf)
    view = run[len(run) // 2]
    neighbours = (run[len(run) // 2 - 1], run[len(run) // 2 + 1])
    assert all(v.keys[ROOT_CODE] == tree.group_key() for v in neighbours)
    assert all(v.keys[spot] == view.keys[spot] == tree.nodes[spot] for v in neighbours)
    k = view.keys[spot]
    spoiled = view.keys[ROOT_CODE] = bytes(b ^ 1 for b in view.keys[ROOT_CODE])
    res = area.join("new", random_key(area.rng))
    assert spot in res.notice.affected_codes
    assert view.keys[ROOT_CODE] == hash_f(spoiled) != tree.group_key()
    assert view.keys[spot] == hash_f_xor(hash_f(spoiled), k) != tree.nodes[spot]
    assert [m for m, v in area.views.items() if not tree.view_matches(v)] == [view.member_id]


def _sealed(ik: bytes, leaf: str, plaintext: bytes) -> list[WireMessage]:
    """A join unicast carrying ``plaintext`` under the individual key."""
    return [WireMessage(f"leaf={leaf}", [WirePayload(leaf, ik, encrypt(ik, plaintext))])]


def test_joiner_refuses_a_leaf_off_the_delivered_parent():
    h = Harness(seed=20)
    h.grow(4)
    ik = random_key(h.rng)
    res = ckc_join(h.tree, "u5", ik, h.rng)
    plaintext = decrypt(ik, res.unicasts[0].payloads[0].ciphertext)
    # one more key and one more code digit: a well-formed payload for the
    # announced leaf's child
    bogus = plaintext[:-2] + random_key(h.rng) + plaintext[-2:] + b"0"
    leaf = res.notice.leaf
    with pytest.raises(ProtocolError, match="does not extend the delivered parent code"):
        build_joiner_view("u5", ik, _sealed(ik, leaf, bogus), leaf, res.notice.epoch)


def test_join_unicast_without_a_parent_position_is_refused():
    ik = bytes(KEY_WIDTH)
    notice = ckc_join(CkcTree.new(random.Random(21)), "u1", ik, random.Random(21)).notice
    for plaintext in (b"", random_key(random.Random(21))):  # nothing; AK' with no parent code
        with pytest.raises(ProtocolError, match="is not AK', middle keys and a parent code"):
            build_joiner_view("u1", ik, _sealed(ik, notice.leaf, plaintext), notice.leaf, notice.epoch)


def test_area_of_300_members_stays_consistent_and_audits_clean():
    # past the old derivation-string ceiling of about 256 members per area
    rng = random.Random(22)
    roster = [f"m{i}" for i in range(300)]
    events, present, t = [], list(roster), 1
    for i in range(24):
        if i % 3 == 2:
            events.append({"time": float(t), "op": "join", "member": f"w{i}", "area": "A"})
            present.append(f"w{i}")
        else:
            member = present.pop(rng.randrange(len(present)))
            events.append({"time": float(t), "op": "leave", "member": member, "area": "A"})
        t += 1
    doc = {
        "schema_version": 1, "name": "wide", "seed": 22, "scheme": "ckc_craw", "group": "g1",
        "horizon": float(t + 1), "delays": ZERO_DELAYS, "areas": {"A": roster},
        "members": [f"w{i}" for i in range(2, 24, 3)], "events": events,
    }
    checked = []
    sim = Simulation(validate_doc(doc), on_event=lambda s, row: checked.append(s.check_consistent()))
    assert sim.check_consistent()
    sim.run()
    assert checked == [True] * 24
    assert check_secrecy(sim.recorder) == []


def test_one_tree_through_more_than_999_leaves():
    # past the old generation ceiling of 999 leaves per area
    h = Harness(seed=23)
    h.grow(6)
    rng = random.Random(23)
    pool = [f"p{i}" for i in range(6)]
    leaves = 0
    while leaves < 1010:
        present = sorted(h.views)
        absent = [m for m in pool if m not in h.views]
        if len(present) > 2 and (not absent or rng.random() < 0.5):
            h.leave(rng.choice(present))
            leaves += 1
        else:
            h.join(rng.choice(absent))
        h.assert_consistent()


def test_256_member_run_with_256_moves_audits_within_5s():
    sim = Simulation(random_scenario(0, "ckc_craw", sizes=[128, 128], n_ops=256)).run()
    started = time.perf_counter()
    assert check_secrecy(sim.recorder) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"audit took {elapsed:.2f}s"
