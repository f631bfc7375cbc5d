"""LKH baseline: realized join mechanics, leave collapse, counter
conventions, and view consistency."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from crawsim.crypto import DecryptionError, ProtocolError, decrypt, random_key
from crawsim.lkh import (
    LkhTree,
    build_lkh_joiner_view,
    lkh_join,
    lkh_leave,
    lkh_member_refresh_join,
    lkh_member_refresh_leave,
)
from crawsim.tree import MemberKeyView, WireMessage
from oracles import (
    dump, realized_counts, rekeyed_middles, scan_occupant, scan_on_path, scan_shallowest_leaf,
)


class Harness:
    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.tree = LkhTree.new(self.rng)
        self.views: dict[str, MemberKeyView] = {}
        self.individual: dict[str, bytes] = {}

    def join(self, member: str):
        ik = random_key(self.rng)
        self.individual[member] = ik
        res = lkh_join(self.tree, member, ik, self.rng)
        lkh_member_refresh_join(self.views.values(), res)
        self.views[member] = build_lkh_joiner_view(
            member, ik, res.unicasts, res.notice.leaf, res.notice.epoch
        )
        return res

    def leave(self, member: str):
        res = lkh_leave(self.tree, member, self.rng)
        departed = self.views.pop(member)
        lkh_member_refresh_leave(self.views.values(), res)
        return res, departed

    def grow(self, n: int, prefix: str = "u"):
        for i in range(len(self.views) + 1, len(self.views) + n + 1):
            self.join(f"{prefix}{i}")

    def assert_consistent(self):
        for member, view in self.views.items():
            assert self.tree.view_matches(view), f"{member} diverged"


def test_join_counters_match_depth_formulas():
    for n, k in ((4, 2), (8, 3), (16, 4), (32, 5)):
        h = Harness(seed=n)
        h.grow(n - 1)
        res = h.join(f"u{n}")
        c = res.counters
        assert c.key_generations == k, f"n={n}"
        assert c.encryptions == 3 * k
        assert c.unicast_sends == k
        assert c.multicast_sends == k
        h.assert_consistent()


def test_join_second_member_degenerate_counts():
    h = Harness(seed=1)
    h.grow(1)
    res = h.join("u2")
    c = res.counters
    assert (c.key_generations, c.encryptions, c.unicast_sends, c.multicast_sends) == (1, 3, 1, 1)


def test_joiner_chain_is_sequential():
    h = Harness(seed=2)
    h.grow(7)
    res = h.join("u8")
    # first link opens under the individual key, each next under the prior key
    wrap = h.individual["u8"]
    for msg in res.unicasts:
        (p,) = msg.payloads
        wrap = decrypt(wrap, p.ciphertext)
        label = p.under[:-1]
        assert msg.desc == f"label={label}"
        assert wrap == h.tree.nodes[label]
    # chain does not open under another member's key
    with pytest.raises(DecryptionError):
        decrypt(h.individual["u1"], res.unicasts[0].payloads[0].ciphertext)


def test_leave_counters_are_the_multicasts_sent():
    for n, k in ((4, 2), (8, 3), (16, 4), (32, 5)):
        h = Harness(seed=n)
        h.grow(n)
        res, _ = h.leave(f"u{n}")
        c = res.counters
        assert c.key_generations == k - 1, f"n={n}"
        # two messages of one payload per regenerated ancestor
        assert len(res.multicasts) == 2 * (k - 1)
        assert c.encryptions == len(res.multicasts)
        assert c.multicast_sends == len(res.multicasts)
        assert c.unicast_sends == 0
        h.assert_consistent()


def test_leave_forward_secrecy():
    h = Harness(seed=5)
    h.grow(8)
    old_group = h.tree.group_key()
    res, departed = h.leave("u3")
    assert h.tree.group_key() != old_group
    for key in departed.keys.values():
        for msg in res.multicasts:
            with pytest.raises(DecryptionError):
                decrypt(key, msg.payloads[0].ciphertext)
    h.assert_consistent()


def test_join_backward_secrecy_regenerates_path():
    h = Harness(seed=6)
    h.grow(4)
    before = dict(h.tree.nodes)
    res = h.join("u5")
    for label in res.notice.affected_codes:
        assert h.tree.nodes[label] != before.get(label)
    h.assert_consistent()


def test_leave_depth_one_member():
    h = Harness(seed=7)
    h.grow(2)
    res, _ = h.leave("u1")
    c = res.counters
    # no collapse at depth 1: the root alone, sent under its one child
    assert (c.key_generations, c.encryptions, c.multicast_sends) == (1, 1, 1)
    h.assert_consistent()


def test_occupant_relabels_and_keeps_key():
    h = Harness(seed=8)
    h.grow(4)
    split = scan_shallowest_leaf(h.tree)
    occupant = scan_occupant(h.tree, split)
    ik = h.views[occupant].keys[split]
    res = h.join("u5")
    assert h.views[occupant].leaf == res.notice.occupant_leaf
    assert h.views[occupant].keys[res.notice.occupant_leaf] == ik
    h.assert_consistent()


def test_duplicate_join_and_unknown_leave_raise():
    h = Harness(seed=9)
    h.join("u1")
    h.join("u2")
    ik = random_key(h.rng)
    # a refused seat or unseat changes nothing and draws nothing
    for refused in (
        lambda: lkh_join(h.tree, "u1", ik, h.rng),
        lambda: lkh_leave(h.tree, "ghost", h.rng),
    ):
        snapshot, state = dump(h.tree), h.rng.getstate()
        with pytest.raises(ProtocolError):
            refused()
        assert dump(h.tree) == snapshot
        assert h.rng.getstate() == state


def test_randomized_churn_consistency():
    # every event re-keys the middles its leaf names, bottom-up, then the
    # root, and counts what it sends
    rng = random.Random(10)
    promoted = realized_leaves = 0
    for trial in range(40):
        h = Harness(seed=2000 + trial)
        alive: list[str] = []
        counter = 0
        for _ in range(rng.randint(8, 30)):
            joined = not (alive and rng.random() < 0.4)
            if joined:
                counter += 1
                member = f"r{counter}"
                alive.append(member)
                res = h.join(member)
            else:
                member = rng.choice(alive)
                alive.remove(member)
                res, _ = h.leave(member)
            notice, c = res.notice, res.counters
            assert notice.affected_codes == rekeyed_middles(notice.leaf, joined)[::-1] + ["r"]
            assert c.key_generations == len(notice.affected_codes)
            if not joined and notice.promoted_src is not None:
                promoted += 1
                depth = len(notice.leaf) - 1
                # two for each ancestor the promotion keeps, but a root left
                # with one child by an earlier depth-1 leave gets one
                sends = 2 * (depth - 2) + len(h.tree._children("r"))
                assert c.encryptions == c.multicast_sends == sends
                assert c.unicast_sends == 0
            else:
                realized_leaves += not joined
            assert (c.encryptions, c.unicast_sends, c.multicast_sends) == realized_counts(res)
            h.assert_consistent()
    assert promoted > 0 and realized_leaves > 0


def test_dump_deterministic():
    a, b = Harness(seed=11), Harness(seed=11)
    a.grow(6)
    b.grow(6)
    assert dump(a.tree) == dump(b.tree)


def test_refresh_refuses_a_join_without_its_payload():
    h = Harness(seed=12)
    h.grow(4)
    res = lkh_join(h.tree, "u5", random_key(h.rng), h.rng)
    view = h.views["u1"]
    # drop the payload that carries the root key to u1's side of the tree
    child = view.leaf[:2]
    kept = [
        WireMessage(msg.desc, [p for p in msg.payloads if p.under != child])
        for msg in res.multicasts
    ]
    with pytest.raises(ProtocolError, match=f"no payload under {child} for r"):
        lkh_member_refresh_join([view], replace(res, multicasts=kept))


def test_refresh_refuses_a_leave_without_its_payload():
    h = Harness(seed=15)
    h.grow(16)
    res = lkh_leave(h.tree, "u16", h.rng)
    leaf = res.notice.leaf
    # a member outside the promoted subtree that shares the leaver's path
    # down to leaf[:3] climbs three re-keyed positions: leaf[:3], leaf[:2], r
    view = next(
        v for m, v in sorted(h.views.items())
        if m != "u16" and v.leaf.startswith(leaf[:3])
        and not v.leaf.startswith(res.notice.promoted_src)
    )
    assert scan_on_path(view.leaf, res.notice.affected_codes) == [leaf[:3], leaf[:2], "r"]
    # drop the payload that carries the middle one of them to this member
    child = view.leaf[:3]
    kept = [
        WireMessage(msg.desc, [p for p in msg.payloads if p.under != child])
        for msg in res.multicasts
    ]
    with pytest.raises(ProtocolError, match=f"no payload under {child} for {leaf[:2]}"):
        lkh_member_refresh_leave([view], replace(res, multicasts=kept))


def test_a_whole_area_leave_refuses_a_child_without_its_payload():
    # The members below a regenerated label open its payload under their
    # child on the path.  A whole-area pass over a leave that lost the
    # payload under one child refuses, naming the child and the label.
    h = Harness(seed=16)
    h.grow(24)
    res = lkh_leave(h.tree, "u24", h.rng)
    del h.views["u24"]
    for msg in res.multicasts:
        (payload,) = msg.payloads
        child = payload.under
        kept = [m for m in res.multicasts if m is not msg]
        views = [MemberKeyView(v.member_id, v.leaf, dict(v.keys), v.epoch) for v in h.views.values()]
        with pytest.raises(ProtocolError, match=f"^no payload under {child} for {child[:-1]}$"):
            lkh_member_refresh_leave(views, replace(res, multicasts=kept))


def test_joiner_refuses_a_chain_that_stops_short():
    h = Harness(seed=13)
    h.grow(4)
    ik = random_key(h.rng)
    res = lkh_join(h.tree, "u5", ik, h.rng)
    with pytest.raises(ProtocolError, match="unicast chain does not cover the announced path"):
        build_lkh_joiner_view("u5", ik, res.unicasts[:-1], res.notice.leaf, res.notice.epoch)


def test_joiner_refuses_a_chain_missing_a_middle_link():
    h = Harness(seed=14)
    h.grow(8)
    ik = random_key(h.rng)
    res = lkh_join(h.tree, "u9", ik, h.rng)
    assert [msg.payloads[0].under for msg in res.unicasts] == ["r0001", "r000", "r00", "r0"]
    # without the second link the third is sealed under a key never delivered
    gapped = res.unicasts[:1] + res.unicasts[2:]
    with pytest.raises(ProtocolError, match="chain link under r00 arrives before that key"):
        build_lkh_joiner_view("u9", ik, gapped, res.notice.leaf, res.notice.epoch)
