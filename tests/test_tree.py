"""The position tree's placement index: the occupant index and the leaf heap
agree with the brute-force placement rules after every seat and unseat; the
members below each position are one run of the leaf-ordered views; and one
placement rule seats every member at the same position under every scheme."""

from __future__ import annotations

import random

import pytest

from crawsim.ckc import CkcTree
from crawsim.crypto import random_key
from crawsim.entities import SCHEMES, AreaState
from crawsim.lkh import LkhTree
from crawsim.sim import Simulation
from crawsim.tree import under
from oracles import scan_shallowest_leaf, scan_under
from test_acceptance import random_scenario


def churn(tree_cls, seed: int, n_ops: int, cap: int):
    """Seeded random seats and unseats on a fresh tree, in waves that grow
    it to ``cap`` members and shrink it to two, so that leaves scattered
    over a full tree leave lopsided subtrees to promote; yields the tree
    and, for an unseat, the moved members' old and new leaves."""
    rng = random.Random(seed)
    tree = tree_cls.new(rng)
    absent = [f"m{i}" for i in range(cap)]
    shrinking = False
    for _ in range(n_ops):
        shrinking = (shrinking or not absent) and len(tree.leaves) > 2
        if shrinking:
            before = dict(tree.leaves)
            member = rng.choice(list(before))
            tree.unseat(member, rng)
            absent.append(member)
            del before[member]
            yield tree, {m: (c, tree.leaves[m]) for m, c in before.items() if tree.leaves[m] != c}
        else:
            tree.seat(absent.pop(rng.randrange(len(absent))), random_key(rng), rng)
            yield tree, {}


@pytest.mark.parametrize("tree_cls", (CkcTree, LkhTree))
def test_the_index_agrees_with_the_scan_rule(tree_cls):
    reused = 0
    for seed in range(10):
        for tree, moved in churn(tree_cls, seed, n_ops=600, cap=64):
            assert tree.occupants == {c: m for m, c in tree.leaves.items()}
            assert tree.shallowest_leaf() == scan_shallowest_leaf(tree)
            # a promoted code that is another moved code's old one
            reused += bool({new for _, new in moved.values()} & {old for old, _ in moved.values()})
    assert reused > 0


@pytest.mark.parametrize("tree_cls", (CkcTree, LkhTree))
def test_the_heap_stays_bounded_under_churn(tree_cls):
    # 2 000 alternating leaves and joins in a 64-member area: stale entries
    # never outnumber the live leaves for long
    rng = random.Random(3)
    tree = tree_cls.new(rng)
    for i in range(64):
        tree.seat(f"m{i}", random_key(rng), rng)
    absent = ["w0"]
    for t in range(2000):
        if t % 2 == 0:
            member = rng.choice(list(tree.leaves))
            tree.unseat(member, rng)
            absent.append(member)
        else:
            tree.seat(absent.pop(rng.randrange(len(absent))), random_key(rng), rng)
        assert len(tree._heap) <= 2 * len(tree.leaves) + 2, t
    assert tree.index_matches()


@pytest.mark.parametrize("scheme", ("ckc_craw", "lkh"))
def test_a_corrupted_index_is_inconsistent(scheme):
    rng = random.Random(7)
    area = AreaState("A", scheme, rng)
    for i in range(9):
        area.join(f"m{i}", random_key(rng))
    assert area.consistent()
    tree = area.tree
    a, b = tree.leaves["m0"], tree.leaves["m1"]

    tree.occupants[a], tree.occupants[b] = "m1", "m0"  # swapped
    assert not area.consistent()
    tree.occupants[a], tree.occupants[b] = "m0", "m1"
    assert area.consistent()

    tree.occupants[a + "1"] = "m0"  # a stale extra entry
    assert not area.consistent()
    del tree.occupants[a + "1"]

    tree._heap.remove((len(a), a))  # a leaf the heap lost
    assert not area.consistent()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_the_views_below_each_position_are_one_run_in_leaf_order(scheme):
    # A refresh pass takes the members below a re-keyed position as one run
    # of the leaf-ordered views (``tree.under``).  After every event of a
    # seeded churn in waves, that run equals a scan for every position of
    # the tree, and the event kept the leaf order of the views it refreshed:
    # a promotion and an occupant slide re-code a run without leaving it.
    rng = random.Random(29)
    area = AreaState("A", scheme, rng)
    absent = [f"m{i}" for i in range(40)]
    shrinking, promotions, slides = False, 0, 0
    for _ in range(160):
        ordered = sorted(area.views.values(), key=lambda v: v.leaf)
        shrinking = (shrinking or not absent) and area.size() > 2
        if shrinking:
            member = rng.choice(sorted(area.views))
            promotions += area.leave(member).notice.promoted_src is not None
            absent.append(member)
        else:
            notice = area.join(absent.pop(rng.randrange(len(absent))), random_key(rng)).notice
            slides += notice.occupant_leaf is not None
        kept = [v.leaf for v in ordered if v.member_id in area.views]
        assert kept == sorted(kept)
        views = sorted(area.views.values(), key=lambda v: v.leaf)
        for code in area.tree.nodes:
            run = [v.member_id for v in under(views, code)]
            assert run == [v.member_id for v in scan_under(views, code)], code
    assert area.consistent()
    assert promotions > 0 and slides > 0


def test_one_seeded_sequence_seats_every_member_alike_under_both_trees():
    # One seeded sequence of seats and unseats, in waves that grow the trees
    # to 48 members and shrink them to two, drives a CKC and an LKH tree,
    # each drawing its keys from its own RNG: after every event each member
    # sits at the same position in both, once the root names are mapped.
    ops, ckc_rng, lkh_rng = random.Random(41), random.Random(1), random.Random(2)
    ckc, lkh = CkcTree.new(ckc_rng), LkhTree.new(lkh_rng)
    absent = [f"m{i}" for i in range(48)]
    shrinking, promotions = False, 0
    for _ in range(400):
        shrinking = (shrinking or not absent) and len(ckc.leaves) > 2
        if shrinking:
            member = ops.choice(sorted(ckc.leaves))
            promotions += ckc.unseat(member, ckc_rng).promoted_src is not None
            lkh.unseat(member, lkh_rng)
            absent.append(member)
        else:
            member, key = absent.pop(ops.randrange(len(absent))), random_key(ops)
            ckc.seat(member, key, ckc_rng)
            lkh.seat(member, key, lkh_rng)
        assert {m: LkhTree.ROOT + leaf[1:] for m, leaf in ckc.leaves.items()} == lkh.leaves
    assert promotions > 0


def test_every_scheme_places_each_event_at_one_depth():
    # The 300-run random set (2171 event rows per scheme) under all three
    # schemes: each event row has one (kind, area, member, depth), so a
    # leave re-keys the same number of levels under every scheme.
    for trial in range(300):
        rows = {
            scheme: [
                (row.kind, row.area, row.member, row.depth)
                for row in Simulation(random_scenario(trial, scheme)).run().ledger.events
            ]
            for scheme in SCHEMES
        }
        assert rows["ckc_craw"] == rows["ckc_plain"] == rows["lkh"], trial
