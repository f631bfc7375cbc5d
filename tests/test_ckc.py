"""Code-based key tree: join/leave mechanics, member-side refresh, counters,
and the view-vs-tree consistency oracle."""

from __future__ import annotations

import random

import pytest

from crawsim.ckc import (
    ROOT_CODE,
    CkcTree,
    MemberKeyView,
    build_joiner_view,
    ckc_join,
    ckc_leave,
    ckc_member_refresh_join,
    ckc_member_refresh_leave,
    generation_tag,
    parse_join_unicast,
    view_matches_tree,
)
from crawsim.crypto import DecryptionError, ProtocolError, decrypt, hash_f_xor, random_key


class Harness:
    """Server tree plus every member's locally maintained view.

    Across tenures the harness also remembers, per member id, every
    derivation string that was on its path and every epoch it was present
    for (so every group key it was handed), and for each derived key value
    the (string, epoch) it was computed from.  Every leave checks the cover
    rule against that memory.
    """

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.tree = CkcTree.new(self.rng)
        self.views: dict[str, MemberKeyView] = {}
        self.individual: dict[str, bytes] = {}
        self.strings: dict[str, set[str]] = {}
        self.epochs: dict[str, set[int]] = {}
        self.derivations: dict[bytes, tuple[str, int]] = {}

    def join(self, member: str, **kwargs):
        ik = random_key(self.rng)
        self.individual[member] = ik
        res = ckc_join(self.tree, member, ik, self.rng, **kwargs)
        for view in self.views.values():
            ckc_member_refresh_join(view, res.notice)
        ak, parent = parse_join_unicast(decrypt(ik, res.unicast))
        self.views[member] = build_joiner_view(member, ik, ak, parent, res.notice)
        self._note(res.notice.affected_codes)
        return res

    def leave(self, member: str):
        leaf = self.tree.leaves[member]
        canonical = [
            sib
            for code in self.tree.path_codes(leaf)[1:]
            for sib in sorted(c for c in self.tree.nodes if c[:-1] == code[:-1])
            if sib != code
        ]
        res = ckc_leave(self.tree, member, self.rng)
        assert res.notice.cover_codes == canonical
        self.assert_covers_not_reproducible(res)
        departed = self.views.pop(member)
        for view in self.views.values():
            ckc_member_refresh_leave(view, res.notice, res.multicasts)
        self._note(res.notice.affected_codes)
        return res, departed

    def _note(self, derived_codes):
        """After an event: how its derived keys came to be, and what each
        present member now knows."""
        prefix = self.tree.namespace + generation_tag(self.tree.generation)
        epoch = self.tree.epoch
        for code in derived_codes:
            self.derivations[self.tree.nodes[code]] = (prefix + code, epoch)
        for member, leaf in self.tree.leaves.items():
            self.strings.setdefault(member, set()).update(
                prefix + c for c in self.tree.path_codes(leaf)
            )
            self.epochs.setdefault(member, set()).add(epoch)

    def assert_covers_not_reproducible(self, res):
        """Neither the leaver nor any departed member (one that is not back)
        holds both the string and the group key a cover key was derived
        from.  Random covers (individual keys) have nothing to recompute."""
        exposed = [m for m in self.strings if m not in self.tree.leaves]
        for code, key in zip(res.notice.cover_codes, res.cover_keys):
            if key not in self.derivations:
                continue
            string, epoch = self.derivations[key]
            for m in exposed:
                assert not (string in self.strings[m] and epoch in self.epochs[m]), (
                    f"{m} can recompute cover {code} from {string!r} at epoch {epoch}"
                )

    def grow(self, n: int, prefix: str = "u"):
        for i in range(len(self.views) + 1, len(self.views) + n + 1):
            self.join(f"{prefix}{i}")

    def assert_consistent(self):
        for member, view in self.views.items():
            assert view_matches_tree(view, self.tree), f"{member} view diverged"


def test_join_counters_craw_and_plain():
    h = Harness()
    h.grow(7)
    res = h.join("u8")
    assert (res.counters.key_generations, res.counters.encryptions) == (1, 1)
    assert (res.counters.unicast_sends, res.counters.multicast_sends) == (1, 0)
    res2 = h.join("u9", count_individual_key=True)
    assert res2.counters.key_generations == 2
    assert (res2.counters.encryptions, res2.counters.unicast_sends) == (1, 1)


def test_join_unicast_contents():
    h = Harness(seed=1)
    h.grow(7)
    res = h.join("u8")
    ak, parent = parse_join_unicast(decrypt(h.individual["u8"], res.unicast))
    assert ak == h.tree.group_key()
    assert res.notice.joiner_leaf == parent + res.notice.joiner_leaf[-1]
    # nobody else's individual key opens the unicast
    for other in ("u1", "u4", "u7"):
        with pytest.raises(DecryptionError):
            decrypt(h.individual[other], res.unicast)


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
    split = min(h.tree.leaves.values(), key=lambda c: (len(c), c))
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
    split = min(h.tree.leaves.values(), key=lambda c: (len(c), c))
    occupant = next(m for m, c in h.tree.leaves.items() if c == split)
    ik_before = h.views[occupant].keys[split]
    res = h.join("u9")
    occ_view = h.views[occupant]
    assert occ_view.leaf_code == res.notice.occupant_leaf
    assert occ_view.keys[occ_view.leaf_code] == ik_before
    # the split position is now an internal key derived from AK'
    assert occ_view.keys[split] == hash_f_xor(h.tree.group_key(), split)
    h.assert_consistent()


def test_join_refresh_is_idempotent():
    h = Harness(seed=6)
    h.grow(4)
    res = h.join("u5")
    snapshot = {m: (v.leaf_code, dict(v.keys), v.epoch) for m, v in h.views.items()}
    for view in h.views.values():
        ckc_member_refresh_join(view, res.notice)  # stale re-delivery
    assert snapshot == {m: (v.leaf_code, dict(v.keys), v.epoch) for m, v in h.views.items()}


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
        for _, ct in res.multicasts:
            with pytest.raises(DecryptionError):
                decrypt(key, ct)


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
        assert res.notice.promoted_dst == leaf[:-1]
        # promoted members' codes dropped the digit at the promotion depth
        for view in h.views.values():
            assert not view.leaf_code.startswith(res.notice.promoted_src)
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
    with pytest.raises(ProtocolError):
        ckc_join(h.tree, "u1", random_key(h.rng), h.rng)
    with pytest.raises(ProtocolError):
        ckc_leave(h.tree, "ghost", h.rng)


def test_depth_beyond_code_width_rejected():
    # handcraft a tree whose every leaf already sits at the code-width limit
    rng = random.Random(13)
    tree = CkcTree.new(rng)
    for branch, member in (("2", "a"), ("3", "b")):
        deep = "1" + branch * 15  # 16 digits = key width
        for i in range(2, len(deep) + 1):
            tree._set(deep[:i], random_key(rng))
        tree.leaves[member] = deep
    with pytest.raises(ProtocolError):
        ckc_join(tree, "c", random_key(rng), rng)


def test_member_codes_are_exactly_path_prefixes():
    h = Harness(seed=14)
    h.grow(13)
    for view in h.views.values():
        prefixes = [view.leaf_code[:i] for i in range(1, len(view.leaf_code) + 1)]
        assert sorted(view.keys) == sorted(prefixes)


def test_sibling_digits_distinct_everywhere():
    h = Harness(seed=15)
    h.grow(17)
    by_parent: dict[str, set[str]] = {}
    for code in h.tree.nodes:
        if len(code) > 1:
            by_parent.setdefault(code[:-1], set())
            assert code[-1] not in by_parent[code[:-1]]
            by_parent[code[:-1]].add(code[-1])


def test_dump_is_deterministic_and_fingerprinted():
    h1, h2 = Harness(seed=16), Harness(seed=16)
    h1.grow(5)
    h2.grow(5)
    assert h1.tree.dump() == h2.tree.dump()
    assert len(h1.tree.group_key().hex()) == 32
    assert h1.tree.group_key().hex() not in h1.tree.dump()  # no raw keys


def test_randomized_sequences_stay_consistent():
    # module-level churn: random joins/leaves, up to 64 members
    rng = random.Random(17)
    for trial in range(60):
        h = Harness(seed=1000 + trial)
        alive: list[str] = []
        counter = 0
        for _ in range(rng.randint(10, 40)):
            if alive and (rng.random() < 0.4 or len(alive) >= 64):
                member = rng.choice(alive)
                alive.remove(member)
                h.leave(member)
            else:
                counter += 1
                member = f"r{counter}"
                alive.append(member)
                h.join(member)
            h.assert_consistent()


def test_randomized_churn_with_rejoins_keeps_covers_safe():
    # departed members come back under their old ids, so their remembered
    # strings and epochs span several tenures; Harness.leave checks every
    # cover set against that memory
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
                rejoined += member in h.strings
                h.join(member)
            h.assert_consistent()
        assert rejoined > 0
