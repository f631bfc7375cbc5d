"""Code-based key tree: join/leave mechanics, member-side refresh, counters,
and the view-vs-tree consistency oracle."""

from __future__ import annotations

import random
import time

import pytest

from crawsim.ckc import (
    ROOT_CODE,
    CkcTree,
    build_joiner_view,
    ckc_join,
    ckc_leave,
    ckc_member_refresh_join,
    ckc_member_refresh_leave,
)
from crawsim.crypto import KEY_WIDTH, DecryptionError, ProtocolError, decrypt, hash_f_xor, random_key
from crawsim.scenario import validate_doc
from crawsim.secrecy import check_secrecy
from crawsim.sim import Simulation
from crawsim.tree import MemberKeyView
from test_acceptance import ZERO_DELAYS, random_scenario


class Harness:
    """Server tree plus every member's locally maintained view.

    Across tenures the harness also remembers, per member id, every key
    value it ever held, and for each key the server derived as f(a xor b)
    the pair (a, b).  Every leave checks the cover rule against that
    memory.
    """

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)
        self.tree = CkcTree.new(self.rng)
        self.views: dict[str, MemberKeyView] = {}
        self.individual: dict[str, bytes] = {}
        self.held: dict[str, set[bytes]] = {}
        self.derivations: dict[bytes, tuple[bytes, bytes]] = {}

    def join(self, member: str, **kwargs):
        ik = random_key(self.rng)
        self.individual[member] = ik
        res = ckc_join(self.tree, member, ik, self.rng, **kwargs)
        for view in self.views.values():
            ckc_member_refresh_join(view, res.notice)
        plaintext = decrypt(ik, res.unicasts[0].payloads[0].ciphertext)
        self.views[member] = build_joiner_view(member, ik, plaintext, res.notice)
        self._note()
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
        self._note()
        return res, departed

    def _note(self):
        """After an event: how its derived keys came to be, and what each
        present member now holds."""
        self.derivations.update(self.tree.drain_stored()[1])
        for member, view in self.views.items():
            self.held.setdefault(member, set()).update(view.keys.values())

    def assert_covers_not_reproducible(self, res):
        """Neither the leaver nor any departed member (one that is not back)
        holds a cover key, or both keys a cover key was derived from."""
        exposed = [m for m in self.held if m not in self.tree.leaves]
        covers = [(p.under, p.enc_key) for msg in res.multicasts for p in msg.payloads]
        assert [code for code, _ in covers] == res.notice.cover_codes
        for code, key in covers:
            premises = self.derivations.get(key, ())
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
    res2 = h.join("u9", count_individual_key=True)
    assert res2.counters.key_generations == 2
    assert (res2.counters.encryptions, res2.counters.unicast_sends) == (1, 1)


def test_join_unicast_contents():
    h = Harness(seed=1)
    h.grow(7)
    res = h.join("u8")
    unicast = res.unicasts[0].payloads[0].ciphertext
    plaintext = decrypt(h.individual["u8"], unicast)
    leaf = res.notice.joiner_leaf
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
    for view in h.views.values():
        ckc_member_refresh_join(view, res.notice)  # stale re-delivery
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
        assert res.notice.promoted_dst == leaf[:-1]
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
    with pytest.raises(ProtocolError):
        ckc_join(h.tree, "u1", random_key(h.rng), h.rng)
    with pytest.raises(ProtocolError):
        ckc_leave(h.tree, "ghost", h.rng)


def test_member_codes_are_exactly_path_prefixes():
    h = Harness(seed=14)
    h.grow(13)
    for view in h.views.values():
        prefixes = [view.leaf[:i] for i in range(1, len(view.leaf) + 1)]
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
        ckc_member_refresh_leave(mine, res.notice, dropped)


def test_joiner_refuses_a_leaf_off_the_delivered_parent():
    h = Harness(seed=20)
    h.grow(4)
    ik = random_key(h.rng)
    res = ckc_join(h.tree, "u5", ik, h.rng)
    plaintext = decrypt(ik, res.unicasts[0].payloads[0].ciphertext)
    # one more key and one more code digit: a well-formed payload for the
    # announced leaf's child
    bogus = plaintext[:-2] + random_key(h.rng) + plaintext[-2:] + b"0"
    with pytest.raises(ProtocolError, match="does not extend the delivered parent code"):
        build_joiner_view("u5", ik, bogus, res.notice)


def test_join_unicast_without_a_parent_code_is_refused():
    notice = ckc_join(CkcTree.new(random.Random(21)), "u1", bytes(KEY_WIDTH), random.Random(21)).notice
    for plaintext in (b"", random_key(random.Random(21))):  # nothing; AK' with no parent code
        with pytest.raises(ProtocolError, match="is not AK', middle keys and a parent code"):
            build_joiner_view("u1", bytes(KEY_WIDTH), plaintext, notice)


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
