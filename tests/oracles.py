"""Test oracles that no run calls: checks on a finished run's recorder, a
snapshot of a server tree, the placement rules read off the tree by
brute-force scans, against which its index is checked, and what a member
refresh reads off an event by full scans, against which the refresh passes
and their runs of leaf-ordered views are checked."""

from __future__ import annotations

import json
from itertools import combinations

from crawsim.crypto import DecryptionError, decrypt, fingerprint, hash_f, hash_f_xor
from crawsim.secrecy import RunRecorder, _legal
from crawsim.tree import MemberKeyView, PositionTree, Rekey, path_codes


def dump(tree: PositionTree) -> str:
    """Deterministic JSON snapshot of a server tree (keys reduced to
    fingerprints)."""
    doc = {
        "root": tree.ROOT,
        "epoch": tree.epoch,
        "nodes": {c: fingerprint(k) for c, k in sorted(tree.nodes.items())},
        "leaves": dict(sorted(tree.leaves.items())),
    }
    return json.dumps(doc, sort_keys=True, indent=1)


def scan_shallowest_leaf(tree: PositionTree) -> str:
    """The leaf a join splits, by a scan of every leaf: least depth, ties
    broken by smallest code."""
    return min(tree.leaves.values(), key=lambda c: (len(c), c))


def scan_occupant(tree: PositionTree, code: str) -> str:
    """The one member at leaf ``code``, by a scan of every leaf."""
    (member,) = [m for m, c in tree.leaves.items() if c == code]
    return member


def rekeyed_middles(leaf: str, joined: bool) -> list[str]:
    """The middle positions an event at ``leaf`` re-keys, top-down, read off
    the leaf's prefixes: below the root and above the joiner's leaf, or
    above the leaver's vanished parent."""
    return [leaf[:i] for i in range(2, len(leaf) - (0 if joined else 1))]


def scan_on_path(leaf: str, affected: list[str]) -> list[str]:
    """The event's re-keyed positions on the root path of ``leaf``, in the
    event's order, by a test of every one: the middle keys a CKC member
    rolls, or the keys an LKH member opens."""
    return [code for code in affected if leaf.startswith(code)]


def scan_under(views: list[MemberKeyView], code: str) -> list[MemberKeyView]:
    """The views whose leaf is at or below position ``code``, in the given
    order, by a test of every one: the members that share the key at
    ``code``."""
    return [view for view in views if view.leaf.startswith(code)]


def scan_covers(leaf: str, rekey: Rekey) -> list[str]:
    """The cover payloads of a CKC leave that a member at ``leaf`` (before
    the promotion) can open, by a lookup of every position on its root
    path in the event's index."""
    return [code for code in path_codes(leaf) if code in rekey.index]


def realized_counts(rekey: Rekey) -> tuple[int, int, int]:
    """What an event sends, counted off its messages: (payloads, unicast
    messages, multicast messages)."""
    messages = rekey.unicasts + rekey.multicasts
    return sum(len(msg.payloads) for msg in messages), len(rekey.unicasts), len(rekey.multicasts)


def operational_decrypt_check(rec: RunRecorder, max_attempts: int = 4000) -> list[str]:
    """A check of the closure audit that reads no recorded derivation: try
    to open a bounded sample of out-of-window ciphertexts with every key the
    member held and every f(k) and f(a xor b) over those keys, hashed from
    first principles."""
    violations = []
    attempts = 0
    for member, known in rec.knowledge.items():
        wins = rec.windows.get(member, [])
        held = sorted(known)
        derived = [hash_f(k) for k in held] + [hash_f_xor(a, b) for a, b in combinations(held, 2)]
        candidates = list(dict.fromkeys(held + derived))
        for i, ct in enumerate(rec.ciphertexts):
            if ct.ciphertext is None or _legal(member, ct, i, wins):
                continue
            for key in candidates:
                attempts += 1
                if attempts > max_attempts:
                    return violations
                try:
                    decrypt(key, ct.ciphertext)
                except DecryptionError:
                    continue
                violations.append(f"{member} opened a {ct.kind} in {ct.area} at t={ct.time}")
                break
    return violations
