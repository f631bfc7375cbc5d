"""Logical-key-hierarchy baseline for cost comparison.

Classic binary LKH: every tree node holds an independent random key, a join
regenerates each key on the new leaf's path (delivered to the newcomer as a
unicast chain and to current members as per-node multicasts under child
keys), and a leave collapses the leaver's parent by promoting the sibling
subtree, then regenerates the surviving path keys.

Counter conventions: join counters are realized counts and equal the
textbook formulas on balanced trees (depth keygens, 3*depth encryptions,
depth unicasts, depth multicasts).  Leave counters follow the conventional
per-level tally of 2*depth encryptions/multicasts over the leaver's depth;
the realized minimal payload set is 2*(depth-1) messages, two per
regenerated ancestor, and is what the payload list contains.  The two
figures are both exposed: counters in ``RekeyCounters``, real messages in
``multicasts``.
"""

from __future__ import annotations

from random import Random

from .crypto import ProtocolError, decrypt, encrypt, random_key
from .tree import (
    JoinNotice, JoinResult, LeaveNotice, LeaveResult, MemberKeyView, PositionTree,
    RekeyCounters, WireMessage, WirePayload,
)

ROOT_LABEL = "r"


class LkhTree(PositionTree):
    """Server-side LKH state: label -> key, member -> leaf label."""

    ROOT = ROOT_LABEL

    @classmethod
    def new(cls, rng: Random) -> "LkhTree":
        return cls(random_key(rng))

    def _digit(self, rng: Random, exclude: str) -> str:
        return "0" if "0" not in exclude else "1"

    def _rekey_join(self, leaf: str, rng: Random) -> list[str]:
        """Draw fresh keys bottom-up: the split position (if any), every
        ancestor above it, and the root."""
        changed = [leaf[:i] for i in range(len(leaf) - 1, 0, -1)]
        for label in changed:
            self._set(label, random_key(rng))
        return changed


def _seal(tree: PositionTree, label: str, child: str) -> WirePayload:
    """The key at ``label`` encrypted under the key of its child ``child``."""
    key = tree.nodes[child]
    return WirePayload(child, key, encrypt(key, tree.nodes[label]))


def root_path_chain(tree: PositionTree, leaf: str) -> list[WireMessage]:
    """The unicast chain that hands a member every key on its root path:
    bottom-up, each key encrypted under the one below it, the first under
    the member's individual key."""
    path = tree.path_codes(leaf)
    return [
        WireMessage(f"label={label}", [_seal(tree, label, child)])
        for label, child in zip(reversed(path[:-1]), reversed(path[1:]))
    ]


def lkh_join(tree: LkhTree, member_id: str, individual_key: bytes, rng: Random) -> JoinResult:
    """Attach a member and regenerate every key on its path."""
    notice = tree.seat(member_id, individual_key, rng)
    changed = notice.affected_codes
    # every key on the joiner's path is new, so its chain is the whole path
    chain = root_path_chain(tree, notice.joiner_leaf)

    multicasts = [
        WireMessage(f"label={label}", [_seal(tree, label, child) for child in tree._children(label)])
        for label in changed
    ]
    counters = RekeyCounters(
        key_generations=len(changed),
        encryptions=len(chain) + sum(len(msg.payloads) for msg in multicasts),
        unicast_sends=len(chain),
        multicast_sends=len(multicasts),
    )
    return JoinResult(notice, chain, multicasts, counters)


def lkh_leave(tree: LkhTree, member_id: str, rng: Random) -> LeaveResult:
    """Detach a member, collapse its parent, regenerate surviving path keys."""
    if member_id not in tree.leaves:
        raise ProtocolError(f"{member_id} not in tree")
    leaf = tree.leaves.pop(member_id)
    depth = len(leaf) - 1
    promoted_src, promoted_dst = tree.detach(leaf)
    if depth >= 2:
        changed = [leaf[:i] for i in range(len(leaf) - 2, 0, -1)]  # above the parent
    else:
        changed = [ROOT_LABEL]
    for label in changed:
        tree._set(label, random_key(rng))
    tree.epoch += 1

    multicasts = [
        WireMessage(f"label={label} child={child}", [_seal(tree, label, child)])
        for label in changed
        for child in tree._children(label)
    ]

    notice = LeaveNotice(tree.epoch, member_id, leaf, promoted_src, promoted_dst, changed)
    if promoted_dst is not None:
        # conventional per-level tally (see module docstring); the realized
        # payload list is two messages shorter
        reported = 2 * depth
    else:
        reported = len(multicasts)
    counters = RekeyCounters(
        key_generations=len(changed),
        encryptions=reported,
        unicast_sends=0,
        multicast_sends=reported,
    )
    return LeaveResult(notice, multicasts, counters)


def build_lkh_joiner_view(
    member_id: str,
    individual_key: bytes,
    chain: list[WireMessage],
    leaf: str,
    epoch: int,
) -> MemberKeyView:
    """Open a ``root_path_chain`` delivered for ``leaf``, under either
    scheme."""
    keys = {leaf: individual_key}
    for msg in chain:
        for p in msg.payloads:
            if p.under not in keys:
                raise ProtocolError(f"chain link under {p.under} arrives before that key")
            # a link under a position carries the key of its parent
            keys[p.under[:-1]] = decrypt(keys[p.under], p.ciphertext)
    if sorted(keys) != sorted(leaf[:i] for i in range(1, len(leaf) + 1)):
        raise ProtocolError("unicast chain does not cover the announced path")
    return MemberKeyView(member_id, leaf, keys, epoch)


def _climb(view: MemberKeyView, changed: list[str], multicasts: list[WireMessage]) -> None:
    """Open the regenerated keys on the view's own path.  ``changed`` runs
    bottom-up, so the key of the child on the path is current when its
    parent's payload is opened under it."""
    by_under = {p.under: p.ciphertext for msg in multicasts for p in msg.payloads}
    for label in changed:
        if not view.leaf.startswith(label):
            continue
        child_on_path = view.leaf[: len(label) + 1]
        ct = by_under.get(child_on_path)
        if ct is None:
            raise ProtocolError(f"no payload under {child_on_path} for {label}")
        view.store(label, decrypt(view.keys[child_on_path], ct))


def lkh_member_refresh_join(
    view: MemberKeyView,
    notice: JoinNotice,
    multicasts: list[WireMessage],
) -> MemberKeyView:
    if not view.follow_join(notice):
        return view
    _climb(view, notice.affected_codes, multicasts)
    view.epoch = notice.epoch
    return view


def lkh_member_refresh_leave(
    view: MemberKeyView,
    notice: LeaveNotice,
    multicasts: list[WireMessage],
) -> MemberKeyView:
    if not view.accept_leave(notice):
        return view
    view.promote(notice)
    _climb(view, notice.affected_codes, multicasts)
    view.epoch = notice.epoch
    return view
