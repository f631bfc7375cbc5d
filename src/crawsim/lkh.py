"""Logical-key-hierarchy baseline for cost comparison.

Classic binary LKH: every tree node holds an independent random key, a join
regenerates each key on the new leaf's path (delivered to the newcomer as a
unicast chain and to current members as per-node multicasts under child
keys), and a leave collapses the leaver's parent by promoting the sibling
subtree, then regenerates the surviving path keys.

An event's counters are what it sends (``Rekey.counters``).  On a join
at depth d they are d key generations, 3*d encryptions, d unicasts and d
multicasts; the server also mints the joiner's individual key, which
``AreaState.join`` adds.  A leave at depth d that promotes a subtree
regenerates the d-1 ancestors above the vanished parent and sends each
under each of its children: 2*(d-1) messages, one fewer when the root
has a single child (the root never collapses).

Placement, leave and the positions each event re-keys live in
``crawsim.tree``; this module supplies the fresh keys (``LkhTree._rekey``:
the middle positions bottom-up, then the root), the sealed ``Rekey`` of
each event and the steps of the members' one pass (``tree.refresh``),
one table for a join and a leave alike: for each regenerated label,
bottom-up, the views below each of its children open its payload under
that child, looked up in the event's ``index`` and shared through
``Rekey.opened``.  Only a joiner gets a chain: the t=0 roster gets
``ckc.joiner_unicasts`` under LKH too.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import partial
from random import Random

from .crypto import ProtocolError, decrypt, encrypt, random_key
from .tree import (
    MemberKeyView, PositionTree, Rekey, Step, WireMessage, WirePayload, path_codes, refresh, under,
)

ROOT_LABEL = "r"


class LkhTree(PositionTree):
    """Server-side LKH state: label -> key, member -> leaf label."""

    ROOT = ROOT_LABEL

    def _rekey(self, middles: list[str], rng: Random, joined: bool) -> list[str]:
        """Draw a fresh key for each middle position bottom-up, then for the
        root, on a join and a leave alike."""
        changed = middles[::-1] + [ROOT_LABEL]
        for label in changed:
            self._set(label, random_key(rng))
        return changed


def _seal(tree: PositionTree, label: str, child: str) -> WirePayload:
    """The key at ``label`` encrypted under the key of its child ``child``."""
    key = tree.nodes[child]
    return WirePayload(child, key, encrypt(key, tree.nodes[label]))


def lkh_join(tree: LkhTree, member_id: str, individual_key: bytes, rng: Random) -> Rekey:
    """Attach a member and regenerate every key on its path."""
    notice = tree.seat(member_id, individual_key, rng)
    changed = notice.affected_codes
    # every key on the joiner's path is new, so its unicast chain climbs the
    # whole path, each key under the one below it, the first under its own
    path = path_codes(notice.leaf)
    chain = [
        WireMessage(f"label={label}", [_seal(tree, label, child)])
        for label, child in zip(reversed(path[:-1]), reversed(path[1:]))
    ]
    multicasts = [
        WireMessage(f"label={label}", [_seal(tree, label, child) for child in tree._children(label)])
        for label in changed
    ]
    return Rekey(notice, chain, multicasts, len(changed))


def lkh_leave(tree: LkhTree, member_id: str, rng: Random) -> Rekey:
    """Unseat a member (``PositionTree.unseat``) and multicast each fresh
    key under each of its children."""
    notice = tree.unseat(member_id, rng)
    changed = notice.affected_codes
    multicasts = [
        WireMessage(f"label={label} child={child}", [_seal(tree, label, child)])
        for label in changed
        for child in tree._children(label)
    ]
    return Rekey(notice, [], multicasts, len(changed))


def build_lkh_joiner_view(
    member_id: str,
    individual_key: bytes,
    chain: list[WireMessage],
    leaf: str,
    epoch: int,
) -> MemberKeyView:
    """Open the unicast chain of an ``lkh_join`` delivered for ``leaf``."""
    keys = {leaf: individual_key}
    for msg in chain:
        for p in msg.payloads:
            if p.under not in keys:
                raise ProtocolError(f"chain link under {p.under} arrives before that key")
            # a link under a position carries the key of its parent
            keys[p.under[:-1]] = decrypt(keys[p.under], p.ciphertext)
    if sorted(keys) != sorted(path_codes(leaf)):
        raise ProtocolError("unicast chain does not cover the announced path")
    return MemberKeyView(member_id, leaf, keys, epoch)


def _opened(rekey: Rekey, label: str, child: str, key: bytes) -> bytes:
    try:
        return rekey.opened(child, key)
    except KeyError:  # the event's index holds no payload there
        raise ProtocolError(f"no payload under {child} for {label}") from None


def _steps(ready: list[MemberKeyView], rekey: Rekey) -> list[Step]:
    """Each regenerated label bottom-up, so a child's key is current when
    its parent's payload is opened under it: the views below each child of
    the label open the payload under that child."""
    return [
        (label, under(ready, child), (child,), partial(_opened, rekey, label, child))
        for label in rekey.notice.affected_codes
        for child in (label + "0", label + "1")
    ]


def lkh_member_refresh_join(views: Iterable[MemberKeyView], rekey: Rekey) -> None:
    refresh(views, rekey, _steps)


def lkh_member_refresh_leave(views: Iterable[MemberKeyView], rekey: Rekey) -> None:
    refresh(views, rekey, _steps)
