"""Logical-key-hierarchy baseline for cost comparison.

Classic binary LKH: every tree node holds an independent random key, a join
regenerates each key on the new leaf's path (delivered to the newcomer as a
unicast chain and to current members as per-node multicasts under child
keys), and a leave collapses the leaver's parent by promoting the sibling
subtree, then regenerates the surviving path keys.

Counter conventions: counters are the realized counts
(``RekeyCounters.sent``); on a join they equal the textbook formulas on
balanced trees (depth keygens, 3*depth encryptions, depth unicasts, depth
multicasts).  The one exception is a leave that promotes a subtree: its
counters follow the conventional per-level tally of 2*depth
encryptions/multicasts over the leaver's depth, while its payload list
holds the realized minimal set of 2*(depth-1) messages, two per
regenerated ancestor.  A depth-1 leave promotes nothing and reports its
realized counts.

Placement, leave and the positions each event re-keys live in
``crawsim.tree``; this module supplies the fresh keys (``LkhTree._rekey``:
the middle positions bottom-up, then the root), the sealed ``Rekey`` of
each event and how members climb their paths to open them.  One pass per
event climbs for every view of an area one label at a time, bottom-up
(``_climb_pass``): the members below a label are one run of the views in
leaf order (``tree.under``), and each opens the label's payload under its
child on the path, looked up in the event's ``index``; an open is shared
through ``Rekey.opened``, and the next view of a run with the same child
and key object takes the last result.  Only a joiner gets a
chain: the t=0 roster gets ``ckc.joiner_unicasts`` under LKH too.
"""

from __future__ import annotations

from collections.abc import Iterable
from random import Random

from .crypto import ProtocolError, decrypt, encrypt, random_key
from .tree import (
    MemberKeyView, PositionTree, Rekey, RekeyCounters, WireMessage, WirePayload, following,
    path_codes, under,
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
    counters = RekeyCounters.sent(len(changed), chain, multicasts)
    # the server also mints the joiner's individual key
    return Rekey(notice, chain, multicasts, counters, len(changed) + 1)


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
    depth = len(notice.leaf) - 1
    # after a promotion, the conventional per-level tally (see module
    # docstring); the realized payload list is two messages shorter
    reported = 2 * depth if notice.promoted_src is not None else len(multicasts)
    counters = RekeyCounters(
        key_generations=len(changed),
        encryptions=reported,
        unicast_sends=0,
        multicast_sends=reported,
    )
    return Rekey(notice, [], multicasts, counters, depth)


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


def _climb_pass(views: Iterable[MemberKeyView], rekey: Rekey, joined: bool) -> None:
    """After a leave the promoted run of the ready views (``following``)
    re-codes; then, one regenerated label at a time bottom-up, the views
    below it open its payload under their child on the path, so the child's
    key is current when its parent's payload is opened under it.  The next
    view in a run with the same child and the same key object takes the
    last open's result."""
    notice, opened = rekey.notice, rekey.opened
    ready, refusal = following(views, notice)
    if not joined and notice.promoted_src is not None:
        for view in under(ready, notice.promoted_src):
            view.promote(notice)
    for label in notice.affected_codes:
        depth = len(label) + 1
        last_child = last = key = None
        for view in under(ready, label):
            keys = view.keys
            child_on_path = view.leaf[:depth]
            if keys[child_on_path] is not last or child_on_path != last_child:
                last_child, last = child_on_path, keys[child_on_path]
                try:
                    key = opened(child_on_path, last)
                except KeyError:  # the event's index holds no payload there
                    raise ProtocolError(f"no payload under {child_on_path} for {label}") from None
            keys[label] = key
            view.held.add(key)
    if refusal is not None:
        raise refusal


def lkh_member_refresh_join(views: Iterable[MemberKeyView], rekey: Rekey) -> None:
    _climb_pass(views, rekey, joined=True)


def lkh_member_refresh_leave(views: Iterable[MemberKeyView], rekey: Rekey) -> None:
    _climb_pass(views, rekey, joined=False)
