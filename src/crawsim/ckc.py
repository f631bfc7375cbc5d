"""Code-based logical key tree (CKC re-keying).

Every node carries a binary code: the root is "1", each child appends "0"
or "1", and dropping the rightmost digit walks to the parent.  The paper
writes codes in decimal digits; here they are binary labels placed by the
one rule LKH uses too (``crawsim.tree``), so both schemes build one tree.
Codes are public: the trace prints them, and no key is derived from one.
A middle key is rolled from the key its position held before the event, K,
under the new group key AK': it becomes f(AK' xor K), the one-way roll of
LKH+ (Waldvogel et al., "The VersaKey Framework", IEEE JSAC 1999).
Members below a position hold K, so they roll it locally, and a re-keying
event ships no middle key to a current member: a join costs one unicast and
zero multicasts, and a leave costs one multicast per cover node.

Join: the group key is refreshed in place (AK' = f(AK), so current members
need no message), the insertion leaf is split, and every middle position on
the joiner's path rolls under AK'.  The split position rolls from the
occupant's individual key, which the occupant keeps at its new leaf.  The
newcomer receives AK', its path's middle keys (top-down) and its parent
code in a single unicast under its individual key.

Leave: the leaver's leaf and parent vanish, the sibling subtree is promoted
into the parent's position (``tree.promoted``: descendants drop the digit
at the promotion depth), a fresh random AK' is multicast under each cover
key (the siblings along the leaver's old root path), and the middle keys
the leaver held roll under AK'.  The leaver held every K on its old path
but never AK', so on its own it holds no input to any later key, whatever
codes it learns.  Two departed members together can: one holds an old K,
and the other the AK' it rolled under.

The initial roster at t=0 is seated in one batch with no message in
between (``seat``), so each member receives its whole root path, middle
keys included, in the join unicast's format: one payload under its
individual key (``joiner_unicasts``), under either scheme.

The placement and leave rules, the positions each event re-keys, the
position mechanics (``PositionTree.seat`` and ``unseat``, split, occupant
slide, promotion, covers), the member-side model (views, notices, the
consistency oracle, the one refresh pass ``tree.refresh``) and each
event's accounting (``Rekey.counters`` and ``Rekey.cost``) live in
``crawsim.tree``.  This module supplies the fresh AK' and rolled middle
keys (``CkcTree._rekey``), the sealed ``Rekey`` of each event and the
steps of the pass.  A join first rolls AK' = f(AK) on every view; a
leave first opens its covers, one per level of the leaver's path, none
below another, each by the views below it, and refuses a member below
no cover before any view opens one.  Then the views below each affected
code roll it under AK', top-down, memoised by the input bytes, never by
code, so a member holding a wrong key gets its own (wrong) roll.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import partial
from random import Random

# decrypt goes through the module, so a wrapper on crypto.decrypt sees it
from . import crypto
from .crypto import KEY_WIDTH, ProtocolError, encrypt, hash_f, hash_f_xor, random_key
from .tree import (
    MemberKeyView, PositionTree, Rekey, Step, WireMessage, WirePayload, path_codes, refresh, under,
)

ROOT_CODE = "1"


class CkcTree(PositionTree):
    """Server-side key tree: code -> key, member -> leaf code."""

    ROOT = ROOT_CODE

    def _rekey(self, middles: list[str], rng: Random, joined: bool) -> list[str]:
        """Roll the group key forward on a join (AK' = f(AK)), or draw a
        fresh random AK' on a leave, which the leaver never gets; under AK',
        roll each middle key from its previous value K to f(AK' xor K).  A
        join's split position rolls from the occupant's individual key."""
        ak_new = hash_f(self.group_key()) if joined else random_key(rng)
        self._set(ROOT_CODE, ak_new)
        for code in middles:
            premises = (ak_new, self.nodes[code])
            self._set(code, hash_f_xor(*premises), premises)
        return middles


def joiner_unicasts(tree: PositionTree, leaf: str) -> list[WireMessage]:
    """The one unicast that hands the member at ``leaf`` every other key on
    its root path (top-down) and its parent's position, sealed under the
    key at ``leaf``: a CKC joiner's AK', middle keys and parent code, or a
    whole path at t=0 under either scheme."""
    key = tree.nodes[leaf]
    path = b"".join(tree.nodes[code] for code in path_codes(leaf)[:-1])
    unicast = encrypt(key, path + leaf[:-1].encode("ascii"))
    return [WireMessage(f"leaf={leaf}", [WirePayload(leaf, key, unicast)])]


def ckc_join(tree: CkcTree, member_id: str, individual_key: bytes, rng: Random) -> Rekey:
    """Seat a member (``PositionTree.seat``) and unicast AK', the middle keys
    on its path (top-down) and its parent code under its individual key."""
    notice = tree.seat(member_id, individual_key, rng)
    return Rekey(notice, joiner_unicasts(tree, notice.leaf), [], 1)


def ckc_leave(tree: CkcTree, member_id: str, rng: Random) -> Rekey:
    """Unseat a member (``PositionTree.unseat``) and multicast the fresh
    group key under each cover key."""
    # Covers are taken before the promotion: remaining members must be able
    # to open the payloads with keys they already hold.
    covers = tree.covers(member_id)
    notice = tree.unseat(member_id, rng)
    notice.cover_codes = [code for code, _ in covers]
    ak_new = tree.group_key()
    multicasts = [
        WireMessage(f"code={code}", [WirePayload(code, key, encrypt(key, ak_new))])
        for code, key in covers
    ]
    return Rekey(notice, [], multicasts, 1)


def build_joiner_view(
    member_id: str, individual_key: bytes, unicasts: list[WireMessage], leaf: str, epoch: int
) -> MemberKeyView:
    """Open a member's view from its one ``joiner_unicasts`` payload (every
    other key on its root path top-down, its parent's position) and the
    announced leaf: a CKC joiner's, or any member's at t=0."""
    (unicast,) = [p for msg in unicasts for p in msg.payloads]
    plaintext = crypto.decrypt(individual_key, unicast.ciphertext)
    # one key and one code digit per level above the leaf
    if not plaintext or len(plaintext) % (KEY_WIDTH + 1):
        raise ProtocolError("join unicast payload is not AK', middle keys and a parent code")
    width = len(plaintext) // (KEY_WIDTH + 1) * KEY_WIDTH
    keys = [plaintext[i:i + KEY_WIDTH] for i in range(0, width, KEY_WIDTH)]
    if leaf[:-1].encode("ascii") != plaintext[width:]:
        raise ProtocolError("announced leaf does not extend the delivered parent code")
    path = dict(zip(path_codes(leaf), keys))
    path[leaf] = individual_key
    return MemberKeyView(member_id, leaf, path, epoch)


def _rolled(memo: dict[tuple, bytes], *inputs: bytes) -> bytes:
    """f(AK) of one input or f(AK' xor K) of two, once per event for each
    distinct input in the event's ``memo``."""
    out = memo.get(inputs)
    if out is None:
        out = memo[inputs] = hash_f(*inputs) if len(inputs) == 1 else hash_f_xor(*inputs)
    return out


def _join_steps(ready: list[MemberKeyView], rekey: Rekey) -> list[Step]:
    """Every view rolls AK' = f(AK), then the affected codes."""
    return [(ROOT_CODE, ready, (ROOT_CODE,), partial(_rolled, rekey.memo)), *_rolls(ready, rekey)]


def _leave_steps(ready: list[MemberKeyView], rekey: Rekey) -> list[Step]:
    """After the promotion (only the leaver's sibling moved, into its
    parent's position), the views below each cover open its payload for
    AK', then roll the affected codes; a view below no cover is refused
    before any opens."""
    src = rekey.notice.promoted_src
    opens = []
    for cover in rekey.index:  # pre-promotion positions
        at = cover[:-1] if cover == src else cover
        opens.append((ROOT_CODE, under(ready, at), (at,), partial(rekey.opened, cover)))
    # one per level of the leaver's path, none below another: disjoint runs
    if sum(len(run) for _, run, _, _ in opens) < len(ready):
        stray = next(v for v in ready if not any(v.leaf.startswith(at) for _, _, (at,), _ in opens))
        raise ProtocolError(f"{stray.member_id} matches 0 cover nodes, expected 1")
    return opens + _rolls(ready, rekey)


def _rolls(ready: list[MemberKeyView], rekey: Rekey) -> list[Step]:
    """Each affected code top-down, rolled under AK' by the views below it."""
    roll = partial(_rolled, rekey.memo)
    return [(c, under(ready, c), (ROOT_CODE, c), roll) for c in rekey.notice.affected_codes]


def ckc_member_refresh_join(views: Iterable[MemberKeyView], rekey: Rekey) -> None:
    """Local update of every view on a join: roll AK forward and, under it,
    the touched middle keys on each view's own path."""
    refresh(views, rekey, _join_steps)


def ckc_member_refresh_leave(views: Iterable[MemberKeyView], rekey: Rekey) -> None:
    """Local update of every view on a leave: open its cover, roll the rest."""
    refresh(views, rekey, _leave_steps)
