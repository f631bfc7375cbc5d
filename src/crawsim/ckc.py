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
but never AK', so it holds no input to any later key, whatever codes it
learns.

The initial roster at t=0 is seated in one batch with no message in
between (``seat``), so each member receives its whole root path, middle
keys included, in the join unicast's format: one payload under its
individual key (``joiner_unicasts``), under either scheme.

The placement and leave rules, the positions each event re-keys, the
position mechanics (``PositionTree.seat`` and ``unseat``, split, occupant
slide, promotion, covers), the member-side model (views, notices, the
consistency oracle) and the counting rule (``RekeyCounters.sent``) live in
``crawsim.tree``.  This module supplies the fresh AK' and rolled middle
keys (``CkcTree._rekey``), the sealed ``Rekey`` of each event and how a
member rolls the keys.

A member refreshes from the event's ``Rekey`` alone, and one pass per
event refreshes every view of an area one re-keyed position at a time
(``_roll_pass``): the members below a position are one run of the views
in leaf order (``tree.under``).  Each member rolls from the inputs it
holds itself, but the members below one position hold the same K, so an
event rolls each distinct input once, in the event's ``memo`` keyed by the
input bytes and never by code, and the next view of a run whose inputs are
the very objects of the last takes its result; a member holding a wrong K
gets its own (wrong) roll.  On a leave, the event's ``index`` holds one
cover per level of the leaver's path, top-down, none below another, and
each remaining member sits below exactly one: the views of each cover's
run open it with ``Rekey.opened``, once per event for each cover key, and
a member below no cover is refused before any view opens one.  The
views then roll the affected keys top-down, each key's run in turn.
"""

from __future__ import annotations

from collections.abc import Iterable
from random import Random

# decrypt goes through the module, so a wrapper on crypto.decrypt sees it
from . import crypto
from .crypto import KEY_WIDTH, ProtocolError, encrypt, hash_f, hash_f_xor, random_key
from .tree import (
    MemberKeyView, PositionTree, Rekey, RekeyCounters, WireMessage, WirePayload, following,
    path_codes, under,
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


def ckc_join(
    tree: CkcTree,
    member_id: str,
    individual_key: bytes,
    rng: Random,
    *,
    count_individual_key: bool = False,
) -> Rekey:
    """Seat a member (``PositionTree.seat``) and unicast AK', the middle keys
    on its path (top-down) and its parent code under its individual key.

    ``count_individual_key`` adds the individual key to the generation
    counter for deployments where the server mints it instead of deriving
    it from authentication.
    """
    notice = tree.seat(member_id, individual_key, rng)
    unicasts = joiner_unicasts(tree, notice.leaf)
    counters = RekeyCounters.sent(2 if count_individual_key else 1, unicasts, [])
    return Rekey(notice, unicasts, [], counters, counters.key_generations)


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
    return Rekey(notice, [], multicasts, RekeyCounters.sent(1, [], multicasts), len(notice.leaf) - 1)


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


def _roll_pass(views: Iterable[MemberKeyView], rekey: Rekey, joined: bool) -> None:
    """Every ready view (``following``) gets AK', then, one affected code at
    a time top-down, the views below it roll its middle key under AK'.  On
    a join AK' is f(AK) of the root key; on a leave the views below each
    cover open its payload, and then the promoted run re-codes.  The next
    view in a run whose inputs are the same objects takes the last
    result."""
    notice, memo, opened = rekey.notice, rekey.memo, rekey.opened
    ready, refusal = following(views, notice)
    if joined:
        runs = [(ROOT_CODE, ready)]
    else:
        # covers are pre-promotion positions, one per level of the leaver's
        # path, none below another, so their runs are disjoint
        runs = [(cover, under(ready, cover)) for cover in rekey.index]
        if sum(len(run) for _, run in runs) < len(ready):
            stray = next(v for v in ready if not any(v.leaf.startswith(c) for c, _ in runs))
            raise ProtocolError(f"{stray.member_id} matches 0 cover nodes, expected 1")
    for source, run in runs:
        last = None
        for view in run:
            keys = view.keys
            if keys[source] is not last:
                last = keys[source]
                ak_new = _rolled(memo, last) if joined else opened(source, last)
            keys[ROOT_CODE] = ak_new
            view.held.add(ak_new)
    if not joined and notice.promoted_src is not None:
        for view in under(ready, notice.promoted_src):
            view.promote(notice)
    for code in notice.affected_codes:
        last_ak = last_k = None
        for view in under(ready, code):
            keys = view.keys
            ak, k = keys[ROOT_CODE], keys[code]
            if k is not last_k or ak is not last_ak:
                last_ak, last_k = ak, k
                key = _rolled(memo, ak, k)
            keys[code] = key
            view.held.add(key)
    if refusal is not None:
        raise refusal


def ckc_member_refresh_join(views: Iterable[MemberKeyView], rekey: Rekey) -> None:
    """Local update of every view on a join: roll AK forward and, under it,
    the touched middle keys on each view's own path."""
    _roll_pass(views, rekey, joined=True)


def ckc_member_refresh_leave(views: Iterable[MemberKeyView], rekey: Rekey) -> None:
    """Local update of every view on a leave: open the cover payload the
    view can read, re-code if inside the promoted subtree, and roll the
    affected keys."""
    _roll_pass(views, rekey, joined=False)
