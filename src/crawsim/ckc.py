"""Code-based logical key tree (CKC re-keying).

Every node carries a decimal code: the root is a single digit, each child
appends one digit, and dropping the rightmost digit walks to the parent.
Codes are public: the trace prints them and a sibling's code is one guess
in nine.  No key is derived from a code.  A middle key is rolled from the
key its position held before the event, K, under the new group key AK':
it becomes f(AK' xor K), the one-way roll of LKH+ (Waldvogel et al., "The
VersaKey Framework", IEEE JSAC 1999).  Members below a position hold K, so
they roll it locally, and a re-keying event ships no middle key to a
current member: a join costs one unicast and zero multicasts, and a leave
costs one multicast per cover node.

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
``crawsim.tree``.  This module supplies the random child digits, the
fresh AK' and rolled middle keys (``CkcTree._rekey``), the sealed ``Rekey``
of each event and how a member rolls the keys.

A member refreshes from the event's ``Rekey`` alone, and one pass per
event refreshes every view of an area in view order (``_roll_pass``).
Each member rolls from the inputs it holds itself, but the members below
one position hold the same K, so an event rolls each distinct input once,
in the event's ``memo`` keyed by the input bytes and never by code; a
member holding a wrong K gets its own (wrong) roll.  On a leave, the
event's ``index`` holds one cover per level of the leaver's path,
top-down, and each remaining member sits below exactly one, so a member
takes the first that prefixes its leaf and opens it with
``Rekey.opened``: once per event for each cover key.  It rolls the
affected keys top-down to the first one off its path.
"""

from __future__ import annotations

from collections.abc import Iterable
from random import Random

# decrypt goes through the module, so a wrapper on crypto.decrypt sees it
from . import crypto
from .crypto import KEY_WIDTH, ProtocolError, encrypt, hash_f, hash_f_xor, random_digit, random_key
from .tree import (
    MemberKeyView, PositionTree, Rekey, RekeyCounters, WireMessage, WirePayload, following,
    path_codes,
)

ROOT_CODE = "1"


class CkcTree(PositionTree):
    """Server-side key tree: code -> key, member -> leaf code."""

    ROOT = ROOT_CODE

    def _digit(self, rng: Random, exclude: str) -> str:
        return random_digit(rng, exclude=exclude)

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


def _roll_pass(views: Iterable[MemberKeyView], rekey: Rekey, joined: bool) -> None:
    """Each view in order gets AK' and rolls, under it, the event's affected
    middle keys on its own path, top-down.  On a join AK' is f(AK); on a
    leave a view opens the cover payload it can read and then re-codes if
    it sits in the promoted subtree.  Each roll is one ``memo`` entry per
    distinct input (f(AK) of one key, f(AK' xor K) of two)."""
    notice, memo, opened = rekey.notice, rekey.memo, rekey.opened
    affected = notice.affected_codes
    # covers are pre-promotion positions, one per level of the leaver's
    # path, so a view opens its payload before re-coding
    covers = list(rekey.index)
    for view in following(views, notice):
        keys, held, leaf = view.keys, view.held, view.leaf
        if joined:
            inputs = (keys[ROOT_CODE],)
            ak_new = memo.get(inputs)
            if ak_new is None:
                ak_new = memo[inputs] = hash_f(*inputs)
        else:
            # the first cover that prefixes the leaf is the one
            for mine in covers:
                if leaf.startswith(mine):
                    break
            else:
                raise ProtocolError(f"{view.member_id} matches 0 cover nodes, expected 1")
            ak_new = opened(mine, keys[mine])
            view.promote(notice)
            keys, leaf = view.keys, view.leaf
        keys[ROOT_CODE] = ak_new
        held.add(ak_new)
        for code in affected:
            # the affected codes are one top-down chain, so the first one
            # off the path ends it
            if not leaf.startswith(code):
                break
            inputs = (ak_new, keys[code])
            key = memo.get(inputs)
            if key is None:
                key = memo[inputs] = hash_f_xor(*inputs)
            keys[code] = key
            held.add(key)


def ckc_member_refresh_join(views: Iterable[MemberKeyView], rekey: Rekey) -> None:
    """Local update of every view on a join: roll AK forward and, under it,
    the touched middle keys on each view's own path."""
    _roll_pass(views, rekey, joined=True)


def ckc_member_refresh_leave(views: Iterable[MemberKeyView], rekey: Rekey) -> None:
    """Local update of every view on a leave: open the cover payload the
    view can read, re-code if inside the promoted subtree, and roll the
    affected keys."""
    _roll_pass(views, rekey, joined=False)
