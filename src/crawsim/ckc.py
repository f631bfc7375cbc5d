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
into the parent's position (descendants drop the digit at the promotion
depth), a fresh random AK' is multicast under each cover key (the siblings
along the leaver's old root path), and the middle keys the leaver held roll
under AK'.  The leaver held every K on its old path but never AK', so it
holds no input to any later key, whatever codes it learns.

The initial roster at t=0 is seated in one batch with no message in
between (``seat``), so each member receives its whole root path, middle
keys included, in one unicast chain under its individual key
(``lkh.root_path_chain``, LKH's joiner chain).

The placement rule and the position mechanics (``PositionTree.seat``,
split, occupant slide, promotion) and the member-side model (views,
notices, the consistency oracle) live in ``crawsim.tree``.  This module
supplies the random child digits, the rolled keys and how a member rolls
them.
"""

from __future__ import annotations

from random import Random

# decrypt goes through the module, so a wrapper on crypto.decrypt sees it
from . import crypto
from .crypto import KEY_WIDTH, ProtocolError, encrypt, hash_f, hash_f_xor, random_digit, random_key
from .tree import (
    JoinNotice, JoinResult, LeaveNotice, LeaveResult, MemberKeyView, PositionTree,
    RekeyCounters, WireMessage, WirePayload,
)

ROOT_CODE = "1"


def parent_code(code: str) -> str:
    if len(code) < 2:
        raise ValueError("root code has no parent")
    return code[:-1]


def strict_ancestors(code: str) -> list[str]:
    """Codes strictly between the root and ``code``, top-down."""
    return [code[:i] for i in range(2, len(code))]


class CkcTree(PositionTree):
    """Server-side key tree: code -> key, member -> leaf code."""

    ROOT = ROOT_CODE

    @classmethod
    def new(cls, rng: Random) -> "CkcTree":
        return cls(random_key(rng))

    def _roll(self, codes: list[str], ak: bytes) -> None:
        """Roll each middle key at ``codes`` from its previous value K to
        f(AK' xor K)."""
        for code in codes:
            premises = (ak, self.nodes[code])
            self._set(code, hash_f_xor(*premises), premises)

    def _digit(self, rng: Random, exclude: str) -> str:
        return random_digit(rng, exclude=exclude)

    def _rekey_join(self, leaf: str, rng: Random) -> list[str]:
        """Roll the group key forward (AK' = f(AK)) and, under AK', the
        middle keys on the joiner's path; the split position rolls from the
        occupant's individual key."""
        ak_new = hash_f(self.group_key())
        self._set(ROOT_CODE, ak_new)
        affected = strict_ancestors(leaf)
        self._roll(affected, ak_new)
        return affected


def _join_plaintext(ak: bytes, middle: list[bytes], parent: str) -> bytes:
    return ak + b"".join(middle) + parent.encode("ascii")


def ckc_join(
    tree: CkcTree,
    member_id: str,
    individual_key: bytes,
    rng: Random,
    *,
    count_individual_key: bool = False,
) -> JoinResult:
    """Seat a member (``PositionTree.seat``) and unicast AK', the middle keys
    on its path (top-down) and its parent code under its individual key.

    ``count_individual_key`` adds the individual key to the generation
    counter for deployments where the server mints it instead of deriving
    it from authentication.
    """
    notice = tree.seat(member_id, individual_key, rng)
    leaf = notice.joiner_leaf
    middle = [tree.nodes[code] for code in notice.affected_codes]
    unicast = encrypt(individual_key, _join_plaintext(tree.group_key(), middle, parent_code(leaf)))
    counters = RekeyCounters(
        key_generations=1 + (1 if count_individual_key else 0),
        encryptions=1,
        unicast_sends=1,
        multicast_sends=0,
    )
    payload = WirePayload(leaf, individual_key, unicast)
    return JoinResult(notice, [WireMessage(f"leaf={leaf}", [payload])], [], counters)


def ckc_leave(tree: CkcTree, member_id: str, rng: Random) -> LeaveResult:
    """Detach a member, promote its sibling subtree, and multicast a fresh
    group key under the cover keys."""
    if member_id not in tree.leaves:
        raise ProtocolError(f"{member_id} not in tree")
    leaf = tree.leaves.pop(member_id)

    # Cover set and keys are captured before any mutation: remaining members
    # must be able to open the payloads with keys they already hold.  The
    # covers are the siblings along the leaver's root path, top-down.
    cover = [
        (sib, tree.nodes[sib])
        for code in tree.path_codes(leaf)[1:]
        for sib in tree._children(parent_code(code))
        if sib != code
    ]
    promoted_src, promoted_dst = tree.detach(leaf)

    tree.epoch += 1
    ak_new = random_key(rng)
    tree._set(ROOT_CODE, ak_new)
    # the middle keys the leaver held roll under the fresh AK', which it never gets
    affected = [] if promoted_dst is None else strict_ancestors(promoted_dst)
    tree._roll(affected, ak_new)

    notice = LeaveNotice(
        epoch=tree.epoch,
        leaver_id=member_id,
        leaver_code=leaf,
        promoted_src=promoted_src,
        promoted_dst=promoted_dst,
        affected_codes=affected,
        cover_codes=[c for c, _ in cover],
    )
    multicasts = [
        WireMessage(f"code={code}", [WirePayload(code, key, encrypt(key, ak_new))])
        for code, key in cover
    ]
    counters = RekeyCounters(
        key_generations=1,
        encryptions=len(multicasts),
        unicast_sends=0,
        multicast_sends=len(multicasts),
    )
    return LeaveResult(notice, multicasts, counters)


def _roll_view(view: MemberKeyView, notice: JoinNotice | LeaveNotice, ak_new: bytes) -> None:
    """Install AK' and roll the notice's affected middle keys that sit on
    the view's own path."""
    view.store(ROOT_CODE, ak_new)
    for code in notice.affected_codes:
        if view.leaf.startswith(code):
            view.store(code, hash_f_xor(ak_new, view.keys[code]))


def build_joiner_view(
    member_id: str, individual_key: bytes, plaintext: bytes, notice: JoinNotice
) -> MemberKeyView:
    """Open the newcomer's view from its decrypted join unicast (AK', the
    middle keys on its path top-down, its parent code) and the announced
    leaf assignment."""
    # one key and one code digit per level above the leaf
    if not plaintext or len(plaintext) % (KEY_WIDTH + 1):
        raise ProtocolError("join unicast payload is not AK', middle keys and a parent code")
    width = len(plaintext) // (KEY_WIDTH + 1) * KEY_WIDTH
    keys = [plaintext[i:i + KEY_WIDTH] for i in range(0, width, KEY_WIDTH)]
    leaf = notice.joiner_leaf
    if parent_code(leaf).encode("ascii") != plaintext[width:]:
        raise ProtocolError("announced leaf does not extend the delivered parent code")
    path = dict(zip([ROOT_CODE, *strict_ancestors(leaf)], keys))
    path[leaf] = individual_key
    return MemberKeyView(member_id, leaf, path, notice.epoch)


def ckc_member_refresh_join(view: MemberKeyView, notice: JoinNotice) -> MemberKeyView:
    """Local update on a join announcement: roll AK forward and, under it,
    the touched middle keys that sit on the own path."""
    if not view.follow_join(notice):
        return view
    _roll_view(view, notice, hash_f(view.group_key()))
    view.epoch = notice.epoch
    return view


def ckc_member_refresh_leave(
    view: MemberKeyView,
    notice: LeaveNotice,
    multicasts: list[WireMessage],
) -> MemberKeyView:
    """Local update on a leave: open the cover payload this member can read,
    re-code if inside the promoted subtree, and roll the affected keys."""
    if not view.accept_leave(notice):
        return view

    # covers are pre-promotion positions, so the payload is opened before re-coding
    mine = [p for msg in multicasts for p in msg.payloads if view.leaf.startswith(p.under)]
    if len(mine) != 1:
        raise ProtocolError(f"{view.member_id} matches {len(mine)} cover nodes, expected 1")
    ak_new = crypto.decrypt(view.keys[mine[0].under], mine[0].ciphertext)

    view.promote(notice)
    _roll_view(view, notice, ak_new)
    view.epoch = notice.epoch
    return view
