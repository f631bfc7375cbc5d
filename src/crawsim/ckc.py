"""Code-based logical key tree (CKC re-keying).

Every node carries a decimal code: the root is a single digit, each child
appends one digit, and dropping the rightmost digit walks to the parent.
Middle-node keys are never shipped by a re-keying event (the t=0 roster is
the one exception, below): they are derived locally as f(AK xor code), so a join costs one unicast and zero multicasts, and a
leave costs one multicast per cover node.

Join: the group key is refreshed in place (AK' = f(AK), so current members
need no message), the insertion leaf is split, the middle keys on the
joiner's path are re-derived from AK', and the newcomer receives AK' plus
its parent code in a single unicast under its individual key.

Leave: the leaver's leaf and parent vanish, the sibling subtree is promoted
into the parent's position (descendants drop the digit at the promotion
depth), a fresh random AK' is multicast under each cover key (the siblings
along the leaver's old root path), and the middle keys the leaver held are
re-derived from AK'.

The one exception to "never shipped" is the initial roster at t=0.  Those
members are seated in one batch with no message in between (``seat``), so
a middle key was derived under whichever AK was current when its position
was last split, and the final AK cannot re-derive it.  Each initial member
therefore receives its whole root path, middle keys included, in one
unicast chain under its individual key (``lkh.root_path_chain``, LKH's
joiner chain).  Re-keying events never ship a middle key.

Cover safety: an internal node key is a deterministic function of a past
group key and a code string, so anyone who held that group key and learned
the exact string can recompute it.  Code strings resurface over time:
promotions re-code whole subtrees, and a member who returns after leaving
walks a fresh path whose positions may reuse strings that once named other
nodes.  Derivations are therefore domain-separated twice:

* trees serving distinct areas get distinct all-digit namespaces, so a
  string learned in one area never collides with a derivation in another;
* every leave opens a new generation, and derivations after the first
  leave carry the generation tag, so a string learned under one generation
  never reproduces a value derived under an earlier one.  Within a single
  generation only joins happen, paths only extend, and a member's strings
  are exactly the prefixes of its own leaf, which never include the cover
  codes (its path's siblings) of its own departure.

Generation zero derives with the bare code, so a freshly built tree matches
the textbook derivation exactly.  With this domain separation no departed
member (nor the leaver) can recompute any cover key from the strings and
group keys it once held, so a leave always covers with the canonical
sibling set: at most one cover per level of the leaver's path, exactly one
on trees built by joins alone.  The unit tests check that property on
every leave of their churn runs.

The placement rule and the position mechanics (``PositionTree.seat``,
split, occupant slide, promotion) and the member-side model (views,
notices, the consistency oracle) live in ``crawsim.tree``.  This module
supplies the random child digits, the code-derived keys and how a member
re-derives them.
"""

from __future__ import annotations

from random import Random

# decrypt goes through the module, so a wrapper on crypto.decrypt sees it
from . import crypto
from .crypto import (
    KEY_WIDTH,
    ProtocolError,
    encrypt,
    hash_f,
    hash_f_xor,
    random_digit,
    random_key,
)
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


GENERATION_LIMIT = 999


def generation_tag(generation: int) -> str:
    """Digit tag mixed into derivations: empty for the first generation,
    then a fixed-width counter that always starts with 0 so it can never be
    read as the first digits of a code (codes start at the root digit 1)."""
    if generation == 0:
        return ""
    if not 0 < generation <= GENERATION_LIMIT:
        raise ProtocolError(f"generation {generation} out of range")
    return f"0{generation:03d}"


def derivation_string(namespace: str, generation: int, code: str) -> str:
    """The domain-separated string a middle key at ``code`` is derived from."""
    return namespace + generation_tag(generation) + code


def middle_key(namespace: str, generation: int, ak: bytes, code: str) -> bytes:
    """Internal node key: f(AK xor domain-separated code string)."""
    return hash_f_xor(ak, derivation_string(namespace, generation, code))


class CkcTree(PositionTree):
    """Server-side key tree: code -> key, member -> leaf code."""

    ROOT = ROOT_CODE

    def __init__(self, group_key: bytes, namespace: str = ""):
        if namespace and not (namespace.isascii() and namespace.isdigit()):
            raise ValueError(f"namespace must be decimal digits, got {namespace!r}")
        super().__init__(group_key)
        self.namespace = namespace
        # the new leaf's derivation must fit even under the last generation
        self.max_leaf = KEY_WIDTH - len(derivation_string(namespace, GENERATION_LIMIT, ""))

    @classmethod
    def new(cls, rng: Random, namespace: str = "") -> "CkcTree":
        return cls(random_key(rng), namespace)

    def _set_middle(self, code: str, ak: bytes) -> None:
        string = derivation_string(self.namespace, self.generation, code)
        self._set(code, hash_f_xor(ak, string))
        self.derived.append(string)

    def _digit(self, rng: Random, exclude: str) -> str:
        # random, so a member cannot guess a sibling's code
        return random_digit(rng, exclude=exclude)

    def _rekey_join(self, leaf: str, rng: Random) -> list[str]:
        """Roll the group key forward (AK' = f(AK)) and re-derive under AK'
        the joiner's path positions, which turned internal or moved."""
        ak_new = hash_f(self.group_key())
        self.derived = []
        self._set(ROOT_CODE, ak_new)
        affected = strict_ancestors(leaf)
        for code in affected:
            self._set_middle(code, ak_new)
        return affected

    def derivation_strings(self, view: MemberKeyView) -> list[str]:
        # a member holds its own root path, labelled under the current
        # namespace and generation
        prefix = derivation_string(self.namespace, self.generation, "")
        return [prefix + c for c in view.keys]

    def view_matches(self, view: MemberKeyView) -> bool:
        """The shared oracle, plus: the view derives under the current
        generation."""
        return view.generation == self.generation and super().view_matches(view)


def _join_plaintext(ak: bytes, parent: str) -> bytes:
    return ak + parent.encode("ascii")


def parse_join_unicast(plaintext: bytes) -> tuple[bytes, str]:
    """Split a decrypted join unicast into (AK', parent code)."""
    if len(plaintext) <= KEY_WIDTH:
        raise ProtocolError("join unicast payload too short")
    return plaintext[:KEY_WIDTH], plaintext[KEY_WIDTH:].decode("ascii")


def ckc_join(
    tree: CkcTree,
    member_id: str,
    individual_key: bytes,
    rng: Random,
    *,
    count_individual_key: bool = False,
) -> JoinResult:
    """Seat a member (``PositionTree.seat``) and unicast AK' with its parent code
    under its individual key.

    ``count_individual_key`` adds the individual key to the generation
    counter for deployments where the server mints it instead of deriving
    it from authentication.
    """
    notice = tree.seat(member_id, individual_key, rng)
    leaf = notice.joiner_leaf
    unicast = encrypt(individual_key, _join_plaintext(tree.group_key(), parent_code(leaf)))
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
    tree.derived = []

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

    if tree.generation >= GENERATION_LIMIT:
        raise ProtocolError("generation counter exhausted")
    tree.generation += 1
    tree.epoch += 1
    ak_new = random_key(rng)
    tree._set(ROOT_CODE, ak_new)
    # middle keys the leaver held are re-derived under the fresh AK'
    affected = [] if promoted_dst is None else strict_ancestors(promoted_dst)
    for code in affected:
        tree._set_middle(code, ak_new)

    notice = LeaveNotice(
        epoch=tree.epoch,
        leaver_id=member_id,
        leaver_code=leaf,
        promoted_src=promoted_src,
        promoted_dst=promoted_dst,
        affected_codes=affected,
        cover_codes=[c for c, _ in cover],
        generation=tree.generation,
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


def _rederive(view: MemberKeyView, notice: JoinNotice | LeaveNotice, ak_new: bytes) -> None:
    """Install AK' and re-derive the notice's affected middle keys that sit
    on the view's own path."""
    view.store(ROOT_CODE, ak_new)
    for code in notice.affected_codes:
        if view.leaf.startswith(code):
            view.store(code, middle_key(view.namespace, notice.generation, ak_new, code))


def build_joiner_view(
    member_id: str,
    individual_key: bytes,
    ak_new: bytes,
    parent: str,
    notice: JoinNotice,
    namespace: str = "",
) -> MemberKeyView:
    """Assemble the newcomer's view from the unicast contents and the
    announced leaf assignment; a join's affected codes are exactly the
    middle positions on the joiner's path."""
    leaf = notice.joiner_leaf
    if parent_code(leaf) != parent:
        raise ProtocolError("announced leaf does not extend the delivered parent code")
    keys = {ROOT_CODE: ak_new, leaf: individual_key}
    view = MemberKeyView(member_id, leaf, keys, notice.epoch, namespace, notice.generation)
    _rederive(view, notice, ak_new)
    return view


def ckc_member_refresh_join(view: MemberKeyView, notice: JoinNotice) -> MemberKeyView:
    """Local update on a join announcement: roll AK forward and re-derive
    the touched middle keys that sit on the own path."""
    if not view.follow_join(notice):
        return view
    _rederive(view, notice, hash_f(view.group_key()))
    view.epoch = notice.epoch
    return view


def ckc_member_refresh_leave(
    view: MemberKeyView,
    notice: LeaveNotice,
    multicasts: list[WireMessage],
) -> MemberKeyView:
    """Local update on a leave: open the cover payload this member can read,
    re-code if inside the promoted subtree, and re-derive affected keys."""
    if not view.accept_leave(notice):
        return view

    # covers are pre-promotion positions, so the payload is opened before re-coding
    mine = [p for msg in multicasts for p in msg.payloads if view.leaf.startswith(p.under)]
    if len(mine) != 1:
        raise ProtocolError(f"{view.member_id} matches {len(mine)} cover nodes, expected 1")
    ak_new = crypto.decrypt(view.keys[mine[0].under], mine[0].ciphertext)

    view.promote(notice)
    view.generation = notice.generation
    _rederive(view, notice, ak_new)
    view.epoch = notice.epoch
    return view
