"""Code-based logical key tree (CKC re-keying).

Every node carries a decimal code: the root is a single digit, each child
appends one digit, and dropping the rightmost digit walks to the parent.
Middle-node keys are never shipped: they are derived locally as
f(AK xor code), so a join costs one unicast and zero multicasts, and a
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

The position mechanics (split, occupant slide, promotion) live in
``crawsim.tree``; this module adds the code-derived keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from .crypto import (
    KEY_WIDTH,
    Ciphertext,
    ProtocolError,
    encrypt,
    hash_f,
    hash_f_xor,
    random_digit,
    random_key,
)
from .tree import PositionTree, apply_epoch, recode

ROOT_CODE = "1"


@dataclass
class RekeyCounters:
    """Per-event bookkeeping mirrored in reports: server key generations,
    encryptions performed, and unicast/multicast sends."""

    key_generations: int = 0
    encryptions: int = 0
    unicast_sends: int = 0
    multicast_sends: int = 0

    def __add__(self, other: "RekeyCounters") -> "RekeyCounters":
        return RekeyCounters(
            self.key_generations + other.key_generations,
            self.encryptions + other.encryptions,
            self.unicast_sends + other.unicast_sends,
            self.multicast_sends + other.multicast_sends,
        )


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


def middle_key(namespace: str, generation: int, ak: bytes, code: str) -> bytes:
    """Internal node key: f(AK xor domain-separated code string)."""
    return hash_f_xor(ak, namespace + generation_tag(generation) + code)


@dataclass
class JoinNotice:
    """Plaintext announcement that triggers local re-derivation.

    Key material never rides on it: current members only need to learn that
    a join happened and which path positions were touched.
    """

    epoch: int
    joiner_id: str
    joiner_leaf: str
    split_code: str | None  # former code of the leaf that was split
    occupant_leaf: str | None  # where the split leaf's occupant moved
    affected_codes: list[str] = field(default_factory=list)  # top-down
    generation: int = 0


@dataclass
class LeaveNotice:
    epoch: int
    leaver_id: str
    leaver_code: str
    promoted_src: str | None  # sibling subtree root before promotion
    promoted_dst: str | None  # position (and code) it was promoted into
    affected_codes: list[str] = field(default_factory=list)
    cover_codes: list[str] = field(default_factory=list)  # pre-promotion
    generation: int = 0


@dataclass
class JoinResult:
    notice: JoinNotice
    unicast: Ciphertext  # under the joiner's individual key
    counters: RekeyCounters
    # server-side bookkeeping for the secrecy audit; never shipped to members
    unicast_key: bytes = b""


@dataclass
class LeaveResult:
    notice: LeaveNotice
    multicasts: list[tuple[str, Ciphertext]]  # (cover code, AK' payload)
    counters: RekeyCounters
    # per-payload encryption keys, aligned with ``multicasts``; audit only
    cover_keys: list[bytes] = field(default_factory=list)


class CkcTree(PositionTree):
    """Server-side key tree: code -> key, member -> leaf code."""

    ROOT = ROOT_CODE

    def __init__(self, group_key: bytes, namespace: str = ""):
        if namespace and not (namespace.isascii() and namespace.isdigit()):
            raise ValueError(f"namespace must be decimal digits, got {namespace!r}")
        super().__init__(group_key)
        self.namespace = namespace
        self.generation = 0  # bumped by every leave
        # the derivation strings the last join or leave consumed, for the
        # secrecy oracle's code set
        self.derived: list[str] = []

    @classmethod
    def new(cls, rng: Random, namespace: str = "") -> "CkcTree":
        return cls(random_key(rng), namespace)

    def _set_middle(self, code: str, ak: bytes) -> None:
        string = self.namespace + generation_tag(self.generation) + code
        self._set(code, hash_f_xor(ak, string))
        self.derived.append(string)


@dataclass
class MemberKeyView:
    """One member's slice of the tree: exactly the keys on its root path."""

    member_id: str
    leaf_code: str
    keys: dict[str, bytes]
    epoch: int
    namespace: str = ""
    generation: int = 0

    def group_key(self) -> bytes:
        return self.keys[ROOT_CODE]

    def held_codes(self) -> list[str]:
        return sorted(self.keys)


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
    """Attach a member and roll the group key forward.

    ``count_individual_key`` adds the individual key to the generation
    counter for deployments where the server mints it instead of deriving
    it from authentication.
    """
    if member_id in tree.leaves:
        raise ProtocolError(f"{member_id} already in tree")

    ak_new = hash_f(tree.group_key())
    tree.derived = []

    root_children = tree._children(ROOT_CODE)
    if len(root_children) < 2:
        # the root still has a free child slot (bootstrap or post-leave);
        # attach directly so 2^k members sit at depth k
        split = None
        occupant_leaf = None
        taken = "".join(c[-1] for c in root_children)
        leaf = ROOT_CODE + random_digit(rng, exclude=taken)
    else:
        # shallowest leaf, ties broken by smallest code; reserve room for
        # the namespace and a full-width generation tag in the derivation
        split = tree.shallowest_leaf()
        if len(tree.namespace) + 4 + len(split) + 1 > KEY_WIDTH:
            raise ProtocolError("tree depth exceeds code width")
        d_occ = random_digit(rng)
        occupant_leaf = split + d_occ
        leaf = split + random_digit(rng, exclude=d_occ)

    tree.epoch += 1
    tree._set(ROOT_CODE, ak_new)
    affected: list[str] = []
    if split is not None:
        tree.slide_occupant(split, occupant_leaf)
        # the joiner's path positions turned internal or moved under AK'
        affected = strict_ancestors(leaf)
        for code in affected:
            tree._set_middle(code, ak_new)
    tree.leaves[member_id] = leaf
    tree._set(leaf, individual_key)

    notice = JoinNotice(
        epoch=tree.epoch,
        joiner_id=member_id,
        joiner_leaf=leaf,
        split_code=split,
        occupant_leaf=occupant_leaf,
        affected_codes=affected,
        generation=tree.generation,
    )
    unicast = encrypt(individual_key, _join_plaintext(ak_new, parent_code(leaf)))
    counters = RekeyCounters(
        key_generations=1 + (1 if count_individual_key else 0),
        encryptions=1,
        unicast_sends=1,
        multicast_sends=0,
    )
    return JoinResult(notice, unicast, counters, unicast_key=individual_key)


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
    multicasts = [(code, encrypt(key, ak_new)) for code, key in cover]
    counters = RekeyCounters(
        key_generations=1,
        encryptions=len(multicasts),
        unicast_sends=0,
        multicast_sends=len(multicasts),
    )
    return LeaveResult(notice, multicasts, counters, cover_keys=[k for _, k in cover])


def build_joiner_view(
    member_id: str,
    individual_key: bytes,
    ak_new: bytes,
    parent: str,
    notice: JoinNotice,
    namespace: str = "",
) -> MemberKeyView:
    """Assemble the newcomer's view from the unicast contents and the
    announced leaf assignment."""
    leaf = notice.joiner_leaf
    if parent_code(leaf) != parent:
        raise ProtocolError("announced leaf does not extend the delivered parent code")
    keys = {ROOT_CODE: ak_new, leaf: individual_key}
    for code in strict_ancestors(leaf):
        keys[code] = middle_key(namespace, notice.generation, ak_new, code)
    return MemberKeyView(member_id, leaf, keys, notice.epoch, namespace, notice.generation)


def ckc_member_refresh_join(view: MemberKeyView, notice: JoinNotice) -> MemberKeyView:
    """Local update on a join announcement: roll AK forward and re-derive
    the touched middle keys that sit on the own path."""
    if not apply_epoch(view.member_id, view.epoch, notice.epoch):
        return view
    ak_new = hash_f(view.group_key())
    if notice.split_code is not None and view.leaf_code == notice.split_code:
        # this member occupied the split leaf; it slides down one level
        view.keys[notice.occupant_leaf] = view.keys.pop(notice.split_code)
        view.leaf_code = notice.occupant_leaf
    view.keys[ROOT_CODE] = ak_new
    for code in notice.affected_codes:
        if view.leaf_code.startswith(code):
            view.keys[code] = middle_key(view.namespace, notice.generation, ak_new, code)
    view.epoch = notice.epoch
    return view


def ckc_member_refresh_leave(
    view: MemberKeyView,
    notice: LeaveNotice,
    multicasts: list[tuple[str, Ciphertext]],
) -> MemberKeyView:
    """Local update on a leave: open the cover payload this member can read,
    re-code if inside the promoted subtree, and re-derive affected keys."""
    # imported at call time, not at the top: bench/tracing.py counts
    # decrypts by wrapping crawsim.crypto.decrypt, and a module-level import
    # here would bind the unwrapped function and hide ckc's decrypts
    from .crypto import decrypt

    if view.member_id == notice.leaver_id:
        raise ProtocolError("departed member cannot refresh")
    if not apply_epoch(view.member_id, view.epoch, notice.epoch):
        return view

    mine = [c for c in notice.cover_codes if view.leaf_code.startswith(c)]
    if len(mine) != 1:
        raise ProtocolError(f"{view.member_id} matches {len(mine)} cover nodes, expected 1")
    payload = next(ct for code, ct in multicasts if code == mine[0])
    ak_new = decrypt(view.keys[mine[0]], payload)

    view.keys, view.leaf_code = recode(
        view.keys, view.leaf_code, notice.promoted_src, notice.promoted_dst
    )
    view.keys[ROOT_CODE] = ak_new
    view.generation = notice.generation
    for code in notice.affected_codes:
        if view.leaf_code.startswith(code):
            view.keys[code] = middle_key(view.namespace, notice.generation, ak_new, code)
    view.epoch = notice.epoch
    return view


def view_matches_tree(view: MemberKeyView, tree: CkcTree) -> bool:
    """Consistency oracle: the view holds exactly the root-path codes, every
    key equals the server's at the same code, and the counters agree."""
    if view.epoch != tree.epoch or view.generation != tree.generation:
        return False
    expected = tree.path_codes(view.leaf_code)
    if sorted(view.keys) != sorted(expected):
        return False
    return all(view.keys[c] == tree.nodes.get(c) for c in expected)
