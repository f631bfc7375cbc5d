"""Position tree and member-side model shared by the CKC and LKH key trees.

Both schemes run the same binary key graph (Wong, Gouda & Lam, "Secure Group
Communications Using Key Graphs"): a node is named by a string of digits
under the root name, a child appends one digit, and dropping the rightmost
digit walks to the parent.  The schemes differ only in how node keys are
made and how a member refreshes them, so this module holds everything else
without ever computing a key:

* a join (``PositionTree.seat``) takes a free root slot, or else splits the
  shallowest leaf (ties: smallest code) and slides its occupant one level
  down, keeping the occupant's individual key; the scheme only names the
  new digits and re-keys the joiner's path;
* a leave drops the leaver's leaf and, when its parent is internal and
  left with one child, promotes that sibling subtree into the parent's
  position: every code in it drops the digit at the promotion depth.

Members learn of both from the plaintext notices below and mirror them on
their own view (``MemberKeyView``), applying notices strictly in epoch
order.  ``PositionTree.view_matches`` is the consistency oracle: a view
must hold exactly the keys on its root path, equal to the server's.

The wire format lives here too.  A scheme seals each key it ships into a
``WirePayload`` under one tree position and groups the payloads into
``WireMessage``s; ``JoinResult`` and ``LeaveResult`` carry them with the
notice and the counters.  The area server traces and records those very
objects, and members open the payloads whose position lies on their own
path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from random import Random

from .crypto import DIGITS, Ciphertext, ProtocolError, fingerprint


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


@dataclass
class JoinNotice:
    """Plaintext announcement of a join.

    Key material never rides on it: current members only need to learn that
    a join happened and which path positions were touched.
    """

    epoch: int
    joiner_id: str
    joiner_leaf: str
    split_code: str | None  # former code of the leaf that was split
    occupant_leaf: str | None  # where the split leaf's occupant moved
    # re-keyed positions in the order members refresh them: CKC top-down
    # below the root, LKH bottom-up up to the root
    affected_codes: list[str] = field(default_factory=list)


@dataclass
class LeaveNotice:
    epoch: int
    leaver_id: str
    leaver_code: str
    promoted_src: str | None  # sibling subtree root before promotion
    promoted_dst: str | None  # position (and code) it was promoted into
    affected_codes: list[str] = field(default_factory=list)  # as on a join
    cover_codes: list[str] = field(default_factory=list)  # CKC, pre-promotion


@dataclass(frozen=True)
class WirePayload:
    under: str  # position whose key encrypts the payload
    enc_key: bytes  # value of that key: server-side audit handle, not on the wire
    ciphertext: Ciphertext


@dataclass(frozen=True)
class WireMessage:
    desc: str  # trace text naming what the message re-keys
    payloads: list[WirePayload]

    def info(self) -> str:
        fps = "+".join(p.ciphertext.fingerprint() for p in self.payloads)
        return f"{self.desc} {fps}"


@dataclass
class JoinResult:
    notice: JoinNotice
    unicasts: list[WireMessage]  # to the joiner, under its individual key first
    multicasts: list[WireMessage]  # to the current members
    counters: RekeyCounters


@dataclass
class LeaveResult:
    notice: LeaveNotice
    multicasts: list[WireMessage]
    counters: RekeyCounters


@dataclass
class MemberKeyView:
    """One member's slice of the tree: exactly the keys on its root path."""

    member_id: str
    leaf: str
    keys: dict[str, bytes]
    epoch: int
    # the keys the view stored since the last ``drain_gains``, for the
    # secrecy oracle
    _stored: list[bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._stored = list(self.keys.values())

    def store(self, code: str, key: bytes) -> None:
        self.keys[code] = key
        self._stored.append(key)

    def drain_gains(self) -> list[bytes]:
        """The keys stored since the previous call (repeats possible).
        Moving a key to another code stores nothing: the value was reported
        when it was stored."""
        stored, self._stored = self._stored, []
        return stored

    def group_key(self) -> bytes:
        # every position starts with the root's one-character name
        return self.keys[self.leaf[0]]

    def _in_order(self, epoch: int) -> bool:
        """True when a notice for ``epoch`` should be applied; False for a
        stale re-delivery.  A gap means the member missed an announcement
        and can no longer follow the tree."""
        if epoch <= self.epoch:
            return False
        if epoch != self.epoch + 1:
            raise ProtocolError(
                f"{self.member_id} missed an announcement (view at {self.epoch}, notice {epoch})"
            )
        return True

    def follow_join(self, notice: JoinNotice) -> bool:
        """Mirror a join's position change; False (view untouched) for a
        stale re-delivery.  The scheme then refreshes the keys."""
        if not self._in_order(notice.epoch):
            return False
        if notice.split_code is not None and self.leaf == notice.split_code:
            # this member occupied the split leaf; it slides down one level
            # with its individual key, which stays at the split position
            # until the scheme re-keys it
            self.keys[notice.occupant_leaf] = self.keys[notice.split_code]
            self.leaf = notice.occupant_leaf
        return True

    def accept_leave(self, notice: LeaveNotice) -> bool:
        """Whether to apply a leave notice; the leaver itself is refused."""
        if self.member_id == notice.leaver_id:
            raise ProtocolError("departed member cannot refresh")
        return self._in_order(notice.epoch)

    def promote(self, notice: LeaveNotice) -> None:
        """Mirror the promotion of subtree ``promoted_src`` into position
        ``promoted_dst``.  Inside the subtree every held code drops the digit
        at the promotion depth and the key values are unchanged; the old
        parent key dies with its position (the subtree root replaces it).
        Members outside the subtree are unchanged."""
        src, dst = notice.promoted_src, notice.promoted_dst
        if src is None or not self.leaf.startswith(src):
            return
        moved = {}
        for c, k in self.keys.items():
            if c != dst:
                moved[dst + c[len(src):] if c.startswith(src) else c] = k
        self.keys = moved
        self.leaf = dst + self.leaf[len(src):]


class PositionTree:
    """Server-side key tree: position -> key, member -> leaf position.

    ``seat`` is the server side of a join.  Each scheme names new child
    positions (``_digit(rng, exclude)``: a digit not in ``exclude``) and
    makes a joiner's keys (``_rekey_join(leaf, rng)``: the re-keyed
    positions, in the order members refresh them)."""

    ROOT: str  # name of the root position, set by each scheme

    def __init__(self, group_key: bytes):
        self.nodes: dict[str, bytes] = {self.ROOT: group_key}
        self.leaves: dict[str, str] = {}
        self.epoch = 0
        # keys stored since the last ``drain_stored``, for the secrecy
        # oracle's key universe; the seed key is the first
        self._stored: list[bytes] = [group_key]
        # key -> the two keys it was derived from as f(a xor b), since the
        # last ``drain_stored``, for the secrecy oracle's derivation rule
        self._derived: dict[bytes, tuple[bytes, bytes]] = {}

    def group_key(self) -> bytes:
        return self.nodes[self.ROOT]

    def member_count(self) -> int:
        return len(self.leaves)

    def path_codes(self, leaf: str) -> list[str]:
        """All positions from the root to the leaf, top-down."""
        return [leaf[:i] for i in range(1, len(leaf) + 1)]

    def _set(self, code: str, key: bytes, premises: tuple[bytes, bytes] | None = None) -> None:
        """Store ``key`` at ``code``; ``premises`` (a, b) when it is f(a xor b)."""
        self.nodes[code] = key
        self._stored.append(key)
        if premises is not None:
            self._derived[key] = premises

    def drain_stored(self) -> tuple[list[bytes], dict[bytes, tuple[bytes, bytes]]]:
        """The keys stored since the previous call (repeats possible), and
        the premises of those derived as f(a xor b)."""
        stored, self._stored = self._stored, []
        derived, self._derived = self._derived, {}
        return stored, derived

    def view_matches(self, view: MemberKeyView) -> bool:
        """Consistency oracle: the view holds exactly the root-path codes,
        every key equals the server's at the same code, and the epochs
        agree."""
        if view.epoch != self.epoch:
            return False
        expected = self.path_codes(view.leaf)
        if sorted(view.keys) != sorted(expected):
            return False
        return all(view.keys[c] == self.nodes.get(c) for c in expected)

    def _children(self, code: str) -> list[str]:
        """Occupied one-digit extensions of ``code``, in sorted order."""
        return [child for child in (code + d for d in DIGITS) if child in self.nodes]

    def shallowest_leaf(self) -> str:
        """The leaf a join splits: least depth, ties broken by smallest code."""
        return min(self.leaves.values(), key=lambda c: (len(c), c))

    def slide_occupant(self, split: str, occupant_leaf: str) -> None:
        """Move the member at leaf ``split`` down to ``occupant_leaf`` with its
        individual key; ``split`` becomes internal and is re-keyed by the
        scheme."""
        occupant = next(m for m, c in self.leaves.items() if c == split)
        self.leaves[occupant] = occupant_leaf
        self._set(occupant_leaf, self.nodes[split])

    def seat(self, member_id: str, individual_key: bytes, rng: Random) -> JoinNotice:
        """The server side of a join: place the member, re-key its path and
        bump the epoch, with no payload built and no member refreshed.  A
        refused seat changes nothing and draws nothing."""
        if member_id in self.leaves:
            raise ProtocolError(f"{member_id} already in tree")
        root_children = self._children(self.ROOT)
        if len(root_children) < 2:
            # a free root slot (bootstrap or post-leave): 2^k members sit at depth k
            split = occupant_leaf = None
            leaf = self.ROOT + self._digit(rng, "".join(c[-1] for c in root_children))
        else:
            split = self.shallowest_leaf()
            occupant_leaf = split + self._digit(rng, "")
            leaf = split + self._digit(rng, occupant_leaf[-1])
            self.slide_occupant(split, occupant_leaf)
        self.leaves[member_id] = leaf
        self._set(leaf, individual_key)
        # re-keyed only now: the slide copied the occupant's key out of
        # ``split``, and CKC rolls ``split`` from it
        affected = self._rekey_join(leaf, rng)
        self.epoch += 1
        return JoinNotice(self.epoch, member_id, leaf, split, occupant_leaf, affected)

    def detach(self, leaf: str) -> tuple[str | None, str | None]:
        """Drop a vacated leaf position and promote its sibling subtree into
        the parent's position when the parent is not the root.  Returns
        (promoted subtree root before the move, position it moved into), or
        (None, None) when nothing moved."""
        del self.nodes[leaf]
        if len(leaf) <= 2:  # the parent is the root, which never collapses
            return None, None
        parent = leaf[:-1]
        siblings = self._children(parent)
        if len(siblings) != 1:
            return None, None
        src = siblings[0]
        moved = [c for c in self.nodes if c.startswith(src)]
        relocated = {parent + c[len(src):]: self.nodes[c] for c in moved}
        for c in moved:
            del self.nodes[c]
        self.nodes.update(relocated)
        for m, c in self.leaves.items():
            if c.startswith(src):
                self.leaves[m] = parent + c[len(src):]
        return src, parent

    def dump(self) -> str:
        """Deterministic JSON snapshot (keys reduced to fingerprints)."""
        doc = {
            "root": self.ROOT,
            "epoch": self.epoch,
            "nodes": {c: fingerprint(k) for c, k in sorted(self.nodes.items())},
            "leaves": dict(sorted(self.leaves.items())),
        }
        return json.dumps(doc, sort_keys=True, indent=1)
