"""Position tree and member-side model shared by the CKC and LKH key trees.

Both schemes run the same binary key graph (Wong, Gouda & Lam, "Secure Group
Communications Using Key Graphs"), placed by one rule, so a scenario builds
one tree under either: a node is named by a string of binary digits under
the root name, a child appends "0" or "1", and dropping the rightmost digit
walks to the parent.  The schemes differ only in how node keys are made and
how a member refreshes them, so this module holds everything else without
ever computing a key:

* a join (``PositionTree.seat``) takes a free root slot (the first of "0"
  and "1" not taken), or else splits the shallowest leaf (ties: smallest
  code): its occupant slides one level down to "0", keeping its individual
  key, and the joiner takes "1";
* a leave (``PositionTree.unseat``) drops the leaver's leaf and, when its
  parent is internal and left with one child, promotes that sibling
  subtree into the parent's position: every code in it drops the digit at
  the promotion depth (``promoted``, for the tree and every view alike);
* both re-key the group key and the middle positions worked out from the
  leaf alone, top-down: a join's path below the root and above the leaf
  (``path_codes(leaf)[1:-1]``, the split position included), a leave's
  above its vanished parent (``path_codes(leaf)[1:-2]``); the scheme only
  makes the fresh keys.

Neither scans the whole tree.  The server keeps an occupant index (leaf
position -> member, the inverse of ``leaves``) and a heap of leaf positions
by (depth, code) with lazy deletion, so a seat finds the leaf to split in
O(log n), and a promotion walks and re-codes only the moved subtree.

Members learn of both from the plaintext notices below and mirror them on
their own view (``MemberKeyView``), applying notices strictly in epoch
order.  A notice names only what a member cannot work out for itself: the
split leaf is the parent of the occupant's new leaf, and a promoted
subtree moves into the parent of its old root.  One pass per event
(``refresh``) refreshes an area's views under either scheme: ``following``
applies the epoch rule, a join's slide and a leave's promotion, and sorts
the views by leaf, so the members below a position (the subtree that
receives its new key; Wong, Gouda & Lam) are one run (``under``).  A
scheme supplies only its step table: for each re-keyed key in turn, the
run that stores it and the one or two keys on each view's path it comes
from.  A refusal inside a pass (a failed open, a missing payload, a CKC
member below no cover) comes after every view followed the notice and
leaves the steps not reached undone for the whole area; the run aborts
either way.  ``PositionTree.view_matches`` is the consistency oracle: a
view must hold exactly the keys on its root path, equal to the server's.

Each key is recorded where it is stored, for the secrecy oracle: the tree
in ``stored`` (with the premises of each f(a xor b) in ``derived``) and a
view in ``held``, an append-only log (a list: no view is handed a key it
already holds, so a set would only cost more memory).  They only grow; a
simulation shares them with its run recorder.

The wire format lives here too.  A scheme seals each key it ships into a
``WirePayload`` under one tree position and groups the payloads into
``WireMessage``s; one ``Rekey`` per event carries them with the notice
and the number of fresh keys the server made.  The ``Rekey`` states the
event's accounting, for every event alike: its counters are what it sent
(``Rekey.counters``: one encryption per payload and one send per message),
and its cost is a join's key generations or a leaver's depth
(``Rekey.cost``).  The ``Rekey`` is the one object every member reads for
the event: its ``index`` holds the multicast payloads by position, so a
member opens those on its own path, and its ``memo`` (``Rekey.opened``,
and the CKC rolls) lets the members that hold the same key share one open
of a payload or one CKC roll.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import attrgetter
from random import Random

# decrypt goes through the module, so a wrapper on crypto.decrypt sees it
from . import crypto
from .crypto import Ciphertext, ProtocolError, random_key


@dataclass
class RekeyCounters:
    """Per-event bookkeeping mirrored in reports: server key generations,
    encryptions performed, and unicast/multicast sends."""

    key_generations: int
    encryptions: int
    unicast_sends: int
    multicast_sends: int

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
    leaf: str
    occupant_leaf: str | None  # where the split leaf's occupant moved, one level down
    # re-keyed positions in the order members refresh them: CKC top-down
    # below the root, LKH bottom-up up to the root
    affected_codes: list[str] = field(default_factory=list)


@dataclass
class LeaveNotice:
    epoch: int
    member_id: str
    leaf: str  # the leaver's leaf before the promotion
    promoted_src: str | None  # sibling subtree root before it moved into its parent
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


def path_codes(leaf: str) -> list[str]:
    """All positions from the root to the leaf, top-down."""
    return [leaf[:i] for i in range(1, len(leaf) + 1)]


def promoted(code: str, src: str) -> str:
    """The code of position ``code`` once subtree ``src`` has moved into
    its parent's position: a code inside the subtree drops the digit at the
    promotion depth, and any other code is unchanged."""
    return src[:-1] + code[len(src):] if code.startswith(src) else code


@dataclass
class Rekey:
    """One re-keying event as its scheme reports it, from the tree to the
    ledger, and as every current member reads it."""

    notice: JoinNotice | LeaveNotice
    unicasts: list[WireMessage]  # to the joiner, under its individual key first
    multicasts: list[WireMessage]  # to the current members
    key_generations: int  # fresh keys the server made for the event
    # the multicast payloads by the position whose key seals them (an event
    # seals at most one under each), so a member looks up its own path
    index: dict[str, WirePayload] = field(init=False, repr=False, compare=False)
    # the members' shared work: (str position, key) -> an open's plaintext,
    # and a CKC roll's input keys -> its output
    memo: dict[tuple, bytes] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.index = {p.under: p for msg in self.multicasts for p in msg.payloads}

    @property
    def counters(self) -> RekeyCounters:
        """What the event sent: one encryption per payload and one send per
        message."""
        payloads = sum(len(msg.payloads) for msg in self.unicasts + self.multicasts)
        return RekeyCounters(
            self.key_generations, payloads, len(self.unicasts), len(self.multicasts)
        )

    @property
    def cost(self) -> int:
        """The abstract's cost: the keys a join made, the leaver's depth."""
        if isinstance(self.notice, JoinNotice):
            return self.key_generations
        return len(self.notice.leaf) - 1

    def opened(self, under: str, key: bytes) -> bytes:
        """The payload at ``under`` opened with a member's ``key``, once per
        event for each pair; a failed open raises and is not remembered."""
        out = self.memo.get((under, key))
        if out is None:
            out = self.memo[under, key] = crypto.decrypt(key, self.index[under].ciphertext)
        return out


@dataclass
class MemberKeyView:
    """One member's slice of the tree: exactly the keys on its root path."""

    member_id: str
    leaf: str
    keys: dict[str, bytes]
    epoch: int
    # append-only log of every key the view ever stored, its first keys
    # first (a move to another code stores nothing); a simulation shares it
    # as its recorder's ``knowledge`` of the member
    held: list[bytes] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.held = list(self.keys.values())

    def group_key(self) -> bytes:
        # every position starts with the root's one-character name
        return self.keys[self.leaf[0]]

    def promote(self, src: str) -> None:
        """Mirror the promotion of subtree ``src``, which holds this view's
        leaf, into its parent's position (``promoted``); the key values are
        unchanged, and the old parent key dies with its position (the
        subtree root replaces it)."""
        self.keys = {promoted(c, src): k for c, k in self.keys.items() if c != src[:-1]}
        self.leaf = promoted(self.leaf, src)


_leaf_of = attrgetter("leaf")


def following(
    views: Iterable[MemberKeyView], notice: JoinNotice | LeaveNotice
) -> tuple[list[MemberKeyView], ProtocolError | None]:
    """The views that apply ``notice``, sorted by leaf, and the refusal that
    stopped the walk, if any.  The views are walked in the given order, each
    moved to its epoch as it is reached; on a join, the occupant of the
    split leaf also slides down one level with its individual key, which
    stays at the split position until the scheme re-keys it.  A stale
    re-delivery is skipped.  A gap means the member missed an announcement
    and can no longer follow the tree, and a leave's leaver cannot refresh:
    either refusal stops the walk at that view, so the pass refreshes the
    views before it, leaves those after it untouched and then raises it.
    On a leave, the ready views below ``promoted_src`` then re-code
    (``MemberKeyView.promote``)."""
    epoch, leave = notice.epoch, isinstance(notice, LeaveNotice)
    leaver, src = (notice.member_id, notice.promoted_src) if leave else (None, None)
    occupant_leaf = None if leave else notice.occupant_leaf
    split = occupant_leaf and occupant_leaf[:-1]
    ready, refusal, prev = [], None, epoch - 1
    for view in views:
        if view.member_id == leaver:
            refusal = ProtocolError("departed member cannot refresh")
            break
        if view.epoch != prev:
            if view.epoch >= epoch:
                continue
            refusal = ProtocolError(
                f"{view.member_id} missed an announcement (view at {view.epoch}, notice {epoch})"
            )
            break
        view.epoch = epoch
        if view.leaf == split:
            view.keys[occupant_leaf] = view.keys[split]
            view.leaf = occupant_leaf
        ready.append(view)
    ready.sort(key=_leaf_of)
    if src is not None:
        for view in under(ready, src):
            view.promote(src)
    return ready, refusal


def under(views: list[MemberKeyView], code: str) -> list[MemberKeyView]:
    """The run of ``views``, sorted by leaf, whose leaves are at or below
    position ``code``: they all sort from ``code`` up to, not including,
    ``code`` with its last character bumped by one."""
    lo = bisect_left(views, code, key=_leaf_of)
    hi = bisect_left(views, code[:-1] + chr(ord(code[-1]) + 1), lo, key=_leaf_of)
    return views[lo:hi]


# (target, run, inputs, make): a step of a scheme's pass; see ``refresh``
Step = tuple[str, list[MemberKeyView], tuple[str] | tuple[str, str], Callable[..., bytes]]
StepTable = Callable[[list[MemberKeyView], Rekey], list[Step]]


def refresh(views: Iterable[MemberKeyView], rekey: Rekey, steps: StepTable) -> None:
    """One pass of ``rekey`` over an area's views, for either scheme: the
    views that follow the notice (``following``) take each step of
    ``steps(ready, rekey)`` in turn, every view of its run (a slice of
    ``ready``) storing ``make(*v)`` at ``target``, ``v`` its own keys at
    the one or two positions ``inputs``.  Each ``make`` is memoised by
    value in ``rekey``, so a view holding the same key objects as the last
    takes the last result, and one holding a wrong key gets its own.  A
    refusal from ``following`` is raised last."""
    ready, refusal = following(views, rekey.notice)
    for target, run, inputs, make in steps(ready, rekey):
        # a loop per arity: a generic fetch costs ckc_churn 3% of its time
        if len(inputs) == 1:
            (a,) = inputs
            last = None
            for view in run:
                keys = view.keys
                if keys[a] is not last:
                    last = keys[a]
                    key = make(last)
                keys[target] = key
                view.held.append(key)
        else:
            a, b = inputs
            last_a = last_b = None
            for view in run:
                keys = view.keys
                if keys[a] is not last_a or keys[b] is not last_b:
                    last_a, last_b = keys[a], keys[b]
                    key = make(last_a, last_b)
                keys[target] = key
                view.held.append(key)
    if refusal is not None:
        raise refusal


class PositionTree:
    """Server-side key tree: position -> key, member -> leaf position.

    ``seat`` is the server side of a join and ``unseat`` of a leave; each
    names the middle positions its event re-keys (module docstring).  A
    scheme supplies ``_rekey(middles, rng, joined)``, which makes the fresh
    keys of a join (``joined``) or a leave and returns the re-keyed
    positions in the order members refresh them.

    Placement is indexed so that no join or leave scans the whole tree.
    ``occupants`` (leaf position -> member) is the exact inverse of
    ``leaves``, and a heap of ``(depth, position)`` holds every leaf
    position, so ``shallowest_leaf`` peeks at its top.  A position that
    stops being a leaf stays in the heap until it reaches the top
    (lazy deletion); when stale entries outnumber the leaves, the heap is
    rebuilt from ``occupants``.  A member changes position only through
    ``_place``, which keeps all three in step.  A promotion walks only the
    moved subtree, from its root through ``_children``."""

    ROOT: str  # name of the root position, set by each scheme

    def __init__(self, group_key: bytes):
        self.nodes: dict[str, bytes] = {self.ROOT: group_key}
        self.leaves: dict[str, str] = {}
        self.occupants: dict[str, str] = {}  # the inverse of ``leaves``
        self._heap: list[tuple[int, str]] = []  # (depth, position), lazily deleted
        self.epoch = 0
        # every key ever stored, recorded here (``_set``); a simulation
        # shares it as its recorder's ``key_universe``
        self.stored: set[bytes] = {group_key}
        # key -> (a, b) for each key stored as f(a xor b); shared likewise
        self.derived: dict[bytes, tuple[bytes, bytes]] = {}

    @classmethod
    def new(cls, rng: Random) -> "PositionTree":
        return cls(random_key(rng))

    def group_key(self) -> bytes:
        return self.nodes[self.ROOT]

    def member_count(self) -> int:
        return len(self.leaves)

    def _set(self, code: str, key: bytes, premises: tuple[bytes, bytes] | None = None) -> None:
        """Store ``key`` at ``code``; ``premises`` (a, b) when it is f(a xor b)."""
        self.nodes[code] = key
        self.stored.add(key)
        if premises is not None:
            self.derived[key] = premises

    def view_matches(self, view: MemberKeyView) -> bool:
        """Consistency oracle: the view holds exactly the root-path codes,
        every key equals the server's at the same code, and the epochs
        agree."""
        if view.epoch != self.epoch:
            return False
        expected = path_codes(view.leaf)
        if sorted(view.keys) != sorted(expected):
            return False
        return all(view.keys[c] == self.nodes.get(c) for c in expected)

    def index_matches(self) -> bool:
        """Consistency oracle of the placement index: ``occupants`` inverts
        ``leaves`` exactly, and every leaf position is in the heap."""
        if self.occupants != {c: m for m, c in self.leaves.items()}:
            return False
        return self.occupants.keys() <= {c for _, c in self._heap}

    def _children(self, code: str) -> list[str]:
        """Occupied one-digit extensions of ``code``, in sorted order."""
        return [child for child in (code + "0", code + "1") if child in self.nodes]

    def _place(self, moves: list[tuple[str, str | None]]) -> None:
        """Move each member to its new leaf position, or out of the tree
        for None.  Every old position leaves the occupant index before any
        new one enters it: a promoted code may be another mover's old one."""
        for member_id, _ in moves:
            if member_id in self.leaves:
                del self.occupants[self.leaves[member_id]]
        for member_id, leaf in moves:
            if leaf is None:
                del self.leaves[member_id]
            else:
                self.leaves[member_id] = leaf
                self.occupants[leaf] = member_id
                heappush(self._heap, (len(leaf), leaf))
        if len(self._heap) > 2 * len(self.occupants):
            self._heap = [(len(c), c) for c in self.occupants]
            heapify(self._heap)

    def shallowest_leaf(self) -> str:
        """The leaf a join splits: least depth, ties broken by smallest code."""
        heap = self._heap
        while heap[0][1] not in self.occupants:
            heappop(heap)
        return heap[0][1]

    def seat(self, member_id: str, individual_key: bytes, rng: Random) -> JoinNotice:
        """The server side of a join: place the member, re-key its path and
        bump the epoch, with no payload built and no member refreshed.  A
        refused seat changes nothing and draws nothing."""
        if member_id in self.leaves:
            raise ProtocolError(f"{member_id} already in tree")
        root_children = self._children(self.ROOT)
        if len(root_children) < 2:
            # a free root slot (bootstrap or post-leave): 2^k members sit at depth k
            occupant_leaf = None
            leaf = self.ROOT + ("1" if self.ROOT + "0" in root_children else "0")
        else:
            split = self.shallowest_leaf()
            occupant_leaf, leaf = split + "0", split + "1"
            # the occupant slides down with its individual key, and ``split``
            # becomes internal
            self._place([(self.occupants[split], occupant_leaf)])
            self._set(occupant_leaf, self.nodes[split])
        self._place([(member_id, leaf)])
        self._set(leaf, individual_key)
        # re-keyed only now: the slide copied the occupant's key out of
        # ``split``, and CKC rolls ``split`` from it
        affected = self._rekey(path_codes(leaf)[1:-1], rng, joined=True)
        self.epoch += 1
        return JoinNotice(self.epoch, leaf, occupant_leaf, affected)

    def detach(self, leaf: str) -> str | None:
        """Drop a vacated leaf position and promote its sibling subtree into
        the parent's position when the parent is not the root.  Returns the
        promoted subtree's root before the move, or None when nothing moved.

        Every internal position below the root has exactly two children: a
        seat splits a leaf into two, and a detach replaces a parent by its
        one remaining child.  So a non-root parent keeps exactly one child
        here; anything else is a broken tree and fails loudly."""
        del self.nodes[leaf]
        if len(leaf) <= 2:  # the parent is the root, which never collapses
            return None
        (src,) = self._children(leaf[:-1])
        moved = [src]
        for code in moved:  # the subtree top-down, grown while walked
            moved.extend(self._children(code))
        # every moved code is popped before any is placed: a promoted code
        # may be another moved code's old one
        keys = [self.nodes.pop(c) for c in moved]
        for c, k in zip(moved, keys):
            self.nodes[promoted(c, src)] = k
        self._place([(self.occupants[c], promoted(c, src)) for c in moved if c in self.occupants])
        return src

    def covers(self, member_id: str) -> list[tuple[str, bytes]]:
        """The siblings along a member's root path, top-down, with their
        keys: between them they hold every other member of the tree.  A
        non-member has none (``unseat`` refuses it)."""
        leaf = self.leaves.get(member_id, "")
        return [
            (sib, self.nodes[sib])
            for code in path_codes(leaf)[1:]
            for sib in self._children(code[:-1])
            if sib != code
        ]

    def unseat(self, member_id: str, rng: Random) -> LeaveNotice:
        """The server side of a leave: drop the member's leaf, promote its
        sibling subtree, re-key what the member held and bump the epoch,
        with no payload built and no member refreshed.  A refused unseat
        changes nothing and draws nothing."""
        if member_id not in self.leaves:
            raise ProtocolError(f"{member_id} not in tree")
        leaf = self.leaves[member_id]
        self._place([(member_id, None)])
        promoted_src = self.detach(leaf)
        # the positions above the vanished parent, which the promotion keeps
        affected = self._rekey(path_codes(leaf)[1:-2], rng, joined=False)
        self.epoch += 1
        return LeaveNotice(self.epoch, member_id, leaf, promoted_src, affected)
