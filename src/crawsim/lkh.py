"""Logical-key-hierarchy baseline for cost comparison.

Classic binary LKH: every tree node holds an independent random key, a join
regenerates each key on the new leaf's path (delivered to the newcomer as a
unicast chain and to current members as per-node multicasts under child
keys), and a leave collapses the leaver's parent by promoting the sibling
subtree, then regenerates the surviving path keys.

Counter conventions: join counters are realized counts and equal the
textbook formulas on balanced trees (depth keygens, 3*depth encryptions,
depth unicasts, depth multicasts).  Leave counters follow the conventional
per-level tally of 2*depth encryptions/multicasts over the leaver's depth;
the realized minimal payload set is 2*(depth-1) messages, two per
regenerated ancestor, and is what the payload list contains.  The two
figures are both exposed: counters in ``RekeyCounters``, real messages in
``multicasts``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from .crypto import Ciphertext, ProtocolError, decrypt, encrypt, random_key
from .ckc import RekeyCounters
from .tree import PositionTree, apply_epoch, recode

ROOT_LABEL = "r"


def parent_label(label: str) -> str:
    if label == ROOT_LABEL:
        raise ValueError("root label has no parent")
    return label[:-1]


@dataclass
class LkhJoinNotice:
    epoch: int
    joiner_id: str
    joiner_leaf: str
    split_label: str | None
    occupant_leaf: str | None
    changed_labels: list[str] = field(default_factory=list)  # bottom-up


@dataclass
class LkhLeaveNotice:
    epoch: int
    leaver_id: str
    leaver_label: str
    promoted_src: str | None
    promoted_dst: str | None
    changed_labels: list[str] = field(default_factory=list)  # bottom-up


@dataclass
class LkhJoinResult:
    notice: LkhJoinNotice
    unicast_chain: list[tuple[str, Ciphertext]]  # (label, ct) bottom-up
    multicasts: list[tuple[str, list[tuple[str, Ciphertext]]]]
    counters: RekeyCounters
    # encryption keys aligned with the payload lists; audit only, never shipped
    chain_keys: list[bytes] = field(default_factory=list)
    multicast_keys: list[list[bytes]] = field(default_factory=list)


@dataclass
class LkhLeaveResult:
    notice: LkhLeaveNotice
    multicasts: list[tuple[str, tuple[str, Ciphertext]]]  # (label, (child, ct))
    counters: RekeyCounters
    multicast_keys: list[bytes] = field(default_factory=list)  # audit only


class LkhTree(PositionTree):
    """Server-side LKH state: label -> key, member -> leaf label."""

    ROOT = ROOT_LABEL
    path_labels = PositionTree.path_codes

    @classmethod
    def new(cls, rng: Random) -> "LkhTree":
        return cls(random_key(rng))


@dataclass
class LkhMemberView:
    member_id: str
    leaf_label: str
    keys: dict[str, bytes]
    epoch: int

    def group_key(self) -> bytes:
        return self.keys[ROOT_LABEL]


def lkh_join(tree: LkhTree, member_id: str, individual_key: bytes, rng: Random) -> LkhJoinResult:
    """Attach a member and regenerate every key on its path."""
    if member_id in tree.leaves:
        raise ProtocolError(f"{member_id} already in tree")

    root_children = tree._children(ROOT_LABEL)
    if len(root_children) < 2:
        split = occupant_leaf = None
        leaf = ROOT_LABEL + ("0" if ROOT_LABEL + "0" not in tree.nodes else "1")
    else:
        split = tree.shallowest_leaf()
        occupant_leaf = split + "0"
        leaf = split + "1"
        tree.slide_occupant(split, occupant_leaf)
    tree.leaves[member_id] = leaf
    tree._set(leaf, individual_key)

    # regenerate path keys bottom-up: the split position (if any), every
    # ancestor above it, and the root
    changed = [leaf[:i] for i in range(len(leaf) - 1, 0, -1)]
    for label in changed:
        tree._set(label, random_key(rng))
    tree.epoch += 1

    chain: list[tuple[str, Ciphertext]] = []
    chain_keys: list[bytes] = []
    wrap = individual_key
    for label in changed:
        chain_keys.append(wrap)
        chain.append((label, encrypt(wrap, tree.nodes[label])))
        wrap = tree.nodes[label]

    multicasts = []
    multicast_keys: list[list[bytes]] = []
    encryptions = len(chain)
    for label in changed:
        children = tree._children(label)
        payloads = [(child, encrypt(tree.nodes[child], tree.nodes[label])) for child in children]
        encryptions += len(payloads)
        multicasts.append((label, payloads))
        multicast_keys.append([tree.nodes[child] for child in children])

    notice = LkhJoinNotice(tree.epoch, member_id, leaf, split, occupant_leaf, changed)
    counters = RekeyCounters(
        key_generations=len(changed),
        encryptions=encryptions,
        unicast_sends=len(chain),
        multicast_sends=len(multicasts),
    )
    return LkhJoinResult(
        notice, chain, multicasts, counters,
        chain_keys=chain_keys, multicast_keys=multicast_keys,
    )


def lkh_leave(tree: LkhTree, member_id: str, rng: Random) -> LkhLeaveResult:
    """Detach a member, collapse its parent, regenerate surviving path keys."""
    if member_id not in tree.leaves:
        raise ProtocolError(f"{member_id} not in tree")
    leaf = tree.leaves.pop(member_id)
    depth = len(leaf) - 1
    promoted_src, promoted_dst = tree.detach(leaf)
    if depth >= 2:
        changed = [leaf[:i] for i in range(len(leaf) - 2, 0, -1)]  # above the parent
    else:
        changed = [ROOT_LABEL]
    for label in changed:
        tree._set(label, random_key(rng))
    tree.epoch += 1

    multicasts = []
    multicast_keys: list[bytes] = []
    for label in changed:
        for child in tree._children(label):
            multicasts.append((label, (child, encrypt(tree.nodes[child], tree.nodes[label]))))
            multicast_keys.append(tree.nodes[child])

    notice = LkhLeaveNotice(tree.epoch, member_id, leaf, promoted_src, promoted_dst, changed)
    if promoted_dst is not None:
        # conventional per-level tally (see module docstring); the realized
        # payload list is two messages shorter
        reported = 2 * depth
    else:
        reported = len(multicasts)
    counters = RekeyCounters(
        key_generations=len(changed),
        encryptions=reported,
        unicast_sends=0,
        multicast_sends=reported,
    )
    return LkhLeaveResult(notice, multicasts, counters, multicast_keys=multicast_keys)


def build_lkh_joiner_view(
    member_id: str,
    individual_key: bytes,
    chain: list[tuple[str, Ciphertext]],
    notice: LkhJoinNotice,
) -> LkhMemberView:
    keys = {notice.joiner_leaf: individual_key}
    wrap = individual_key
    for label, ct in chain:
        wrap = decrypt(wrap, ct)
        keys[label] = wrap
    if sorted(keys) != sorted(
        [notice.joiner_leaf[:i] for i in range(1, len(notice.joiner_leaf) + 1)]
    ):
        raise ProtocolError("unicast chain does not cover the announced path")
    return LkhMemberView(member_id, notice.joiner_leaf, keys, notice.epoch)


def lkh_member_refresh_join(
    view: LkhMemberView,
    notice: LkhJoinNotice,
    multicasts: list[tuple[str, list[tuple[str, Ciphertext]]]],
) -> LkhMemberView:
    if not apply_epoch(view.member_id, view.epoch, notice.epoch):
        return view
    if notice.split_label is not None and view.leaf_label == notice.split_label:
        view.keys[notice.occupant_leaf] = view.keys.pop(notice.split_label)
        view.leaf_label = notice.occupant_leaf
    by_label = dict(multicasts)
    for label in notice.changed_labels:  # bottom-up: child keys are current
        if not view.leaf_label.startswith(label):
            continue
        child_on_path = view.leaf_label[: len(label) + 1]
        ct = next((ct for child, ct in by_label[label] if child == child_on_path), None)
        if ct is None:
            raise ProtocolError(f"no payload under {child_on_path} for {label}")
        view.keys[label] = decrypt(view.keys[child_on_path], ct)
    view.epoch = notice.epoch
    return view


def lkh_member_refresh_leave(
    view: LkhMemberView,
    notice: LkhLeaveNotice,
    multicasts: list[tuple[str, tuple[str, Ciphertext]]],
) -> LkhMemberView:
    if view.member_id == notice.leaver_id:
        raise ProtocolError("departed member cannot refresh")
    if not apply_epoch(view.member_id, view.epoch, notice.epoch):
        return view
    view.keys, view.leaf_label = recode(
        view.keys, view.leaf_label, notice.promoted_src, notice.promoted_dst
    )
    for label in notice.changed_labels:  # bottom-up
        if not view.leaf_label.startswith(label):
            continue
        child_on_path = view.leaf_label[: len(label) + 1]
        ct = next(
            (ct for lab, (child, ct) in multicasts if lab == label and child == child_on_path),
            None,
        )
        if ct is None:
            raise ProtocolError(f"no payload under {child_on_path} for {label}")
        view.keys[label] = decrypt(view.keys[child_on_path], ct)
    view.epoch = notice.epoch
    return view


def lkh_view_matches_tree(view: LkhMemberView, tree: LkhTree) -> bool:
    expected = tree.path_labels(view.leaf_label)
    if sorted(view.keys) != sorted(expected):
        return False
    return all(view.keys[c] == tree.nodes.get(c) for c in expected)
