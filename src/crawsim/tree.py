"""Position tree shared by the CKC and LKH key trees.

Both schemes run the same binary key graph (Wong, Gouda & Lam, "Secure Group
Communications Using Key Graphs"): a node is named by a string of digits
under the root name, a child appends one digit, and dropping the rightmost
digit walks to the parent.  The schemes differ only in how node keys are
made, so this module holds the positions and moves keys around without
ever computing one:

* a join splits the shallowest leaf (ties: smallest code) and slides its
  occupant one level down, keeping the occupant's individual key;
* a leave drops the leaver's leaf and, when its parent is internal and
  left with one child, promotes that sibling subtree into the parent's
  position: every code in it drops the digit at the promotion depth.

Members mirror the promotion from the notice alone (``recode``) and apply
notices strictly in epoch order (``apply_epoch``).  Both work on plain
values because the two schemes name their view fields differently.
"""

from __future__ import annotations

import json

from .crypto import ProtocolError, fingerprint

DIGITS = "0123456789"


class PositionTree:
    """Server-side key tree: position -> key, member -> leaf position."""

    ROOT: str  # name of the root position, set by each scheme

    def __init__(self, group_key: bytes):
        self.nodes: dict[str, bytes] = {self.ROOT: group_key}
        self.leaves: dict[str, str] = {}
        self.epoch = 0
        # every key ever stored, for the secrecy oracle's key universe
        self.key_history: set[bytes] = {group_key}

    def group_key(self) -> bytes:
        return self.nodes[self.ROOT]

    def member_count(self) -> int:
        return len(self.leaves)

    def depth_of(self, member_id: str) -> int:
        return len(self.leaves[member_id]) - 1

    def path_codes(self, leaf: str) -> list[str]:
        """All positions from the root to the leaf, top-down."""
        return [leaf[:i] for i in range(1, len(leaf) + 1)]

    def _set(self, code: str, key: bytes) -> None:
        self.nodes[code] = key
        self.key_history.add(key)

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


def apply_epoch(member_id: str, view_epoch: int, epoch: int) -> bool:
    """True when a notice for ``epoch`` should be applied to a view at
    ``view_epoch``; False for a stale re-delivery.  A gap means the member
    missed an announcement and can no longer follow the tree."""
    if epoch <= view_epoch:
        return False
    if epoch != view_epoch + 1:
        raise ProtocolError(
            f"{member_id} missed an announcement (view at {view_epoch}, notice {epoch})"
        )
    return True


def recode(
    keys: dict[str, bytes], leaf: str, src: str | None, dst: str | None
) -> tuple[dict[str, bytes], str]:
    """A member's (keys, leaf) after the promotion of subtree ``src`` into
    position ``dst``.  Inside the subtree every held code drops the digit at
    the promotion depth and the key values are unchanged; the old parent key
    dies with its position (the subtree root replaces it).  Members outside
    the subtree are returned unchanged."""
    if src is None or not leaf.startswith(src):
        return keys, leaf
    moved = {}
    for c, k in keys.items():
        if c != dst:
            moved[dst + c[len(src):] if c.startswith(src) else c] = k
    return moved, dst + leaf[len(src):]
