"""Run-level secrecy audit.

The recorder accumulates, over a whole simulation run, every key the servers
ever stored (the key universe), how each key derived from two others came
to be, every key each member ever legitimately held, every ciphertext
emitted, and each member's area-membership windows.

The oracle then asks, for every (member, ciphertext) pair: could this member
ever derive the encrypting key?  Derivation capability is the closure of the
member's key knowledge under f and under f(a xor b) for any two keys a and
b it holds.  Codes and other public values are no input to any key, so the
adversary needs nothing but its keys: it may know every code in service.

Expansion is pruned to the key universe, since a hash output that is not a
protocol key cannot re-enter the protocol key set except by hash collision.
A reachable key is only acceptable when the ciphertext was addressed to the
member or emitted inside one of its membership windows.  Backward secrecy
(joiners vs. pre-join traffic), forward secrecy (leavers vs. post-leave
traffic), and movement secrecy all fall out of this single property.

``check_secrecy`` reads the recorded derivations instead of hashing every
pair.  It checks each one with a single hash and refuses one that does not
hash to its key; short of a SHA-256 collision, a pair of universe keys
whose f(a xor b) lands in the universe is a recorded derivation.  A
derivation is an edge with two premises, which fires at whichever premise a
walk reaches last.  The plain-f edge of a key is hashed the first time a
walk reaches it, once per audit.  Ciphertexts are indexed by key, so a
member's candidates are the reached keys that encrypt something, taken in
ciphertext order.  Each violation ends with one shortest derivation path
from a key the member held, found breadth-first from the held keys in
sorted order, so it is the same in every process.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection
from dataclasses import dataclass, field
from itertools import combinations

from .crypto import Ciphertext, DecryptionError, decrypt, fingerprint, hash_f, hash_f_xor

# (the other premise, derived key) of one derivation step; None marks plain f
Edge = tuple[bytes | None, bytes]


@dataclass(frozen=True)
class CipherRecord:
    enc_key: bytes
    time: int  # ticks
    area: str
    kind: str
    target: str | None = None  # member-id for unicasts
    ciphertext: Ciphertext | None = None


@dataclass
class Window:
    area: str
    start: int
    end: int | None = None  # open until further notice


@dataclass
class RunRecorder:
    key_universe: set[bytes] = field(default_factory=set)
    # key -> (a, b) for every key the servers derived as f(a xor b)
    derived: dict[bytes, tuple[bytes, bytes]] = field(default_factory=dict)
    codes: set[str] = field(default_factory=set)  # unused; bench/ reads its length
    knowledge: dict[str, set[bytes]] = field(default_factory=dict)
    member_codes: dict[str, set[str]] = field(default_factory=dict)  # unused; bench/ wraps note_codes
    ciphertexts: list[CipherRecord] = field(default_factory=list)
    windows: dict[str, list[Window]] = field(default_factory=dict)

    def record_keys(self, keys, derived=()) -> None:
        self.key_universe.update(keys)
        self.derived.update(derived)

    def record_codes(self, codes) -> None:  # no caller; bench/tracing.py wraps it by name
        self.codes.update(codes)

    def note_knowledge(self, member: str, keys) -> None:
        self.knowledge.setdefault(member, set()).update(keys)

    def note_codes(self, member: str, codes) -> None:  # no caller; bench/tracing.py wraps it by name
        self.member_codes.setdefault(member, set()).update(codes)

    def record_ciphertext(self, rec: CipherRecord) -> None:
        self.ciphertexts.append(rec)
        self.key_universe.add(rec.enc_key)

    def open_window(self, member: str, area: str, t: int) -> None:
        self.windows.setdefault(member, []).append(Window(area, t))

    def close_window(self, member: str, area: str, t: int) -> None:
        for w in reversed(self.windows.get(member, [])):
            if w.area == area and w.end is None:
                w.end = t
                return
        raise RuntimeError(f"no open window for {member} in {area}")


def derivation_edges(
    keys: Collection[bytes], universe: set[bytes] | None = None
) -> dict[bytes, list[Edge]]:
    """Hash each key in ``keys`` under f, and each pair of them under
    f(a xor b), from first principles, and keep the steps that land in
    ``universe`` (default: ``keys`` itself).  A pair's step is an edge of
    both premises, each naming the other.  A key's edges come plain step
    first, then sorted."""
    if universe is None:
        universe = keys
    edges: dict[bytes, list[Edge]] = {}
    ordered = sorted(keys)
    for key in ordered:
        candidate = hash_f(key)
        if candidate in universe:
            edges.setdefault(key, []).append((None, candidate))
    pairs: dict[bytes, list[Edge]] = {}
    for a, b in combinations(ordered, 2):
        candidate = hash_f_xor(a, b)
        if candidate in universe:
            pairs.setdefault(a, []).append((b, candidate))
            pairs.setdefault(b, []).append((a, candidate))
    for key, outs in pairs.items():
        edges.setdefault(key, []).extend(sorted(outs))
    return edges


def closure(knowledge: set[bytes], edges, parent: dict | None = None) -> set[bytes]:
    """Keys reachable from ``knowledge`` along derivation edges.  ``edges``
    is anything with ``get(key, default)``, such as the dict
    ``derivation_edges`` returns.  A pair edge fires once both premises are
    reached: at the first premise, if the other is reached already, and
    otherwise at the other, whose edge list names the first.

    The walk is breadth-first from the keys in sorted order.  Given
    ``parent``, it records for each key reached by a step the ``(other
    premise or None, key the step was taken at)`` of a shortest path from a
    held key.  With the edges of each key in a fixed order, the path is the
    same in every process."""
    reached = set(knowledge)
    frontier = deque(sorted(knowledge))
    while frontier:
        key = frontier.popleft()
        for other, nxt in edges.get(key, ()):
            if nxt in reached or (other is not None and other not in reached):
                continue
            reached.add(nxt)
            if parent is not None:
                parent[nxt] = (other, key)
            frontier.append(nxt)
    return reached


class _RecordedEdges:
    """The edges of ``derivation_edges(universe)``, read from the recorded
    derivations: ``get(key)`` is the key's plain-f edge, hashed on first
    request, then its pair edges sorted."""

    def __init__(self, universe: set[bytes], derived: dict[bytes, tuple[bytes, bytes]]):
        self.universe = universe
        pairs: dict[bytes, list[Edge]] = {}
        for key, (a, b) in derived.items():
            if hash_f_xor(a, b) != key:
                raise ValueError(f"recorded derivation of {fingerprint(key)} does not hash to it")
            if key in universe and a in universe and b in universe:
                pairs.setdefault(a, []).append((b, key))
                pairs.setdefault(b, []).append((a, key))
        self.pairs = {key: sorted(outs) for key, outs in pairs.items()}
        self.memo: dict[bytes, list[Edge]] = {}

    def get(self, key: bytes, default=()) -> list[Edge]:
        outs = self.memo.get(key)
        if outs is None:
            if key not in self.universe:
                return default
            plain = hash_f(key)
            outs = [(None, plain)] if plain in self.universe else []
            outs = self.memo[key] = outs + self.pairs.get(key, [])
        return outs


def _provenance(parent: dict, key: bytes) -> str:
    """`` via held K -> (f, K') -> (xor O, K'') ...``: the steps ``closure``
    recorded from a key the member held to ``key``, each as (``f`` for a
    plain hash step or ``xor`` and the fingerprint of the other premise,
    fingerprint of the key derived); just `` via held K`` when the member
    held ``key`` itself."""
    steps = []
    while key in parent:
        other, prev = parent[key]
        step = "f" if other is None else f"xor {fingerprint(other)}"
        steps.append(f" -> ({step}, {fingerprint(key)})")
        key = prev
    return f" via held {fingerprint(key)}" + "".join(reversed(steps))


def _legal(member: str, rec: CipherRecord, windows: list[Window]) -> bool:
    if rec.target == member:
        return True
    for w in windows:
        if w.area == rec.area and w.start <= rec.time and (w.end is None or rec.time < w.end):
            return True
    return False


def check_secrecy(rec: RunRecorder) -> list[str]:
    """Audit the run; returns human-readable violations (empty = clean),
    member by member in recorder order, then in ciphertext order."""
    edges = _RecordedEdges(rec.key_universe, rec.derived)
    by_key: dict[bytes, list[int]] = {}
    for i, ct in enumerate(rec.ciphertexts):
        by_key.setdefault(ct.enc_key, []).append(i)
    violations = []
    for member, known in rec.knowledge.items():
        parent: dict[bytes, tuple[bytes | None, bytes]] = {}
        reach = closure(known, edges, parent)
        wins = rec.windows.get(member, [])
        hits = sorted(i for key in reach & by_key.keys() for i in by_key[key])
        for i in hits:
            ct = rec.ciphertexts[i]
            if not _legal(member, ct, wins):
                violations.append(
                    f"{member} can derive the key of a {ct.kind} in {ct.area} at t={ct.time}"
                    + _provenance(parent, ct.enc_key)
                )
    return violations


def operational_decrypt_check(rec: RunRecorder, max_attempts: int = 4000) -> list[str]:
    """A check of the closure audit that reads no recorded derivation: try
    to open a bounded sample of out-of-window ciphertexts with every key the
    member held and every f(k) and f(a xor b) over those keys, hashed from
    first principles."""
    violations = []
    attempts = 0
    for member, known in rec.knowledge.items():
        wins = rec.windows.get(member, [])
        held = sorted(known)
        derived = [hash_f(k) for k in held] + [hash_f_xor(a, b) for a, b in combinations(held, 2)]
        candidates = list(dict.fromkeys(held + derived))
        for ct in rec.ciphertexts:
            if ct.ciphertext is None or _legal(member, ct, wins):
                continue
            for key in candidates:
                attempts += 1
                if attempts > max_attempts:
                    return violations
                try:
                    decrypt(key, ct.ciphertext)
                except DecryptionError:
                    continue
                violations.append(f"{member} opened a {ct.kind} in {ct.area} at t={ct.time}")
                break
    return violations
