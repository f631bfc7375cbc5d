"""Run-level secrecy audit.

The recorder accumulates, over a whole simulation run, every key the servers
ever stored (the key universe), every key and every node code each member
ever legitimately held, every ciphertext emitted, and each member's
area-membership windows.

The oracle then asks, for every (member, ciphertext) pair: could this member
ever derive the encrypting key?  Derivation capability is the closure of the
member's key knowledge under f and f(. xor code), where the codes available
to a member are those of nodes on paths it has held: a member learns its own
leaf code at delivery and can strip digits to reach the root, but sibling
subtree codes are never handed to it.  Re-keying announcements are treated
as positional control metadata, not as revealing code values; a protocol
that broadcast literal codes would hand every past member the cover keys of
every future leave (f of a remembered group key xor a learned code), which
is exactly the derivation this oracle would then flag.

Expansion is pruned to the key universe, since a hash output that is not a
protocol key cannot re-enter the protocol key set except by hash collision.
A reachable key is only acceptable when the ciphertext was addressed to the
member or emitted inside one of its membership windows.  Backward secrecy
(joiners vs. pre-join traffic), forward secrecy (leavers vs. post-leave
traffic), and movement secrecy all fall out of this single property.

``check_secrecy`` computes the closure lazily.  Each member's walk starts
from the keys it held that lie in the universe; at each key it reaches, it
hashes f and only the codes it knows (among the codes ever in service) that
no earlier member already tried on that key.  A memo shared by the members
of one audit, and dropped when it returns, keeps per key a bitmask of the
codes tried and the edges found.  The result is the closure over every
universe key hashed under every code, with a fraction of the hashing.
Ciphertexts are indexed by key, so a member's candidates are the reached
keys that encrypt something, taken in ciphertext order.  Each violation
ends with one shortest derivation path from a key the member held, found
breadth-first from the held keys in sorted order, so it is the same in
every process.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection
from dataclasses import dataclass, field

from .crypto import Ciphertext, DecryptionError, decrypt, fingerprint, hash_f, hash_f_xor

Edge = tuple[str | None, bytes]  # (code used, derived key); None marks plain f


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
    codes: set[str] = field(default_factory=set)  # every code ever in service
    knowledge: dict[str, set[bytes]] = field(default_factory=dict)
    member_codes: dict[str, set[str]] = field(default_factory=dict)
    ciphertexts: list[CipherRecord] = field(default_factory=list)
    windows: dict[str, list[Window]] = field(default_factory=dict)

    def record_keys(self, keys) -> None:
        self.key_universe.update(keys)

    def record_codes(self, codes) -> None:
        self.codes.update(codes)

    def note_knowledge(self, member: str, keys) -> None:
        self.knowledge.setdefault(member, set()).update(keys)

    def note_codes(self, member: str, codes) -> None:
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
    keys: Collection[bytes], codes: Collection[str], *, universe: set[bytes] | None = None
) -> dict[bytes, list[Edge]]:
    """Hash each key in ``keys`` under f and under f(. xor code) for every
    code in ``codes``, from first principles, and keep the steps that land in
    ``universe`` (default: ``keys`` itself), labelled with the code they
    consume.  A key's edges come plain step first, then in code order."""
    if universe is None:
        universe = keys
    edges: dict[bytes, list[Edge]] = {}
    code_list = sorted(codes)
    for key in keys:
        outs: list[Edge] = []
        candidate = hash_f(key)
        if candidate in universe:
            outs.append((None, candidate))
        for code in code_list:
            candidate = hash_f_xor(key, code)
            if candidate in universe:
                outs.append((code, candidate))
        if outs:
            edges[key] = outs
    return edges


def closure(
    knowledge: set[bytes], edges, codes: set[str], parent: dict | None = None
) -> set[bytes]:
    """Keys reachable from ``knowledge`` along derivation edges whose code,
    if any, the member actually knows.  ``edges`` is anything with
    ``get(key, default)``, such as the dict ``derivation_edges`` returns.

    The walk is breadth-first from the keys in sorted order.  Given
    ``parent``, it records for each key reached by a step the ``(code,
    previous key)`` of a shortest path from a held key.  Short of a hash
    collision a key has one derivation into it, so the path does not depend
    on the order of the edges, and is the same in every process."""
    reached = set(knowledge)
    frontier = deque(sorted(knowledge))
    while frontier:
        key = frontier.popleft()
        for code, nxt in edges.get(key, ()):
            if code is not None and code not in codes:
                continue
            if nxt not in reached:
                reached.add(nxt)
                if parent is not None:
                    parent[nxt] = (code, key)
                frontier.append(nxt)
    return reached


class _LazyEdges:
    """The edges of ``derivation_edges(universe, codes)``, hashed only where
    a walk asks for them: ``get(key)`` tries f and the codes of the member
    set by ``use`` that no earlier member tried at ``key``.  The memo keeps,
    per key, a bitmask of the codes tried and the edges found so far."""

    def __init__(self, universe: set[bytes], codes: set[str]):
        self.universe = universe
        self.bit = {code: 1 << i for i, code in enumerate(sorted(codes))}
        self.tried: dict[bytes, int] = {}
        self.found: dict[bytes, list[Edge]] = {}
        self.codes: list[tuple[str, int]] = []
        self.mask = 0

    def use(self, codes: set[str]) -> _LazyEdges:
        """Ask on behalf of a member knowing ``codes``; codes never in
        service are ignored, as ``derivation_edges`` never tries them."""
        self.codes = sorted((c, self.bit[c]) for c in codes if c in self.bit)
        self.mask = sum(bit for _, bit in self.codes)
        return self

    def get(self, key: bytes, default=()) -> list[Edge]:
        if key not in self.universe:
            return default
        tried = self.tried.get(key)
        new = self.mask if tried is None else self.mask & ~tried
        if tried is None or new:
            codes = [c for c, bit in self.codes if new & bit]
            outs = derivation_edges((key,), codes, universe=self.universe).get(key, [])
            if tried is not None:  # f(key) was hashed again; its edge is known
                outs = [e for e in outs if e[0] is not None]
            self.tried[key] = (tried or 0) | new
            if outs:
                self.found.setdefault(key, []).extend(outs)
        return self.found.get(key, default)


def _provenance(parent: dict, key: bytes) -> str:
    """`` via held K -> (code, K') -> ...``: the steps ``closure`` recorded
    from a key the member held to ``key``, each as (code used, fingerprint of
    the key derived), ``f`` marking a plain hash step; just `` via held K``
    when the member held ``key`` itself."""
    steps = []
    while key in parent:
        code, prev = parent[key]
        steps.append(f" -> ({code or 'f'}, {fingerprint(key)})")
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
    edges = _LazyEdges(rec.key_universe, rec.codes)
    by_key: dict[bytes, list[int]] = {}
    for i, ct in enumerate(rec.ciphertexts):
        by_key.setdefault(ct.enc_key, []).append(i)
    violations = []
    for member, known in rec.knowledge.items():
        codes = rec.member_codes.get(member, set())
        parent: dict[bytes, tuple[str | None, bytes]] = {}
        reach = closure(known, edges.use(codes), codes, parent)
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
    """Belt-and-braces companion to the closure audit: actually try to open
    a bounded sample of out-of-window ciphertexts with every key the member
    ever held directly."""
    violations = []
    attempts = 0
    for member, known in rec.knowledge.items():
        wins = rec.windows.get(member, [])
        for ct in rec.ciphertexts:
            if ct.ciphertext is None or _legal(member, ct, wins):
                continue
            for key in known:
                attempts += 1
                if attempts > max_attempts:
                    return violations
                try:
                    decrypt(key, ct.ciphertext)
                except DecryptionError:
                    continue
                violations.append(
                    f"{member} opened a {ct.kind} in {ct.area} at t={ct.time}"
                )
    return violations
