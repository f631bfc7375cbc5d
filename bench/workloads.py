"""Seeded workload generator for the crawsim benchmark.

Each workload is one scenario document, built from the workload seed alone;
the simulator sees nothing but that document.  Every generated operation is
legal when it is dispatched under the document's delay model: no operation
on a member that still has one in flight, no join of a present member, no
leave or move of an absent one.

Sizes stay below two hard ceilings of the CKC tree: its derivation string
caps an area at about 256 members, and its generation counter caps an area
at 999 leaves.  The generator refuses any table entry that could cross its
own caps (``CKC_AREA_CAP`` members, ``LEAVE_CAP`` leaves per area), which
sit well below both.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable

CKC_AREA_CAP = 160
LEAVE_CAP = 500

# every operation completes on the tick it is dispatched
ZERO_DELAYS = {
    "t_probe": 0.0,
    "t_reauth": 0.0,
    "t_reassoc": 0.0,
    "t_keygen": 0.0,
    "t_keydist": 0.0,
    "t_auth_ordinary": 0.0,
}

# the simulator's default timing model, spelled out so that the workload does
# not change if those defaults do
DEFAULT_DELAYS = {
    "t_probe": 0.0195167,
    "t_reauth": 0.002517,
    "t_reassoc": 0.924,
    "t_keygen": 0.939,
    "t_keydist": 0.0,
    "t_auth_ordinary": 0.000237,
    "frame_interval": 0.01,
}


def op_latency(scheme: str, delays: dict) -> dict[str, float]:
    """Seconds from dispatch to completion of each operation kind."""
    d = {k: delays.get(k, 0.0) for k in DEFAULT_DELAYS}
    if scheme == "ckc_craw":
        join = d["t_reauth"]
    else:
        join = d["t_auth_ordinary"] + d["t_keygen"] + d["t_keydist"]
    key_prep = 0.0 if scheme == "ckc_craw" else d["t_keygen"] + d["t_keydist"]
    auth = d["t_reauth"] if scheme == "ckc_craw" else d["t_auth_ordinary"]
    move = d["t_probe"] + auth + key_prep + d["t_reassoc"]
    return {"join": join, "leave": 0.0, "move": move}


class Roster:
    """Where every member is, and until when its last operation runs."""

    def __init__(self, areas: dict[str, list[str]], extra: list[str], latency: dict[str, float]):
        self.where: dict[str, str | None] = {m: a for a, ms in areas.items() for m in ms}
        self.where.update({m: None for m in extra})
        self.size = {a: len(ms) for a, ms in areas.items()}
        self.leaves = {a: 0 for a in areas}
        self.busy_until: dict[str, float] = {}
        self.latency = latency
        self.events: list[dict] = []

    def free(self, t: float, area: str | None) -> list[str]:
        """Members in ``area`` (None: absent) with no operation in flight at t."""
        return sorted(
            m for m, a in self.where.items()
            if a == area and self.busy_until.get(m, -1.0) < t
        )

    def join(self, t: float, member: str, area: str) -> None:
        self.events.append({"time": t, "op": "join", "member": member, "area": area})
        self.where[member] = area
        self.size[area] += 1
        self.busy_until[member] = t + self.latency["join"]

    def leave(self, t: float, member: str) -> None:
        area = self.where[member]
        self.events.append({"time": t, "op": "leave", "member": member, "area": area})
        self.where[member] = None
        self.size[area] -= 1
        self.leaves[area] += 1
        self.busy_until[member] = t

    def move(self, t: float, member: str, dst: str) -> None:
        src = self.where[member]
        self.events.append({"time": t, "op": "move", "member": member, "from": src, "to": dst})
        self.where[member] = dst
        self.size[src] -= 1
        self.size[dst] += 1
        self.leaves[src] += 1
        self.busy_until[member] = t + self.latency["move"]


def _areas(sizes: list[int], extra: int) -> tuple[dict[str, list[str]], list[str]]:
    areas = {f"A{a}": [f"a{a}m{i}" for i in range(n)] for a, n in enumerate(sizes)}
    return areas, [f"x{i}" for i in range(extra)]


def _doc(name: str, scheme: str, seed: int, roster: Roster, areas, extra, delays,
         frames: bool = False, horizon: float | None = None) -> dict:
    doc = {
        "schema_version": 1,
        "name": name,
        "seed": seed,
        "scheme": scheme,
        "group": "g1",
        "content_frames": frames,
        "delays": delays,
        "areas": areas,
        "members": extra,
        "events": roster.events,
    }
    if horizon is not None:
        doc["horizon"] = horizon
    return doc


def churn_doc(name: str, scheme: str, seed: int, sizes: list[int], ops: int,
              extra: int, band: int, cycle: tuple[str, ...] = ("join", "leave", "move")) -> dict:
    """Operations one second apart under zero delays, their kinds following
    ``cycle`` (the next legal kind in the cycle when one is not legal), so
    the mix of kinds does not depend on the seed.

    Every present member is equally likely to leave or move, and joins pick
    areas in proportion to their initial size, so each area sees operations
    in proportion to its size.  Each area's population stays within
    ``band`` members, or an eighth, of its initial size.  Both keep the cost
    per operation nearly independent of the seed.
    """
    rng = Random(seed)
    areas, pool = _areas(sizes, extra)
    roster = Roster(areas, pool, op_latency(scheme, ZERO_DELAYS))
    target = dict(zip(areas, sizes))
    slack = {a: max(band, n // 8) for a, n in target.items()}
    cap = CKC_AREA_CAP if scheme.startswith("ckc") else None
    if cap is not None and any(target[a] + slack[a] > cap for a in areas):
        raise ValueError(f"{name}: CKC areas must stay at or below {cap} members")
    for step in range(ops):
        t = float(step + 1)
        growable = [a for a in areas if roster.size[a] < target[a] + slack[a]]
        shrinkable = [
            a for a in areas
            if roster.size[a] > target[a] - slack[a] and roster.leaves[a] < LEAVE_CAP
            and roster.free(t, a)
        ]
        absent = roster.free(t, None)
        legal = {
            "join": bool(absent and growable),
            "leave": bool(shrinkable),
            "move": any(set(growable) - {a} for a in shrinkable),
        }
        at = step % len(cycle)
        kind = next(k for k in cycle[at:] + cycle[:at] if legal[k])
        if kind == "join":
            area = rng.choices(growable, weights=[target[a] for a in growable])[0]
            roster.join(t, rng.choice(absent), area)
        elif kind == "leave":
            roster.leave(t, rng.choice([m for a in shrinkable for m in roster.free(t, a)]))
        else:
            member = rng.choice([
                m for a in shrinkable if set(growable) - {a} for m in roster.free(t, a)
            ])
            others = sorted(set(growable) - {roster.where[member]})
            roster.move(t, member, rng.choices(others, weights=[target[a] for a in others])[0])
    return _doc(name, scheme, seed, roster, areas, pool, dict(ZERO_DELAYS))


def handoff_doc(name: str, seed: int) -> dict:
    """Content frames every 10 ms over two areas of 64 members, with eight
    cycles of move, leave, move, join under the default timing model.

    Each operation is dispatched so that its re-keying lands on a grid
    1.25 s apart, from 2 s on, so every gap between re-keying events carries
    the same amount of frame traffic whatever the seed.
    """
    scheme = "ckc_plain"
    cycles, first, spacing = 8, 2.0, 1.25
    rng = Random(seed)
    areas, pool = _areas([64, 64], cycles)
    latency = op_latency(scheme, DEFAULT_DELAYS)
    roster = Roster(areas, pool, latency)
    pattern = ["move", "leave", "move", "join"] * cycles
    for i, kind in enumerate(pattern):
        t = round(first + i * spacing - latency[kind], 6)
        if kind == "join":
            roster.join(t, rng.choice(roster.free(t, None)), min(areas, key=roster.size.get))
        elif kind == "leave":
            area = max(areas, key=roster.size.get)
            roster.leave(t, rng.choice(roster.free(t, area)))
        else:
            src = rng.choice(sorted(areas))
            dst = next(a for a in areas if a != src)
            roster.move(t, rng.choice(roster.free(t, src)), dst)
    horizon = first + len(pattern) * spacing
    return _doc(name, scheme, seed, roster, areas, pool, dict(DEFAULT_DELAYS),
                frames=True, horizon=horizon)


@dataclass(frozen=True)
class Workload:
    build: Callable[[int], dict]  # workload seed -> scenario document
    audit: bool  # run check_secrecy on the finished recorder


WORKLOADS = {
    "ckc_churn": Workload(
        lambda s: churn_doc("ckc_churn", "ckc_craw", s, [96] * 4, 800, 64, 8), audit=False
    ),
    "lkh_bootstrap": Workload(
        # twice as many leaves as joins puts the median gap inside the cluster
        # of leaves from the large area rather than between leaves and joins
        lambda s: churn_doc(
            "lkh_bootstrap", "lkh", s, [512, 32], 96, 16, 8, cycle=("leave", "leave", "join", "move")
        ),
        audit=False,
    ),
    "frames_handoff": Workload(lambda s: handoff_doc("frames_handoff", s), audit=False),
    "audit_ckc": Workload(
        lambda s: churn_doc("audit_ckc", "ckc_craw", s, [32] * 3, 96, 16, 6), audit=True
    ),
}
