"""Group entities: main server subscriber list, area wireless servers, and
mobile members.

The main server owns the subscriber list (registration, status, billing) and
answers authentication lookups.  Each area wireless server owns one key tree
and re-keys it as members come and go.  Mobile members hold their credential
and a per-area key view.  Everything here is pure state transformation; the
simulator layers timing, traces, and metrics on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random

from .ckc import (
    CkcTree,
    build_joiner_view,
    ckc_join,
    ckc_leave,
    ckc_member_refresh_join,
    ckc_member_refresh_leave,
)
from .crypto import ProtocolError, decrypt, fingerprint, random_key
from .lkh import (
    LkhTree,
    build_lkh_joiner_view,
    lkh_join,
    lkh_leave,
    lkh_member_refresh_join,
    lkh_member_refresh_leave,
    root_path_chain,
)
from .otp import AuthRecord, ClientSecret, make_challenge, verify
from .otp import register as otp_register
from .tree import MemberKeyView, RekeyCounters, WireMessage

# each scheme's auth mode: under "otp" the individual key falls out of the
# accepted one-time password; under "ordinary" the server mints it
AUTH_MODES = {"ckc_craw": "otp", "ckc_plain": "ordinary", "lkh": "ordinary"}
SCHEMES = tuple(AUTH_MODES)

STATUS_REGISTERED = "registered"
STATUS_ACTIVE = "active"
STATUS_MOVING = "moving"
STATUS_LEFT = "left"

_TRANSITIONS = {
    STATUS_REGISTERED: {STATUS_ACTIVE},
    STATUS_ACTIVE: {STATUS_MOVING, STATUS_LEFT},
    STATUS_MOVING: {STATUS_ACTIVE},
    STATUS_LEFT: {STATUS_ACTIVE},
}

MESSAGE_KINDS = frozenset(
    {
        "igmp_connect",
        "join_request",
        "auth_challenge",
        "auth_result",
        "key_unicast",
        "key_multicast",
        "leave_request",
        "handoff_leave",
        "handoff_join",
        "area_join_ack",
        "mainlist_query",
        "mainlist_update",
        "content_frame",
    }
)


@dataclass(frozen=True)
class ProtocolMessage:
    time: int  # ticks
    kind: str
    src: str
    dst: str
    info: str = "-"

    def __post_init__(self):
        if self.kind not in MESSAGE_KINDS:
            raise ProtocolError(f"unknown message kind {self.kind!r}")


@dataclass
class MainListEntry:
    member_id: str
    group_id: str
    status: str = STATUS_REGISTERED
    last_area: str | None = None
    service_accounting: int = 0
    last_update: int = 0
    auth: AuthRecord | None = None  # one-time-password verifier state
    credential: bytes | None = None  # ordinary shared credential

    def to_doc(self, fmt_time) -> dict:
        if self.auth is not None:
            material = {
                "kind": "otp",
                "session_index": self.auth.session_index,
                "verifier": fingerprint(self.auth.stored_hash),
            }
        else:
            material = {
                "kind": "credential",
                "tag": fingerprint(self.credential or b""),
            }
        return {
            "member": self.member_id,
            "group": self.group_id,
            "status": self.status,
            "last_area": self.last_area,
            "service_accounting": self.service_accounting,
            "last_update": fmt_time(self.last_update),
            "auth": material,
        }


class MainList:
    """The subscriber table held by the main server."""

    def __init__(self):
        self.entries: dict[tuple[str, str], MainListEntry] = {}

    def register(self, entry: MainListEntry) -> None:
        key = (entry.member_id, entry.group_id)
        if key in self.entries:
            raise ProtocolError(f"{entry.member_id} already registered for {entry.group_id}")
        self.entries[key] = entry

    def lookup(self, member_id: str, group_id: str) -> MainListEntry | None:
        return self.entries.get((member_id, group_id))

    def advance(
        self,
        member_id: str,
        group_id: str,
        status: str,
        time: int,
        last_area: str | None = None,
    ) -> MainListEntry:
        entry = self.lookup(member_id, group_id)
        if entry is None:
            raise ProtocolError(f"{member_id} is not registered for {group_id}")
        if status not in _TRANSITIONS.get(entry.status, set()):
            raise ProtocolError(
                f"illegal status transition {entry.status} -> {status} for {member_id}"
            )
        entry.status = status
        entry.last_update = time
        if last_area is not None:
            entry.last_area = last_area
        return entry

    def credit(self, member_id: str, group_id: str, units: int = 1) -> None:
        entry = self.lookup(member_id, group_id)
        if entry is None:
            raise ProtocolError(f"cannot bill unknown member {member_id}")
        if units < 0:
            raise ProtocolError("accounting can only increase")
        entry.service_accounting += units

    def to_doc(self, fmt_time) -> list[dict]:
        return [
            self.entries[k].to_doc(fmt_time) for k in sorted(self.entries)
        ]


class MainServer:
    """Owns the main list for one multicast group."""

    def __init__(self, group_id: str):
        self.group_id = group_id
        self.mainlist = MainList()

    def register_otp(self, secret: ClientSecret) -> MainListEntry:
        entry = MainListEntry(
            secret.member_id, self.group_id, auth=otp_register(secret)
        )
        self.mainlist.register(entry)
        return entry

    def register_credential(self, member_id: str, credential: bytes) -> MainListEntry:
        entry = MainListEntry(member_id, self.group_id, credential=credential)
        self.mainlist.register(entry)
        return entry


@dataclass
class MobileMember:
    member_id: str
    secret: ClientSecret | None = None  # set in one-time-password deployments
    credential: bytes | None = None  # set in ordinary-auth deployments
    views: dict[str, MemberKeyView] = field(default_factory=dict)
    current_area: str | None = None
    busy: bool = False  # a join/leave/move is in flight
    delivered: int = 0
    decrypted: int = 0

    def group_key_for(self, area_id: str) -> bytes | None:
        view = self.views.get(area_id)
        return None if view is None else view.group_key()


@dataclass(frozen=True)
class AuthAttempt:
    accepted: bool
    individual_key: bytes | None
    detail: str  # short description for traces


def run_auth(main: MainServer, member: MobileMember, rng: Random) -> AuthAttempt:
    """One authentication exchange against the main list.

    With a one-time password the challenge both proves possession and pins
    the next session; the individual key falls out of the accepted value.
    Ordinary deployments compare a registered credential and mint a fresh
    key server-side.
    """
    entry = main.mainlist.lookup(member.member_id, main.group_id)
    if member.secret is not None:
        challenge = make_challenge(member.secret, rng)
        detail = fingerprint(challenge.wire().encode("ascii"))
        if entry is None or entry.auth is None:
            member.secret.discard_pending()
            return AuthAttempt(False, None, detail)
        outcome = verify(entry.auth, challenge)
        if not outcome.accepted:
            member.secret.discard_pending()
            return AuthAttempt(False, None, detail)
        entry.auth = outcome.record
        member.secret.confirm_success()
        return AuthAttempt(True, outcome.individual_key, detail)
    ok = (
        entry is not None
        and entry.credential is not None
        and member.credential == entry.credential
    )
    detail = fingerprint(member.credential or b"")
    return AuthAttempt(ok, random_key(rng) if ok else None, detail)


@dataclass
class RekeyOutcome:
    kind: str  # "join" or "leave"
    counters: RekeyCounters
    depth: int  # leaf depth of the joiner or leaver
    keys_produced: int  # server-minted keys for this event (cost metric)
    unicast_msgs: list[WireMessage]
    multicast_msgs: list[WireMessage]


class AreaState:
    """One wireless area: the serving key tree plus the members keyed in it.

    ``join``/``leave`` re-key the tree through the scheme, run every present
    member's local update exactly as a real client would (decrypting the
    actual payloads), and pass the scheme's wire messages on unchanged.
    """

    def __init__(self, area_id: str, scheme: str, rng: Random):
        if scheme not in SCHEMES:
            raise ProtocolError(f"unknown scheme {scheme!r}")
        self.area_id = area_id
        self.scheme = scheme
        self.rng = rng
        seed_key = random_key(rng)
        self.tree = LkhTree(seed_key) if scheme == "lkh" else CkcTree(seed_key)
        self.members: dict[str, MobileMember] = {}

    def size(self) -> int:
        return len(self.members)

    def group_key(self) -> bytes:
        return self.tree.group_key()

    def join(self, member: MobileMember, individual_key: bytes) -> RekeyOutcome:
        if self.scheme == "lkh":
            res = lkh_join(self.tree, member.member_id, individual_key, self.rng)
            for other in self.members.values():
                lkh_member_refresh_join(other.views[self.area_id], res.notice, res.multicasts)
            view = build_lkh_joiner_view(
                member.member_id, individual_key, res.unicasts,
                res.notice.joiner_leaf, res.notice.epoch,
            )
            keys_produced = res.counters.key_generations + 1  # plus the individual key
        else:
            res = ckc_join(
                self.tree,
                member.member_id,
                individual_key,
                self.rng,
                count_individual_key=AUTH_MODES[self.scheme] == "ordinary",
            )
            for other in self.members.values():
                ckc_member_refresh_join(other.views[self.area_id], res.notice)
            (unicast,) = res.unicasts[0].payloads
            plaintext = decrypt(individual_key, unicast.ciphertext)
            view = build_joiner_view(member.member_id, individual_key, plaintext, res.notice)
            keys_produced = res.counters.key_generations
        member.views[self.area_id] = view
        self.members[member.member_id] = member
        return RekeyOutcome(
            "join", res.counters, len(view.leaf) - 1, keys_produced, res.unicasts, res.multicasts
        )

    def seat(self, member: MobileMember, individual_key: bytes) -> None:
        """The server side of a join alone: place the member and re-key the
        tree, refreshing no view and building no payload.  The t=0 rosters
        are keyed in one batch: every member is seated, then ``hand_out``
        gives each its view; the area is consistent again once all have one."""
        self.tree.seat(member.member_id, individual_key, self.rng)
        self.members[member.member_id] = member

    def hand_out(self, member: MobileMember, individual_key: bytes) -> list[WireMessage]:
        """Deliver a seated member's whole root path in one unicast chain
        under its individual key, and open its view from it."""
        leaf = self.tree.leaves[member.member_id]
        chain = root_path_chain(self.tree, leaf)
        member.views[self.area_id] = build_lkh_joiner_view(
            member.member_id, individual_key, chain, leaf, self.tree.epoch
        )
        return chain

    def leave(self, member: MobileMember) -> RekeyOutcome:
        if member.member_id not in self.members:
            raise ProtocolError(f"{member.member_id} is not in area {self.area_id}")
        if self.scheme == "lkh":
            res = lkh_leave(self.tree, member.member_id, self.rng)
            refresh = lkh_member_refresh_leave
        else:
            res = ckc_leave(self.tree, member.member_id, self.rng)
            refresh = ckc_member_refresh_leave
        self.members.pop(member.member_id)
        member.views.pop(self.area_id)
        for other in self.members.values():
            refresh(other.views[self.area_id], res.notice, res.multicasts)
        depth = len(res.notice.leaver_code) - 1
        return RekeyOutcome("leave", res.counters, depth, depth, [], res.multicasts)

    def consistent(self) -> bool:
        """Every present member's view matches the server tree exactly."""
        if self.tree.member_count() != len(self.members):
            return False
        return all(self.tree.view_matches(m.views[self.area_id]) for m in self.members.values())
