"""Group entities: the main list, area wireless servers, and mobile members.

The main server's whole state is one ``MainList`` for its one multicast
group, keyed by member id: registration, auth material, status and
billing.  It answers authentication lookups, and it is the one record of
where each member is.  Each area wireless server owns one key tree, holds
the key view of every member present in it, and re-keys both as members
come and go.  Mobile members hold only their credential.  Everything here
is pure state transformation; the simulator layers timing, traces, and
metrics on top.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .tree import MemberKeyView, Rekey, WireMessage

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
    status: str = STATUS_REGISTERED
    last_area: str | None = None
    service_accounting: int = 0
    last_update: int = 0
    auth: AuthRecord | None = None  # one-time-password verifier state
    credential: bytes | None = None  # ordinary shared credential

    def to_doc(self, group_id: str, fmt_time) -> dict:
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
            "group": group_id,
            "status": self.status,
            "last_area": self.last_area,
            "service_accounting": self.service_accounting,
            "last_update": fmt_time(self.last_update),
            "auth": material,
        }


class MainList:
    """The main server's subscriber list for its one multicast group, keyed
    by member id: auth material, status, location and billing."""

    def __init__(self, group_id: str):
        self.group_id = group_id
        self.entries: dict[str, MainListEntry] = {}

    def register(self, member: MobileMember) -> MainListEntry:
        """Enrol a member: its first one-time-password verifier when it has
        a secret, its credential otherwise."""
        if member.member_id in self.entries:
            raise ProtocolError(f"{member.member_id} already registered for {self.group_id}")
        if member.secret is not None:
            entry = MainListEntry(member.member_id, auth=otp_register(member.secret))
        else:
            entry = MainListEntry(member.member_id, credential=member.credential)
        self.entries[member.member_id] = entry
        return entry

    def lookup(self, member_id: str) -> MainListEntry | None:
        return self.entries.get(member_id)

    def area_of(self, member_id: str) -> str | None:
        """The area a member is keyed in: its last area while active or
        moving, None otherwise."""
        entry = self.lookup(member_id)
        if entry is None or entry.status not in (STATUS_ACTIVE, STATUS_MOVING):
            return None
        return entry.last_area

    def advance(
        self, member_id: str, status: str, time: int, last_area: str | None = None
    ) -> MainListEntry:
        entry = self.lookup(member_id)
        if entry is None:
            raise ProtocolError(f"{member_id} is not registered for {self.group_id}")
        if status not in _TRANSITIONS.get(entry.status, set()):
            raise ProtocolError(
                f"illegal status transition {entry.status} -> {status} for {member_id}"
            )
        entry.status = status
        entry.last_update = time
        if last_area is not None:
            entry.last_area = last_area
        return entry

    def credit(self, member_id: str) -> None:
        """Bill one delivered frame."""
        entry = self.entries.get(member_id)  # lookup inlined: runs per frame delivery
        if entry is None:
            raise ProtocolError(f"cannot bill unknown member {member_id}")
        entry.service_accounting += 1

    def to_doc(self, fmt_time) -> list[dict]:
        return [self.entries[m].to_doc(self.group_id, fmt_time) for m in sorted(self.entries)]


@dataclass
class MobileMember:
    member_id: str
    secret: ClientSecret | None = None  # set in one-time-password deployments
    credential: bytes | None = None  # set in ordinary-auth deployments
    busy: bool = False  # a join/leave/move is in flight


@dataclass(frozen=True)
class AuthAttempt:
    accepted: bool
    individual_key: bytes | None
    detail: str  # short description for traces


def run_auth(mainlist: MainList, member: MobileMember, rng: Random) -> AuthAttempt:
    """One authentication exchange against the main list.

    With a one-time password the challenge both proves possession and pins
    the next session; the individual key falls out of the accepted value.
    Ordinary deployments compare a registered credential and mint a fresh
    key server-side.
    """
    entry = mainlist.lookup(member.member_id)
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


class AreaState:
    """One wireless area: the serving key tree plus the key view of each
    member keyed in it, by member id.

    ``join``/``leave`` re-key the tree through the scheme, run every present
    member's local update exactly as a real client would (decrypting the
    actual payloads), and pass the scheme's ``Rekey`` on unchanged.
    """

    def __init__(self, area_id: str, scheme: str, rng: Random):
        if scheme not in SCHEMES:
            raise ProtocolError(f"unknown scheme {scheme!r}")
        self.area_id = area_id
        self.scheme = scheme
        self.rng = rng
        self.tree = (LkhTree if scheme == "lkh" else CkcTree).new(rng)
        self.views: dict[str, MemberKeyView] = {}

    def size(self) -> int:
        return len(self.views)

    def group_key(self) -> bytes:
        return self.tree.group_key()

    def join(self, member_id: str, individual_key: bytes) -> Rekey:
        if self.scheme == "lkh":
            res = lkh_join(self.tree, member_id, individual_key, self.rng)
            for view in self.views.values():
                lkh_member_refresh_join(view, res.notice, res.multicasts)
            joiner = build_lkh_joiner_view(
                member_id, individual_key, res.unicasts, res.notice.leaf, res.notice.epoch
            )
        else:
            res = ckc_join(
                self.tree,
                member_id,
                individual_key,
                self.rng,
                count_individual_key=AUTH_MODES[self.scheme] == "ordinary",
            )
            for view in self.views.values():
                ckc_member_refresh_join(view, res.notice)
            (unicast,) = res.unicasts[0].payloads
            plaintext = decrypt(individual_key, unicast.ciphertext)
            joiner = build_joiner_view(member_id, individual_key, plaintext, res.notice)
        self.views[member_id] = joiner
        return res

    def hand_out(self, member_id: str, individual_key: bytes) -> list[WireMessage]:
        """Deliver a member already seated on ``tree`` its whole root path in
        one unicast chain under its individual key, and open its view from
        it.  The t=0 rosters are keyed in one batch: every member is seated
        with ``tree.seat`` (no view refreshed, no payload built), then
        ``hand_out`` gives each its view; the area is consistent again once
        all have one."""
        leaf = self.tree.leaves[member_id]
        chain = root_path_chain(self.tree, leaf)
        self.views[member_id] = build_lkh_joiner_view(
            member_id, individual_key, chain, leaf, self.tree.epoch
        )
        return chain

    def leave(self, member_id: str) -> Rekey:
        if self.scheme == "lkh":
            res = lkh_leave(self.tree, member_id, self.rng)
            refresh = lkh_member_refresh_leave
        else:
            res = ckc_leave(self.tree, member_id, self.rng)
            refresh = ckc_member_refresh_leave
        del self.views[member_id]
        for view in self.views.values():
            refresh(view, res.notice, res.multicasts)
        return res

    def consistent(self) -> bool:
        """Every present member's view matches the server tree exactly."""
        if self.tree.member_count() != len(self.views):
            return False
        return all(self.tree.view_matches(view) for view in self.views.values())
