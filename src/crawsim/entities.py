"""Group entities: the main list, area wireless servers, and mobile members.

The main server's whole state is one ``MainList`` for its one multicast
group, keyed by member id: registration, auth material, status and
billing.  It answers authentication lookups, and it is the one record of
where each member is.  Each area wireless server owns one key tree, holds
the key view of every member present in it, and re-keys both as members
come and go, handing each event's ``Rekey`` to all of its members in one
refresh pass.  Mobile members hold only their credential.  Everything
here is pure state transformation; the simulator layers timing, traces,
and metrics on top.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from random import Random

from .ckc import (
    CkcTree,
    build_joiner_view,
    ckc_join,
    ckc_leave,
    ckc_member_refresh_join,
    ckc_member_refresh_leave,
    joiner_unicasts,
)
# decrypt is unused here, but the bench tracer wraps entities.decrypt by name
from .crypto import ProtocolError, decrypt, fingerprint, random_key  # noqa: F401
from .lkh import (
    LkhTree,
    build_lkh_joiner_view,
    lkh_join,
    lkh_leave,
    lkh_member_refresh_join,
    lkh_member_refresh_leave,
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
    auth: AuthRecord | bytes  # the otp verifier state, or the shared credential
    status: str = STATUS_REGISTERED
    last_area: str | None = None
    service_accounting: int = 0
    last_update: int = 0

    def to_doc(self, group_id: str, fmt_time) -> dict:
        if isinstance(self.auth, AuthRecord):
            material = {
                "kind": "otp",
                "session_index": self.auth.session_index,
                "verifier": fingerprint(self.auth.stored_hash),
            }
        else:
            material = {"kind": "credential", "tag": fingerprint(self.auth)}
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
        """Enrol a member: the first one-time-password verifier of its
        secret, or its shared credential."""
        if member.member_id in self.entries:
            raise ProtocolError(f"{member.member_id} already registered for {self.group_id}")
        credential = member.credential
        auth = otp_register(credential) if isinstance(credential, ClientSecret) else credential
        entry = self.entries[member.member_id] = MainListEntry(member.member_id, auth)
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

    def credit(self, member_ids: Iterable[str], frames: int) -> None:
        """Bill ``frames`` delivered frames to each member, or refuse the
        whole bill when ``frames`` is not a positive int or any id is
        unknown."""
        if isinstance(member_ids, str):  # iterable too, one character at a time
            raise ProtocolError(f"credit takes a collection of member ids, not the string {member_ids!r}")
        if isinstance(frames, bool) or not isinstance(frames, int) or frames < 1:
            raise ProtocolError(f"credit bills a positive whole number of frames, not {frames!r}")
        try:
            billed = [self.entries[m] for m in member_ids]
        except KeyError as exc:
            raise ProtocolError(f"cannot bill unknown member {exc.args[0]}") from None
        for entry in billed:
            entry.service_accounting += frames

    def to_doc(self, fmt_time) -> list[dict]:
        return [self.entries[m].to_doc(self.group_id, fmt_time) for m in sorted(self.entries)]


@dataclass
class MobileMember:
    member_id: str
    credential: ClientSecret | bytes  # the otp secret, or the shared key
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
    credential = member.credential
    if isinstance(credential, ClientSecret):
        challenge = make_challenge(credential, rng)
        detail = fingerprint(challenge.wire().encode("ascii"))
        enrolled = entry is not None and isinstance(entry.auth, AuthRecord)
        outcome = verify(entry.auth, challenge) if enrolled else None
        if outcome is None or not outcome.accepted:
            credential.discard_pending()
            return AuthAttempt(False, None, detail)
        entry.auth = outcome.record
        credential.confirm_success()
        return AuthAttempt(True, outcome.individual_key, detail)
    ok = entry is not None and credential == entry.auth
    return AuthAttempt(ok, random_key(rng) if ok else None, fingerprint(credential))


class AreaState:
    """One wireless area: the serving key tree plus the key view of each
    member keyed in it, by member id.

    ``join``/``leave`` re-key the tree through the scheme, hand the
    scheme's ``Rekey`` with every present member's view to the scheme's
    one refresh pass, which opens the actual payloads exactly as a real
    client would, and pass it on.  A joiner opens its own view from the
    event's unicasts; under ordinary auth the join also counts the
    individual key the server minted.
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
            refresh, joiner_view = lkh_member_refresh_join, build_lkh_joiner_view
        else:
            res = ckc_join(self.tree, member_id, individual_key, self.rng)
            refresh, joiner_view = ckc_member_refresh_join, build_joiner_view
        if AUTH_MODES[self.scheme] == "ordinary":
            res.key_generations += 1  # the server minted the individual key
        refresh(self.views.values(), res)
        notice = res.notice
        self.views[member_id] = joiner_view(
            member_id, individual_key, res.unicasts, notice.leaf, notice.epoch
        )
        return res

    def hand_out(self, member_id: str, individual_key: bytes) -> list[WireMessage]:
        """Deliver a member already seated on ``tree`` its whole root path in
        the CKC join unicast under its individual key, under every scheme,
        and open its view from it.  The t=0 rosters are keyed in one batch:
        every member is seated with ``tree.seat`` (no view refreshed, no
        payload built), then ``hand_out`` gives each its view; the area is
        consistent again once all have one."""
        leaf = self.tree.leaves[member_id]
        unicasts = joiner_unicasts(self.tree, leaf)
        self.views[member_id] = build_joiner_view(
            member_id, individual_key, unicasts, leaf, self.tree.epoch
        )
        return unicasts

    def leave(self, member_id: str) -> Rekey:
        if self.scheme == "lkh":
            res, refresh = lkh_leave(self.tree, member_id, self.rng), lkh_member_refresh_leave
        else:
            res, refresh = ckc_leave(self.tree, member_id, self.rng), ckc_member_refresh_leave
        del self.views[member_id]
        refresh(self.views.values(), res)
        return res

    def consistent(self) -> bool:
        """Every present member's view matches the server tree exactly, and
        the tree's placement index matches its leaves."""
        if self.tree.member_count() != len(self.views) or not self.tree.index_matches():
            return False
        return all(self.tree.view_matches(view) for view in self.views.values())
