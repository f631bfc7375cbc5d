"""Acceptance suite.

Twelve end-to-end criteria, one test per criterion, so ``pytest -v`` prints one
pass/fail line for each.  Expected values are recomputed independently inside
each test (closed-form counter tables, hand-derived message flows, direct
cryptographic recomputation) rather than read back from the code under test.
"""

from __future__ import annotations

import json
import random
import re
import time
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from crawsim.cli import main as cli_main
from crawsim.ckc import parent_code
from crawsim.crypto import DecryptionError, decrypt, fingerprint, hash_f, hash_f_xor, random_key, xor_bytes
from crawsim.ckc import CkcTree, ckc_join, ckc_leave, ckc_member_refresh_join, build_joiner_view
from crawsim.otp import ClientSecret, make_challenge, register, verify
from crawsim.scenario import load_scenario, validate_doc
from crawsim.secrecy import check_secrecy, operational_decrypt_check
from crawsim.sim import DelayConfig, Simulation, render_report, to_ticks

SCENARIOS = Path(__file__).parent.parent / "src" / "crawsim" / "scenarios"
GOLDEN = Path(__file__).parent / "golden"

ZERO_DELAYS = {
    "t_probe": 0.0,
    "t_reauth": 0.0,
    "t_reassoc": 0.0,
    "t_keygen": 0.0,
    "t_keydist": 0.0,
    "t_auth_ordinary": 0.0,
}


def run_bundled(name: str, scheme: str | None = None) -> Simulation:
    doc = json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))
    if scheme is not None:
        doc["scheme"] = scheme
    return Simulation(validate_doc(doc)).run()


def random_scenario(
    trial: int, scheme: str, *, full_size: bool = False, frames: bool = False,
    sizes: list[int] | None = None, n_ops: int | None = None,
):
    """A legal random op sequence: joins of absent members, leaves and moves
    of present ones.  Zero delays keep operations strictly ordered.  Area
    sizes and the op count are drawn unless given."""
    rng = random.Random(9000 + trial)
    if full_size:
        sizes, n_ops = [11, 11, 8], 10
    elif sizes is None:
        sizes = [rng.randint(2, 6) for _ in range(rng.randint(1, 3))]
    n_areas = len(sizes)
    areas = {
        f"R{a}": [f"m{a}x{i}" for i in range(sizes[a])] for a in range(n_areas)
    }
    extra = [f"w{i}" for i in range(rng.randint(1, 3))]
    location: dict[str, str | None] = {m: a for a, ms in areas.items() for m in ms}
    location.update({w: None for w in extra})
    events = []
    t = 1
    for _ in range(n_ops or rng.randint(4, 8)):
        present = sorted(m for m, a in location.items() if a is not None)
        absent = sorted(m for m, a in location.items() if a is None)
        ops = (["join"] if absent else []) + (["leave"] if present else [])
        if present and n_areas >= 2:
            ops.append("move")
        op = rng.choice(ops)
        if op == "join":
            m, a = rng.choice(absent), rng.choice(sorted(areas))
            events.append({"time": float(t), "op": "join", "member": m, "area": a})
            location[m] = a
        elif op == "leave":
            m = rng.choice(present)
            events.append({"time": float(t), "op": "leave", "member": m, "area": location[m]})
            location[m] = None
        else:
            m = rng.choice(present)
            src = location[m]
            dst = rng.choice(sorted(set(areas) - {src}))
            events.append({"time": float(t), "op": "move", "member": m, "from": src, "to": dst})
            location[m] = dst
        t += 1
    delays = dict(ZERO_DELAYS)
    if frames:
        delays["frame_interval"] = 0.25
    return validate_doc({
        "schema_version": 1,
        "name": f"rand{trial}",
        "seed": trial,
        "scheme": scheme,
        "group": "g1",
        "horizon": float(t + 1),
        "content_frames": frames,
        "delays": delays,
        "areas": areas,
        "members": extra,
        "events": events,
    })


def test_c01_rekey_counter_tables():
    """Per-event server counters match the closed-form table for group sizes
    4, 8, 16, and 32 under all three schemes."""
    depth = {4: 2, 8: 3, 16: 4, 32: 5}
    for scheme in ("ckc_craw", "ckc_plain", "lkh"):
        sim = run_bundled("tables", scheme)
        joins = [r for r in sim.ledger.events if r.kind == "join"]
        leaves = [r for r in sim.ledger.events if r.kind == "leave"]
        assert [r.size for r in joins] == [4, 8, 16, 32]
        assert [r.size for r in leaves] == [3, 7, 15, 31]
        for row in joins:
            k = depth[row.size]
            c = row.counters
            assert row.depth == k
            if scheme == "ckc_craw":
                expected = (1, 1, 1, 0)
            elif scheme == "ckc_plain":
                expected = (2, 1, 1, 0)
            else:
                expected = (k, 3 * k, k, k)
            assert (c.key_generations, c.encryptions, c.unicast_sends, c.multicast_sends) == expected
        for row in leaves:
            k = depth[row.size + 1]
            c = row.counters
            assert row.depth == k
            if scheme == "lkh":
                expected = (k - 1, 2 * k, 0, 2 * k)
            else:
                expected = (1, k, 0, k)
            assert (c.key_generations, c.encryptions, c.unicast_sends, c.multicast_sends) == expected


def test_c02_join_and_leave_walkthrough():
    """Join: one unicast carries f(old AK), the joiner's middle keys and its
    parent code; current members roll their middle keys locally from the
    previous values, and nothing is multicast.  Leave: one fresh random AK
    per cover node, covers are exactly the siblings along the leaver's path,
    and the leaver can open none of them."""
    rng = random.Random(77)
    tree = CkcTree.new(rng)
    iks: dict[str, bytes] = {}
    views = {}
    for mid in ("m1", "m2", "m3", "m4", "m5"):
        iks[mid] = random_key(rng)
        res = ckc_join(tree, mid, iks[mid], rng)
        for v in views.values():
            ckc_member_refresh_join(v, res.notice)
        plaintext = decrypt(iks[mid], res.unicasts[0].payloads[0].ciphertext)
        views[mid] = build_joiner_view(mid, iks[mid], plaintext, res.notice)

    ak_old = tree.group_key()
    before = dict(tree.nodes)
    iks["m6"] = random_key(rng)
    res = ckc_join(tree, "m6", iks["m6"], rng)
    plaintext = decrypt(iks["m6"], res.unicasts[0].payloads[0].ciphertext)
    ak_new = plaintext[:16]
    assert ak_new == hash_f(ak_old)  # forward move of the group key
    assert ak_new == tree.group_key()
    leaf = res.notice.leaf
    assert res.counters.multicast_sends == 0 and res.counters.unicast_sends == 1
    for v in views.values():
        ckc_member_refresh_join(v, res.notice)
    views["m6"] = build_joiner_view("m6", iks["m6"], plaintext, res.notice)

    # each middle key on the joiner's path rolls from its previous value
    # (the split position's is the occupant's individual key) under AK'; the
    # joiner gets them in its unicast, and no middle key is multicast
    middle = [leaf[:i] for i in range(2, len(leaf))]
    assert res.notice.affected_codes == middle
    assert before[parent_code(leaf)] in iks.values()
    rolled = [hash_f_xor(ak_new, before[code]) for code in middle]
    assert [tree.nodes[code] for code in middle] == rolled
    assert plaintext == ak_new + b"".join(rolled) + parent_code(leaf).encode("ascii")
    for v in views.values():
        assert tree.view_matches(v)

    # leave of m3: snapshot the pre-leave structure to derive the expected
    # cover set independently
    pre_nodes = dict(tree.nodes)
    leaver_leaf = tree.leaves["m3"]
    held_before = dict(views["m3"].keys)
    expected_cover = []
    for i in range(2, len(leaver_leaf) + 1):
        prefix = leaver_leaf[:i]
        siblings = [
            c for c in pre_nodes
            if len(c) == len(prefix) and c != prefix and parent_code(c) == parent_code(prefix)
        ]
        assert len(siblings) == 1
        expected_cover.append(siblings[0])
    ak_before = tree.group_key()
    res = ckc_leave(tree, "m3", rng)
    assert sorted(res.notice.cover_codes) == sorted(expected_cover)
    assert len(res.multicasts) == len(leaver_leaf) - 1  # one per level
    ak_after = tree.group_key()
    assert ak_after != hash_f(ak_before)  # fresh draw, not a forward move
    for msg in res.multicasts:
        (p,) = msg.payloads
        code, ct = p.under, p.ciphertext
        assert decrypt(pre_nodes[code], ct) == ak_after
        for key in list(held_before.values()) + [iks["m3"]]:
            with pytest.raises(DecryptionError):
                decrypt(key, ct)
    assert "m3" not in tree.leaves


def test_c03_otp_auth_soundness():
    """A thousand honest sessions authenticate and roll forward; replays,
    single-bit corruptions, and wrong passwords are rejected."""
    rng = random.Random(33)
    secret = ClientSecret("m", b"hunter2", rng)
    record = register(secret)
    seen_keys = set()
    for i in range(1000):
        ch = make_challenge(secret, rng)
        flip = 1 << (i % 8)
        bad_alpha = replace(ch, alpha=bytes([ch.alpha[0] ^ flip]) + ch.alpha[1:])
        assert not verify(record, bad_alpha).accepted
        bad_beta = replace(ch, beta=ch.beta[:-1] + bytes([ch.beta[-1] ^ flip]))
        assert not verify(record, bad_beta).accepted
        out = verify(record, ch)
        assert out.accepted
        assert out.record.session_index == i + 2
        seen_keys.add(out.individual_key)
        record = out.record
        secret.confirm_success()
        assert not verify(record, ch).accepted  # replay against the rolled state
    assert len(seen_keys) == 1000

    impostor = ClientSecret("m", b"hunter3", rng)
    for _ in range(100):
        ch = make_challenge(impostor, rng)
        assert not verify(record, ch).accepted
        impostor.discard_pending()


def test_c04_consistency_after_every_event():
    """After every re-keying event, in randomized runs across all schemes,
    each present member's locally refreshed view matches the server tree;
    at the end, a member's view is held by exactly its main-list area while
    it is active, and by no area otherwise."""
    schemes = ("ckc_craw", "ckc_plain", "lkh")
    checked = 0

    def hook(sim: Simulation, row) -> None:
        nonlocal checked
        assert sim.check_consistent(), f"inconsistent after event {row.event_id} in {sim.sc.name}"
        checked += 1

    for trial in range(60):
        sc = random_scenario(trial, schemes[trial % 3])
        sim = Simulation(sc, on_event=hook).run()
        assert not any(m.busy for m in sim.members.values())
        for member_id in sim.members:
            entry = sim.mainlist.lookup(member_id)
            holding = [a for a, area in sim.areas.items() if member_id in area.views]
            assert holding == ([entry.last_area] if entry.status == "active" else [])
    assert checked > 200


def test_c05_timing_model_exact():
    """Hand-off and join-setup latencies match the calibrated constants to
    the tick: 0.9460337, 0.0025170, 0.9392370, and a 0.9367200 delta."""
    d = DelayConfig()
    assert d.handoff_total() == to_ticks(0.9460337) == 9460337
    assert d.join_setup("otp") == to_ticks(0.0025170) == 25170
    assert d.join_setup("ordinary") == to_ticks(0.9392370) == 9392370
    assert d.join_setup_delta() == to_ticks(0.9367200) == 9367200

    sim = run_bundled("handoff")
    h = sim.ledger.handoffs[0]
    assert h.completed and h.total() == 9460337
    assert (h.probe, h.auth, h.key_prep, h.reassoc) == (195167, 25170, 0, 9240000)
    report = render_report(sim)
    assert "hand-off = probe + reauth + reassoc = 0.9460337" in report
    assert "total=0.9460337 completed" in report

    doc = json.loads((GOLDEN / "join.json").read_text(encoding="utf-8"))
    sim = Simulation(validate_doc(doc)).run()
    assert sim.ledger.setups[0].setup() == 25170
    doc = json.loads((GOLDEN / "join_ordinary.json").read_text(encoding="utf-8"))
    sim = Simulation(validate_doc(doc)).run()
    assert sim.ledger.setups[0].setup() == 9392370
    assert 9392370 - 25170 == 9367200


def test_c06_secrecy_over_randomized_runs():
    """A thousand randomized member sequences (up to 32 members, 3 areas,
    mixed joins/leaves/moves, all schemes): no member's derivation closure
    ever reaches a key that protects traffic outside its membership windows,
    and sampled real decryption attempts agree.  Budget: under 60 seconds."""
    schemes = ("ckc_craw", "ckc_plain", "lkh")
    started = time.monotonic()
    closure_violations = []
    operational_violations = []
    for trial in range(1000):
        full = trial % 100 == 99
        frames = trial % 25 == 24
        sc = random_scenario(trial, schemes[trial % 3], full_size=full, frames=frames)
        sim = Simulation(sc).run()
        closure_violations.extend(check_secrecy(sim.recorder))
        if trial % 50 == 49:
            operational_violations.extend(operational_decrypt_check(sim.recorder, max_attempts=1500))
    elapsed = time.monotonic() - started
    assert closure_violations == []
    assert operational_violations == []
    assert elapsed < 60.0, f"secrecy sweep took {elapsed:.1f}s"


def test_c07_cost_relation_across_schemes(tmp_path, capsys):
    """Join costs are 1 (one-time-password), 2 (plain), log2(n)+1 (lkh);
    leave costs agree across schemes; the compare command confirms it."""
    dirs = []
    for scheme in ("ckc_craw", "ckc_plain", "lkh"):
        out = tmp_path / scheme
        assert cli_main(["run", "tables", "--scheme", scheme, "--out", str(out)]) == 0
        dirs.append(str(out))
    capsys.readouterr()
    assert cli_main(["compare"] + dirs) == 0
    text = capsys.readouterr().out
    assert "cost relation holds" in text and "[violated]" not in text
    assert text.count("[ok]") == 8
    for n, k in ((4, 2), (8, 3), (16, 4), (32, 5)):
        assert f"join: ckc_craw=1 ckc_plain=2 lkh={k + 1} [ok]" in text
        assert f"leave: ckc_craw={k} ckc_plain={k} lkh={k} [ok]" in text

    report = (tmp_path / "ckc_craw" / "report.txt").read_text(encoding="utf-8")
    assert "cost=1" in report
    lkh_report = (tmp_path / "lkh" / "report.txt").read_text(encoding="utf-8")
    assert "size=32 cost=6" in lkh_report


def test_c08_mainlist_lifecycle_and_accounting():
    """One subscriber walks registered -> active -> moving -> active -> left
    -> active; accounting grows only while frames are delivered to it."""
    doc = {
        "schema_version": 1,
        "name": "lifecycle",
        "seed": 21,
        "scheme": "ckc_craw",
        "group": "g1",
        "horizon": 6.0,
        "content_frames": True,
        "delays": {"frame_interval": 0.25},
        "areas": {"A": ["u1", "u2", "u3"], "B": ["v1", "v2"]},
        "members": ["w1"],
        "events": [
            {"time": 1.0, "op": "join", "member": "w1", "area": "A"},
            {"time": 2.0, "op": "move", "member": "w1", "from": "A", "to": "B"},
            {"time": 4.0, "op": "leave", "member": "w1", "area": "B"},
            {"time": 5.0, "op": "join", "member": "w1", "area": "A"},
        ],
    }
    sim = Simulation(validate_doc(doc)).run()
    entry = sim.mainlist.lookup("w1")
    assert entry.status == "active" and entry.last_area == "A"
    trace = "\n".join(f"{m.kind} {m.src}->{m.dst} {m.info}" for m in sim.trace)
    updates = [ln for ln in trace.splitlines() if "member=w1 status=" in ln]
    statuses = [ln.rsplit("status=", 1)[1] for ln in updates]
    assert statuses == ["active", "moving", "active", "left", "active"]

    w1_frames = [fr for fr in sim.ledger.frames if fr.member == "w1"]
    assert entry.service_accounting == len(w1_frames)
    assert all(fr.decrypted for fr in w1_frames)
    n = len(w1_frames)
    assert f"  member=w1 delivered={n} decrypted={n}\n" in render_report(sim)
    join1 = to_ticks(1.0) + to_ticks(0.002517)
    move_done = to_ticks(2.0) + to_ticks(0.9460337)
    leave_at = to_ticks(4.0)
    join2 = to_ticks(5.0) + to_ticks(0.002517)
    for fr in w1_frames:
        in_a1 = join1 <= fr.time < leave_at and fr.area in ("A", "B")
        in_gap = move_done <= fr.time < leave_at and fr.area == "B"
        back = fr.time >= join2 and fr.area == "A"
        assert (in_a1 or in_gap or back)
    assert any(fr.time >= join2 for fr in w1_frames)  # credited again after rejoin
    assert not any(leave_at <= fr.time < join2 for fr in w1_frames)  # frozen while out


def test_c09_frame_continuity_across_handoff_and_after_leave():
    """The moving member decrypts every delivered frame straight through its
    hand-off; the departed member receives nothing afterwards and none of its
    keys can open later traffic."""
    sim = run_bundled("handoff")
    assert sum(fr.member == "u1" for fr in sim.ledger.frames) == 300
    assert all(fr.decrypted for fr in sim.ledger.frames)
    move_done = to_ticks(1.0) + to_ticks(0.9460337)
    areas = {fr.area for fr in sim.ledger.frames if fr.member == "u1" and fr.time > move_done}
    assert areas == {"B"}
    assert check_secrecy(sim.recorder) == []

    sim = run_bundled("departed")
    leave_at = to_ticks(1.0)
    u8_frames = [fr for fr in sim.ledger.frames if fr.member == "u8"]
    assert len(u8_frames) == 99 and all(fr.decrypted for fr in u8_frames)
    assert all(fr.time < leave_at for fr in u8_frames)
    held = sim.recorder.knowledge["u8"]
    later = [
        rec for rec in sim.recorder.ciphertexts
        if rec.kind == "content_frame" and rec.time >= leave_at
    ]
    assert len(later) == 101  # frames at 1.00 .. 2.00 keep flowing for the rest
    for rec in later:
        for key in held:
            with pytest.raises(DecryptionError):
                decrypt(key, rec.ciphertext)
    assert check_secrecy(sim.recorder) == []
    assert operational_decrypt_check(sim.recorder) == []


def test_c10_golden_message_flows():
    """Each operation emits exactly the committed kind sequence, byte for
    byte: join (8 messages), ordinary-auth join (9), leave (6), hand-off (13)."""
    for name in ("join", "join_ordinary", "leave", "move"):
        doc = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
        sim = Simulation(validate_doc(doc)).run()
        produced = "".join(f"{m.kind}\n" for m in sim.trace)
        expected = (GOLDEN / f"{name}.kinds").read_text(encoding="utf-8")
        assert produced == expected, f"{name} flow diverged"
    assert len((GOLDEN / "move.kinds").read_text(encoding="utf-8").splitlines()) == 13


def test_c11_secrecy_audit_at_256_members():
    """The audit checks a 256-member ckc_craw churn (two areas of 128, 48
    joins/leaves/moves, content frames) within 3 seconds, finds it clean,
    and flags a leaver that kept a post-leave group key, naming the path by
    which it derives the next one."""
    sc = random_scenario(0, "ckc_craw", sizes=[128, 128], n_ops=48, frames=True)
    rows = []
    sim = Simulation(
        sc, on_event=lambda s, row: rows.append((row, s.areas[row.area].tree.group_key()))
    ).run()
    started = time.perf_counter()
    assert check_secrecy(sim.recorder) == []
    elapsed = time.perf_counter() - started
    assert elapsed < 3.0, f"audit took {elapsed:.2f}s"

    # a leave whose area's next event is a join: the join refreshes the
    # group key in place as f(AK), so the leaver derives it in one step
    for i, (row, key) in enumerate(rows):
        nxt = next((r for r, _ in rows[i + 1:] if r.area == row.area), None)
        if row.kind == "leave" and nxt is not None and nxt.kind.endswith("join"):
            leaver, ak = row.member, key
            break
    sim.recorder.note_knowledge(leaver, [ak])
    violations = check_secrecy(sim.recorder)
    assert violations and all(v.startswith(f"{leaver} can derive the key of a content_frame") for v in violations)
    derived = f" via held {fingerprint(ak)} -> (f, {fingerprint(hash_f(ak))})"
    assert any(v.endswith(derived) for v in violations)


def _departed_attack(sim: Simulation) -> int:
    """How many ciphertexts a departed member opens.  It holds every key it
    was given, and it reads only public run data: the codes in the trace's
    ``code=``/``leaf=``/``label=`` fields and their prefixes, each area's
    index (sorted order) and the count of leaves so far.  For each area it
    left, it hashes f(k), f(k xor k') over pairs of its keys, and the
    paper's f(k xor code string), where the string is the area's 3-digit
    namespace, a generation tag per leave so far and a code, right-aligned
    in 16 zero octets.  Then it trial-decrypts every ciphertext outside its
    windows that was sent after it left that area."""
    rec = sim.recorder
    index = {area: i for i, area in enumerate(sorted(sim.sc.areas))}
    codes: dict[str, set[str]] = {area: set() for area in index}
    for msg in sim.trace:
        if msg.kind in ("key_unicast", "key_multicast"):
            for code in re.findall(r"\b(?:code|leaf|label)=(\d+)", msg.info):
                codes[msg.src].update(code[:i] for i in range(1, len(code) + 1))
    leave_times = [(r.area, r.time) for r in sim.ledger.events if r.kind in ("leave", "move_leave")]
    opened = 0
    for member, wins in rec.windows.items():
        held = sorted(rec.knowledge[member])
        derived = {hash_f(k) for k in held} | {hash_f(xor_bytes(a, b)) for a, b in combinations(held, 2)}

        def outside(ct) -> bool:
            return ct.target != member and not any(
                w.area == ct.area and w.start <= ct.time and (w.end is None or ct.time < w.end)
                for w in wins
            )

        for left in (w for w in wins if w.end is not None):
            targets = [
                ct for ct in rec.ciphertexts
                if ct.area == left.area and ct.time >= left.end and outside(ct)
            ]
            if not targets:
                continue
            generations = sum(a == left.area and t <= targets[-1].time for a, t in leave_times)
            strings = [
                f"{index[left.area]:03d}" + ("" if g == 0 else f"0{g:03d}") + code
                for g in range(generations + 1)
                for code in codes[left.area]
            ]
            pads = [s.encode("ascii").rjust(16, b"\0") for s in strings if len(s) <= 16]
            candidates = set(held) | derived | {hash_f(xor_bytes(k, p)) for k in held for p in pads}
            for ct in targets:
                for key in candidates:
                    try:
                        decrypt(key, ct.ciphertext)
                    except DecryptionError:
                        continue
                    opened += 1
                    break
    return opened


def test_c12_departed_member_opens_nothing_with_public_codes():
    """Codes are public, and the paper's f(AK xor code) let a departed
    member derive later keys from one it kept.  Under every scheme, in ten
    random runs, the departed members' derivation attack
    (``_departed_attack``) opens no ciphertext.  Budget: 3 seconds."""
    started = time.monotonic()
    opened = {
        scheme: [_departed_attack(Simulation(random_scenario(trial, scheme)).run()) for trial in range(10)]
        for scheme in ("ckc_craw", "ckc_plain", "lkh")
    }
    elapsed = time.monotonic() - started
    assert opened == {scheme: [0] * 10 for scheme in opened}
    assert elapsed < 3.0, f"attack took {elapsed:.1f}s"
