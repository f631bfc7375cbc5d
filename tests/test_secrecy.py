"""Unit tests for the knowledge-closure audit."""

import random

import pytest

from crawsim.crypto import encrypt, fingerprint, hash_f, hash_f_xor, random_key, xor_bytes
from crawsim.secrecy import (
    CipherRecord,
    RunRecorder,
    _RecordedEdges,
    check_secrecy,
    closure,
    derivation_edges,
)
from crawsim.scenario import validate_doc
from crawsim.sim import Simulation
from oracles import operational_decrypt_check
from test_acceptance import ZERO_DELAYS, random_scenario


def eager_audit(rec: RunRecorder, edges=None) -> list[tuple[str, list]]:
    """The audit from first principles, kept as the reference: every edge
    of the key universe under f and under f(a xor b) for every pair, each
    member's closure over them, then a scan of every ciphertext.  One
    (message, [held key, (other premise or None, key)...] along the
    closure's path to the ciphertext's key) per violation.  ``edges``: the
    universe's ``derivation_edges``, when the caller has them.  Events of
    one tick are ordered as recorded: a ciphertext at (tick, position) is
    in a window when it falls in [(start, opened), (end, closed))."""
    if edges is None:
        edges = derivation_edges(rec.key_universe)
    found = []
    for member, known in rec.knowledge.items():
        parent = {}
        reach = closure(known, edges, parent)
        wins = rec.windows.get(member, [])
        for position, ct in enumerate(rec.ciphertexts):
            at = (ct.time, position)
            legal = ct.target == member or any(
                w.area == ct.area
                and (w.start, w.opened) <= at
                and (w.end is None or at < (w.end, w.closed))
                for w in wins
            )
            if ct.enc_key in reach and not legal:
                key, steps = ct.enc_key, []
                while key in parent:
                    other, prev = parent[key]
                    steps.insert(0, (other, key))
                    key = prev
                message = f"{member} can derive the key of a {ct.kind} in {ct.area} at t={ct.time}"
                found.append((message, [key, *steps]))
    return found


def replay(rec: RunRecorder, violation: str) -> tuple[str, list]:
    """Re-hash a violation's derivation path from the member's held key;
    returns the message before the path and the path as ``eager_audit``
    gives it.  A pair step's other premise must be held or derived
    earlier on the path."""
    message, path = violation.split(" via held ")
    member = message.split(" ", 1)[0]
    by_print = {fingerprint(k): k for k in rec.key_universe | rec.knowledge[member]}
    start, *steps = path.split(" -> ")
    key = by_print[start]
    out = [key]
    for step in steps:
        how, printed = step.strip("()").split(", ")
        if how == "f":
            other, key = None, hash_f(key)
        else:
            other = by_print[how.removeprefix("xor ")]
            key = hash_f_xor(key, other)
        assert fingerprint(key) == printed
        out.append((other, key))
    return message, out


def assert_matches_eager(rec: RunRecorder, edges=None) -> list[str]:
    """Audit ``rec``: the messages must be the reference's, in order, and
    each path must re-hash, step by step, to the reference's path."""
    violations = check_secrecy(rec)
    assert [replay(rec, v) for v in violations] == eager_audit(rec, edges)
    return violations


def test_closure_follows_multi_hop_derivations():
    k, j = bytes(16), bytes(range(16))
    k1 = hash_f(k)
    k2 = hash_f_xor(k1, j)
    universe = {k, j, k1, k2}
    assert closure({k, j}, derivation_edges(universe)) == universe


def test_closure_pruned_to_universe():
    k, j = bytes(16), bytes(range(16))
    # f(k) is a real hash image but not a protocol key, so it must not
    # appear, and no pair edge may fire through it
    outside = hash_f(k)
    universe = {k, j, hash_f_xor(k, j), hash_f_xor(outside, j)}
    reached = closure({k, j}, derivation_edges(universe))
    assert outside not in reached
    assert reached == universe - {hash_f_xor(outside, j)}


def test_pair_edge_needs_both_premises():
    rng = random.Random(3)
    a, b = random_key(rng), random_key(rng)
    c = hash_f_xor(a, b)
    edges = derivation_edges({a, b, c})
    assert closure({a}, edges) == {a}
    assert closure({b}, edges) == {b}
    assert c in closure({a, b}, edges)


def test_pair_edge_fires_at_whichever_premise_is_reached_last():
    # the walk from a reaches b = f(f(a)) two steps later; c = f(a xor b)
    # fires at b, whose edge list names a, in whichever order the
    # derivation names its premises
    a = random_key(random.Random(4))
    b = hash_f(hash_f(a))
    c = hash_f_xor(a, b)
    for premises in ((a, b), (b, a)):
        rec = RunRecorder()
        rec.record_keys([a, hash_f(a), b, c], {c: premises})
        rec.note_knowledge("m", [a])
        rec.record_ciphertext(CipherRecord(c, 5, "A", "key_multicast"))
        parent = {}
        assert c in closure({a}, derivation_edges(rec.key_universe), parent)
        assert parent[c] == (a, b)
        assert assert_matches_eager(rec) == [
            f"m can derive the key of a key_multicast in A at t=5 via held {fingerprint(a)}"
            f" -> (f, {fingerprint(hash_f(a))}) -> (f, {fingerprint(b)})"
            f" -> (xor {fingerprint(a)}, {fingerprint(c)})"
        ]


def test_recorded_derivation_that_does_not_hash_to_its_key_is_refused():
    rng = random.Random(8)
    a, b, c = (random_key(rng) for _ in range(3))
    rec = RunRecorder()
    rec.record_keys([a, b, c], {c: (a, b)})
    with pytest.raises(ValueError, match=f"derivation of {fingerprint(c)} does not hash to it"):
        check_secrecy(rec)


def test_member_code_never_in_service_is_not_used():
    # codes are no input to any key: a code the member learned gives it
    # nothing, not even the paper's f(k xor code) of a key it holds
    rng = random.Random(8)
    key = random_key(rng)
    derived = hash_f(xor_bytes(key, b"3".rjust(16, b"\0")))
    rec = RunRecorder()
    rec.record_keys([key, derived])
    rec.record_codes(["3"])
    rec.note_knowledge("m", [key])
    rec.note_codes("m", ["3"])
    rec.record_ciphertext(CipherRecord(derived, 5, "A", "key_multicast"))
    assert assert_matches_eager(rec) == []


def test_closure_does_not_run_backwards():
    k = bytes(range(16))
    universe = {k, hash_f(k)}
    edges = derivation_edges(universe)
    assert closure({hash_f(k)}, edges) == {hash_f(k)}


def test_window_legality_and_target_override():
    rec = RunRecorder()
    key_in, key_out, key_uni = (bytes([i]) * 16 for i in (1, 2, 3))
    rec.open_window("u1", "A", 100)
    rec.close_window("u1", "A", 200)
    rec.note_knowledge("u1", [key_in, key_out, key_uni])
    rec.record_ciphertext(CipherRecord(key_in, 150, "A", "key_multicast"))
    rec.record_ciphertext(CipherRecord(key_out, 250, "A", "key_multicast"))
    rec.record_ciphertext(CipherRecord(key_uni, 300, "A", "key_unicast", target="u1"))
    violations = check_secrecy(rec)
    assert len(violations) == 1
    assert "t=250" in violations[0]


def test_window_boundaries_are_half_open():
    rec = RunRecorder()
    key = bytes(16)
    rec.open_window("u1", "A", 100)
    rec.close_window("u1", "A", 200)
    rec.note_knowledge("u1", [key])
    rec.record_ciphertext(CipherRecord(key, 100, "A", "content_frame"))
    assert check_secrecy(rec) == []
    rec.record_ciphertext(CipherRecord(key, 200, "A", "content_frame"))
    assert len(check_secrecy(rec)) == 1


def test_one_ticks_events_are_judged_in_recording_order():
    # two ciphertexts on tick 100 and two on tick 200: u1's window opens
    # after the first of tick 100 and closes after the first of tick 200,
    # so the first and the last are outside it
    rec = RunRecorder()
    key = random_key(random.Random(2))
    rec.note_knowledge("u1", [key])
    sealed = [encrypt(key, bytes([i])) for i in range(4)]
    rec.record_ciphertext(CipherRecord(key, 100, "A", "key_multicast", ciphertext=sealed[0]))
    rec.open_window("u1", "A", 100)
    rec.record_ciphertext(CipherRecord(key, 100, "A", "key_unicast", ciphertext=sealed[1]))
    rec.record_ciphertext(CipherRecord(key, 200, "A", "content_frame", ciphertext=sealed[2]))
    rec.close_window("u1", "A", 200)
    rec.record_ciphertext(CipherRecord(key, 200, "A", "key_multicast", ciphertext=sealed[3]))
    assert [v.split(" via ")[0] for v in check_secrecy(rec)] == [
        "u1 can derive the key of a key_multicast in A at t=100",
        "u1 can derive the key of a key_multicast in A at t=200",
    ]
    assert operational_decrypt_check(rec) == [
        "u1 opened a key_multicast in A at t=100",
        "u1 opened a key_multicast in A at t=200",
    ]


A4 = {"A": ["u1", "u2", "u3", "u4"]}


@pytest.mark.parametrize("scheme", ("ckc_craw", "ckc_plain", "lkh"))
@pytest.mark.parametrize(
    ("areas", "events"),
    [
        # a leave on the bootstrap's tick: the t=0 unicasts came first
        (A4, [{"time": 0.0, "op": "leave", "member": "u1", "area": "A"}]),
        # the second leaver reads the first leave's multicast, sent while it
        # was still present
        (A4, [{"time": 1.0, "op": "leave", "member": m, "area": "A"} for m in ("u1", "u2")]),
        # u1's arrival re-keys B just before v1 leaves it
        (
            {"A": ["u1", "u2", "u3"], "B": ["v1", "v2", "v3"]},
            [
                {"time": 1.0, "op": "move", "member": "u1", "from": "A", "to": "B"},
                {"time": 1.0, "op": "move", "member": "v1", "from": "B", "to": "A"},
            ],
        ),
    ],
    ids=("leave-at-t0", "two-leaves", "crossing-moves"),
)
def test_runs_whose_events_share_a_tick_audit_clean(scheme, areas, events):
    doc = {"schema_version": 1, "name": "tick", "seed": 1, "scheme": scheme,
           "delays": ZERO_DELAYS, "areas": areas, "events": events}
    sim = Simulation(validate_doc(doc)).run()
    assert sim.check_consistent()
    # the first-principles reference orders the tick's events too
    assert assert_matches_eager(sim.recorder) == []
    assert operational_decrypt_check(sim.recorder) == []


def test_other_area_is_not_covered_by_window():
    rec = RunRecorder()
    key = bytes(16)
    rec.open_window("u1", "A", 0)
    rec.note_knowledge("u1", [key])
    rec.record_ciphertext(CipherRecord(key, 10, "B", "key_multicast"))
    assert len(check_secrecy(rec)) == 1


def test_close_without_open_raises():
    rec = RunRecorder()
    rec.open_window("u1", "A", 0)
    rec.close_window("u1", "A", 5)
    with pytest.raises(RuntimeError):
        rec.close_window("u1", "A", 9)


def _cover_leak_recorder():
    """A departed member who remembers an old group key, and the cover key
    rolled from it and the sibling subtree's previous key, which the member
    never held."""
    rng = random.Random(5)
    old_ak, sibling = random_key(rng), random_key(rng)
    cover_key = hash_f_xor(old_ak, sibling)  # sibling subtree, off the path
    rec = RunRecorder()
    rec.record_keys([old_ak, sibling, cover_key], {cover_key: (old_ak, sibling)})
    rec.note_knowledge("leaver", [old_ak])
    rec.open_window("leaver", "A", 0)
    rec.close_window("leaver", "A", 100)
    rec.record_ciphertext(CipherRecord(cover_key, 100, "A", "key_multicast"))
    return rec, old_ak, sibling, cover_key


def test_cover_key_leak_via_learned_premise_is_detected():
    # forward-secrecy regression: a departed member who remembers an old
    # group key AND has learned the sibling subtree's previous key can
    # recompute that cover key; the oracle must flag the cover payload once
    # the key is in the member's knowledge, and stay quiet while it is not
    rec, _, sibling, _ = _cover_leak_recorder()
    assert check_secrecy(rec) == []
    rec.note_knowledge("leaver", [sibling])
    assert len(check_secrecy(rec)) == 1


def test_violation_names_its_derivation_path():
    rec, old_ak, sibling, cover_key = _cover_leak_recorder()
    assert assert_matches_eager(rec) == []
    # a second audit of the same recorder sees a key noted after the first;
    # both premises are held, so the step is taken at the first in order
    rec.note_knowledge("leaver", [sibling])
    first, other = sorted([old_ak, sibling])
    assert assert_matches_eager(rec) == [
        "leaver can derive the key of a key_multicast in A at t=100"
        f" via held {fingerprint(first)} -> (xor {fingerprint(other)}, {fingerprint(cover_key)})"
    ]


def test_knowledge_outside_universe_is_not_expanded():
    rng = random.Random(9)
    key = random_key(rng)
    rec = RunRecorder()
    rec.note_knowledge("m", [key])
    rec.record_ciphertext(CipherRecord(hash_f(key), 5, "A", "key_multicast"))
    assert key not in rec.key_universe
    assert assert_matches_eager(rec) == []
    rec.record_keys([key])
    assert assert_matches_eager(rec) == [
        f"m can derive the key of a key_multicast in A at t=5 via held {fingerprint(key)}"
        f" -> (f, {fingerprint(hash_f(key))})"
    ]


def test_audit_matches_eager_reference_on_random_runs():
    # every other run gets one extra key, drawn from what the run recorded,
    # in one member's knowledge, so violations occur; every member's reach
    # over the recorded derivations equals its reach over all pairs
    schemes = ("ckc_craw", "ckc_plain", "lkh")
    flagged = 0
    for trial in range(300):
        rec = Simulation(random_scenario(trial, schemes[trial % 3])).run().recorder
        if trial % 2:
            rng = random.Random(trial)
            member = rng.choice(sorted(rec.knowledge))
            rec.note_knowledge(member, [rng.choice(sorted(rec.key_universe))])
        pairwise = derivation_edges(rec.key_universe)
        flagged += len(assert_matches_eager(rec, pairwise))
        recorded = _RecordedEdges(rec.key_universe, rec.derived)
        for known in rec.knowledge.values():
            assert closure(known, recorded) == closure(known, pairwise)
    assert flagged > 0


def test_stale_group_key_reuse_is_detected():
    # if a leave handed out f(old group key) instead of a fresh draw, the
    # leaver reaches it with a plain hash step, no code required
    rng = random.Random(7)
    old_ak = random_key(rng)
    bogus_new = hash_f(old_ak)
    rec = RunRecorder()
    rec.record_keys([old_ak, bogus_new])
    rec.note_knowledge("leaver", [old_ak])
    rec.open_window("leaver", "A", 0)
    rec.close_window("leaver", "A", 100)
    rec.record_ciphertext(CipherRecord(bogus_new, 150, "A", "content_frame"))
    assert len(check_secrecy(rec)) == 1


def test_operational_check_opens_real_ciphertext():
    rng = random.Random(6)
    key = random_key(rng)
    ct = encrypt(key, b"payload")
    rec = RunRecorder()
    rec.note_knowledge("eve", [key])
    rec.record_ciphertext(CipherRecord(key, 40, "A", "content_frame", ciphertext=ct))
    assert len(operational_decrypt_check(rec)) == 1
    # inside a window the same ciphertext is fine
    rec.open_window("eve", "A", 0)
    assert operational_decrypt_check(rec) == []

    # a key eve never held but derives as f(a xor b) from two she did; the
    # check hashes it itself, with no derivation recorded
    a, b = random_key(rng), random_key(rng)
    rec = RunRecorder()
    rec.note_knowledge("eve", [a, b])
    rec.record_ciphertext(CipherRecord(hash_f_xor(a, b), 40, "A", "key_multicast",
                                       ciphertext=encrypt(hash_f_xor(a, b), b"ak")))
    assert rec.derived == {}
    assert operational_decrypt_check(rec) == ["eve opened a key_multicast in A at t=40"]
