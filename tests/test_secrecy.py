"""Unit tests for the knowledge-closure audit."""

import random

import pytest

from crawsim.crypto import encrypt, fingerprint, hash_f, hash_f_xor, random_key
from crawsim.secrecy import (
    CipherRecord,
    RunRecorder,
    check_secrecy,
    closure,
    derivation_edges,
    operational_decrypt_check,
)
from crawsim.sim import Simulation
from test_acceptance import random_scenario


def eager_audit(rec: RunRecorder) -> list[tuple[str, list[bytes]]]:
    """The audit as first written, kept as the reference: every edge of the
    key universe under every code, each member's closure over them, then a
    scan of every ciphertext.  One (message, keys along the closure's path
    from a held key to the ciphertext's key) per violation."""
    edges = derivation_edges(rec.key_universe, rec.codes)
    found = []
    for member, known in rec.knowledge.items():
        parent = {}
        reach = closure(known, edges, rec.member_codes.get(member, set()), parent)
        wins = rec.windows.get(member, [])
        for ct in rec.ciphertexts:
            legal = ct.target == member or any(
                w.area == ct.area and w.start <= ct.time and (w.end is None or ct.time < w.end)
                for w in wins
            )
            if ct.enc_key in reach and not legal:
                path = [ct.enc_key]
                while path[0] in parent:
                    path.insert(0, parent[path[0]][1])
                message = f"{member} can derive the key of a {ct.kind} in {ct.area} at t={ct.time}"
                found.append((message, path))
    return found


def replay(rec: RunRecorder, violation: str) -> tuple[str, list[bytes]]:
    """Re-hash a violation's derivation path from the member's held key;
    returns (message before the path, keys along it)."""
    message, path = violation.split(" via held ")
    member = message.split(" ", 1)[0]
    by_print = {fingerprint(k): k for k in rec.knowledge[member]}
    start, *steps = path.split(" -> ")
    keys = [by_print[start]]
    usable = rec.member_codes.get(member, set()) & rec.codes
    for step in steps:
        code, printed = step.strip("()").split(", ")
        assert code == "f" or code in usable
        keys.append(hash_f(keys[-1]) if code == "f" else hash_f_xor(keys[-1], code))
        assert fingerprint(keys[-1]) == printed
    return message, keys


def assert_matches_eager(rec: RunRecorder) -> list[str]:
    """Audit ``rec``: the messages must be the reference's, in order, and
    each path must re-hash, step by step, to the reference's path."""
    violations = check_secrecy(rec)
    assert [replay(rec, v) for v in violations] == eager_audit(rec)
    return violations


def test_closure_follows_multi_hop_derivations():
    k = bytes(16)
    k1 = hash_f(k)
    k2 = hash_f_xor(k1, "12")
    universe = {k, k1, k2}
    edges = derivation_edges(universe, {"12"})
    reached = closure({k}, edges, {"12"})
    assert reached == {k, k1, k2}


def test_closure_pruned_to_universe():
    k = bytes(16)
    universe = {k, hash_f_xor(k, "7")}
    # f(k) is a real hash image but not a protocol key, so it must not
    # appear, and nothing may be reached through it
    edges = derivation_edges(universe, {"7"})
    reached = closure({k}, edges, {"7"})
    assert hash_f(k) not in reached
    assert reached == universe


def test_closure_requires_knowing_the_code():
    k = bytes(16)
    derived = hash_f_xor(k, "15")
    edges = derivation_edges({k, derived}, {"15"})
    assert derived not in closure({k}, edges, set())
    assert derived in closure({k}, edges, {"15"})


def test_closure_does_not_run_backwards():
    k = bytes(range(16))
    universe = {k, hash_f(k)}
    edges = derivation_edges(universe, set())
    assert closure({hash_f(k)}, edges, set()) == {hash_f(k)}


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
    derived from it with a sibling-subtree code the member has not learned."""
    rng = random.Random(5)
    old_ak = random_key(rng)
    cover_key = hash_f_xor(old_ak, "14")  # sibling subtree, off the path
    rec = RunRecorder()
    rec.record_keys([old_ak, cover_key])
    rec.record_codes(["14", "15"])
    rec.note_knowledge("leaver", [old_ak])
    rec.note_codes("leaver", ["1", "15", "157"])  # its own path only
    rec.open_window("leaver", "A", 0)
    rec.close_window("leaver", "A", 100)
    rec.record_ciphertext(CipherRecord(cover_key, 100, "A", "key_multicast"))
    return rec, old_ak, cover_key


def test_cover_key_leak_via_learned_code_is_detected():
    # forward-secrecy regression: a departed member who remembers an old
    # group key AND has learned a sibling-subtree code can recompute that
    # cover key; the oracle must flag the cover payload once the code is in
    # the member's knowledge, and stay quiet while it is not
    rec, _, _ = _cover_leak_recorder()
    assert check_secrecy(rec) == []
    rec.note_codes("leaver", ["14"])  # the off-path code leaks
    assert len(check_secrecy(rec)) == 1


def test_violation_names_its_derivation_path():
    rec, old_ak, cover_key = _cover_leak_recorder()
    assert assert_matches_eager(rec) == []
    # a second audit of the same recorder sees a code noted after the first
    rec.note_codes("leaver", ["14"])
    assert assert_matches_eager(rec) == [
        "leaver can derive the key of a key_multicast in A at t=100"
        f" via held {fingerprint(old_ak)} -> (14, {fingerprint(cover_key)})"
    ]


def test_member_code_never_in_service_is_not_used():
    rng = random.Random(8)
    key = random_key(rng)
    derived = hash_f_xor(key, "3")
    rec = RunRecorder()
    rec.record_keys([key, derived])
    rec.record_codes(["4"])
    rec.note_knowledge("m", [key])
    rec.note_codes("m", ["3"])  # its hash lands in the universe all the same
    rec.record_ciphertext(CipherRecord(derived, 5, "A", "key_multicast"))
    assert assert_matches_eager(rec) == []
    rec.record_codes(["3"])
    assert assert_matches_eager(rec) == [
        f"m can derive the key of a key_multicast in A at t=5 via held {fingerprint(key)}"
        f" -> (3, {fingerprint(derived)})"
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
    # every other run gets one extra key and one extra code, drawn from what
    # the run recorded, in one member's knowledge, so violations occur
    schemes = ("ckc_craw", "ckc_plain", "lkh")
    flagged = 0
    for trial in range(300):
        rec = Simulation(random_scenario(trial, schemes[trial % 3])).run().recorder
        if trial % 2:
            rng = random.Random(trial)
            member = rng.choice(sorted(rec.knowledge))
            rec.note_knowledge(member, [rng.choice(sorted(rec.key_universe))])
            if rec.codes:
                rec.note_codes(member, [rng.choice(sorted(rec.codes))])
        flagged += len(assert_matches_eager(rec))
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
