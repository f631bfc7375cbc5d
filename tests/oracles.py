"""Test oracles that read a finished run's recorder but that no run calls."""

from __future__ import annotations

from itertools import combinations

from crawsim.crypto import DecryptionError, decrypt, hash_f, hash_f_xor
from crawsim.secrecy import RunRecorder, _legal


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
        for i, ct in enumerate(rec.ciphertexts):
            if ct.ciphertext is None or _legal(member, ct, i, wins):
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
