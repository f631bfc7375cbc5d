"""Primitive-level contracts: one-way functions, AEAD, and seeded
randomness."""

from __future__ import annotations

import dataclasses
import hashlib
import pickle
import random

import pytest

from crawsim import crypto
from crawsim.crypto import (
    KEY_WIDTH,
    DecryptionError,
    decrypt,
    encrypt,
    hash_E,
    hash_f,
    hash_f_xor,
    random_key,
    xor_bytes,
)


def test_hash_f_fixed_width_and_deterministic():
    k = bytes(range(16))
    out = hash_f(k)
    assert len(out) == KEY_WIDTH
    assert out == hash_f(k)
    assert out != k  # not the identity


def test_hash_f_rejects_bad_width():
    with pytest.raises(ValueError):
        hash_f(b"short")
    with pytest.raises(ValueError):
        hash_f(bytes(17))


def test_hash_f_chain_has_no_short_cycle():
    # 1000 iterated applications never revisit a value.
    seen = set()
    k = b"\x07" * KEY_WIDTH
    for _ in range(1000):
        k = hash_f(k)
        assert k not in seen
        seen.add(k)


def test_hash_E_accepts_any_length_and_separates_from_f():
    assert len(hash_E(b"")) == KEY_WIDTH
    assert len(hash_E(b"x" * 100)) == KEY_WIDTH
    k = bytes(16)
    assert hash_E(k) != hash_f(k)  # domain separation


def test_hash_f_and_hash_E_known_answers():
    # each is SHA-256 over its label, "|" and the input, cut to key width
    for k in (bytes(KEY_WIDTH), bytes(range(KEY_WIDTH)), b"\xff" * KEY_WIDTH):
        assert hash_f(k) == hashlib.sha256(b"rekey|" + k).digest()[:16]
    for data in (b"", b"x", bytes(range(100))):
        assert hash_E(data) == hashlib.sha256(b"auth|" + data).digest()[:16]


def test_hash_E_composition():
    v = b"\xaa" * KEY_WIDTH
    assert hash_E(hash_E(v)) != hash_E(v)


def test_hash_f_xor_matches_manual_composition():
    # Independent recomputation of the roll f(a xor b) from raw pieces.
    a = bytes(range(16))
    b = b"\x00" * 13 + b"157"
    manual = hashlib.sha256(b"rekey|" + bytes(x ^ y for x, y in zip(a, b))).digest()[:16]
    assert hash_f_xor(a, b) == manual


def test_hash_f_xor_is_shared_between_parties():
    # Server and every member below a position compute the same rolled key
    # from (AK', K), in either order.
    rng = random.Random(99)
    ak = random_key(rng)
    for _ in range(4):
        k = random_key(rng)
        derivations = {hash_f_xor(ak, k) for _ in range(5)} | {hash_f_xor(k, ak)}
        assert len(derivations) == 1


def test_hash_f_xor_distinct_codes_distinct_keys():
    # distinct previous keys roll to distinct keys under one AK'
    ak = b"\x3c" * KEY_WIDTH
    rng = random.Random(98)
    previous = [random_key(rng) for _ in range(6)]
    assert len({hash_f_xor(ak, k) for k in previous}) == len(previous)
    with pytest.raises(ValueError):
        hash_f_xor(ak, ak[:-1])


def test_xor_bytes_properties():
    a, b = bytes(range(16)), bytes(range(16, 32))
    assert xor_bytes(xor_bytes(a, b), b) == a
    assert xor_bytes(a, a) == bytes(16)
    with pytest.raises(ValueError):
        xor_bytes(a, b"\x00")


def test_encrypt_roundtrip_and_determinism():
    rng = random.Random(5)
    key = random_key(rng)
    ct = encrypt(key, b"group key payload")
    assert decrypt(key, ct) == b"group key payload"
    # Same key+plaintext encrypts identically: runs are seed-reproducible.
    assert encrypt(key, b"group key payload") == ct
    assert encrypt(key, b"other payload") != ct


def test_decrypt_wrong_key_always_fails():
    rng = random.Random(6)
    key = random_key(rng)
    ct = encrypt(key, b"secret")
    for _ in range(100):
        wrong = random_key(rng)
        assert wrong != key
        with pytest.raises(DecryptionError):
            decrypt(wrong, ct)
    # single-bit-different key also fails
    flipped = bytes([key[0] ^ 1]) + key[1:]
    with pytest.raises(DecryptionError):
        decrypt(flipped, ct)


def test_decrypt_corrupted_ciphertext_fails():
    key = b"\x11" * KEY_WIDTH
    ct = encrypt(key, b"payload")
    mangled = crypto.Ciphertext(ct.nonce, bytes([ct.body[0] ^ 0x80]) + ct.body[1:])
    with pytest.raises(DecryptionError):
        decrypt(key, mangled)


def test_opened_ciphertext_still_refuses_a_wrong_key():
    key, wrong = b"\x11" * KEY_WIDTH, b"\x22" * KEY_WIDTH
    ct = encrypt(key, b"payload")
    assert decrypt(key, ct) == b"payload"
    for _ in range(2):
        with pytest.raises(DecryptionError):
            decrypt(wrong, ct)
    assert decrypt(key, ct) == b"payload"


def test_failed_open_does_not_stop_the_right_key():
    key, wrong = b"\x11" * KEY_WIDTH, b"\x22" * KEY_WIDTH
    ct = encrypt(key, b"payload")
    with pytest.raises(DecryptionError):
        decrypt(wrong, ct)
    assert decrypt(key, ct) == b"payload"
    with pytest.raises(DecryptionError):
        decrypt(wrong, ct)


def test_tampered_copy_of_an_opened_ciphertext_fails():
    key = b"\x11" * KEY_WIDTH
    ct = encrypt(key, b"payload")
    assert decrypt(key, ct) == b"payload"
    tampered = dataclasses.replace(ct, body=bytes([ct.body[0] ^ 0x01]) + ct.body[1:])
    with pytest.raises(DecryptionError):
        decrypt(key, tampered)
    assert decrypt(key, ct) == b"payload"


def test_opened_ciphertext_carries_no_secrets():
    # a ciphertext is its nonce and body alone, before and after an open
    key = b"\x11" * KEY_WIDTH
    ct = encrypt(key, b"group key payload")
    assert decrypt(key, ct) == b"group key payload"
    assert [f.name for f in dataclasses.fields(crypto.Ciphertext)] == ["nonce", "body"]
    dumped = pickle.dumps(ct)
    assert key not in dumped and b"group key payload" not in dumped


def test_opening_leaves_equality_hash_and_repr_alone():
    key = b"\x11" * KEY_WIDTH
    opened = encrypt(key, b"payload")
    fresh = crypto.Ciphertext(opened.nonce, opened.body)
    decrypt(key, opened)
    assert opened == fresh
    assert hash(opened) == hash(fresh)
    assert repr(opened) == repr(fresh)
    assert len({opened, fresh}) == 1


def test_random_key_is_seed_deterministic():
    a = [random_key(random.Random(123)) for _ in range(3)]
    b = [random_key(random.Random(123)) for _ in range(3)]
    assert a == b
    assert len({random_key(random.Random(s)) for s in range(50)}) == 50


def test_fingerprint_short_and_stable():
    fp = crypto.fingerprint(b"abc")
    assert fp == crypto.fingerprint(b"abc")
    assert len(fp) == 12
    assert fp != crypto.fingerprint(b"abd")


def test_a_replaced_aesgcm_seals_and_opens_through_its_own_objects(monkeypatch):
    # AES-GCM objects built before the patch, under the same key, must not
    # answer for the patched class: every seal and open goes through the
    # wrapper, each decrypt call is one open, and a bad open still raises
    key, wrong = b"\x33" * KEY_WIDTH, b"\x44" * KEY_WIDTH
    ct = encrypt(key, b"payload")
    assert decrypt(key, ct) == b"payload"
    real = crypto.AESGCM
    seals, opens = [], []

    class CountingAESGCM:
        def __init__(self, k):
            self.key = k
            self.inner = real(k)

        def encrypt(self, nonce, data, aad):
            seals.append(self.key)
            return self.inner.encrypt(nonce, data, aad)

        def decrypt(self, nonce, data, aad):
            opens.append(self.key)
            return self.inner.decrypt(nonce, data, aad)

    monkeypatch.setattr(crypto, "AESGCM", CountingAESGCM)
    assert encrypt(key, b"payload") == ct
    assert seals == [key]
    for n in range(1, 4):
        assert decrypt(key, ct) == b"payload"
        assert opens == [key] * n
    tampered = dataclasses.replace(ct, body=bytes([ct.body[0] ^ 0x01]) + ct.body[1:])
    with pytest.raises(DecryptionError):
        decrypt(key, tampered)
    with pytest.raises(DecryptionError):
        decrypt(wrong, ct)
    assert opens == [key] * 4 + [wrong]


def test_the_aead_memo_is_bounded_and_keeps_no_outcome():
    bound = crypto._aead.cache_info().maxsize
    for i in range(4 * bound):
        encrypt(i.to_bytes(KEY_WIDTH, "big"), b"payload")
    assert crypto._aead.cache_info().currsize <= bound
    key = b"\x55" * KEY_WIDTH
    ct = encrypt(key, b"payload")
    assert decrypt(key, ct) == b"payload"
    tampered = dataclasses.replace(ct, body=ct.body[:-1] + bytes([ct.body[-1] ^ 0x01]))
    with pytest.raises(DecryptionError):
        decrypt(key, tampered)
