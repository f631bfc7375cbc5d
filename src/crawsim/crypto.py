"""Shared cryptographic plumbing for the key-management toolkit.

Everything here is deterministic given its inputs: the one-way functions are
domain-separated SHA-256 instances, authenticated encryption derives its nonce
from (key, plaintext), and all randomness flows through a caller-supplied
``random.Random``.  That keeps whole simulation runs bit-reproducible from a
seed.

A ``Ciphertext`` is a plain value, its nonce and body.  ``encrypt`` and
``decrypt`` keep no plaintext and no outcome, only the AES-GCM object of each
of the last 64 keys they used: every call is still one AES-GCM seal or open.
Readers that share a key share the work where they meet, a re-keying event's
members in its ``Rekey`` (``crawsim.tree``) and an area's frame readers in
``sim.FrameReaders``, which open each frame once per distinct key.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

KEY_WIDTH = 16


class ProtocolError(Exception):
    """A protocol-level contract was violated."""


class DecryptionError(ProtocolError):
    """Authenticated decryption failed (wrong key or corrupted ciphertext)."""


def _hash(label: bytes, data: bytes) -> bytes:
    """Key-width SHA-256 under a label.  Distinct labels give independent
    functions over the same input space: the re-keying derivation f and the
    authentication hash E use separate ones, so knowing one chain gives no
    foothold in the other."""
    return hashlib.sha256(label + b"|" + data).digest()[:KEY_WIDTH]


def hash_f(key: bytes) -> bytes:
    """Key-refresh derivation; input must already be key-width material."""
    if len(key) != KEY_WIDTH:
        raise ValueError(f"hash_f expects {KEY_WIDTH}-octet keys, got {len(key)}")
    return _hash(b"rekey", key)


def hash_E(data: bytes) -> bytes:
    """Authentication one-way hash over arbitrary octet strings."""
    return _hash(b"auth", data)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError("xor operands must have equal length")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def hash_f_xor(a: bytes, b: bytes) -> bytes:
    """Middle-key roll: f(a xor b) over two keys."""
    return hash_f(xor_bytes(a, b))


@dataclass(frozen=True)
class Ciphertext:
    nonce: bytes
    body: bytes  # AES-GCM output: ciphertext || tag

    def fingerprint(self) -> str:
        return fingerprint(self.nonce + self.body)


def _nonce_for(key: bytes, plaintext: bytes) -> bytes:
    # Deterministic SIV-style nonce: repeats only for identical
    # (key, plaintext) pairs, which then yield identical ciphertexts.
    return hashlib.sha256(b"nonce|" + key + b"|" + plaintext).digest()[:12]


@lru_cache(maxsize=64)
def _aead(cipher: type, key: bytes):
    # Building an AES-GCM object (its key schedule) costs more than one
    # open, and a frame stretch seals and opens under the same few keys at
    # every tick.  The memo is keyed by the class as well as the key, so
    # a replaced ``crypto.AESGCM`` builds and keeps objects of its own.
    return cipher(key)


def encrypt(key: bytes, plaintext: bytes) -> Ciphertext:
    if len(key) != KEY_WIDTH:
        raise ValueError(f"encryption key must be {KEY_WIDTH} octets")
    nonce = _nonce_for(key, plaintext)
    return Ciphertext(nonce, _aead(AESGCM, key).encrypt(nonce, plaintext, None))


def decrypt(key: bytes, ct: Ciphertext) -> bytes:
    """Return the plaintext, or raise DecryptionError for any wrong key or
    tampered ciphertext."""
    if len(key) != KEY_WIDTH:
        raise ValueError(f"decryption key must be {KEY_WIDTH} octets")
    try:
        return _aead(AESGCM, key).decrypt(ct.nonce, ct.body, None)
    except InvalidTag as exc:
        raise DecryptionError("ciphertext does not open under this key") from exc


def random_key(rng: Random) -> bytes:
    return rng.randbytes(KEY_WIDTH)


def fingerprint(data: bytes) -> str:
    """Short stable hex tag for logs and serialized dumps (not a secret)."""
    return hashlib.sha256(data).hexdigest()[:12]
