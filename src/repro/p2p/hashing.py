"""Deterministic hashing for overlay key spaces.

Python's builtin ``hash`` is salted per process, which would make
overlay placement non-reproducible; all overlays hash through SHA-256
instead.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from repro.common.errors import ConfigurationError


def stable_hash(key: str, bits: int = 64) -> int:
    """Deterministic integer hash of *key* in ``[0, 2**bits)``."""
    if bits <= 0 or bits > 256:
        raise ConfigurationError(
            f"stable_hash: bits must be in (0, 256], got {bits}"
        )
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    value = int.from_bytes(digest, "big")
    return value >> (256 - bits)


def stable_hashes(keys: Iterable[str]) -> np.ndarray:
    """``stable_hash(key, 64)`` of every key, as a ``uint64`` array.

    One digest loop and one buffer read: no Python ``int`` per key.
    """
    sha256 = hashlib.sha256
    digests = b"".join(
        [sha256(key.encode("utf-8")).digest()[:8] for key in keys]
    )
    return np.frombuffer(digests, dtype=">u8").astype(np.uint64)


def to_bits(key: str, length: int) -> str:
    """Deterministic binary-string key of *length* bits for *key*."""
    if length <= 0 or length > 64:
        raise ConfigurationError(
            f"to_bits: length must be in (0, 64], got {length}"
        )
    value = stable_hash(key, 64)
    return format(value, "064b")[:length]
