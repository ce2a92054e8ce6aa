"""Deterministic randomness plumbing.

Every stochastic component in the library accepts a
:class:`numpy.random.Generator`.  These helpers create generators from
integer seeds and *spawn* statistically independent child generators so
that adding a new consumer of randomness never perturbs the streams of
existing components — the property that makes experiments reproducible
while remaining extensible.

Where one call must draw for very many agents at once (the sharded
runner's rounds), stateful generators serialize the work.  The keyed
counter-based draws at the end of this module (Philox4x32-10) make a
draw a pure function of ``(key, stream, purpose, step, column)``
instead, so a whole batch is a few array operations and batching or
ordering never changes a value.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

from repro.common.errors import ConfigurationError

RngLike = Union[int, np.random.Generator, None]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Coerce *seed* into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an ``int`` seed, or an existing
    generator (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


class SeedSequenceFactory:
    """Spawn independent generators from a single root seed.

    >>> factory = SeedSequenceFactory(42)
    >>> a = factory.rng("consumers")
    >>> b = factory.rng("providers")

    Streams for distinct labels are independent, and the same
    (root seed, label, call index) always yields the same stream.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._root = np.random.SeedSequence(seed)
        self._issued: dict = {}

    def rng(self, label: str = "") -> np.random.Generator:
        """Return a fresh independent generator for *label*.

        Repeated calls with the same label return *different* streams
        (one per call), derived deterministically from the root seed.
        """
        count = self._issued.get(label, 0)
        self._issued[label] = count + 1
        # Derive a child deterministically from (label, count).  Python's
        # builtin hash() is salted per process, so a cryptographic hash
        # keeps streams identical across runs.
        digest = hashlib.sha256(f"{label}\x00{count}".encode()).digest()
        key = int.from_bytes(digest[:4], "big")
        child = np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=(key,)
        )
        return np.random.default_rng(child)

    def spawn(self, label: str) -> int:
        """Derive an independent integer *root seed* for *label*.

        Unlike :meth:`rng`, ``spawn`` is stateless: the result depends
        only on (root entropy, label), never on call order or on how
        many generators were issued before.  That property is what the
        parallel experiment runtime builds on — a batch of trials can
        derive their seeds in any order, on any worker, and still get
        exactly the streams the serial run would have used.

        The derived value is itself suitable as a
        ``SeedSequenceFactory``/:func:`make_rng` root, and streams under
        distinct labels are statistically independent (distinct
        ``spawn_key`` children of the root sequence).
        """
        digest = hashlib.sha256(f"spawn\x00{label}".encode()).digest()
        # 8 bytes keeps the spawn-key space disjoint from rng()'s
        # 4-byte keys except with negligible probability.
        key = int.from_bytes(digest[:8], "big")
        child = np.random.SeedSequence(
            entropy=self._root.entropy, spawn_key=(key,)
        )
        return int(child.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# Keyed counter-based draws (Philox4x32-10)
# ---------------------------------------------------------------------------

#: Philox4x32 round multipliers and key-schedule (Weyl) increments
#: (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
PHILOX_M0 = 0xD2511F53
PHILOX_M1 = 0xCD9E8D57
PHILOX_W0 = 0x9E3779B9
PHILOX_W1 = 0xBB67AE85
PHILOX_ROUNDS = 10

_WORD = 0xFFFFFFFF
_U32 = np.uint64(32)
_UNIT = 2.0**-53
_TWO_PI = 2.0 * np.pi


def _philox(
    words: Sequence[np.ndarray], key: int, rounds: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Philox4x32 over four equal-length ``uint64`` word arrays."""
    c0, c1, c2, c3 = words
    m0, m1 = np.uint64(PHILOX_M0), np.uint64(PHILOX_M1)
    mask = np.uint64(_WORD)
    k0, k1 = key & _WORD, (key >> 32) & _WORD
    for r in range(rounds):
        if r:
            k0 = (k0 + PHILOX_W0) & _WORD
            k1 = (k1 + PHILOX_W1) & _WORD
        p0 = c0 * m0
        p1 = c2 * m1
        c0, c1, c2, c3 = (
            (p1 >> _U32) ^ c1 ^ np.uint64(k0),
            p1 & mask,
            (p0 >> _U32) ^ c3 ^ np.uint64(k1),
            p0 & mask,
        )
    return c0, c1, c2, c3


def philox4x32(
    counters: ArrayLike, key: int, rounds: int = PHILOX_ROUNDS
) -> np.ndarray:
    """Philox4x32-*rounds* of an ``(n, 4)`` array of 32-bit counters.

    *key* is 64 bits: ``k0`` is its low word and ``k1`` its high word.
    Returns the ``(n, 4)`` output words (as ``uint64``).  Each row is a
    pure function of its own counter, so how a batch is split or
    ordered never changes a row.
    """
    block = np.asarray(counters, dtype=np.uint64).reshape(-1, 4)
    words = [np.ascontiguousarray(block[:, i]) for i in range(4)]
    return np.stack(_philox(words, key, rounds), axis=1)


def _check_word(name: str, values: np.ndarray) -> None:
    if len(values) and (values.min() < 0 or values.max() > _WORD):
        raise ConfigurationError(f"{name} must fit in 32 bits")


def _block_words(
    key: int, streams: ArrayLike, purpose: int, step: int, blocks: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four output words of every ``(stream, block)`` counter.

    Row ``s * blocks + b`` comes from the block at counter
    ``(streams[s], purpose, step, b)``.
    """
    ids = np.asarray(streams, dtype=np.int64).reshape(-1)
    _check_word("stream", ids)
    _check_word("purpose/step", np.array([purpose, step], dtype=np.int64))
    n = len(ids) * blocks
    words = (
        np.repeat(ids.astype(np.uint64), blocks),
        np.full(n, purpose, dtype=np.uint64),
        np.full(n, step, dtype=np.uint64),
        np.tile(np.arange(blocks, dtype=np.uint64), len(ids)),
    )
    return _philox(words, key, PHILOX_ROUNDS)


def _block_uniforms(
    key: int, streams: ArrayLike, purpose: int, step: int, blocks: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The two 53-bit uniforms of every ``(stream, block)`` counter.

    Rows are laid out as in :func:`_block_words`; the first uniform is
    built from output words 0-1, the second from words 2-3.
    """
    w0, w1, w2, w3 = _block_words(key, streams, purpose, step, blocks)
    first = ((w0 >> np.uint64(5)) << np.uint64(26)) | (w1 >> np.uint64(6))
    second = ((w2 >> np.uint64(5)) << np.uint64(26)) | (w3 >> np.uint64(6))
    return first.astype(np.float64) * _UNIT, second.astype(np.float64) * _UNIT


def keyed_words(
    key: int, streams: ArrayLike, purpose: int, step: int
) -> np.ndarray:
    """One 64-bit ``uint64`` word per stream, e.g. a scalar stream's seed.

    Entry ``s`` is output word 0 (high half) and word 1 (low half) of
    the block at counter ``(streams[s], purpose, step, 0)``.
    """
    w0, w1, _, _ = _block_words(key, streams, purpose, step, 1)
    return (w0 << _U32) | w1


def keyed_uniforms(
    key: int, streams: ArrayLike, purpose: int, step: int, count: int
) -> np.ndarray:
    """``(len(streams), count)`` uniforms in ``[0, 1)``, 53 bits each.

    Column ``j`` of row ``s`` is a pure function of ``(key,
    streams[s], purpose, step, j)``: the counter is ``(stream,
    purpose, step, j // 2)`` and the two uniforms of a block fill
    columns ``2b`` and ``2b + 1``.
    """
    blocks = (count + 1) // 2
    first, second = _block_uniforms(key, streams, purpose, step, blocks)
    pairs = np.stack((first, second), axis=1)
    return pairs.reshape(-1, 2 * blocks)[:, :count]


def keyed_normals(
    key: int, streams: ArrayLike, purpose: int, step: int, count: int
) -> np.ndarray:
    """``(len(streams), count)`` standard normals by Box-Muller.

    Block ``b``'s uniforms ``(u1, u2)`` give columns ``2b`` and
    ``2b + 1`` as ``r cos(2 pi u2)`` and ``r sin(2 pi u2)`` with
    ``r = sqrt(-2 log(1 - u1))``; ``1 - u1`` is exact and never 0.
    """
    blocks = (count + 1) // 2
    first, second = _block_uniforms(key, streams, purpose, step, blocks)
    radius = np.sqrt(-2.0 * np.log(1.0 - first))
    theta = _TWO_PI * second
    pairs = np.stack((radius * np.cos(theta), radius * np.sin(theta)), axis=1)
    return pairs.reshape(-1, 2 * blocks)[:, :count]
