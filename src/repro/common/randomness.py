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
#: the multipliers and key increments of counter words 0 and 2
_MULTIPLIERS = np.array([[PHILOX_M0], [PHILOX_M1]], dtype=np.uint64)
_WEYL = np.array([[PHILOX_W0], [PHILOX_W1]], dtype=np.uint64)


#: counter columns per Philox tile: a tile's state and products (48
#: bytes a column) stay in a core's L2 cache through all ten rounds
_TILE_COLUMNS = 2**14


def _philox(words: ArrayLike, key: int, rounds: int) -> np.ndarray:
    """Philox4x32 of a ``(4, n)`` block of 32-bit counter words, as
    ``uint64``, on a copy of *words* (the caller's are never written)."""
    return _philox_rounds(np.array(words, dtype=np.uint64), key, rounds)


def _philox_rounds(state: np.ndarray, key: int, rounds: int) -> np.ndarray:
    """:func:`_philox` in place on a ``(4, n)`` ``uint64`` *state*, one
    cache-sized tile of columns at a time, five whole-tile operations
    into a buffer per round."""
    buffer = np.empty((2, min(state.shape[1], _TILE_COLUMNS)), np.uint64)
    mask = np.uint64(_WORD)
    for start in range(0, state.shape[1], _TILE_COLUMNS):
        tile = state[:, start : start + _TILE_COLUMNS]
        multiplied, other = tile[0::2], tile[1::2]
        products = buffer[:, : tile.shape[1]]
        swapped = products[::-1]
        keys = np.array([[key & _WORD], [(key >> 32) & _WORD]], dtype=np.uint64)
        for r in range(rounds):
            if r:
                keys += _WEYL
                keys &= mask
            # (c0, c2) <- (hi(p1) ^ c1 ^ k0, hi(p0) ^ c3 ^ k1); (c1, c3) <- lo
            np.multiply(multiplied, _MULTIPLIERS, out=products)
            np.right_shift(swapped, _U32, out=multiplied)
            multiplied ^= other
            multiplied ^= keys
            np.bitwise_and(swapped, mask, out=other)
    return state


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
    return np.ascontiguousarray(_philox(block.T, key, rounds).T)


def _check_word(name: str, values: np.ndarray) -> None:
    if len(values) and (values.min() < 0 or values.max() > _WORD):
        raise ConfigurationError(f"{name} must fit in 32 bits")


def _block_words(
    key: int, streams: ArrayLike, step: int, parts: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """The ``(4, n)`` output words of one Philox pass over the counters
    of each ``(purpose, blocks)`` part in turn; within a part, column
    ``s * blocks + b`` is the block at ``(streams[s], purpose, step, b)``.
    """
    ids = np.asarray(streams, dtype=np.int64).reshape(-1)
    _check_word("stream", ids)
    _check_word("purpose/step", np.array([*(p for p, _ in parts), step]))
    # a part of no blocks adds no counters (one is kept if all are empty)
    parts = [part for part in parts if part[1]] or parts[:1]
    m = len(ids)
    counters = np.empty((4, m * sum(blocks for _, blocks in parts)), np.uint64)
    end = 0
    for purpose, blocks in parts:
        start, end = end, end + m * blocks
        counters[0, start:end].reshape(m, blocks)[...] = ids[:, None]
        counters[1, start:end] = purpose
        counters[3, start:end].reshape(m, blocks)[...] = np.arange(blocks)
    counters[2] = step
    return _philox_rounds(counters, key, PHILOX_ROUNDS)


def keyed_words(
    key: int, streams: ArrayLike, purpose: int, step: int
) -> np.ndarray:
    """One 64-bit ``uint64`` word per stream, e.g. a scalar stream's seed.

    Entry ``s`` is output word 0 (high half) and word 1 (low half) of
    the block at counter ``(streams[s], purpose, step, 0)``.
    """
    words = _block_words(key, streams, step, [(purpose, 1)])
    return (words[0] << _U32) | words[1]


def keyed_draws(
    key: int,
    streams: ArrayLike,
    step: int,
    uniforms: Tuple[int, int],
    normals: Tuple[int, int],
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`keyed_uniforms` and :func:`keyed_normals` of one step, each
    asked for as ``(purpose, count)``, from one Philox pass over both
    requests' counters; every draw is a pure function of its counter,
    so the values are those of the two separate calls."""
    (u_purpose, u_count), (z_purpose, z_count) = uniforms, normals
    u_blocks, z_blocks = (u_count + 1) // 2, (z_count + 1) // 2
    n, split = np.size(streams), np.size(streams) * u_blocks
    words = _block_words(
        key, streams, step, [(u_purpose, u_blocks), (z_purpose, z_blocks)]
    )
    # A block's 53-bit uniforms: row 0 from words 0-1, row 1 from 2-3.
    high = (words[0::2] >> np.uint64(5)) << np.uint64(26)
    units = (high | (words[1::2] >> np.uint64(6))).astype(np.float64) * _UNIT
    # Block b fills columns 2b and 2b + 1; normals are Box-Muller.
    uniform = units[:, :split].T.reshape(n, 2 * u_blocks)
    pairs = np.empty((n * z_blocks, 2))
    if z_blocks:
        radius = np.sqrt(-2.0 * np.log(1.0 - units[0, split:]))
        theta = _TWO_PI * units[1, split:]
        np.cos(theta, out=pairs[:, 0])
        np.sin(theta, out=pairs[:, 1])
        pairs *= radius[:, None]
    return uniform[:, :u_count], pairs.reshape(n, 2 * z_blocks)[:, :z_count]


def keyed_uniforms(
    key: int, streams: ArrayLike, purpose: int, step: int, count: int
) -> np.ndarray:
    """``(len(streams), count)`` uniforms in ``[0, 1)``, 53 bits each.

    Column ``j`` of row ``s`` is a pure function of ``(key,
    streams[s], purpose, step, j)``: the counter is ``(stream,
    purpose, step, j // 2)`` and the two uniforms of a block fill
    columns ``2b`` and ``2b + 1``.
    """
    return keyed_draws(key, streams, step, (purpose, count), (purpose, 0))[0]


def keyed_normals(
    key: int, streams: ArrayLike, purpose: int, step: int, count: int
) -> np.ndarray:
    """``(len(streams), count)`` standard normals by Box-Muller.

    Block ``b``'s uniforms ``(u1, u2)`` give columns ``2b`` and
    ``2b + 1`` as ``r cos(2 pi u2)`` and ``r sin(2 pi u2)`` with
    ``r = sqrt(-2 log(1 - u1))``; ``1 - u1`` is exact and never 0.
    """
    return keyed_draws(key, streams, step, (purpose, 0), (purpose, count))[1]
