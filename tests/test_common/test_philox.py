"""The keyed counter-based draws: Philox4x32-10 and what is built on it.

Known answers come from the Random123 distribution (``kat_vectors``,
``philox4x32_10``), with the key given as its two words ``k0 k1``.

The distribution checks draw a fixed sample and bound each statistic
at five standard errors of its sampling distribution (a false alarm
rate below 1e-6 per bound; the sample is fixed, so a pass is
reproducible):

* uniforms, n = 200,000: ``|mean - 1/2| <= 5 * sqrt(1/12 / n)``
  (0.0033) and ``|var - 1/12| <= 5 * sqrt((1/80 - 1/144) / n)``
  (0.00083);
* normals, n = 200,000: ``|mean| <= 5 / sqrt(n)`` (0.0112) and
  ``|std - 1| <= 5 / sqrt(2 n)`` (0.0079);
* the shard runtime's explore share over 2,000 consumers x 20 rounds
  (n = 40,000) at epsilon = 0.25: ``|share - eps| <= 5 * sqrt(eps (1 -
  eps) / n)`` (0.0108).
"""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.randomness import (
    keyed_normals,
    keyed_uniforms,
    philox4x32,
)
from repro.experiments.sharded import ShardedRunSpec, ShardRuntime


def _key(k0: int, k1: int) -> int:
    return (k1 << 32) | k0


KNOWN_ANSWERS = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    (
        (0xFFFFFFFF,) * 4,
        (0xFFFFFFFF, 0xFFFFFFFF),
        (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
    ),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


class TestPhilox:
    @pytest.mark.parametrize("counter,key,expected", KNOWN_ANSWERS)
    def test_known_answers(self, counter, key, expected):
        out = philox4x32(np.array([counter]), _key(*key))
        assert tuple(int(w) for w in out[0]) == expected

    def test_batch_equals_rows(self):
        counters = np.array([c for c, _, _ in KNOWN_ANSWERS] * 2)
        key = _key(0xA4093822, 0x299F31D0)
        batch = philox4x32(counters, key)
        rows = np.vstack([philox4x32(c[None, :], key) for c in counters])
        assert np.array_equal(batch, rows)
        assert int(batch.max()) <= 0xFFFFFFFF


KEY = 0x0123456789ABCDEF
STREAMS = np.array([0, 1, 7, 42, 999, 65_536, 1_000_003, 2**32 - 1])


class TestKeyedDraws:
    @pytest.mark.parametrize("draw", [keyed_uniforms, keyed_normals])
    @pytest.mark.parametrize("count", [1, 2, 3, 12])
    def test_batch_equals_single_calls(self, draw, count):
        batch = draw(KEY, STREAMS, 2, 5, count)
        assert batch.shape == (len(STREAMS), count)
        for row, stream in zip(batch, STREAMS):
            single = draw(KEY, np.array([stream]), 2, 5, count)
            assert single.tobytes() == row.tobytes()

    @pytest.mark.parametrize("draw", [keyed_uniforms, keyed_normals])
    def test_any_order_and_subset(self, draw):
        batch = draw(KEY, STREAMS, 1, 3, 5)
        order = np.array([6, 2, 7, 0, 3])
        subset = draw(KEY, STREAMS[order], 1, 3, 5)
        assert subset.tobytes() == batch[order].tobytes()

    def test_counter_layout(self):
        # Column j of stream s at (purpose, step) is half (j % 2) of
        # the block at counter (s, purpose, step, j // 2).
        stream, purpose, step = 42, 3, 9
        got = keyed_uniforms(KEY, [stream], purpose, step, 4)[0]
        for j, value in enumerate(got):
            words = philox4x32(
                np.array([[stream, purpose, step, j // 2]]), KEY
            )[0]
            hi, lo = (int(words[0]), int(words[1])) if j % 2 == 0 else (
                int(words[2]), int(words[3])
            )
            expected = ((hi >> 5) * 2**26 + (lo >> 6)) * 2.0**-53
            assert value == expected

    def test_every_counter_word_matters(self):
        base = keyed_uniforms(KEY, [5], 1, 2, 2)
        for other in (
            keyed_uniforms(KEY + 1, [5], 1, 2, 2),
            keyed_uniforms(KEY, [6], 1, 2, 2),
            keyed_uniforms(KEY, [5], 2, 2, 2),
            keyed_uniforms(KEY, [5], 1, 3, 2),
        ):
            assert not np.any(other == base)

    def test_normals_are_box_muller_of_the_uniforms(self):
        u = keyed_uniforms(KEY, STREAMS, 4, 1, 6)
        z = keyed_normals(KEY, STREAMS, 4, 1, 6)
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:, 0::2]))
        theta = 2.0 * np.pi * u[:, 1::2]
        assert np.array_equal(z[:, 0::2], radius * np.cos(theta))
        assert np.array_equal(z[:, 1::2], radius * np.sin(theta))

    def test_words_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError, match="stream"):
            keyed_uniforms(KEY, [2**32], 1, 0, 1)
        with pytest.raises(ConfigurationError, match="stream"):
            keyed_uniforms(KEY, [-1], 1, 0, 1)
        with pytest.raises(ConfigurationError, match="step"):
            keyed_normals(KEY, [0], 1, 2**32, 1)


class TestDistributions:
    N = 200_000

    def _streams(self):
        return np.arange(self.N // 4, dtype=np.int64)

    def test_uniform_mean_and_variance(self):
        u = keyed_uniforms(KEY, self._streams(), 1, 0, 4).ravel()
        n = len(u)
        assert n == self.N
        assert u.min() >= 0.0 and u.max() < 1.0
        assert abs(u.mean() - 0.5) <= 5 * np.sqrt(1 / 12 / n)
        assert abs(u.var() - 1 / 12) <= 5 * np.sqrt((1 / 80 - 1 / 144) / n)

    def test_normal_mean_and_std(self):
        z = keyed_normals(KEY, self._streams(), 2, 0, 4).ravel()
        n = len(z)
        assert n == self.N
        assert abs(z.mean()) <= 5 / np.sqrt(n)
        assert abs(z.std() - 1.0) <= 5 / np.sqrt(2 * n)

    def test_explore_share_is_epsilon(self):
        epsilon, rounds = 0.25, 20
        spec = ShardedRunSpec(
            seed=4,
            epsilon=epsilon,
            world_params=dict(
                n_providers=2, services_per_provider=2, n_consumers=2_000
            ),
        )
        runtime = ShardRuntime(spec, 0, 1)
        explored = sum(
            int((runtime.round_draws(r)[0][:, 0] < epsilon).sum())
            for r in range(rounds)
        )
        n = rounds * 2_000
        share = explored / n
        assert abs(share - epsilon) <= 5 * np.sqrt(epsilon * (1 - epsilon) / n)
