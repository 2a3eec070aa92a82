"""The seeded zipfian key sampler behind ``loadgen --key-dist zipf``.

The sampler's whole job is to make hot-key skew *reproducible*: same
seed, same draw sequence, and an empirical rank histogram that tracks
the exact ``1/(rank+1)^s`` probabilities.  The uniform
path must stay ``None`` -- the generator's own ``randrange`` remains
the source, so pre-existing seeded workloads replay byte-identically.
"""

import collections
import math
import random

import pytest

from repro.errors import ConfigError
from repro.service.loadgen import ZipfSampler, make_key_sampler, _make_op

pytestmark = [pytest.mark.routing]

DRAWS = 20_000


def probability(sampler: ZipfSampler, rank: int) -> float:
    """The exact probability of ``sampler`` drawing ``rank``."""
    return (1.0 / float(rank + 1) ** sampler.s) / sampler._total


class TestShape:
    def test_probabilities_are_normalised_and_monotone(self):
        sampler = ZipfSampler(100, 1.1, random.Random(1))
        probs = [probability(sampler, rank) for rank in range(100)]
        assert math.isclose(sum(probs), 1.0, rel_tol=1e-12)
        assert all(a > b for a, b in zip(probs, probs[1:]))
        # Rank 0 carries the exact harmonic head weight.
        total = sum(1.0 / (r + 1) ** 1.1 for r in range(100))
        assert math.isclose(probs[0], 1.0 / total, rel_tol=1e-12)

    def test_empirical_frequency_tracks_the_advertised_shape(self):
        sampler = ZipfSampler(50, 1.2, random.Random(42))
        counts = collections.Counter(sampler.sample() for _ in range(DRAWS))
        assert set(counts) <= set(range(50))
        # The head ranks have enough mass for a tight check; the tail
        # only has to be a tail.
        for rank in range(5):
            expected = probability(sampler, rank) * DRAWS
            assert abs(counts[rank] - expected) < 5 * math.sqrt(expected), \
                rank
        assert counts[0] > counts[10] > counts[40]
        head = sum(counts[r] for r in range(5)) / DRAWS
        assert head > 0.5  # s=1.2 concentrates the top-5 past half

    def test_steeper_exponent_concentrates_harder(self):
        flat = ZipfSampler(100, 0.5, random.Random(7))
        steep = ZipfSampler(100, 2.0, random.Random(7))
        assert probability(steep, 0) > probability(flat, 0)
        assert probability(steep, 99) < probability(flat, 99)

    def test_same_seed_same_draws(self):
        a = ZipfSampler(64, 1.1, random.Random(99))
        b = ZipfSampler(64, 1.1, random.Random(99))
        assert [a.sample() for _ in range(200)] == \
            [b.sample() for _ in range(200)]

    def test_population_of_one_always_draws_rank_zero(self):
        sampler = ZipfSampler(1, 1.1, random.Random(3))
        assert {sampler.sample() for _ in range(50)} == {0}
        assert probability(sampler, 0) == 1.0


class TestFactory:
    def test_uniform_returns_none_so_legacy_streams_replay(self):
        assert make_key_sampler("uniform", 1.1, 100, random.Random(1)) is None

    def test_zipf_returns_a_sampler(self):
        sampler = make_key_sampler("zipf", 1.5, 32, random.Random(1))
        assert isinstance(sampler, ZipfSampler)
        assert sampler.n == 32 and sampler.s == 1.5

    def test_unknown_dist_is_a_config_error(self):
        with pytest.raises(ConfigError, match="key_dist"):
            make_key_sampler("pareto", 1.1, 100, random.Random(1))

    def test_bad_population_and_exponent_are_config_errors(self):
        with pytest.raises(ConfigError, match="population"):
            ZipfSampler(0, 1.1, random.Random(1))
        with pytest.raises(ConfigError, match="exponent"):
            ZipfSampler(10, 0.0, random.Random(1))


class TestOpGeneration:
    def test_uniform_op_stream_is_unchanged_by_the_sampler_plumbing(self):
        # sampler=None must reproduce the exact pre-zipf draw sequence:
        # same rng, same calls, same ops.
        ops_a = [_make_op(random.Random(5), 0.3, "kv", 8, 100)
                 for _ in range(1)]
        rng = random.Random(5)
        ops_b = [_make_op(rng, 0.3, "kv", 8, 100, sampler=None)]
        assert ops_a == ops_b

    def test_zipf_kv_ops_hammer_the_head_keys(self):
        rng = random.Random(11)
        sampler = ZipfSampler(1000, 1.3, rng)
        keys = collections.Counter(
            _make_op(rng, 0.0, "kv", 8, 1000, sampler=sampler)["key"]
            for _ in range(2000)
        )
        assert keys.most_common(1)[0][0] == "k00000000"

    def test_zipf_raw_ops_hammer_pair_zero(self):
        rng = random.Random(12)
        sampler = ZipfSampler(8, 1.3, rng)
        pairs = collections.Counter(
            _make_op(rng, 0.0, "raw", 8, 64, sampler=sampler)["pair"]
            for _ in range(2000)
        )
        assert pairs.most_common(1)[0][0] == 0
        assert set(pairs) <= set(range(8))
