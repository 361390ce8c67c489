import math

import numpy as np
import pytest
from scipy import stats

from bslab.normal import norm_cdf_inv
from bslab.rng import normal_stream, poisson_stream, substream, uniform_stream


def test_uniform_open_interval():
    u = uniform_stream(1, 0, 100_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_uniform_batch_decomposition_is_exact():
    whole = uniform_stream(42, 0, 1000)
    parts = np.concatenate([uniform_stream(42, 0, 137), uniform_stream(42, 137, 863)])
    assert np.array_equal(whole, parts)


def test_uniform_moments():
    u = uniform_stream(9, 0, 200_000)
    m = u.size
    assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / m)
    assert abs(u.var() - 1.0 / 12.0) <= 5.0 * math.sqrt(1.0 / 180.0 / m)


def test_different_seeds_differ():
    assert not np.array_equal(uniform_stream(1, 0, 64), uniform_stream(2, 0, 64))


def test_normal_stream_is_inverse_cdf_of_uniforms():
    u = uniform_stream(5, 100, 256)
    assert np.array_equal(normal_stream(5, 100, 256), norm_cdf_inv(u))


def test_normal_stream_moments():
    z = normal_stream(11, 0, 200_000)
    m = z.size
    assert abs(z.mean()) <= 4.0 / math.sqrt(m)
    assert abs(z.var() - 1.0) <= 4.0 * math.sqrt(2.0 / m)


def test_poisson_stream_matches_reference_pmf():
    mean = 0.25
    draws = poisson_stream(3, 0, 100_000, mean)
    m = draws.size
    assert abs(draws.mean() - mean) <= 4.0 * math.sqrt(mean / m)
    for k in range(4):
        expected = stats.poisson.pmf(k, mean)
        observed = np.mean(draws == k)
        assert abs(observed - expected) <= 5.0 * math.sqrt(expected * (1 - expected) / m)


def test_poisson_stream_deterministic():
    assert np.array_equal(poisson_stream(8, 0, 512, 2.0), poisson_stream(8, 0, 512, 2.0))
    parts = np.concatenate([poisson_stream(8, 0, 100, 2.0), poisson_stream(8, 100, 412, 2.0)])
    assert np.array_equal(poisson_stream(8, 0, 512, 2.0), parts)


def test_poisson_mean_domain():
    with pytest.raises(ValueError):
        poisson_stream(1, 0, 10, 0.0)
    with pytest.raises(ValueError):
        poisson_stream(1, 0, 10, 800.0)


def test_substream_derivation():
    assert substream(42, 0) != substream(42, 1)
    assert substream(42, 3) == substream(42, 3)
    assert 0 <= substream(42, 3) < 2 ** 64


@pytest.mark.parametrize("bad", [-1, 2 ** 64, 1.5, "x"])
def test_seed_validation(bad):
    with pytest.raises(ValueError):
        uniform_stream(bad, 0, 4)


def test_index_range_past_two_to_the_64_is_a_value_error():
    with pytest.raises(ValueError, match="below 2\\*\\*64 - 1"):
        uniform_stream(1, 2 ** 64 - 2, 5)
    with pytest.raises(ValueError):
        normal_stream(1, 2 ** 64 - 2, 5)
    with pytest.raises(ValueError):
        poisson_stream(1, 2 ** 64 - 2, 5, 1.0)
    # the last index whose counter fits in 64 bits still draws
    assert uniform_stream(1, 2 ** 64 - 2, 1).shape == (1,)


def test_top_bin_draw_stays_below_one():
    # this index draws the top 53-bit bin, whose center rounds up to 1.0
    u = uniform_stream(0, 8454462832853231295, 1)
    assert u[0] < 1.0
    assert u[0] == 1.0 - 2.0 ** -53
    assert np.isfinite(normal_stream(0, 8454462832853231295, 1)).all()
