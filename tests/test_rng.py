import math

import numpy as np
import pytest
from scipy import stats

from bslab.normal import norm_cdf_inv
import bslab.rng as rng
from bslab.rng import (BLOCK, block_mean_m2, map_blocks, normal_stream, poisson_law,
                       poisson_stream, substream, uniform_stream)


def test_uniform_open_interval():
    u = uniform_stream(1, 0, 100_000)
    assert np.all(u > 0.0) and np.all(u < 1.0)


def test_uniform_batch_decomposition_is_exact():
    whole = uniform_stream(42, 0, 1000)
    parts = [uniform_stream(42, 0, 137), uniform_stream(42, 137, 0), uniform_stream(42, 137, 863)]
    assert parts[1].dtype == np.float64 and parts[1].shape == (0,)
    assert np.array_equal(whole, np.concatenate(parts))


def test_uniform_moments():
    u = uniform_stream(9, 0, 200_000)
    m = u.size
    assert abs(u.mean() - 0.5) <= 4.0 * math.sqrt(1.0 / 12.0 / m)
    assert abs(u.var() - 1.0 / 12.0) <= 5.0 * math.sqrt(1.0 / 180.0 / m)


def test_different_seeds_differ():
    assert not np.array_equal(uniform_stream(1, 0, 64), uniform_stream(2, 0, 64))


def test_normal_stream_is_inverse_cdf_of_uniforms():
    for count in (256, 0):
        z = normal_stream(5, 100, count)
        assert z.dtype == np.float64 and z.shape == (count,)
        assert np.array_equal(z, norm_cdf_inv(uniform_stream(5, 100, count)))


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
    parts = [poisson_stream(8, 0, 100, 2.0), poisson_stream(8, 100, 0, 2.0),
             poisson_stream(8, 100, 412, 2.0)]
    assert parts[1].dtype == np.float64 and parts[1].shape == (0,)
    assert np.array_equal(poisson_stream(8, 0, 512, 2.0), np.concatenate(parts))


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


@pytest.mark.parametrize("total, step, pieces", [
    (10, 4, [(0, 4), (4, 8), (8, 10)]),  # short last piece
    (12, 4, [(0, 4), (4, 8), (8, 12)]),
    (3, 8, [(0, 3)]),  # step > total
    (0, 4, []),
])
@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "helper"])
def test_map_blocks_piece_bounds(monkeypatch, total, step, pieces, cpus):
    monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
    assert list(map_blocks(lambda lo, hi: (lo, hi), total, step=step)) == pieces


def test_map_blocks_defaults_to_block_pieces():
    assert list(map_blocks(lambda lo, hi: (lo, hi), 2 * BLOCK + 1)) == \
        [(0, BLOCK), (BLOCK, 2 * BLOCK), (2 * BLOCK, 2 * BLOCK + 1)]


@pytest.mark.parametrize("total", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
def test_block_mean_m2_matches_one_piece_reduction(monkeypatch, total):
    def values(lo, hi):
        return np.exp(normal_stream(4, lo, hi - lo))

    x = values(0, total)
    runs = []
    for cpus in (2, 1):  # helper on, then off
        monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
        runs.append(block_mean_m2(values, total))
    assert runs[0] == runs[1]
    mean, m2 = runs[0]
    assert mean == pytest.approx(x.mean(), rel=1e-13)
    assert m2 == pytest.approx(float(np.sum((x - x.mean()) ** 2)), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("mean", [2.0 / 16, 0.25, 2.0, 30.0, 650.0])
def test_poisson_law_matches_reference_pmf(mean):
    pmf, cdf = poisson_law(mean)
    k = np.arange(len(pmf))
    assert np.allclose(pmf, stats.poisson.pmf(k, mean), rtol=1e-11, atol=1e-300)
    assert np.array_equal(cdf, np.cumsum(pmf))
    # the table runs past the mean until the cdf rounds to 1
    assert len(pmf) - 1 > mean and cdf[-1] >= 1.0 - 1e-12
