import hashlib
import math
import sys
import threading
import time
import tracemalloc

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


_TOP = 2 ** 64 - 2
_SEED_MAX = 2 ** 64 - 1
# uniform_stream and normal_stream where the counter arithmetic must wrap as
# uint64 does: (seed, start, count) -> the first and last uniform, the first
# and last normal (hex floats), and the sha256 of both arrays' bytes
FROZEN_STREAMS = {
    (0, 0, 1): (
        "0x1.c4415072f63bap-1", "0x1.c4415072f63bap-1", "0x1.31135650387c6p+0", "0x1.31135650387c6p+0",
        "cf7bc9f9cbb6de07d83417e879ba321194c043b6d87297cf1e141dd08ac91b74"),
    (0, BLOCK - 1, 1): (
        "0x1.34df622fd3a6cp-4", "0x1.34df622fd3a6cp-4", "-0x1.6fc87903a8c0fp+0", "-0x1.6fc87903a8c0fp+0",
        "d13cfb8ba49bfd942248d03e16c118196782bff856b054384600d137e6a017bc"),
    (0, _TOP - 1, 1): (
        "0x1.86f23aa049267p-2", "0x1.86f23aa049267p-2", "-0x1.3404fbb11aaf7p-2", "-0x1.3404fbb11aaf7p-2",
        "3d1f44d39c70b81503bb51ad77a3f844006518d3ae3aaa7f2b7c81203e9844b1"),
    (0, 0, BLOCK): (
        "0x1.c4415072f63bap-1", "0x1.34df622fd3a6cp-4", "0x1.31135650387c6p+0", "-0x1.6fc87903a8c0fp+0",
        "29159101f3d1fc54c0a46a8133e823a09809ccd3e4c510f2a9f4adfb41384fe7"),
    (0, BLOCK - 1, BLOCK): (
        "0x1.34df622fd3a6cp-4", "0x1.b867a22a42dd2p-1", "-0x1.6fc87903a8c0fp+0", "0x1.14c09afc6df5bp+0",
        "1a733020b9ea78249a4c57e4b2e3a51a963091e39aeeee6af1e22720fb397c7b"),
    (0, _TOP - BLOCK, BLOCK): (
        "0x1.a574e3ae2593cp-1", "0x1.86f23aa049267p-2", "0x1.dadcb1070b04bp-1", "-0x1.3404fbb11aaf7p-2",
        "9b0ebcb13ddf3a1621b8c2d30a37338af46b1f868cb6e5051f38aafce0ff77c3"),
    (0, 0, BLOCK + 1): (
        "0x1.c4415072f63bap-1", "0x1.4aa6baebbadd0p-1", "0x1.31135650387c6p+0", "0x1.7efdb3d2fc002p-2",
        "5584a39432ac6dfdd8588936085a46bd16e761683b2a81a5e857dfd831d366db"),
    (0, BLOCK - 1, BLOCK + 1): (
        "0x1.34df622fd3a6cp-4", "0x1.a4d7981903ce4p-4", "-0x1.6fc87903a8c0fp+0", "-0x1.441cec2e1ad21p+0",
        "4cd612b53efb370d415d3aadb4c22e873fb8fb1f437e25934fddc4d2037a52e5"),
    (0, _TOP - BLOCK - 1, BLOCK + 1): (
        "0x1.1f662faa04b2bp-2", "0x1.86f23aa049267p-2", "-0x1.2968198612b68p-1", "-0x1.3404fbb11aaf7p-2",
        "ff4e6e19f9dc097f9d6ac5bf164d010ee8cd1c99a90332a330cd494e5ea3f1c7"),
    (_SEED_MAX, 0, 1): (
        "0x1.c9b2e2ee36ca6p-1", "0x1.c9b2e2ee36ca6p-1", "0x1.3f6e0ef4605f6p+0", "0x1.3f6e0ef4605f6p+0",
        "b8e3d3bd0e1583da773cb7c60fb2e3d687eaba71bb32ae6e7f7a4270def962ae"),
    (_SEED_MAX, BLOCK - 1, 1): (
        "0x1.d0afaf947ca5ep-1", "0x1.d0afaf947ca5ep-1", "0x1.5378c84e6fefdp+0", "0x1.5378c84e6fefdp+0",
        "df5e1d462da0eab784b931dc1be707a7b87d1dd8607723f0ab7de8fe6f3ebe59"),
    (_SEED_MAX, _TOP - 1, 1): (
        "0x1.ce2c42bc5c4d9p-2", "0x1.ce2c42bc5c4d9p-2", "-0x1.f4d65d0221edbp-4", "-0x1.f4d65d0221edbp-4",
        "7aa8d38079c27370eb1e13e3a1155285b0790b88e87ad82febc679740761f722"),
    (_SEED_MAX, 0, BLOCK): (
        "0x1.c9b2e2ee36ca6p-1", "0x1.d0afaf947ca5ep-1", "0x1.3f6e0ef4605f6p+0", "0x1.5378c84e6fefdp+0",
        "be3e494ec2b72fa325359784205e0ffaa3706da08fa255e08bc3951c66c81dc1"),
    (_SEED_MAX, BLOCK - 1, BLOCK): (
        "0x1.d0afaf947ca5ep-1", "0x1.fa616b0bffc30p-1", "0x1.5378c84e6fefdp+0", "0x1.254683614efafp+1",
        "e56d6f066da70a1f205a3c8d963baebcaea7c59f45e93a71b0d2634727b894b0"),
    (_SEED_MAX, _TOP - BLOCK, BLOCK): (
        "0x1.ec71639b46922p-1", "0x1.ce2c42bc5c4d9p-2", "0x1.c5a1b0361889bp+0", "-0x1.f4d65d0221edbp-4",
        "a918194d9a880f15bd1e5de473e6dc6607053fc7b420d4a91cf7d59d2dabcd4f"),
    (_SEED_MAX, 0, BLOCK + 1): (
        "0x1.c9b2e2ee36ca6p-1", "0x1.e024df765af67p-2", "0x1.3f6e0ef4605f6p+0", "-0x1.3fba88c79bef7p-4",
        "cd17de7bdde70ecd25631c34488c1c64c483aee494ff1d384db00b6e4fbb14b8"),
    (_SEED_MAX, BLOCK - 1, BLOCK + 1): (
        "0x1.d0afaf947ca5ep-1", "0x1.97446d66ccdfep-1", "0x1.5378c84e6fefdp+0", "0x1.a6a24ff8fd885p-1",
        "6506ec6b7289d17359bc72c7fa4d4b1eeb816856fbde75b32a9d142a3db9a912"),
    (_SEED_MAX, _TOP - BLOCK - 1, BLOCK + 1): (
        "0x1.814a77d91e952p-1", "0x1.ce2c42bc5c4d9p-2", "0x1.5d69767b8764bp-1", "-0x1.f4d65d0221edbp-4",
        "025a0f1b813d0dfd62faf356dae153a61de60254e0946d83b4e38c391135bffb"),
}


@pytest.mark.parametrize("key", FROZEN_STREAMS, ids=str)
def test_stream_bits_are_frozen_at_the_counter_edges(key):
    u = uniform_stream(*key)
    z = normal_stream(*key)
    *hexes, digest = FROZEN_STREAMS[key]
    assert u.shape == z.shape == (key[2],)
    assert [u[0].hex(), u[-1].hex(), z[0].hex(), z[-1].hex()] == hexes
    assert hashlib.sha256(u.tobytes() + z.tobytes()).hexdigest() == digest


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
    for cpus in (2, 1):  # pool on, then off
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


def _helper_threads(before):
    return [t for t in threading.enumerate() if t not in before and t.is_alive()]


def test_map_blocks_yields_in_order_when_pieces_finish_out_of_order(monkeypatch):
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
    finished = [threading.Event() for _ in range(12)]
    order = []

    def fn(lo, hi):
        i = lo // 3
        if i % 2 == 0 and i + 1 < 12:
            # each even piece finishes after the odd piece behind it, which
            # the other worker takes next
            assert finished[i + 1].wait(timeout=10.0)
        order.append(i)
        finished[i].set()
        return lo, hi

    assert list(map_blocks(fn, 35, step=3)) == [(lo, min(lo + 3, 35)) for lo in range(0, 35, 3)]
    assert sorted(order) == list(range(12))
    assert all(order.index(i + 1) < order.index(i) for i in range(0, 12, 2))


def test_map_blocks_runs_two_pieces_at_once(monkeypatch):
    # pieces 0 and 1 can only both pass the barrier if they run together
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
    barrier = threading.Barrier(2, timeout=10.0)
    caller = threading.current_thread()
    ran_on = set()

    def fn(lo, hi):
        ran_on.add(threading.current_thread())
        if lo < 2:
            barrier.wait()
        return lo

    assert list(map_blocks(fn, 6, step=1)) == list(range(6))
    assert caller not in ran_on and len(ran_on) == 2


@pytest.mark.parametrize("cpus", [1, 2], ids=["serial", "pooled"])
def test_map_blocks_memory_stays_bounded_in_pieces(monkeypatch, cpus):
    monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
    import concurrent.futures  # noqa: F401  (its import is not the call's memory)

    tracemalloc.start()
    try:
        gen = map_blocks(lambda lo, hi: lo, 2 ** 20, step=1)
        assert [next(gen) for _ in range(3)] == [0, 1, 2]
        gen.close()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_map_blocks_holds_at_most_ahead_results(monkeypatch):
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
    lock = threading.Lock()
    started = []

    def fn(lo, hi):
        with lock:
            started.append(lo)
        return lo

    received = 0
    most_held = 0
    for lo in map_blocks(fn, 40, step=1):
        assert lo == received
        received += 1
        if received == 1:
            # with the consumer away, the threads fill the window and stop
            deadline = time.monotonic() + 10.0
            while len(started) < 1 + rng._AHEAD and time.monotonic() < deadline:
                time.sleep(0.001)
            time.sleep(0.05)
        # pieces started but not yet handed over: running or finished
        with lock:
            most_held = max(most_held, len(started) - received)
        assert len(started) - received <= rng._AHEAD
    assert most_held == rng._AHEAD
    assert sorted(started) == list(range(40))


@pytest.mark.parametrize("ending", ["normal", "exception", "close"])
def test_map_blocks_helper_never_outlives_the_call(monkeypatch, ending):
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
    before = set(threading.enumerate())
    ran_on = set()

    def fn(lo, hi):
        ran_on.add(threading.current_thread())
        if ending == "exception" and lo == 6:
            raise RuntimeError("piece 6 failed")
        time.sleep(0.001)
        return lo

    gen = map_blocks(fn, 20, step=1)
    assert next(gen) == 0
    assert 1 <= len(_helper_threads(before)) <= 2
    if ending == "normal":
        assert list(gen) == list(range(1, 20))
    elif ending == "exception":
        with pytest.raises(RuntimeError, match="piece 6 failed"):
            list(gen)
    else:
        gen.close()
    assert _helper_threads(before) == []
    assert 1 <= len(ran_on) <= 2 and threading.current_thread() not in ran_on


def test_map_blocks_from_three_callers_under_frequent_switching(monkeypatch):
    # three callers, each with its own two workers: nine threads on at most two
    # CPUs, switching as often as the interpreter can; a scheduling slip
    # would repeat or skip a piece, and a repeat can still return equal
    # results, so every (caller, piece) call is counted
    monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
    expected = [(lo, min(lo + 3, 997)) for lo in range(0, 997, 3)]
    results = {}
    lock = threading.Lock()
    calls = {}  # (caller, piece start) -> calls of fn

    def consume(k):
        def fn(lo, hi):
            with lock:
                calls[k, lo] = calls.get((k, lo), 0) + 1
            return lo, hi

        results[k] = list(map_blocks(fn, 997, step=3))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 1.0
        runs = 0
        while runs == 0 or time.monotonic() < deadline:
            results.clear()
            calls.clear()
            callers = [threading.Thread(target=consume, args=(k,)) for k in range(3)]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=30.0)
                assert not t.is_alive()
            assert results == {k: expected for k in range(3)}
            assert calls == {(k, lo): 1 for k in range(3) for lo, _ in expected}
            runs += 1
    finally:
        sys.setswitchinterval(interval)
