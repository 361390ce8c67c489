"""Counter-based random streams, and the one place draws become numbers.

The generator is SplitMix64 evaluated at an arbitrary counter position:
draw i mixes the state seed + (i+1)*golden_gamma through the 64-bit
finalizer. With no sequential state, any batch decomposition over the index
range gives bit-identical draws. Every sampler therefore cuts its range into
BLOCK-sized pieces with map_blocks: when a second CPU is available, a
one-thread executor runs the queued pieces in order while the calling
thread claims, by Future.cancel(), any it would otherwise wait behind
(numpy and scipy.special release the GIL while they work). Each piece runs
once and the results come back in piece order; block_mean_m2 merges
per-piece moments in that order, so no result depends on the threads. A
block of draws makes two arrays and holds the GIL briefly: the counters are
one add to a precomputed table, and the mixing and the inverse normal CDF
run in place.
poisson_law is the one Poisson table: poisson_stream samples its cdf and
the poisson_jump Lindeberg tail sums its pmf.
"""

from __future__ import annotations

import math
import os

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD1B54A32D192ED03)
_INV_2_53 = float(2.0 ** -53)
_BELOW_ONE = 1.0 - _INV_2_53
_INDEX_LIMIT = 2 ** 64 - 1

# draws per sampling block: a float64 block is 512 KiB, small enough that
# the mixing temporaries stay in a 2 MiB L2 cache
BLOCK = 65_536
# gamma*(k+1) for k < BLOCK: a block's counters are one add away from it
_STEPS = np.arange(1, BLOCK + 1, dtype=np.uint64) * _GAMMA
# most map_blocks pieces taken (running or finished) but not yet yielded
_AHEAD = 4


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(fn, total: int, step: int = BLOCK):
    """Yield fn(lo, hi) for the pieces [lo, hi) that cut range(total) every
    step indices, in order; the last piece may be short.

    The calling thread runs piece 0 while a one-thread executor works
    through a queue of the next pieces in order. While the next piece to
    yield is unfinished, the caller cancels the lowest queued piece the
    helper has not started and runs it itself: cancel() succeeds only on a
    piece the helper has not started, so each piece runs exactly once. No
    piece is taken _AHEAD or more past the next one to yield. With one
    usable CPU or fewer than two pieces everything runs serially. An
    exception raised by fn on either thread reaches the caller in piece
    order, and the helper has stopped by the time the generator finishes or
    is closed.
    """
    pieces = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    n = len(pieces)
    if n < 2 or _usable_cpus() < 2:
        yield from (fn(lo, hi) for lo, hi in pieces)
        return
    from concurrent.futures import ThreadPoolExecutor

    mine = {}  # piece the caller ran -> (result, exception)

    def run(i):
        try:
            mine[i] = fn(*pieces[i]), None
        except BaseException as exc:  # re-raised by the caller, in piece order
            mine[i] = None, exc

    pool = ThreadPoolExecutor(1)
    try:
        queued = {i: pool.submit(fn, *pieces[i]) for i in range(1, min(n, _AHEAD))}
        run(0)
        for want in range(n):
            while want not in mine and not queued[want].done():
                i = next((i for i in queued if queued[i].cancel()), None)
                if i is None:
                    break  # the helper has started every queued piece: wait below
                del queued[i]
                run(i)
            if want in mine:
                result, exc = mine.pop(want)
                if exc is not None:
                    raise exc
            else:
                result = queued.pop(want).result()
            if want + _AHEAD < n:
                queued[want + _AHEAD] = pool.submit(fn, *pieces[want + _AHEAD])
            yield result
    finally:
        pool.shutdown(cancel_futures=True)


def block_mean_m2(values, total: int) -> tuple[float, float]:
    """Mean and M2 (sum of squared deviations) of the arrays values(lo, hi)
    over the BLOCK pieces of range(total), taken together.

    Each piece is reduced on the thread that sampled it (values returns an
    array it owns, which is overwritten) and the pieces are merged in order
    with Chan et al.'s pairwise update, so memory is O(BLOCK).
    """
    def moments(lo: int, hi: int) -> tuple[int, float, float]:
        block = values(lo, hi)
        mean_b = float(block.mean())
        block -= mean_b
        return block.size, mean_b, float(np.square(block, out=block).sum())

    count, mean, m2 = 0, 0.0, 0.0
    for n_b, mean_b, m2_b in map_blocks(moments, total):
        merged = count + n_b
        delta = mean_b - mean
        mean, m2 = mean + delta * n_b / merged, m2 + m2_b + delta * delta * count * n_b / merged
        count = merged
    return mean, m2


def _mix64(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, in place on uint64 x, shifting into t."""
    np.right_shift(x, np.uint64(30), out=t)
    x ^= t
    x *= _MIX1
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= _MIX2
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def check_seed(seed: int) -> np.uint64:
    """The seed as a uint64; ValueError unless it is an integer in [0, 2**64)."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2 ** 64:
        raise ValueError(f"seed must fit in 64 unsigned bits, got {seed}")
    return np.uint64(seed)


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms on the open interval (0, 1) for indices start..start+count-1."""
    s = check_seed(seed)
    if start < 0 or count < 0:
        raise ValueError("start and count must be nonnegative")
    if start + count > _INDEX_LIMIT:
        raise ValueError(f"stream indices must stay below 2**64 - 1, got start {start} "
                         f"and count {count}")
    # counter k is seed + gamma*(start+k+1) mod 2**64: one add of an offset
    # to _STEPS per BLOCK draws, wrapping as uint64 does
    bits = np.empty(count, dtype=np.uint64)
    for lo in range(0, count, BLOCK):
        hi = min(lo + BLOCK, count)
        offset = np.uint64((int(s) + int(_GAMMA) * (start + lo)) % 2 ** 64)
        np.add(_STEPS[:hi - lo], offset, out=bits[lo:hi])
    u = np.empty(count)
    _mix64(bits, u.view(np.uint64))
    # top 53 bits, centered in the bin; the top bin's center 1 - 2**-54
    # rounds up to 1.0, so it is clamped to the largest double below 1.
    # Below 2**53 the int64 view converts exactly, and faster than uint64.
    bits >>= np.uint64(11)
    u[...] = bits.view(np.int64)
    u += 0.5
    u *= _INV_2_53
    return np.minimum(u, _BELOW_ONE, out=u)


def normal_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normal draws by inverse-CDF transform of uniform_stream: ndtri
    runs in place on uniforms that lie inside (0, 1) by construction."""
    from scipy.special import ndtri

    u = uniform_stream(seed, start, count)
    return ndtri(u, out=u)


def poisson_law(mean: float) -> tuple[list[float], list[float]]:
    """pmf and cdf of Poisson(mean) at k = 0, 1, ..., by p(k) = p(k-1) * (mean/k)
    from exp(-mean). The table ends at the first k past the mean whose cdf
    rounds to 1, or at k = int(mean + 40*sqrt(mean) + 200)."""
    pmf = [math.exp(-mean)]
    cdf = [pmf[0]]
    cap = int(mean + 40.0 * math.sqrt(mean) + 200.0)
    k = 0
    while not (cdf[-1] >= 1.0 - 1e-18 and k > mean) and k < cap:
        k += 1
        pmf.append(pmf[-1] * (mean / k))
        cdf.append(cdf[-1] + pmf[-1])
    return pmf, cdf


def poisson_stream(seed: int, start: int, count: int, mean: float) -> np.ndarray:
    """Poisson(mean) draws by inverse transform, one uniform per index.

    Intended for small and moderate means (the loop runs to the largest
    sampled value); mean must stay below ~700 so exp(-mean) does not
    underflow.
    """
    if not 0.0 < mean < 700.0:
        raise ValueError(f"poisson mean must be in (0, 700), got {mean}")
    u = uniform_stream(seed, start, count)
    _, cdf = poisson_law(mean)
    out = np.zeros(count)
    k = 0
    active = u > cdf[0]
    while active.any():
        k += 1
        if k == len(cdf):
            raise RuntimeError("poisson inverse transform failed to terminate")
        out += active
        active = u > cdf[k]
    return out


def substream(seed: int, stream: int) -> int:
    """Derive an independent stream seed from (seed, stream index)."""
    s = check_seed(seed)
    if stream < 0:
        raise ValueError("stream index must be nonnegative")
    with np.errstate(over="ignore"):
        salted = (s + np.uint64(1)) * _STREAM_SALT + np.uint64(stream) * _GAMMA
        x = np.atleast_1d(salted)
        return int(_mix64(x, np.empty_like(x))[0])
