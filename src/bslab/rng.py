"""Counter-based random streams, and the one place draws become numbers.

The generator is SplitMix64 evaluated at an arbitrary counter position:
draw i mixes the state seed + (i+1)*golden_gamma through the 64-bit
finalizer. With no sequential state, any batch decomposition over the index
range gives bit-identical draws. Every sampler therefore cuts its range into
BLOCK-sized pieces with map_blocks: when a second CPU is available, the
calling thread and one helper thread hand the pieces out on demand, each
taking the next untaken one inside a bounded window (numpy and
scipy.special release the GIL while they work). Each piece runs once and
the results come back in piece order; block_mean_m2 merges per-piece
moments in that order, so no result depends on the threads. A block of
draws makes one fresh array and holds the GIL briefly: the counters are
one add to a precomputed table into a per-thread scratch that is reused
from block to block (so it never page-faults), and the mixing, the
conversion and the inverse normal CDF run in place.
poisson_law is the one Poisson table: poisson_stream samples its cdf and
the poisson_jump Lindeberg tail sums its pmf.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .pricing import require_count

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_STREAM_SALT = np.uint64(0xD1B54A32D192ED03)
_INV_2_53 = float(2.0 ** -53)
_HALF_BIN = float(2.0 ** -54)
_BELOW_ONE = 1.0 - _INV_2_53
_INDEX_LIMIT = 2 ** 64 - 1

# draws per sampling block: a float64 block is 512 KiB, small enough that
# the mixing temporaries stay in a 2 MiB L2 cache
BLOCK = 65_536
# gamma*(k+1) for k < BLOCK: a block's counters are one add away from it
_STEPS = np.arange(1, BLOCK + 1, dtype=np.uint64) * _GAMMA
# per-thread scratch of BLOCK entries: uint64 counters for uniform_stream, a
# mask and counts for poisson_stream
_local = threading.local()
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

    The calling thread, starting with piece 0, and one helper thread each
    take the next untaken piece from one shared cursor; the caller takes one
    rather than wait for a late result. No piece is taken _AHEAD or more
    past the next one to yield, and piece bounds come from the piece index,
    so memory stays bounded in the number of pieces. With one usable CPU or
    fewer than two pieces everything runs serially. Both threads run fn under
    the caller's numpy error state. An exception raised by fn on either
    thread reaches the caller in piece order, and the helper has stopped by
    the time the generator finishes or is closed.
    """
    n = -(-total // step)

    def piece(i: int):
        lo = i * step
        return fn(lo, min(lo + step, total))

    if n < 2 or _usable_cpus() < 2:
        yield from map(piece, range(n))
        return
    cond = threading.Condition(threading.Lock())
    modes, errcall = np.geterr(), np.geterrcall()  # the caller's error state, for the helper too
    done = {}  # finished piece -> (result, exception)
    take, want = 1, 0  # next piece to take, next piece to yield

    def claim():
        # under cond: the next untaken piece inside the window, or None
        nonlocal take
        if take >= min(n, want + _AHEAD):
            return None
        take += 1
        return take - 1

    def run(i: int) -> None:
        try:
            outcome = piece(i), None
        except BaseException as exc:  # re-raised by the caller, in piece order
            outcome = None, exc
        with cond:
            done[i] = outcome
            cond.notify()

    def helper() -> None:
        np.seterr(**modes)
        np.seterrcall(errcall)
        while True:
            with cond:
                while (i := claim()) is None:
                    if take == n:
                        return
                    cond.wait()
            run(i)

    thread = threading.Thread(target=helper, daemon=True)
    thread.start()
    try:
        run(0)
        while want < n:
            with cond:
                i = None
                while want not in done and (i := claim()) is None:
                    cond.wait()
                if i is None:
                    (result, exc), want = done.pop(want), want + 1
                    cond.notify()
            if i is not None:
                run(i)
            elif exc is not None:
                raise exc
            else:
                yield result
    finally:
        with cond:
            take = n  # the helper takes no more pieces
            cond.notify()
        thread.join()


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


def check_seed(seed: int, name: str = "seed") -> np.uint64:
    """The seed (or the input called name) as a uint64; ValueError naming it
    unless it is an integer in [0, 2**64)."""
    seed = require_count(name, seed, 0)
    if seed >= 2 ** 64:
        raise ValueError(f"{name} must fit in 64 unsigned bits, got {seed}")
    return np.uint64(seed)


def uniform_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms on the open interval (0, 1) for indices start..start+count-1;
    start and count are integers >= 0 (numpy ones draw as equal Python ints)."""
    s = check_seed(seed)
    start, count = require_count("start", start, 0), require_count("count", count, 0)
    if start + count > _INDEX_LIMIT:
        raise ValueError(f"stream indices must stay below 2**64 - 1, got start {start} "
                         f"and count {count}")
    # counter k is seed + gamma*(start+k+1) mod 2**64: one add of an offset
    # to _STEPS per BLOCK draws, wrapping as uint64 does, mixed in this
    # thread's scratch so the returned array is the only fresh one
    try:
        scratch = _local.bits
    except AttributeError:
        scratch = _local.bits = np.empty(BLOCK, dtype=np.uint64)
    u = np.empty(count)
    for lo in range(0, count, BLOCK):
        hi = min(lo + BLOCK, count)
        bits, out = scratch[:hi - lo], u[lo:hi]
        offset = np.uint64((int(s) + int(_GAMMA) * (start + lo)) % 2 ** 64)
        np.add(_STEPS[:hi - lo], offset, out=bits)
        _mix64(bits, out.view(np.uint64))
        # top 53 bits k, centered in the bin: k*2**-53 is exact and one add
        # rounds (k + 1/2)*2**-53 once. The top bin's center 1 - 2**-54
        # rounds up to 1.0, so it is clamped to the largest double below 1.
        # Below 2**53 the int64 view converts exactly, and faster than uint64.
        bits >>= np.uint64(11)
        np.multiply(bits.view(np.int64), _INV_2_53, out=out)
        out += _HALF_BIN
        np.minimum(out, _BELOW_ONE, out=out)
    return u


def normal_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normal draws by inverse-CDF transform of uniform_stream: ndtri
    runs in place on uniforms that lie inside (0, 1) by construction."""
    from scipy.special import ndtri

    u = uniform_stream(seed, start, count)
    return ndtri(u, out=u)


def poisson_law(intensity: float, h: float = 1.0) -> tuple[list[float], list[float]]:
    """pmf and cdf of Poisson(mean = intensity*h) at k = 0, 1, ..., by p(k) = p(k-1) * (mean/k)
    from exp(-mean). Past the mean the table ends once the cdf reaches 1.0 or the
    pmf is 0 (later entries add exact zeros), or at k = int(mean + 40*sqrt(mean) + 200).
    The mean must be in (0, 700), where exp(-mean) does not underflow."""
    mean = intensity * h
    if not 0.0 < mean < 700.0:
        raise ValueError(f"poisson mean must be in (0, 700), got {mean} "
                         f"= intensity {intensity} * cell length h {h}")
    pmf = [math.exp(-mean)]
    cdf = [pmf[0]]
    cap = int(mean + 40.0 * math.sqrt(mean) + 200.0)
    k = 0
    while not (k > mean and (cdf[-1] >= 1.0 or not pmf[-1])) and k < cap:
        k += 1
        pmf.append(pmf[-1] * (mean / k))
        cdf.append(cdf[-1] + pmf[-1])
    return pmf, cdf


def poisson_stream(seed: int, start: int, count: int, intensity: float,
                   h: float = 1.0) -> np.ndarray:
    """Poisson(intensity*h) draws by inverse transform, one uniform per index.

    Intended for small and moderate means (the loop runs to the largest
    sampled value); poisson_law refuses a mean outside (0, 700).
    """
    _, cdf = poisson_law(intensity, h)
    u = uniform_stream(seed, start, count)
    # rounding can stop the cdf rising short of 1: ending it at 1.0 there ends every uniform
    cdf = cdf[:cdf.index(cdf[-1])] + [1.0]
    # count a BLOCK at a time in this thread's scratch, then write the counts
    # over their uniforms: u is the only fresh array. The counts stay below
    # len(cdf) < 2000, so 16 bits hold them exactly
    try:
        above, counts = _local.poisson
    except AttributeError:
        above = np.empty(BLOCK, dtype=bool)
        counts = np.empty(BLOCK, dtype=np.uint16)
        _local.poisson = above, counts
    for lo in range(0, count, BLOCK):
        block = u[lo:lo + BLOCK]
        active, out = above[:block.size], counts[:block.size]
        out.fill(0)
        np.greater(block, cdf[0], out=active)
        k = 0
        while active.any():
            k += 1
            out += active
            np.greater(block, cdf[k], out=active)
        block[:] = out
    return u


def substream(seed: int, stream: int) -> int:
    """Derive an independent stream seed from (seed, stream index)."""
    s, stream = check_seed(seed), check_seed(stream, "stream")
    with np.errstate(over="ignore"):
        salted = (s + np.uint64(1)) * _STREAM_SALT + stream * _GAMMA
        x = np.atleast_1d(salted)
        return int(_mix64(x, np.empty_like(x))[0])
