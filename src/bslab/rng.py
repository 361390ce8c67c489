"""Counter-based random streams: each draw is a pure function of (seed, index).

The generator is SplitMix64 evaluated at an arbitrary counter position:
draw i mixes the state seed + (i+1)*golden_gamma through the 64-bit
finalizer. Because there is no sequential state, any batch decomposition
over the index range produces bit-identical draws, which is what makes
Monte Carlo results independent of batch size or parallelism. Callers
therefore sample in fixed BLOCK-sized pieces: the uint64 mixing of a block
stays in cache, and where the blocks end never changes a value.

map_blocks runs those pieces on the calling thread plus one helper thread
when a second CPU is available (numpy and scipy.special release the GIL
inside their loops) and hands the results back in canonical order, so the
results are bit-identical to a serial run.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .normal import norm_cdf_inv

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
# whether map_blocks may use its helper thread; False forces the serial path
USE_HELPER = True


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_blocks(fn, starts):
    """Yield fn(start) for each start, in order.

    The calling thread computes the even-numbered starts and one helper
    thread the odd-numbered ones, so at most two blocks are in flight; with
    one usable CPU or fewer than two starts everything runs serially. An
    exception raised by fn on either thread reaches the caller, and the
    helper has stopped by the time the generator finishes or is closed.
    """
    starts = list(starts)
    if not USE_HELPER or len(starts) < 2 or _usable_cpus() < 2:
        yield from map(fn, starts)
        return
    with ThreadPoolExecutor(1) as helper:
        for i in range(0, len(starts), 2):
            odd = helper.submit(fn, starts[i + 1]) if i + 1 < len(starts) else None
            yield fn(starts[i])
            if odd is not None:
                yield odd.result()


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, applied in place to a uint64 array."""
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
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
    bits = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    bits *= _GAMMA
    bits += s
    _mix64(bits)
    # top 53 bits, centered in the bin; the top bin's center 1 - 2**-54
    # rounds up to 1.0, so it is clamped to the largest double below 1
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u += 0.5
    u *= _INV_2_53
    return np.minimum(u, _BELOW_ONE, out=u)


def block_moments(block: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, M2) of one block of values. The block is overwritten."""
    mean_b = float(block.mean())
    block -= mean_b
    return block.size, mean_b, float(np.square(block, out=block).sum())


def merge_moments(acc: tuple[int, float, float],
                  part: tuple[int, float, float]) -> tuple[int, float, float]:
    """Fold one block's (count, mean, M2) into a running one with Chan et
    al.'s pairwise update."""
    count, mean, m2 = acc
    n_b, mean_b, m2_b = part
    total = count + n_b
    delta = mean_b - mean
    return total, mean + delta * n_b / total, m2 + m2_b + delta * delta * count * n_b / total


def normal_stream(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normal draws by inverse-CDF transform of uniform_stream."""
    if count == 0:
        return np.empty(0)
    return norm_cdf_inv(uniform_stream(seed, start, count))


def poisson_stream(seed: int, start: int, count: int, mean: float) -> np.ndarray:
    """Poisson(mean) draws by inverse transform, one uniform per index.

    Intended for small and moderate means (the loop runs to the largest
    sampled value); mean must stay below ~700 so exp(-mean) does not
    underflow.
    """
    if not 0.0 < mean < 700.0:
        raise ValueError(f"poisson mean must be in (0, 700), got {mean}")
    u = uniform_stream(seed, start, count)
    out = np.zeros(count)
    pmf = np.exp(-mean)
    cdf = pmf
    k = 0
    cap = int(mean + 40.0 * np.sqrt(mean) + 200.0)
    active = u > cdf
    while active.any():
        k += 1
        if k > cap:
            raise RuntimeError("poisson inverse transform failed to terminate")
        pmf *= mean / k
        cdf += pmf
        out += active
        active = u > cdf
    return out


def substream(seed: int, stream: int) -> int:
    """Derive an independent stream seed from (seed, stream index)."""
    s = check_seed(seed)
    if stream < 0:
        raise ValueError("stream index must be nonnegative")
    with np.errstate(over="ignore"):
        salted = (s + np.uint64(1)) * _STREAM_SALT + np.uint64(stream) * _GAMMA
        return int(_mix64(np.atleast_1d(salted))[0])
