"""Seeded Monte Carlo estimation of link-rate averages over UAV positions.

Sampling uses the counter-based Philox4x64-10 generator so that shards are
deterministic and non-overlapping: shard i draws from Philox(key=seed)
jumped i times. The (seed, shards) pair is part of the reproducibility
contract: identical inputs draw the same positions on every machine, and
give bit-identical estimates at one numpy SIMD dispatch level. numpy's log,
exp and power kernels round differently at different levels (AVX-512 or
not), so the last bits of an estimate may differ between machines; see
README.

Philox's output at any (key, counter) is ten rounds of integer arithmetic,
so _ArrayPhilox computes numpy's doubles with uint64 array operations, bit
for bit. A draw of at most _ARRAY_PHILOX_MAX samples reads them, so a
process whose draws are all that small, as the default 10,000 are, never
imports numpy.random (7-12 ms and 2.8 MB of peak RSS, with `secrets`, `hmac`
and `hashlib`). A larger draw uses np.random.Philox, whose C rounds take
0.08 ms per 16,384 doubles where the array rounds take 0.9 ms. Both give
the same bits, so the choice shows only in time and memory.

The rate is affine in q: R = S - (q/ln 2) W with the q-free terms
S = log2(1 + SNR) and W = sqrt(V) (fbl_rate.q_free_terms). So one draw's
five moments of S and W give the mean rate and its standard error at every
q: a sweep draws once and each row is one multiply-add.

A draw holds no array of n values: each shard is drawn in index order as
blocks of at most _BLOCK positions. Every estimate is a set of moments of
functions of the SNR (_moments), and each block is reduced to a few sums
that are added exactly, as integers, as the draw runs and rounded once at
its end. So a draw's memory is O(1) in n, under 1 MiB up to
geometry.MAX_SAMPLES. A block holds at most four arrays of its size: the
SNRs, S, W and one product. The quadrature's node grid is evaluated in
blocks of the same size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import _BLOCK, DerivedConstants, snr
from .fbl_rate import _LN2, FblConfig, _rate, q_free_terms
# achievable_rate and shannon_rate are no longer called here; bench/tracer.py
# PROBES still looks them up in this module.
from .fbl_rate import achievable_rate, shannon_rate  # noqa: F401
from .geometry import Airspace, _philox_key, _shard_sizes, sample_positions


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float


# Largest draw that reads _ArrayPhilox. Its rounds cost about 0.1 us more per
# sample than numpy's: 6.5 ms at 2**16 samples, under the 7-12 ms of importing
# numpy.random with `_hashlib` blocked, as the CLI does (2-core Xeon).
_ARRAY_PHILOX_MAX = 2**16

# Philox4x64-10's multipliers of counter words 0 and 2, and its Weyl key
# increments (Salmon et al., SC 2011).
_M0, _M1 = np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157)
_KEY_STEPS = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(a, m):
    """The high and low words of the 128-bit product of uint64 a and m (Hacker's Delight, 8-2)."""
    a_lo, a_hi = a & _LOW32, a >> _32
    m_lo, m_hi = m & _LOW32, m >> _32
    t = a_hi * m_lo + (a_lo * m_lo >> _32)
    w = a_lo * m_hi + (t & _LOW32)
    return a_hi * m_hi + (t >> _32) + (w >> _32), a * m


class _ArrayPhilox:
    """Philox4x64-10 doubles computed with numpy arrays, one random(k) at a time.

    They are bit for bit those of np.random.Generator(np.random.Philox(key=key)
    .jumped(jump)) from its double `start` on: the double of output word j is
    (u >> 11) * 2**-53, and words 4c .. 4c + 3 are the rounds' output at the
    256-bit counter jump * 2**128 + c + 1. Counter word 1 stays 0, as no draw
    comes near 2**64 steps, and so does word 3, as jump < 2**64.
    """

    def __init__(self, key: int, jump: int, start: int):
        key = _philox_key(key)
        mask = 2**64 - 1
        # The ten round keys, in Python ints: a uint64 scalar that overflows warns.
        self._keys = [(np.uint64((key + r * _KEY_STEPS[0]) & mask),
                       np.uint64(((key >> 64) + r * _KEY_STEPS[1]) & mask)) for r in range(10)]
        self._jump = np.uint64(jump)
        self._next = start

    def random(self, k: int):
        """The next k doubles in [0, 1)."""
        first, skip = divmod(self._next, 4)
        self._next += k
        count = (skip + k + 3) // 4
        c0 = np.arange(first + 1, first + 1 + count, dtype=np.uint64)
        c2 = np.full(count, self._jump)
        c1 = c3 = np.zeros(count, dtype=np.uint64)
        for k0, k1 in self._keys:
            hi0, lo0 = _mulhilo(c0, _M0)
            hi2, lo2 = _mulhilo(c2, _M1)
            c0, c1, c2, c3 = hi2 ^ c1 ^ k0, lo2, hi0 ^ c3 ^ k1, lo0
        return (np.stack((c0, c1, c2, c3), axis=1).reshape(-1)[skip:skip + k] >> 11) * 2.0**-53


def _numpy_philox(key: int, jump: int, start: int):
    """np.random.Generator(np.random.Philox(key=key).jumped(jump)) from its double `start` on."""
    # One Philox step gives four doubles: start // 4 steps, then start % 4 doubles.
    philox = np.random.Philox(key=_philox_key(key))
    rng = np.random.Generator(philox.jumped(jump).advance(start // 4))
    rng.random(start % 4)
    return rng


class _Streams:
    """Stand-in rng for sample_positions: its first random(k) reads the
    distance stream, its second the elevation stream."""

    def __init__(self, distance: "np.random.Generator", elevation: "np.random.Generator"):
        self._next = iter((distance, elevation))

    def random(self, k: int):
        return next(self._next).random(k)


def _snr_blocks(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int):
    """The draw's SNRs in index order, as blocks of at most _BLOCK within one shard each.

    Shard i of m samples draws with Philox(seed) jumped i times: m distances
    from draw 0 on and m elevations from draw m on, read side by side. The
    doubles come from _ArrayPhilox up to _ARRAY_PHILOX_MAX samples and from
    numpy.random above, with the same bits.
    """
    philox = _ArrayPhilox if n <= _ARRAY_PHILOX_MAX else _numpy_philox
    for i, m in enumerate(_shard_sizes(n, shards)):
        distance, elevation = philox(seed, i, 0), philox(seed, i, m)
        for lo in range(0, m, _BLOCK):
            d, theta = sample_positions(space, _Streams(distance, elevation), min(_BLOCK, m - lo))
            gamma = snr(consts, theta, d)
            del d, theta  # the positions are not kept while the block is used
            yield gamma


def _in_units(x: float) -> int:
    """A finite double as the integer multiple of 2**-1074 that it is."""
    num, den = x.as_integer_ratio()
    return num << 1075 - den.bit_length()


def _moments(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int, columns):
    """Means, then upper-triangle covariances row by row (ddof = 1), of k columns of one draw.

    columns(gamma) maps a block of SNRs to k arrays of its shape. Each block
    gives the sums of its columns c, of the shifted columns c - K and of
    their products, where K is the first block's column means (the
    shifted-data algorithm of Chan, Golub and LeVeque, 1983). The blocks'
    sums are added exactly as they come, as one int per component counting
    units of 2**-1074 (_in_units), and each total is rounded once, correctly,
    by int / int division; a component with a non-finite sum totals as
    math.fsum of those. No block's sums are kept. So a one-block draw keeps
    the bits of np.add.reduce, and otherwise the means lie within 5e-16 of
    the correctly rounded mean, relative to it, on the presets, on a shell
    1e-14 wide at 300 m, on a 1 m to 20 km shell and at theta_min = 89.9
    degrees. A covariance is
    (sum (c - K)(c' - K') - sum (c - K) sum (c' - K') / n) / (n - 1), within
    1e-15 of the exact value relative to it on the presets (merging centred
    per-block sums cancels when W = 1 - 1e-7, as on suburban). The columns
    must be new arrays: they are shifted in place.
    """
    shift = None

    # Plain loops: under tracemalloc, as in the memory tests, generators and zip cost 4-6x more.
    def sums(gamma):
        nonlocal shift
        cols = columns(gamma)
        out = list(map(np.add.reduce, cols))
        if shift is None:
            shift = [s / len(gamma) for s in out]
        for i in range(len(cols)):
            np.subtract(cols[i], shift[i], out=cols[i])  # in place: the columns are now c - K
            out.append(np.add.reduce(cols[i]))
        for i in range(len(cols)):
            for j in range(i, len(cols)):
                out.append(np.add.reduce(cols[i] * cols[j]))
        return out

    # Per component: the exact total of its finite sums, in units of 2**-1074,
    # and the set of its non-finite sums.
    exact = specials = None
    # map, not a loop over the blocks, so that no block outlives its sums.
    for block_sums in map(sums, _snr_blocks(space, consts, n, seed, shards)):
        if exact is None:
            exact, specials = [0] * len(block_sums), [set() for _ in block_sums]
        for i, x in enumerate(block_sums):
            if math.isfinite(x):
                exact[i] += _in_units(x)
            else:
                specials[i].add(math.nan if math.isnan(x) else x)  # one nan, not one per block
    total = np.array([math.fsum(s) if s else t / 2**1074 for t, s in zip(exact, specials)])
    k = len(shift)
    means, offsets, products = total[:k] / n, total[k:2 * k], total[2 * k:]
    row, col = np.triu_indices(k)
    covariances = (products - offsets[row] * offsets[col] / n) / (n - 1)
    return (*means.tolist(), *covariances.tolist())


def _rate_terms(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int):
    """(E[S], E[W], Var S, Cov(S, W), Var W) of one draw, as floats (ddof = 1)."""
    return _moments(space, consts, n, seed, shards, q_free_terms)


def _aadr_rows(moments: tuple, q, n: int):
    """(mean, standard error) of the rate at q, a float or an array, from _rate_terms' moments.

    The mean is E[S] - c E[W] and the standard error
    sqrt(Var S - 2c Cov + c^2 Var W) / sqrt(n), with c = q / ln 2.
    """
    mean_s, mean_w, var_s, cov_sw, var_w = moments
    c = q / _LN2
    # Var(S - cW) can round below 0 when S - cW is nearly constant.
    variance = np.maximum(var_s - 2.0 * c * cov_sw + c * c * var_w, 0.0)
    return _rate(mean_s, mean_w, q), np.sqrt(variance) / math.sqrt(n)


def estimate_aadr(
    space: Airspace,
    consts: DerivedConstants,
    cfg: FblConfig,
    n: int = 10_000,
    seed: int = 1,
    shards: int = 1,
) -> McEstimate:
    """Mean finite-blocklength rate over n random UAV positions."""
    moments = _rate_terms(space, consts, n, seed, shards)
    mean, std_error = _aadr_rows(moments, cfg.q, n)
    return McEstimate(mean=mean, std_error=float(std_error))


def estimate_shannon(
    space: Airspace,
    consts: DerivedConstants,
    n: int = 10_000,
    seed: int = 1,
    shards: int = 1,
) -> McEstimate:
    """Mean Shannon rate log2(1 + SNR) over n random UAV positions."""
    mean, std_error = _aadr_rows(_rate_terms(space, consts, n, seed, shards), 0.0, n)
    return McEstimate(mean=mean, std_error=float(std_error))
