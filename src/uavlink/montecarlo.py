"""Seeded Monte Carlo estimation of link-rate averages over UAV positions.

Sampling uses the counter-based Philox generator so that shards are
deterministic and non-overlapping: shard i draws from Philox(key=seed)
jumped i times. The (seed, shards) pair is part of the reproducibility
contract; identical inputs give bit-identical estimates.

The rate is affine in q: R = S - (q/ln 2) W with the q-free terms
S = log2(1 + SNR) and W = sqrt(V) (fbl_rate.q_free_terms). So one draw's
five moments of S and W give the mean rate and its standard error at every
q: a sweep draws once and each row is one multiply-add.

A draw holds no array of n values: it is one pass over numpy's pairwise
summation tree (_pairwise), whose leaves of at most _BLOCK positions are
drawn in index order from two Philox streams per shard (distances and
elevations), so its memory does not grow with n (at most MAX_SAMPLES).
Every estimate is a set of moments of functions of the SNR (_moments):
means with the bits of the whole-array evaluation, and covariances from
shifted sums. Only this module works in blocks.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import DerivedConstants, snr
from .fbl_rate import _LN2, FblConfig, _rate, q_free_terms
# achievable_rate and shannon_rate are no longer called here; bench/tracer.py
# PROBES still looks them up in this module.
from .fbl_rate import achievable_rate, shannon_rate  # noqa: F401
from .geometry import Airspace, sample_positions

# Samples per block of the SNR and rate chain: a block's handful of working
# arrays (128 KiB each) stay in a core's L2 cache. Of 4K to 64K, 16K drew
# 1e6 samples fastest on a 2-core Xeon (4K pays per-call overhead).
_BLOCK = 16_384

# Largest sample count a draw accepts: a draw's memory does not grow with n,
# but its time does, about 25 s per 1e9 samples on a 2-core Xeon.
MAX_SAMPLES = 10**9


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float


def _shard_sizes(n: int, shards: int):
    """Sizes of the shards of n samples, which differ by at most one, as an iterator.

    n and shards are checked here, before anything is drawn.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if n > MAX_SAMPLES:
        raise ValueError(f"need at most {MAX_SAMPLES:,} samples, got {n:,}")
    if shards < 1 or shards > n:
        raise ValueError(f"shards must lie in [1, n], got {shards}")
    base, rem = divmod(n, shards)
    return (base + 1 if i < rem else base for i in range(shards))


class _Streams:
    """Stand-in rng for sample_positions: its first random(k) reads the
    distance stream, its second the elevation stream."""

    def __init__(self, distance: "np.random.Generator", elevation: "np.random.Generator"):
        self._next = iter((distance, elevation))

    def random(self, k: int):
        return next(self._next).random(k)


def _snr_reader(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int):
    """read(k): the SNRs at the draw's next k positions, in index order.

    Shard i of m samples draws with Philox(seed) jumped i times: its m
    distances from draw 0 on, its m elevations from draw m on. So the two
    streams are read side by side, k positions at a time, with the bits of
    drawing all m distances and then all m elevations from one generator.
    A read that runs past the end of a shard goes on in the next one.
    """
    sizes = enumerate(_shard_sizes(n, shards))
    streams, left = None, 0

    def read(k: int):
        nonlocal streams, left
        pieces = []
        while k:
            if not left:
                i, left = next(sizes)
                distance = np.random.Generator(np.random.Philox(key=seed).jumped(i))
                # The elevations start at draw m = left. One Philox step gives
                # four doubles: m // 4 steps, then m % 4 doubles, reach draw m.
                elevation = np.random.Philox(key=seed).jumped(i)
                elevation.advance(left // 4)
                elevation = np.random.Generator(elevation)
                elevation.random(left % 4)
                streams = distance, elevation
            take = min(k, left)
            d, theta = sample_positions(space, _Streams(*streams), take)
            pieces.append(snr(consts, theta, d))
            k -= take
            left -= take
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    return read


def _pairwise(n: int, leaf, lo: int = 0):
    """Sum of leaf(lo, hi) over [lo, lo + n), split as numpy's pairwise add.reduce splits it.

    numpy halves a range, rounding the first half down to a multiple of 8,
    until a piece is short. Any piece of that tree, reduced on its own, has
    the same bits. So if leaf(lo, hi) is the np.add.reduce of the values in
    [lo, hi), the result has the bits of np.add.reduce over all n values,
    which never need to exist at once: leaf sees at most _BLOCK of them.
    The leaves are called in index order.
    leaf may return an array of several such sums, added elementwise.
    """
    if n <= _BLOCK:
        return leaf(lo, lo + n)
    half = n // 2
    half -= half % 8
    return _pairwise(half, leaf, lo) + _pairwise(n - half, leaf, lo + half)


def _moments(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int, columns):
    """Means, then upper-triangle covariances row by row (ddof = 1), of k columns of one draw.

    columns(gamma) maps a block of SNRs to k arrays of its shape. One pass
    draws each of _pairwise's leaves in turn and sums its columns c, the
    shifted columns c - K and their products, where the shift K is the
    first leaf's column means (the shifted-data algorithm of Chan, Golub and
    LeVeque, 1983). The means have the bits of np.add.reduce over the whole
    columns. A covariance is (sum (c - K)(c' - K') - sum (c - K) sum (c' - K') / n)
    / (n - 1), within about 1e-15 of the exact value relative to it on the
    presets: K lies near the mean, so the correction term is small. Merging
    per-leaf means and centred sums instead cancels in their differences
    when a column barely varies (W = 1 - 1e-7 on suburban).
    """
    read = _snr_reader(space, consts, n, seed, shards)
    shift = None

    def sums(lo, hi):
        nonlocal shift
        cols = columns(read(hi - lo))
        plain = [np.add.reduce(c) for c in cols]
        if shift is None:
            shift = [s / (hi - lo) for s in plain]
        shifted = [c - s for c, s in zip(cols, shift)]
        products = (np.add.reduce(a * b) for i, a in enumerate(shifted) for b in shifted[i:])
        return np.array([*plain, *(np.add.reduce(c) for c in shifted), *products])

    total = _pairwise(n, sums)
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
    mean_s, _, var_s, _, _ = _rate_terms(space, consts, n, seed, shards)
    return McEstimate(mean=mean_s, std_error=math.sqrt(var_s) / math.sqrt(n))


def estimate_inverse_snr(
    space: Airspace,
    consts: DerivedConstants,
    n: int = 10_000,
    seed: int = 1,
    shards: int = 1,
) -> McEstimate:
    """Mean of 1/SNR over n random UAV positions (cross-check for the bound)."""
    mean, variance = _moments(space, consts, n, seed, shards, lambda g: (1.0 / g,))
    return McEstimate(mean=mean, std_error=math.sqrt(variance) / math.sqrt(n))
