"""Seeded Monte Carlo estimation of link-rate averages over UAV positions.

Sampling uses the counter-based Philox generator so that shards are
deterministic and non-overlapping: shard i draws from Philox(key=seed)
jumped i times. The (seed, shards) pair is part of the reproducibility
contract; identical inputs give bit-identical estimates.

The rate is affine in q: R = S - (q/ln 2) W with the q-free terms
S = log2(1 + SNR) and W = sqrt(V) (fbl_rate.q_free_terms). So one draw's
five moments of S and W give the mean rate and its standard error at every
q: a sweep draws once and each row is one multiply-add.

A draw holds one array of n doubles, the SNRs, filled _BLOCK positions at
a time from two Philox streams per shard (distances and elevations). Every
estimate is a set of moments of functions of the SNR (_moments), evaluated
a block at a time and summed in numpy's pairwise order (_pairwise): the
bits of the whole-array evaluation. Only this module works in blocks.
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


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error."""

    mean: float
    std_error: float


def _shard_slices(n: int, shards: int) -> list:
    """Validated split of n samples into shards whose sizes differ by at most one."""
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    if shards < 1 or shards > n:
        raise ValueError(f"shards must lie in [1, n], got {shards}")
    base, rem = divmod(n, shards)
    parts, start = [], 0
    for i in range(shards):
        count = base + 1 if i < rem else base
        parts.append(slice(start, start + count))
        start += count
    return parts


class _Streams:
    """Stand-in rng for sample_positions: its first random(k) reads the
    distance stream, its second the elevation stream."""

    def __init__(self, distance: "np.random.Generator", elevation: "np.random.Generator"):
        self._next = iter((distance, elevation))

    def random(self, k: int):
        return next(self._next).random(k)


def _draw_snr(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int):
    """The SNR at n random positions, one array of n doubles filled a block at a time.

    Shard i of m samples draws with Philox(seed) jumped i times: its m
    distances from draw 0 on, its m elevations from draw m on. So the two
    streams are read side by side, _BLOCK positions at a time, with the bits
    of drawing all m distances and then all m elevations from one generator.
    """
    gamma = np.empty(n)
    for i, part in enumerate(_shard_slices(n, shards)):
        m = part.stop - part.start
        distance = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        # One Philox step gives four doubles: m // 4 steps, then m % 4 doubles, reach draw m.
        elevation = np.random.Philox(key=seed).jumped(i)
        elevation.advance(m // 4)
        elevation = np.random.Generator(elevation)
        elevation.random(m % 4)
        for lo in range(part.start, part.stop, _BLOCK):
            hi = min(lo + _BLOCK, part.stop)
            d, theta = sample_positions(space, _Streams(distance, elevation), hi - lo)
            gamma[lo:hi] = snr(consts, theta, d)
    return gamma


def _pairwise(n: int, leaf, lo: int = 0):
    """Sum of leaf(lo, hi) over [lo, lo + n), split as numpy's pairwise add.reduce splits it.

    numpy halves a range, rounding the first half down to a multiple of 8,
    until a piece is short. Any piece of that tree, reduced on its own, has
    the same bits. So if leaf(lo, hi) is the np.add.reduce of the values in
    [lo, hi), the result has the bits of np.add.reduce over all n values,
    which never need to exist at once: leaf sees at most _BLOCK of them.
    leaf may return an array of several such sums, added elementwise.
    """
    if n <= _BLOCK:
        return leaf(lo, lo + n)
    half = n // 2
    half -= half % 8
    return _pairwise(half, leaf, lo) + _pairwise(n - half, leaf, lo + half)


def _moments(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int, columns):
    """Means, then upper-triangle covariances row by row (ddof = 1), of k columns of one draw.

    columns(gamma) maps a block of SNRs to k arrays of its shape. Two passes
    sum the columns, then their centred products, a block at a time in numpy's
    pairwise order (_pairwise): the bits of the two-pass whole-array formulas,
    which a BLAS dot (thread-dependent order) or np.cov (copies) would not give.
    """
    gamma = _draw_snr(space, consts, n, seed, shards)

    def sums(lo, hi):
        return np.array([np.add.reduce(c) for c in columns(gamma[lo:hi])])

    means = (_pairwise(n, sums) / n).tolist()

    def centred_sums(lo, hi):
        centred = [c - m for c, m in zip(columns(gamma[lo:hi]), means)]
        return np.array([np.add.reduce(a * b) for i, a in enumerate(centred) for b in centred[i:]])

    return (*means, *(_pairwise(n, centred_sums) / (n - 1)).tolist())


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
