"""Seeded Monte Carlo estimation of link-rate averages over UAV positions.

Sampling uses the counter-based Philox generator so that shards are
deterministic and non-overlapping: shard i draws from Philox(key=seed)
jumped i times. The (seed, shards) pair is part of the reproducibility
contract; identical inputs give bit-identical estimates.

The rate is affine in q: R = S - (q/ln 2) W with the q-free terms
S = log2(1 + SNR) and W = sqrt(V) (fbl_rate.q_free_terms). So one draw's
five moments of S and W give the mean rate and its standard error at every
q: a sweep draws once and each row is one multiply-add.

A draw holds one array of n doubles, the SNRs, plus block buffers. The
positions are streamed _BLOCK at a time from two Philox streams per shard
(distances and elevations) into that array; S, W and their products are
evaluated a block at a time from it and summed in numpy's pairwise order
(_pairwise). Every estimate has the bits of the whole-array evaluation.
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
    parts = _shard_slices(n, shards)
    gamma = np.empty(n)
    for i, part in enumerate(parts):
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
            snr(consts, theta, d, out=gamma[lo:hi])
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


def _rate_terms(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int):
    """(E[S], E[W], Var S, Cov(S, W), Var W) of one draw, as floats (ddof = 1).

    Only the n SNRs are kept. Two passes evaluate S and W block by block
    into two block buffers: the first sums S and W, the second the centred
    product and squares. Each sum is numpy's pairwise sum of the whole array
    (_pairwise), so the moments have the bits of the two-pass whole-array
    formulas (a BLAS dot may sum in a thread-dependent order, and np.cov
    copies both arrays).
    """
    gamma = _draw_snr(space, consts, n, seed, shards)
    s_block, w_block, product = np.empty((3, min(n, _BLOCK)))

    def terms(lo, hi):
        return q_free_terms(gamma[lo:hi], out=(s_block[:hi - lo], w_block[:hi - lo]))

    def sums(lo, hi):
        return np.array([np.add.reduce(t) for t in terms(lo, hi)])

    def centred_sums(lo, hi):
        s_terms, w_terms = terms(lo, hi)
        s_terms -= mean_s
        w_terms -= mean_w
        cross = np.multiply(s_terms, w_terms, out=product[:hi - lo])
        return np.array([np.add.reduce(cross), np.add.reduce(np.square(s_terms, out=s_terms)),
                         np.add.reduce(np.square(w_terms, out=w_terms))])

    mean_s, mean_w = (_pairwise(n, sums) / n).tolist()
    cov_sw, var_s, var_w = (_pairwise(n, centred_sums) / (n - 1)).tolist()
    return mean_s, mean_w, var_s, cov_sw, var_w


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
    gamma = _draw_snr(space, consts, n, seed, shards)
    block = np.empty(min(n, _BLOCK))

    def inverse(lo, hi):
        return np.divide(1.0, gamma[lo:hi], out=block[:hi - lo])

    # np.std's order: the pairwise mean, then the pairwise sum of centred squares.
    mean = float(_pairwise(n, lambda lo, hi: np.add.reduce(inverse(lo, hi)))) / n

    def centred_square(lo, hi):
        centred = np.subtract(inverse(lo, hi), mean, out=block[:hi - lo])
        return np.add.reduce(np.square(centred, out=centred))

    variance = float(_pairwise(n, centred_square)) / (n - 1)
    return McEstimate(mean=mean, std_error=math.sqrt(variance) / math.sqrt(n))
