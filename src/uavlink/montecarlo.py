"""Seeded Monte Carlo estimation of link-rate averages over UAV positions.

Sampling uses the counter-based Philox generator so that shards are
deterministic and non-overlapping: shard i draws from Philox(key=seed)
jumped i times. The (seed, shards) pair is part of the reproducibility
contract; identical inputs give bit-identical estimates.

The rate is affine in q: R = S - (q/ln 2) W with the q-free terms
S = log2(1 + SNR) and W = sqrt(V) (fbl_rate.q_free_terms). So one draw's
five moments of S and W give the mean rate and its standard error at every
q: a sweep draws once and each row is one multiply-add.

A draw holds no array of n values: each shard is drawn in index order as
blocks of at most _BLOCK positions, so its memory does not grow with n.
Every estimate is a set of moments of functions of the SNR (_moments),
and the blocks' sums are added by Neumaier's compensated summation. A block
holds at most four arrays of its size: the SNRs, S, W and one product.
The quadrature's node grid is evaluated in blocks of the same size.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import _BLOCK, DerivedConstants, snr
from .fbl_rate import _LN2, FblConfig, _rate, q_free_terms
# achievable_rate and shannon_rate are no longer called here; bench/tracer.py
# PROBES still looks them up in this module.
from .fbl_rate import achievable_rate, shannon_rate  # noqa: F401
from .geometry import Airspace, sample_positions

# Largest sample and shard counts a draw accepts: a draw's memory does not
# grow with n, but its time does, about 25 s per 1e9 samples on a 2-core
# Xeon, and each shard adds two Philox jumps and a block (0.25 s for 1024).
MAX_SAMPLES = 10**9
MAX_SHARDS = 1024


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
    if not 1 <= shards <= min(n, MAX_SHARDS):
        raise ValueError(f"shards must lie in [1, min(n, {MAX_SHARDS:,})], got {shards:,}")
    base, rem = divmod(n, shards)
    return (base + 1 if i < rem else base for i in range(shards))


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
    from draw 0 on and m elevations from draw m on, read side by side.
    """
    for i, m in enumerate(_shard_sizes(n, shards)):
        distance = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        # One Philox step gives four doubles: m // 4 steps, then m % 4 doubles, reach draw m.
        elevation = np.random.Generator(np.random.Philox(key=seed).jumped(i).advance(m // 4))
        elevation.random(m % 4)
        for lo in range(0, m, _BLOCK):
            d, theta = sample_positions(space, _Streams(distance, elevation), min(_BLOCK, m - lo))
            gamma = snr(consts, theta, d)
            del d, theta  # the positions are not kept while the block is used
            yield gamma


def _moments(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int, columns):
    """Means, then upper-triangle covariances row by row (ddof = 1), of k columns of one draw.

    columns(gamma) maps a block of SNRs to k arrays of its shape. Each block
    gives the sums of its columns c, of the shifted columns c - K and of
    their products, where K is the first block's column means (the
    shifted-data algorithm of Chan, Golub and LeVeque, 1983). The blocks'
    sums are added by Neumaier's compensated summation (1974). A one-block
    draw keeps the bits of np.add.reduce; otherwise the means lie within
    5e-16 of the correctly rounded mean, relative to it. A covariance is
    (sum (c - K)(c' - K') - sum (c - K) sum (c' - K') / n) / (n - 1), within
    1e-15 of the exact value relative to it on the presets (merging centred
    per-block sums cancels when W = 1 - 1e-7, as on suburban). The columns
    must be new arrays: they are shifted in place.
    """
    shift = None

    def sums(gamma):
        nonlocal shift
        cols = columns(gamma)
        plain = [np.add.reduce(c) for c in cols]
        if shift is None:
            shift = [s / len(gamma) for s in plain]
        for c, s in zip(cols, shift):
            np.subtract(c, s, out=c)  # in place: the columns are now c - K
        products = (np.add.reduce(a * b) for i, a in enumerate(cols) for b in cols[i:])
        return np.array([*plain, *(np.add.reduce(c) for c in cols), *products])

    # map, not a loop over the blocks, so that no block is kept while the next is drawn.
    total = compensation = 0.0
    for block_sums in map(sums, _snr_blocks(space, consts, n, seed, shards)):
        partial = total + block_sums
        compensation += np.where(np.abs(total) >= np.abs(block_sums),
                                 (total - partial) + block_sums, (block_sums - partial) + total)
        total = partial
    total = total + compensation
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
