"""Seeded Monte Carlo estimation of link-rate averages over UAV positions.

Sampling uses the counter-based Philox generator so that shards are
deterministic and non-overlapping: shard i draws from Philox(key=seed)
jumped i times. The (seed, shards) pair is part of the reproducibility
contract; identical inputs give bit-identical estimates.

The rate is affine in q: R = S - (q/ln 2) W with the q-free terms
S = log2(1 + SNR) and W = sqrt(V) (fbl_rate.q_free_terms). So one draw's
five moments of S and W give the mean rate and its standard error at every
q: a sweep draws once and each row is one multiply-add.

A draw holds S and W (n doubles each) and one shard's positions. The SNR
and the rate terms are evaluated _BLOCK samples at a time through one
scratch block, straight into slices of S and W, with the same bits as a
whole-array evaluation. With two or more shards a draw peaks at 3 arrays
of n doubles: S, W and the positions, then S, W and the Cov(S, W) product.
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


def _snr_blocks(space: Airspace, consts: DerivedConstants, seed: int, parts: list):
    """Yield (slice of the n draws, their SNR) one block of at most _BLOCK samples at a time.

    Shard i draws its positions with Philox(seed) jumped i times. The SNR
    array is one scratch buffer, reused by the next block.
    """
    scratch = np.empty(min(_BLOCK, parts[0].stop))
    for i, part in enumerate(parts):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        d, theta = sample_positions(space, rng, part.stop - part.start)
        for lo in range(0, d.size, _BLOCK):
            hi = min(lo + _BLOCK, d.size)
            gamma = snr(consts, theta[lo:hi], d[lo:hi], out=scratch[:hi - lo])
            yield slice(part.start + lo, part.start + hi), gamma
        del d, theta  # before the next shard draws its own


def _rate_terms(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int):
    """(E[S], E[W], Var S, Cov(S, W), Var W) of one draw, as floats (ddof = 1).

    S and W are written block by block into two arrays of n doubles, then
    centred in place. The moments are numpy's pairwise sums: Cov first,
    through the one product array, then S and W squared in place (a BLAS dot
    may sum in a thread-dependent order, and np.cov copies both arrays).
    """
    parts = _shard_slices(n, shards)
    s_terms = np.empty(n)
    w_terms = np.empty(n)
    for part, gamma in _snr_blocks(space, consts, seed, parts):
        q_free_terms(gamma, out=(s_terms[part], w_terms[part]))
    mean_s, mean_w = float(s_terms.mean()), float(w_terms.mean())
    s_terms -= mean_s
    w_terms -= mean_w
    cov_sw = float(np.add.reduce(s_terms * w_terms)) / (n - 1)
    var_s = float(np.add.reduce(np.square(s_terms, out=s_terms))) / (n - 1)
    var_w = float(np.add.reduce(np.square(w_terms, out=w_terms))) / (n - 1)
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
    parts = _shard_slices(n, shards)
    values = np.empty(n)
    for part, gamma in _snr_blocks(space, consts, seed, parts):
        np.divide(1.0, gamma, out=values[part])
    return McEstimate(mean=float(values.mean()),
                      std_error=float(values.std(ddof=1) / math.sqrt(n)))
