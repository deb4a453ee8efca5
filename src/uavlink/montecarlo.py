"""Seeded Monte Carlo estimation of link-rate averages over UAV positions.

Sampling uses the counter-based Philox generator so that shards are
deterministic and non-overlapping: shard i draws from Philox(key=seed)
jumped i times. The (seed, shards) pair is part of the reproducibility
contract; identical inputs give bit-identical estimates.

The rate is affine in q: R = S - (q/ln 2) W with the q-free terms
S = log2(1 + SNR) and W = sqrt(V) (fbl_rate.q_free_terms). So the moments
of S and W over the latest draw are cached, a sweep draws once, and each
further row is one multiply-add.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import DerivedConstants, snr
# achievable_rate and shannon_rate are no longer called here; bench/tracer.py
# PROBES still looks them up in this module.
from .fbl_rate import _LN2, FblConfig, achievable_rate, q_free_terms, shannon_rate  # noqa: F401
from .geometry import Airspace, sample_positions


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


def _draws(space: Airspace, seed: int, parts: list):
    """Yield (shard slice, distances, elevations); shard i uses Philox(seed) jumped i times."""
    for i, part in enumerate(parts):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        d, theta = sample_positions(space, rng, part.stop - part.start)
        yield part, d, theta


@lru_cache(maxsize=1)
def _rate_terms(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int):
    """(E[S], E[W], Var S, Cov(S, W), Var W) of one draw, as floats (ddof = 1).

    S and W are filled one shard at a time into preallocated arrays, which
    keeps only one shard's positions and SNR alive at a time, then centred
    in place; the arrays are dropped on return.
    """
    parts = _shard_slices(n, shards)
    s_terms = np.empty(n)
    w_terms = np.empty(n)
    for part, d, theta in _draws(space, seed, parts):
        s_terms[part], w_terms[part] = q_free_terms(snr(consts, theta, d))
    mean_s, mean_w = float(s_terms.mean()), float(w_terms.mean())
    s_terms -= mean_s
    w_terms -= mean_w
    # numpy's pairwise sums with one product array alive at a time: a BLAS
    # dot may sum in a thread-dependent order, and np.cov copies both arrays.
    var_s, cov_sw, var_w = (float(np.add.reduce(a * b)) / (n - 1) for a, b in
                            ((s_terms, s_terms), (s_terms, w_terms), (w_terms, w_terms)))
    return mean_s, mean_w, var_s, cov_sw, var_w


def estimate_aadr(
    space: Airspace,
    consts: DerivedConstants,
    cfg: FblConfig,
    n: int = 10_000,
    seed: int = 1,
    shards: int = 1,
) -> McEstimate:
    """Mean finite-blocklength rate over n random UAV positions."""
    mean_s, mean_w, var_s, cov_sw, var_w = _rate_terms(space, consts, n, seed, shards)
    c = cfg.q / _LN2
    # Var(S - cW) can round below 0 when S - cW is nearly constant.
    variance = max(var_s - 2.0 * c * cov_sw + c * c * var_w, 0.0)
    return McEstimate(mean=mean_s - c * mean_w, std_error=math.sqrt(variance) / math.sqrt(n))


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
    for part, d, theta in _draws(space, seed, parts):
        values[part] = 1.0 / snr(consts, theta, d)
    return McEstimate(mean=float(values.mean()),
                      std_error=float(values.std(ddof=1) / math.sqrt(n)))
