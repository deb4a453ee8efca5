"""Seeded Monte Carlo estimation of link-rate averages over UAV positions.

Sampling uses the counter-based Philox generator so that shards are
deterministic and non-overlapping: shard i draws from Philox(key=seed)
jumped i times. The (seed, shards) pair is part of the reproducibility
contract; identical inputs give bit-identical estimates.

The per-sample q-free rate terms of the latest draw (fbl_rate.q_free_terms)
are cached, so a sweep draws once and each further row costs O(n)
arithmetic.
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
    n_samples: int
    seed: int


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


def _summary(values: np.ndarray, seed: int) -> McEstimate:
    n = values.size
    mean = float(values.mean())
    std_error = float(values.std(ddof=1) / math.sqrt(n))
    return McEstimate(mean=mean, std_error=std_error, n_samples=n, seed=seed)


@lru_cache(maxsize=1)
def _rate_terms(space: Airspace, consts: DerivedConstants, n: int, seed: int, shards: int):
    """Read-only per-sample (S, W) of one draw, filled one shard at a time.

    Filling preallocated arrays keeps only one shard's positions and SNR
    alive at a time, which holds peak memory at the per-row draws' level.
    """
    parts = _shard_slices(n, shards)
    s_terms = np.empty(n)
    w_terms = np.empty(n)
    for part, d, theta in _draws(space, seed, parts):
        s_terms[part], w_terms[part] = q_free_terms(snr(consts, theta, d))
    s_terms.setflags(write=False)
    w_terms.setflags(write=False)
    return s_terms, w_terms


def estimate_aadr(
    space: Airspace,
    consts: DerivedConstants,
    cfg: FblConfig,
    n: int = 10_000,
    seed: int = 1,
    shards: int = 1,
) -> McEstimate:
    """Mean finite-blocklength rate over n random UAV positions."""
    s_terms, w_terms = _rate_terms(space, consts, n, seed, shards)
    # The operations of achievable_rate in its order, so the bytes match it.
    rate = w_terms * (cfg.q / _LN2)
    np.subtract(s_terms, rate, out=rate)
    return _summary(rate, seed)


def estimate_shannon(
    space: Airspace,
    consts: DerivedConstants,
    n: int = 10_000,
    seed: int = 1,
    shards: int = 1,
) -> McEstimate:
    """Mean Shannon rate log2(1 + SNR) over n random UAV positions."""
    return _summary(_rate_terms(space, consts, n, seed, shards)[0], seed)


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
    return _summary(values, seed)
