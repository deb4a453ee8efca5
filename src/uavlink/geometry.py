"""UAV airspace geometry and the distribution of the UAV position.

The admissible region is the volume between two inverted cones centered at
the ground control station: the station-to-UAV distance d lies in
[r_min, r_max] meters and the elevation angle theta in [theta_min, 90]
degrees. The distance follows a cubic CDF, the elevation is uniform, and
the two coordinates are drawn independently (product-form joint density).

The paper's UAV is "uniformly distributed" in this space. Every estimator
here reads that as uniform in theta; uniform in the volume would be the
density d^2 cos(theta), whose elevation marginal weights low elevations
more. AADR at M = 200 and eps = 1e-9 (200x200 Gauss-Legendre sums):

    preset        uniform theta   uniform volume
    dense_urban   9.13460         8.91705
    suburban      10.030815       10.030795

On dense_urban the reading moves the AADR by 0.22 bits, more than the
Jensen bound's gap of 0.13; the volume reading's own Jensen bound is 8.7805.

A draw's input rules live here too, beside sample_positions: the sample and
shard limits and the Philox key range. RunConfig applies them to every
command, so they are kept out of the Monte Carlo module, which only a sweep
imports.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Airspace:
    """Truncated inverted-cone flight region around the ground station."""

    r_min_m: float
    r_max_m: float
    theta_min_deg: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r_min_m, self.r_max_m, self.theta_min_deg))):
            raise ValueError(
                f"airspace bounds must be finite, got r_min={self.r_min_m}, "
                f"r_max={self.r_max_m}, theta_min={self.theta_min_deg}"
            )
        if not 0.0 < self.r_min_m < self.r_max_m:
            raise ValueError(
                f"need 0 < r_min < r_max, got r_min={self.r_min_m}, r_max={self.r_max_m}"
            )
        if not 0.0 <= self.theta_min_deg < 90.0:
            raise ValueError(f"theta_min must lie in [0, 90), got {self.theta_min_deg}")
        try:
            math.pow(self.r_max_m, 5)  # bound.expected_inverse_snr needs r_max**5
        except OverflowError:
            raise ValueError(f"r_max={self.r_max_m} m is too large: r_max**5 overflows") from None


def _cube_difference(a, b):
    # a^3 - b^3 as (a - b)(a^2 + ab + b^2): the subtraction is exact for
    # b <= a <= 2b (Sterbenz), so a thin shell loses no digits.
    return (a - b) * (a * a + a * b + b * b)


def sample_positions(space: Airspace, rng: "np.random.Generator", n: int):
    """Draw n independent positions by inverse-transform sampling.

    The distance uses the cube-root inverse of the cubic CDF, the elevation
    an affine map of a uniform draw. Consumes exactly two uniform blocks
    (distances first, then elevations) from rng, and maps each in place.
    The uniforms scale by the factored r_max^3 - r_min^3 (_cube_difference). On a
    shell 1e-14 wide the unfactored difference is 1.6e-3 off, yet moves the
    distances by at most 1.9e-16 relative: no estimate changes beyond rounding.

    Returns:
        Tuple (d_m, theta_deg) of float arrays of length n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    d = rng.random(n)
    theta = rng.random(n)
    # cbrt(r_min^3 + u (r_max^3 - r_min^3)) and theta_min + u (90 - theta_min).
    np.multiply(d, _cube_difference(space.r_max_m, space.r_min_m), out=d)
    np.add(space.r_min_m**3, d, out=d)
    np.cbrt(d, out=d)
    np.multiply(theta, 90.0 - space.theta_min_deg, out=theta)
    np.add(space.theta_min_deg, theta, out=theta)
    return d, theta


# Largest sample and shard counts a draw accepts: a draw's memory does not
# grow with n, but its time does, about 25 s per 1e9 samples on a 2-core
# Xeon, and each shard adds two Philox jumps and a block (0.25 s for 1024).
MAX_SAMPLES = 10**9
MAX_SHARDS = 1024


def _format_count(count: int) -> str:
    """count with thousands separators, or past 2**64 as its nearest power of ten."""
    if abs(count) < 2**64:
        return f"{count:,}"
    return f"about {'-' if count < 0 else ''}10**{math.log10(abs(count)):.0f}"


def _shard_sizes(n: int, shards: int):
    """Sizes of the shards of n samples, which differ by at most one, as an iterator.

    n and shards are checked here, before anything is drawn.
    """
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {_format_count(n)}")
    if n > MAX_SAMPLES:
        raise ValueError(f"need at most {MAX_SAMPLES:,} samples, got {_format_count(n)}")
    if not 1 <= shards <= min(n, MAX_SHARDS):
        raise ValueError(
            f"shards must lie in [1, min(n, {MAX_SHARDS:,})], got {_format_count(shards)}")
    base, rem = divmod(n, shards)
    return (base + 1 if i < rem else base for i in range(shards))


def _philox_key(key, name: str = "seed") -> int:
    """key as a Python int, checked against Philox's key range [0, 2**128)."""
    key = operator.index(key)  # a numpy integer key would overflow the array Philox's rounds
    if not 0 <= key < 2**128:
        raise ValueError(f"{name} must lie in [0, 2**128), got {key!r}")
    return key
