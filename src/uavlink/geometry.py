"""UAV airspace geometry and the distribution of the UAV position.

The admissible region is the volume between two inverted cones centered at
the ground control station: the station-to-UAV distance d lies in
[r_min, r_max] meters and the elevation angle theta in [theta_min, 90]
degrees. The distance follows a cubic CDF, the elevation is uniform, and
the two coordinates are drawn independently (product-form joint density).
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import _checked_array, _scalar_or_array


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


def _check_support(space: Airspace, x):
    return _checked_array(x, f"distance outside support [{space.r_min_m}, {space.r_max_m}] m",
                          lambda v: v >= space.r_min_m, lambda v: v <= space.r_max_m)


def cdf_distance(space: Airspace, x):
    """CDF of the station-to-UAV distance, (x^3 - r_min^3) / (r_max^3 - r_min^3)."""
    x = _check_support(space, x)
    return _scalar_or_array(_cube_difference(x, space.r_min_m)
                            / _cube_difference(space.r_max_m, space.r_min_m))


def pdf_distance(space: Airspace, x):
    """Density of the distance, 3 x^2 / (r_max^3 - r_min^3), per meter."""
    x = _check_support(space, x)
    return _scalar_or_array(3.0 * x**2 / _cube_difference(space.r_max_m, space.r_min_m))


def pdf_elevation(space: Airspace, theta):
    """Density of the elevation angle, uniform 1/(90 - theta_min), per degree."""
    theta = _checked_array(theta, f"elevation outside support [{space.theta_min_deg}, 90] deg",
                           lambda t: t >= space.theta_min_deg, lambda t: t <= 90.0)
    return _scalar_or_array(np.full_like(theta, 1.0 / (90.0 - space.theta_min_deg)))


def sample_positions(space: Airspace, rng: "np.random.Generator", n: int):
    """Draw n independent positions by inverse-transform sampling.

    The distance uses the cube-root inverse of the cubic CDF, the elevation
    an affine map of a uniform draw. Consumes exactly two uniform blocks
    (distances first, then elevations) from rng, and maps each in place.
    The uniforms scale by cdf_distance's factored r_max^3 - r_min^3. On a
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
