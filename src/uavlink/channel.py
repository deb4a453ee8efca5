"""Elevation-dependent air-to-ground channel model.

The link alternates between line-of-sight and non-line-of-sight with a
sigmoid-in-elevation LoS probability; the mean path loss blends the two
excess-loss terms on top of a free-space log-distance law. SNR is expressed
through two derived link constants so that it can be evaluated cheaply over
large position grids.
"""

import math
from dataclasses import dataclass

import numpy as np


def _check_fields(obj, finite, positive):
    """Raise ValueError naming the first field of obj that is not finite, or not positive.

    The positive fields are checked first. Written so that NaN fails both.
    """
    for name in (*positive, *finite):
        value = getattr(obj, name)
        if not (math.isfinite(value) and (value > 0.0 or name not in positive)):
            need = "finite and positive" if name in positive else "finite"
            raise ValueError(f"{name} must be {need}, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """Environment constants of the LoS-probability model."""

    name: str
    a: float            # sigmoid offset, dimensionless
    b: float            # sigmoid slope, per degree
    eta_los_db: float   # excess loss on LoS links
    eta_nlos_db: float  # excess loss on NLoS links

    def __post_init__(self):
        _check_fields(self, ("eta_los_db", "eta_nlos_db"), positive=("a", "b"))
        if self.eta_nlos_db <= self.eta_los_db:
            raise ValueError(
                "NLoS excess loss must exceed LoS excess loss, got "
                f"eta_los_db={self.eta_los_db}, eta_nlos_db={self.eta_nlos_db}"
            )


@dataclass(frozen=True)
class LinkBudget:
    """Radio parameters of the ground-station-to-UAV link."""

    tx_power_dbw: float       # transmit power, dB relative to 1 W
    noise_psd_dbm_hz: float   # noise power spectral density
    bandwidth_hz: float
    carrier_hz: float
    light_speed_m_s: float = 3e8

    def __post_init__(self):
        _check_fields(self, ("tx_power_dbw", "noise_psd_dbm_hz"),
                      positive=("bandwidth_hz", "carrier_hz", "light_speed_m_s"))

    @property
    def noise_power_dbw(self) -> float:
        """Total noise power over the full bandwidth, in dBW."""
        return self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz) - 30.0


@dataclass(frozen=True)
class DerivedConstants:
    """The SNR model's four parameters, precomputed from a Scenario and a LinkBudget.

    a_env and b_env are the sigmoid's, a_tilde the natural log of the LoS SNR
    over the NLoS SNR, and c_tilde the NLoS SNR at 1 m.
    """

    a_env: float
    b_env: float
    a_tilde: float
    c_tilde: float


def derive_constants(s: Scenario, link: LinkBudget) -> DerivedConstants:
    """Compute the derived link constants for one scenario and link budget."""
    a_db = s.eta_los_db - s.eta_nlos_db  # LoS minus NLoS excess loss, negative
    # The NLoS path-loss offset in dB, with the free-space carrier term.
    c_db = 20.0 * math.log10(4.0 * math.pi * link.carrier_hz / link.light_speed_m_s)
    c_db += s.eta_nlos_db
    a_tilde = -a_db * math.log(10.0) / 10.0
    snr_0_db = link.tx_power_dbw - link.noise_power_dbw  # SNR before path loss
    try:  # finite fields can still overflow 4 pi f / c, or over- or underflow the SNR scale
        c_tilde = 10.0 ** ((snr_0_db - c_db) / 10.0)
    except OverflowError:
        c_tilde = math.inf
    if not (math.isfinite(a_tilde) and math.isfinite(c_db) and 0.0 < c_tilde < math.inf):
        raise ValueError(
            "the link fields (tx_power_dbw, noise_psd_dbm_hz, bandwidth_hz, carrier_hz, "
            f"light_speed_m_s) and eta_los_db, eta_nlos_db give a_tilde={a_tilde!r}, "
            f"c_db={c_db!r} and c_tilde={c_tilde!r}; need them finite and c_tilde > 0")
    # 1/SNR is at most r_max**2 / c_tilde, and r_max**2 < 2**410 wherever r_max**5
    # is finite (Airspace). From c_tilde = 2**-560 on, 1/SNR stays below 2**970, and
    # E(1/SNR)'s intermediate 3 r_max**2 / (c_tilde (90 - theta_min)) below 2**1016.
    if c_tilde < 2.0**-560:
        raise ValueError(
            f"the link budget gives c_tilde={c_tilde!r}, the NLoS SNR at 1 m; need c_tilde "
            ">= 2**-560 (-1685.8 dB), so that 1/SNR and E(1/SNR) stay finite on every airspace")
    return DerivedConstants(a_env=s.a, b_env=s.b, a_tilde=a_tilde, c_tilde=c_tilde)


def _checked_array(values, message, *in_range):
    """values as a float array; ValueError(message) unless np.all holds of each predicate.

    So NaN fails every range: a comparison with NaN is false, and "not all
    inside" rejects it where "any outside" would not.
    """
    values = np.asarray(values, dtype=float)
    for rule in in_range:
        if not np.all(rule(values)):
            raise ValueError(message)
    return values


# The channel functions' argument rules, each a message and its predicates.
_ELEVATION = ("elevation angle must lie in [0, 90] degrees",
              lambda t: t >= 0.0, lambda t: t <= 90.0)
_DISTANCE = ("distance must be positive", lambda d: d > 0.0)


def _scalar_or_array(out):
    """A 0-d result as a Python float, any other array as it is."""
    return float(out) if out.ndim == 0 else out


def _sigmoid(a, b, theta):
    """1 / (1 + a exp(-b (theta - a))), evaluated in place in one new array."""
    out = np.subtract(theta, a, out=np.empty(theta.shape))
    np.multiply(-b, out, out=out)
    np.exp(out, out=out)
    np.multiply(a, out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


# Points per block of the SNR and rate chain, for the Monte Carlo draw and the
# quadrature's node grid alike: a block's handful of working arrays (128 KiB
# each) stay in a core's L2 cache. Of 4K to 64K, 16K drew 1e6 samples fastest
# on a 2-core Xeon (4K pays per-call overhead).
_BLOCK = 16_384


def snr(c: DerivedConstants, theta, d):
    """Linear SNR at the UAV, c_tilde * d^-2 * exp(a_tilde * P_los(theta))."""
    theta = _checked_array(theta, *_ELEVATION)
    d = _checked_array(d, *_DISTANCE)
    # The elevation factor exp(a_tilde P_los) at theta's shape, reused for the SNR when it fits.
    elevation = _sigmoid(c.a_env, c.b_env, theta)
    np.multiply(c.a_tilde, elevation, out=elevation)
    np.exp(elevation, out=elevation)
    scale = np.power(d, -2.0, out=np.empty(d.shape))
    np.multiply(c.c_tilde, scale, out=scale)
    out = elevation if theta.shape == np.broadcast_shapes(theta.shape, d.shape) else None
    return _scalar_or_array(np.multiply(scale, elevation, out=out))
