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


@dataclass(frozen=True)
class Scenario:
    """Environment constants of the LoS-probability model."""

    name: str
    a: float            # sigmoid offset, dimensionless
    b: float            # sigmoid slope, per degree
    eta_los_db: float   # excess loss on LoS links
    eta_nlos_db: float  # excess loss on NLoS links

    def __post_init__(self):
        if self.a <= 0.0 or self.b <= 0.0:
            raise ValueError(f"a and b must be positive, got a={self.a}, b={self.b}")
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
        if self.bandwidth_hz <= 0.0 or self.carrier_hz <= 0.0:
            raise ValueError("bandwidth and carrier frequency must be positive")

    @property
    def noise_power_dbw(self) -> float:
        """Total noise power over the full bandwidth, in dBW."""
        return self.noise_psd_dbm_hz + 10.0 * math.log10(self.bandwidth_hz) - 30.0


@dataclass(frozen=True)
class DerivedConstants:
    """Link constants precomputed from a Scenario and a LinkBudget.

    a_db is the (negative) LoS-minus-NLoS excess-loss difference, c_db the
    NLoS path-loss offset including the free-space carrier term. a_tilde and
    c_tilde are their natural-units counterparts entering the SNR expression.
    """

    a_env: float
    b_env: float
    a_db: float
    c_db: float
    a_tilde: float
    c_tilde: float


def derive_constants(s: Scenario, link: LinkBudget) -> DerivedConstants:
    """Compute the derived link constants for one scenario and link budget."""
    a_db = s.eta_los_db - s.eta_nlos_db
    c_db = 20.0 * math.log10(4.0 * math.pi * link.carrier_hz / link.light_speed_m_s)
    c_db += s.eta_nlos_db
    a_tilde = -a_db * math.log(10.0) / 10.0
    snr_0_db = link.tx_power_dbw - link.noise_power_dbw  # SNR before path loss
    c_tilde = 10.0 ** ((snr_0_db - c_db) / 10.0)
    return DerivedConstants(
        a_env=s.a, b_env=s.b, a_db=a_db, c_db=c_db, a_tilde=a_tilde, c_tilde=c_tilde
    )


def _check_theta(theta):
    theta = np.asarray(theta, dtype=float)
    if np.any(theta < 0.0) or np.any(theta > 90.0):
        raise ValueError("elevation angle must lie in [0, 90] degrees")
    return theta


def _check_distance(d):
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("distance must be positive")
    return d


def _sigmoid(a, b, theta):
    return 1.0 / (1.0 + a * np.exp(-b * (theta - a)))


def los_probability(s: Scenario, theta):
    """Probability of a line-of-sight link at elevation theta (degrees).

    Sigmoid 1 / (1 + a exp(-b (theta - a))), strictly increasing in theta.
    """
    out = _sigmoid(s.a, s.b, _check_theta(theta))
    return float(out) if out.ndim == 0 else out


def mean_path_loss_db(c: DerivedConstants, theta, d):
    """Mean path loss in dB at elevation theta (degrees) and distance d (m)."""
    theta = _check_theta(theta)
    d = _check_distance(d)
    p_los = _sigmoid(c.a_env, c.b_env, theta)
    out = c.a_db * p_los + 20.0 * np.log10(d) + c.c_db
    return float(out) if out.ndim == 0 else out


def snr(c: DerivedConstants, theta, d):
    """Linear SNR at the UAV, c_tilde * d^-2 * exp(a_tilde * P_los(theta))."""
    theta = _check_theta(theta)
    d = _check_distance(d)
    p_los = _sigmoid(c.a_env, c.b_env, theta)
    out = c.c_tilde * d**-2.0 * np.exp(c.a_tilde * p_los)
    return float(out) if out.ndim == 0 else out
