"""Finite-blocklength achievable rate (normal approximation).

With M channel uses and target decoding error probability epsilon the rate
in bits per channel use is

    R(gamma) = log2(1 + gamma) - (1/ln 2) sqrt(V(gamma)/M) Qinv(epsilon)

with channel dispersion V(gamma) = 1 - (1 + gamma)^-2. The inverse Gaussian
tail probability Qinv used by the penalty term lives here as well.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .channel import _checked_array, _scalar_or_array

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class FblConfig:
    """Blocklength M (channel uses) and decoding error probability epsilon.

    M is a positive integer and epsilon lies in (0, 0.5), where q =
    Qinv(epsilon) / sqrt(M) > 0: the lower bound, d_max and g_inverse need a
    positive penalty. Every way in, the config loader, replace() and the
    sweeps' rows, builds an FblConfig, so this is the one place that checks.
    """

    blocklength: int
    epsilon: float

    def __post_init__(self):
        m = self.blocklength
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise ValueError(f"blocklength must be a positive integer, got {m!r}")
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 0.5), got {self.epsilon}")

    @property
    def q(self) -> float:
        """Penalty coefficient q = Qinv(epsilon) / sqrt(M) of the normal approximation."""
        try:
            root = math.sqrt(self.blocklength)
        except OverflowError:  # an integer beyond the doubles
            raise ValueError("blocklength is too large for a double") from None
        return q_inverse(self.epsilon) / root


def _rate(s_terms, w_terms, q):
    """R = S - (q / ln 2) W: the rate, or any average of it, from its q-free parts.

    Elementwise over arrays of q, S or W, in the same operation order as
    for scalars, so one row of an array call has the bits of a scalar call.
    """
    return s_terms - (q / _LN2) * w_terms


# Wichura's AS241 (Applied Statistics 37, 1988): (numerator, denominator)
# coefficients, highest power first, of the central rational function for
# |p - 1/2| <= 0.425, the tail one for r = sqrt(-ln p) <= 5 and the far-tail one.
_AS241 = (
    ((2.50908_09287_30122_6727e+3, 3.34305_75583_58812_8105e+4, 6.72657_70927_00870_0853e+4,
      4.59219_53931_54987_1457e+4, 1.37316_93765_50946_1125e+4, 1.97159_09503_06551_4427e+3,
      1.33141_66789_17843_7745e+2, 3.38713_28727_96366_6080e+0),
     (5.22649_52788_52854_5610e+3, 2.87290_85735_72194_2674e+4, 3.93078_95800_09271_0610e+4,
      2.12137_94301_58659_5867e+4, 5.39419_60214_24751_1077e+3, 6.87187_00749_20579_0830e+2,
      4.23133_30701_60091_1252e+1, 1.0)),
    ((7.74545_01427_83414_07640e-4, 2.27238_44989_26918_45833e-2, 2.41780_72517_74506_11770e-1,
      1.27045_82524_52368_38258e+0, 3.64784_83247_63204_60504e+0, 5.76949_72214_60691_40550e+0,
      4.63033_78461_56545_29590e+0, 1.42343_71107_49683_57734e+0),
     (1.05075_00716_44416_84324e-9, 5.47593_80849_95344_94600e-4, 1.51986_66563_61645_71966e-2,
      1.48103_97642_74800_74590e-1, 6.89767_33498_51000_04550e-1, 1.67638_48301_83803_84940e+0,
      2.05319_16266_37758_82187e+0, 1.0)),
    ((2.01033_43992_92288_13265e-7, 2.71155_55687_43487_57815e-5, 1.24266_09473_88078_43860e-3,
      2.65321_89526_57612_30930e-2, 2.96560_57182_85048_91230e-1, 1.78482_65399_17291_33580e+0,
      5.46378_49111_64114_36990e+0, 6.65790_46435_01103_77720e+0),
     (2.04426_31033_89939_78564e-15, 1.42151_17583_16445_88870e-7, 1.84631_83175_10054_68180e-5,
      7.86869_13114_56132_59100e-4, 1.48753_61290_85061_48525e-2, 1.36929_88092_27358_05310e-1,
      5.99832_20655_58879_37690e-1, 1.0)),
)


def _poly(coeffs, x: float) -> float:
    """Horner evaluation of the polynomial with these coefficients, highest power first."""
    total = coeffs[0]
    for c in coeffs[1:]:
        total = total * x + c
    return total


def q_inverse(p: float) -> float:
    """Inverse of Q(x) = 0.5 erfc(x / sqrt 2) over p in (0, 1), by Wichura's algorithm AS241.

    A direct rational approximation with no iteration: its relative error
    against a 50-digit root stays below 1e-15 from the smallest subnormal p
    up to 0.5. It is the algorithm, and the operation order, of
    statistics.NormalDist.inv_cdf, so q_inverse(p) == -inv_cdf(p) bit for
    bit; the port avoids importing statistics, which loads fractions and
    decimal into every process that computes a rate. The upper tail goes
    through the symmetric lower tail.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inverse needs 0 < p < 1, got {p}")
    if p > 0.5:
        return -q_inverse(1.0 - p)
    q = 0.5 - p
    if q <= 0.425:
        num, den = _AS241[0]
        r = 0.180625 - q * q
        return _poly(num, r) * q / _poly(den, r)
    r = math.sqrt(-math.log(p))
    if r <= 5.0:
        num, den = _AS241[1]
        r -= 1.6
    else:
        num, den = _AS241[2]
        r -= 5.0
    return _poly(num, r) / _poly(den, r)


def _dispersion(g):
    """g (g + 2) / (1 + g)^2 in that operation order, in place in two new arrays."""
    out = np.add(g, 2.0, out=np.empty_like(g))
    np.multiply(g, out, out=out)
    scratch = np.add(1.0, g, out=np.empty_like(g))
    np.square(scratch, out=scratch)
    return np.divide(out, scratch, out=out)


def q_free_terms(gamma):
    """Arrays (S, W) = (log2(1 + gamma), sqrt(V(gamma))) for gamma > 0.

    The rate is R = S - (q / ln 2) W: only q = Qinv(eps)/sqrt(M) depends on
    the blocklength and error probability, so averages of S and W serve
    every (M, eps) pair.
    """
    g = _checked_array(gamma, "SNR must be positive", lambda v: v > 0.0)
    w_terms = _dispersion(g)
    np.sqrt(w_terms, out=w_terms)
    s_terms = np.log1p(g, out=np.empty_like(g))
    np.divide(s_terms, _LN2, out=s_terms)
    return s_terms, w_terms


def achievable_rate(gamma, cfg: FblConfig):
    """Finite-blocklength rate in bits per channel use; may be negative.

    Negative values for small SNR are returned unclamped. The rate is
    nonnegative and increasing from SNR = 1 / bound.g_inverse(q) on.
    """
    return _scalar_or_array(_rate(*q_free_terms(gamma), cfg.q))


def shannon_rate(gamma):
    """Asymptotic rate log2(1 + gamma) in bits per channel use."""
    gamma = _checked_array(gamma, "SNR must be nonnegative", lambda g: g >= 0.0)
    return _scalar_or_array(np.log1p(gamma) / _LN2)
