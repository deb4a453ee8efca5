"""Finite-blocklength achievable rate (normal approximation).

With M channel uses and target decoding error probability epsilon the rate
in bits per channel use is

    R(gamma) = log2(1 + gamma) - (1/ln 2) sqrt(V(gamma)/M) Qinv(epsilon)

with channel dispersion V(gamma) = 1 - (1 + gamma)^-2. The Gaussian
Q-function pair used by the penalty term lives here as well.
"""

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .channel import _scalar_or_array

_LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LN_SQRT_2PI = math.log(_SQRT_2PI)


@dataclass(frozen=True)
class FblConfig:
    """Blocklength M (channel uses) and decoding error probability epsilon."""

    blocklength: int
    epsilon: float

    def __post_init__(self):
        m = self.blocklength
        if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
            raise ValueError(f"blocklength must be a positive integer, got {m!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")

    @property
    def q(self) -> float:
        """Penalty coefficient Qinv(epsilon) / sqrt(M)."""
        return _penalty(self.epsilon, self.blocklength)


def _penalty(epsilon: float, blocklength: int) -> float:
    """Penalty coefficient q = Qinv(epsilon) / sqrt(M) of the normal approximation."""
    return q_inverse(epsilon) / math.sqrt(blocklength)


def _rate(s_terms, w_terms, q):
    """R = S - (q / ln 2) W: the rate, or any average of it, from its q-free parts.

    Elementwise over arrays of q, S or W, in the same operation order as
    for scalars, so one row of an array call has the bits of a scalar call.
    """
    return s_terms - (q / _LN2) * w_terms


def q_function(x: float) -> float:
    """Upper-tail standard normal probability Q(x) = 0.5 erfc(x / sqrt 2)."""
    return 0.5 * math.erfc(float(x) / _SQRT2)


# Rational initial guess for the normal quantile (Acklam's approximation,
# |relative error| < 1.15e-9), polished below by Newton steps on Q, or on ln Q
# where Q is subnormal.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)


def _norm_ppf_approx(p: float) -> float:
    a, b, c, d = _ACK_A, _ACK_B, _ACK_C, _ACK_D
    if p < 0.02425:
        t = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * t + c[1]) * t + c[2]) * t + c[3]) * t + c[4]) * t + c[5]) / \
               ((((d[0] * t + d[1]) * t + d[2]) * t + d[3]) * t + 1.0)
    if p > 1.0 - 0.02425:
        t = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * t + c[1]) * t + c[2]) * t + c[3]) * t + c[4]) * t + c[5]) / \
                ((((d[0] * t + d[1]) * t + d[2]) * t + d[3]) * t + 1.0)
    u = p - 0.5
    t = u * u
    return (((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t + a[5]) * u / \
           (((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1.0)


def _mills_ratio(x: float) -> float:
    """Q(x) / phi(x) for x >= 37 from its asymptotic series (1 - 1/x^2 + 3/x^4 - ...) / x.

    There the terms shrink by (2k - 1) / x^2 < 1/50 each and eight reach 1e-17.
    """
    inv_x2 = 1.0 / (x * x)
    total = term = 1.0
    k = 1
    while abs(term) > 1e-17:
        term *= -(2 * k - 1) * inv_x2
        total += term
        k += 1
    return total / x


def q_inverse(p: float) -> float:
    """Inverse of q_function, accurate to a few ulp over p in (0, 1).

    Acklam's rational approximation refined by two Newton steps against
    q_function. The upper tail goes through the symmetric lower tail, where
    the erfc evaluation keeps full relative precision. Below the smallest
    normal float Q(x) is subnormal and has lost relative precision, so the
    steps solve ln Q(x) = ln p instead, with ln Q = -x^2/2 - ln sqrt(2 pi)
    + ln of the Mills ratio.
    """
    p = float(p)
    if not 0.0 < p < 1.0:
        raise ValueError(f"q_inverse needs 0 < p < 1, got {p}")
    if p == 0.5:
        return 0.0
    if p > 0.5:
        return -q_inverse(1.0 - p)
    x = -_norm_ppf_approx(p)  # Q decreasing: Qinv(p) = -Phi^-1(p)
    if p < sys.float_info.min:
        log_p = math.log(p)
        for _ in range(2):
            mills = _mills_ratio(x)
            x += (math.log(mills) - 0.5 * x * x - _LN_SQRT_2PI - log_p) * mills
        return x
    for _ in range(2):
        pdf = math.exp(-0.5 * x * x) / _SQRT_2PI
        if pdf == 0.0:
            break
        x += (q_function(x) - p) / pdf
    return x


def _dispersion(g):
    """g (g + 2) / (1 + g)^2 in that operation order, in place in two new arrays."""
    out = np.add(g, 2.0, out=np.empty_like(g))
    np.multiply(g, out, out=out)
    scratch = np.add(1.0, g, out=np.empty_like(g))
    np.square(scratch, out=scratch)
    return np.divide(out, scratch, out=out)


def dispersion(gamma):
    """Channel dispersion V = 1 - (1 + gamma)^-2, evaluated cancellation-free."""
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0.0):
        raise ValueError("SNR must be nonnegative")
    return _scalar_or_array(_dispersion(g))


def q_free_terms(gamma):
    """Arrays (S, W) = (log2(1 + gamma), sqrt(V(gamma))) for gamma > 0.

    The rate is R = S - (q / ln 2) W: only q = Qinv(eps)/sqrt(M) depends on
    the blocklength and error probability, so averages of S and W serve
    every (M, eps) pair.
    """
    g = np.asarray(gamma, dtype=float)
    if not np.all(g > 0.0):
        raise ValueError("SNR must be positive")
    w_terms = _dispersion(g)
    np.sqrt(w_terms, out=w_terms)
    s_terms = np.log1p(g, out=np.empty_like(g))
    np.divide(s_terms, _LN2, out=s_terms)
    return s_terms, w_terms


def achievable_rate(gamma, cfg: FblConfig):
    """Finite-blocklength rate in bits per channel use; may be negative.

    Negative values for small SNR are returned unclamped; use
    bound.min_snr_for_valid_rate to locate the region where the rate is
    nonnegative and increasing.
    """
    return _scalar_or_array(_rate(*q_free_terms(gamma), cfg.q))


def shannon_rate(gamma):
    """Asymptotic rate log2(1 + gamma) in bits per channel use."""
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0.0):
        raise ValueError("SNR must be nonnegative")
    return _scalar_or_array(np.log1p(g) / _LN2)
