"""Closed-form lower bound of the average achievable data rate.

Rewriting the finite-blocklength rate as R(gamma) = f(1/gamma) / ln 2 with

    f(x) = ln(1 + 1/x) - q sqrt((2x + 1) / (x + 1)^2),   q = Qinv(eps)/sqrt(M),

f is nonnegative, decreasing and convex on (0, g_inverse(q)], where
g(x) = (x + 1) ln(1 + 1/x) / sqrt(2x + 1) is strictly decreasing. Moving the
expectation inside f (Jensen) then needs only E(1/gamma), which has a closed
form in the exponential integral Ei. The convexity region translates into a
maximum usable station-to-UAV distance d_max.
"""

import math

import numpy as np

from .channel import DerivedConstants, _scalar_or_array, _sigmoid, snr
from .fbl_rate import _LN2, FblConfig
from .geometry import Airspace
from .quadrature import integrate, legendre_rule

_EULER_GAMMA = 0.5772156649015328606

# expected_inverse_snr's elevation integral. Against mpmath over random scenarios,
# a 16-point Gauss rule in theta is within 5e-16 relative once the Bernstein
# ellipse parameter of the integrand's nearest singularity is 4 or more, and the
# Ei antiderivative within 3e-15 while it is below 8; the switch sits at 6.
_GAUSS_ORDER = 16
_GAUSS_ELLIPSE = 6.0


# Unchecked formulas, shared by the Jensen bound and its d_max rule below,
# g_inverse's Newton iteration and the lemma suite's root check. numpy's
# log1p gives a Python float and each element of an array the same bits.
def _f(x, q):
    return np.log1p(1.0 / x) - q * np.sqrt(2.0 * x + 1.0) / (x + 1.0)


def _g(x):
    return (x + 1.0) * np.log1p(1.0 / x) / np.sqrt(2.0 * x + 1.0)


def _x_dg(x):
    # x g'(x) = (x (x ln(1 + 1/x) - 2) - 1) / (2x + 1)^1.5, the slope of g(e^u)
    # in u = ln x; the numerator runs from -1 to about -x, free of cancellation.
    return (x * (x * np.log1p(1.0 / x) - 2.0) - 1.0) / ((2.0 * x + 1.0) * np.sqrt(2.0 * x + 1.0))


# g_inverse's q range. Configurations reach q <= 38.5 (eps >= 5e-324, M >= 1)
# and, M being unbounded, q < 1e-31, which d_max (the dmax command) rejects;
# the bound's rule needs no root. The roots, 1e-304 to 5e61, keep every term
# of g and x g' a normal float.
_G_INVERSE_DOMAIN = (1e-31, 700.0)


def g_inverse(q: float) -> float:
    """Solve g(x) = q for x by Newton's method in u = ln x.

    phi(u) = g(e^u) - q is convex and decreasing, like -u as x -> 0 and like
    e^(-u/2)/sqrt(2) as x -> inf. Newton starts on those asymptotes and, phi
    being convex, every iterate after the first lies left of the root and
    rises to it. It stops once its step is at most 1e-10 max(1, |u|), which
    quadratic convergence makes final (a 1e-15 test can cycle on g's
    rounding noise). Domain: q in [1e-31, 700], else ValueError. There a
    call takes at most 5 steps, the relative root error is below 1e-13 and
    the relative residual |g(x) - q| / q below 1e-14.
    """
    q = float(q)
    lo, hi = _G_INVERSE_DOMAIN
    if not lo <= q <= hi:
        raise ValueError(f"g_inverse needs q in [{lo:g}, {hi:g}], got q={q}")
    # numpy's float64 log and exp, not math's: the roots keep their bits.
    u, step = (-q if q >= 1.0 else -np.log(2.0 * q * q)), math.inf
    while abs(step) > 1e-10 * max(1.0, abs(u)):
        x = np.exp(u)
        step = (_g(x) - q) / _x_dg(x)
        u -= step
    return float(np.exp(u))


def _ei_series(x: float) -> float:
    # Convergent series gamma + ln|x| + sum x^k / (k k!), all terms positive for
    # x > 0. For x < 0 they alternate; cancellation stays below ~5e-15 relative
    # only for |x| <= 2 (at x = -5 it reaches ~1e-12).
    total = _EULER_GAMMA + math.log(abs(x))
    term = 1.0
    for k in range(1, 1000):
        term *= x / k
        contrib = term / k
        total += contrib
        if abs(contrib) <= 1e-17 * abs(total) + 1e-300:
            return total
    raise RuntimeError(f"Ei series did not converge at x={x}")


def _e1_continued_fraction(z: float) -> float:
    # Modified Lentz evaluation of E1(z) = e^-z / (z + 1 - 1/(z + 3 - 4/(...))).
    b = z + 1.0
    c = 1e300
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        a = -float(i * i)
        b += 2.0
        d = 1.0 / (b + a * d)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h * math.exp(-z)
    raise RuntimeError(f"E1 continued fraction did not converge at z={z}")


def exp_integral_ei(x: float) -> float:
    """Exponential integral Ei(x); principal value for x > 0.

    The power series for x >= -2, the continued fraction of E1 below it (where
    the alternating series loses precision). Relative error against mpmath below
    1e-14 on [-50, -0.01] and [40, 700], 1e-15 on (-0.01, 0) down to -5e-324,
    and 3e-15 on (0, 40) but within 0.05 of Ei's zero 0.37251, where the
    absolute error stays below 3e-16. A call takes up to 0.2 ms (932 series
    terms at x = 700). nan and -inf are a ValueError.
    """
    x = float(x)
    if not x > -math.inf:
        raise ValueError(f"Ei needs a number above -inf, got x={x}")
    if x == 0.0:
        raise ValueError("Ei is singular at x = 0")
    if x > 700.0:
        raise OverflowError("Ei overflows double precision for x > 700")
    if x >= -2.0:
        return _ei_series(x)
    return -_e1_continued_fraction(-x)


def d_max(consts: DerivedConstants, cfg: FblConfig) -> float:
    """Largest station-to-UAV distance keeping the rate map convex in 1/SNR.

    Where 1/SNR at zero elevation, the worst case, reaches g_inverse(q).
    """
    return math.sqrt(snr(consts, 0.0, 1.0) * g_inverse(cfg.q))


def expected_inverse_snr(space: Airspace, consts: DerivedConstants) -> float:
    """Closed-form mean of 1/SNR over the airspace position distribution.

    Independent of the blocklength and error probability: a sweep evaluates
    it, and so its four Ei terms, once for all rows.

    Separates into E(d^2) = 3 (r_max^5 - r_min^5) / (5 (r_max^3 - r_min^3)),
    r_max - r_min divided out so that a thin shell does not cancel, and an
    elevation integral v expressed through Ei via the antiderivative
    t(x) = (e^-a_tilde Ei(a_tilde - 1/x) - Ei(-1/x)) / a_tilde.
    Where the elevation range is narrow, or lies far above the sigmoid's
    transition, the two ends of t nearly cancel (1e-11 relative at theta_min
    = 89.999), and v is a Gauss-Legendre rule in theta instead. Against mpmath
    quadrature the relative error stays below 3e-15 over the whole domain:
    theta_min in [0, 90), sigmoids up to b = 5, shells from 1e-15 relative
    wide to r_max**5's limit and c_tilde down to its floor. It peaked at
    2.9e-15 over some 8,000 random scenarios, in the Ei form, which carries
    Ei's own error (4e-15 near -2).
    """
    at = consts.a_tilde
    a, b = consts.a_env, consts.b_env
    r, big_d = space.r_min_m, space.r_max_m
    th_min = space.theta_min_deg

    def t_of_sigmoid(s):
        # antiderivative at y = (1 + s)/a_tilde; the first Ei argument
        # a_tilde - 1/y collapses to a_tilde s / (1 + s), which stays
        # cancellation-free even when s underflows toward zero
        return (math.exp(-at) * exp_integral_ei(at * s / (1.0 + s))
                - exp_integral_ei(-at / (1.0 + s))) / at

    width = 90.0 - th_min
    # exp(-a_tilde P_los(theta)) is singular where 1 + a exp(-b (theta - a)) = 0,
    # nearest at theta = pole + i pi/b. The ellipse with foci theta_min and 90
    # through that point has semi-major axis `axis` half-widths, and Bernstein
    # parameter axis + sqrt(axis^2 - 1).
    pole = a + math.log(a) / b
    axis = (math.hypot(pole - th_min, math.pi / b) + math.hypot(90.0 - pole, math.pi / b)) / width
    if axis + math.sqrt(axis * axis - 1.0) >= _GAUSS_ELLIPSE:
        v = integrate(legendre_rule(_GAUSS_ORDER),
                      lambda theta: np.exp(-at * _sigmoid(a, b, theta)), th_min, 90.0)
    else:
        s1 = a * math.exp(-b * (th_min - a))
        s2 = a * math.exp(-b * (90.0 - a))
        v = (at / b) * (t_of_sigmoid(s1) - t_of_sigmoid(s2))
    ratio = ((big_d**4 + big_d**3 * r + big_d**2 * r**2 + big_d * r**3 + r**4)
             / (5.0 * (big_d**2 + big_d * r + r**2)))
    return 3.0 / consts.c_tilde / width * ratio * v


class DistanceLimitError(ValueError):
    """The airspace reaches beyond d_max, where the lower bound is invalid."""


def _within_d_max(space: Airspace, consts: DerivedConstants, q):
    """Whether r_max <= d_max at q, elementwise: the lower bound's rule.

    g is decreasing, so this is q <= g(1/SNR) at the airspace's weakest point,
    r_max at zero elevation.
    """
    return q <= _g(1.0 / snr(consts, 0.0, space.r_max_m))


def _lower_bound_rows(space: Airspace, consts: DerivedConstants, q):
    """Jensen bound in bits/channel use at q, a float or an array.

    The bound is nan where the airspace reaches beyond d_max.
    """
    mean_inv = expected_inverse_snr(space, consts)
    if mean_inv <= 0.0:
        raise ValueError(f"aadr_lower_bound needs E(1/SNR) > 0, got {mean_inv}")
    bound = np.where(_within_d_max(space, consts, q), _f(mean_inv, q) / _LN2, math.nan)
    return _scalar_or_array(bound)


def aadr_lower_bound(space: Airspace, consts: DerivedConstants, cfg: FblConfig) -> float:
    """Jensen lower bound of the average achievable data rate, bits/channel use.

    Valid only while the airspace fits inside d_max; a larger airspace is a
    hard error because the convexity argument breaks.
    """
    bound = _lower_bound_rows(space, consts, cfg.q)
    if math.isnan(bound):  # the row's d_max verdict
        raise DistanceLimitError(
            f"airspace radius {space.r_max_m} m exceeds d_max {d_max(consts, cfg):.1f} m; "
            "the lower bound is invalid for this configuration"
        )
    return bound
