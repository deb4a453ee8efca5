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

from .channel import DerivedConstants, _scalar_or_array
from .fbl_rate import _LN2, FblConfig
from .geometry import Airspace

_EULER_GAMMA = 0.5772156649015328606
_INV_SQRT3 = 1.0 / math.sqrt(3.0)


# Unchecked formulas, shared by the validating array functions below, the
# Jensen bound and g_inverse's Newton iteration. numpy's log1p gives a Python
# float and each element of an array the same bits.
def _f(x, q):
    return np.log1p(1.0 / x) - q * np.sqrt(2.0 * x + 1.0) / (x + 1.0)


def _g(x):
    return (x + 1.0) * np.log1p(1.0 / x) / np.sqrt(2.0 * x + 1.0)


def _x_dg(x):
    # x g'(x) = (x (x ln(1 + 1/x) - 2) - 1) / (2x + 1)^1.5, the slope of g(e^u)
    # in u = ln x; the numerator runs from -1 to about -x, free of cancellation.
    return (x * (x * np.log1p(1.0 / x) - 2.0) - 1.0) / ((2.0 * x + 1.0) * np.sqrt(2.0 * x + 1.0))


# g_inverse's q range, wider than any configuration reaches (q <= 38.5, as
# eps >= 5e-324 and M >= 1); its roots, 1e-304 to 5e61, keep every term of g
# and x g' a normal float.
_G_INVERSE_DOMAIN = (1e-31, 700.0)


def f_penalized(x, q):
    """Penalized log-rate f(x) = ln(1 + 1/x) - q sqrt(2x + 1) / (x + 1)."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("f_penalized needs x > 0")
    if not q > 0.0:
        raise ValueError("f_penalized needs q > 0")
    return _scalar_or_array(_f(x, q))


def g_bound(x):
    """Largest penalty coefficient keeping f nonnegative at x; decreasing in x."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("g_bound needs x > 0")
    return _scalar_or_array(_g(x))


def g_inverse(q):
    """Solve g_bound(x) = q for x by Newton's method in u = ln x, elementwise.

    phi(u) = g(e^u) - q is convex and decreasing, like -u as x -> 0 and like
    e^(-u/2)/sqrt(2) as x -> inf. Newton starts on those asymptotes and, phi
    being convex, every iterate after the first lies left of the root and
    rises to it. An element is frozen once its step is at most
    1e-10 max(1, |u|), which quadratic convergence makes final (a 1e-15 test
    can cycle on g's rounding noise), so an array element has the bits of a
    scalar call; a float q gives a float. Domain: q in [1e-31, 700], else
    ValueError. There a call takes at most 5 steps, the relative root error
    is below 1e-13 and the relative residual |g(x) - q| / q below 1e-14.
    """
    q = np.asarray(q, dtype=float)
    bad = ~(np.isfinite(q) & (q > 0.0))
    if bad.any():
        raise ValueError(f"g_inverse needs a finite q > 0, got q={float(q[bad][0])}")
    lo, hi = _G_INVERSE_DOMAIN
    bad = (q < lo) | (q > hi)
    if bad.any():
        raise ValueError(f"g_inverse needs q in [{lo:g}, {hi:g}], got q={float(q[bad][0])}")
    u = np.where(q >= 1.0, -q, -np.log(2.0 * q * q))
    going = np.ones(q.shape, dtype=bool)
    while going.any():
        x = np.exp(u)
        step = (_g(x) - q) / _x_dg(x)
        u = np.where(going, u - step, u)
        going &= np.abs(step) > 1e-10 * np.maximum(1.0, np.abs(u))
    return _scalar_or_array(np.exp(u))


def min_snr_for_valid_rate(cfg: FblConfig) -> float:
    """Smallest SNR at which the finite-blocklength rate is nonnegative.

    Equals 1 / g_inverse(q); above it the rate is also increasing in SNR
    and the map stays inside the proven convexity region of the lower-bound
    machinery.
    """
    return 1.0 / g_inverse(cfg.q)


def g1_threshold(x):
    """Penalty threshold (1 + x) sqrt(2x + 1) / (2 x^2); dominates g_bound."""
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0.0):
        raise ValueError("g1_threshold needs x > 0")
    return _scalar_or_array((1.0 + x) * np.sqrt(2.0 * x + 1.0) / (2.0 * x * x))


def g2_threshold(x):
    """Penalty threshold (x + 1)(2x + 1)^(5/2) / (2 x^2 (3 x^2 - 1)).

    Only defined right of the pole at 1/sqrt(3); dominates g_bound there.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(x > _INV_SQRT3):
        raise ValueError("g2_threshold needs x > 1/sqrt(3)")
    return _scalar_or_array(
        (x + 1.0) * (2.0 * x + 1.0) ** 2.5 / (2.0 * x * x * (3.0 * x * x - 1.0)))


def _ei_series(x: float) -> float:
    # Convergent series gamma + ln|x| + sum x^k / (k k!). For x < 0 the terms
    # alternate; cancellation stays below ~1e-12 relative only for |x| <= 5.
    total = _EULER_GAMMA + math.log(abs(x))
    term = 1.0
    for k in range(1, 1000):
        term *= x / k
        contrib = term / k
        total += contrib
        if abs(contrib) <= 1e-17 * abs(total) + 1e-300:
            return total
    raise RuntimeError(f"Ei series did not converge at x={x}")


def _ei_asymptotic(x: float) -> float:
    # Divergent expansion Ei(x) ~ (e^x / x) sum k! / x^k, truncated at the
    # smallest term; below machine precision for x >= 40.
    s = 1.0
    term = 1.0
    for k in range(1, 400):
        prev = term
        term *= k / x
        if term >= prev:
            break
        s += term
        if term <= 1e-17 * s:
            break
    return math.exp(x) / x * s


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

    Series for moderate arguments, continued fraction for x < -5 (where the
    alternating series loses precision) and the optimally truncated
    asymptotic expansion for x >= 40.
    """
    x = float(x)
    if x == 0.0:
        raise ValueError("Ei is singular at x = 0")
    if x > 700.0:
        raise OverflowError("Ei overflows double precision for x > 700")
    if x >= 40.0:
        return _ei_asymptotic(x)
    if x >= -5.0:
        return _ei_series(x)
    return -_e1_continued_fraction(-x)


def _distance_limit(consts: DerivedConstants, q):
    """d_max at q > 0, a float or an array: the q-free floor term times g_inverse(q).

    sqrt(c_tilde * exp(a_tilde / (1 + a exp(a b))) * g_inverse(q)); the
    exponent uses the worst case of zero elevation.
    """
    zero_elevation = 1.0 + consts.a_env * math.exp(consts.a_env * consts.b_env)
    floor_term = math.exp(consts.a_tilde / zero_elevation)
    return np.sqrt(consts.c_tilde * floor_term * g_inverse(q))


def d_max(consts: DerivedConstants, cfg: FblConfig) -> float:
    """Largest station-to-UAV distance keeping the rate map convex in 1/SNR."""
    if cfg.epsilon >= 0.5:
        raise ValueError("d_max needs epsilon < 0.5")
    return float(_distance_limit(consts, cfg.q))


def expected_inverse_snr(space: Airspace, consts: DerivedConstants) -> float:
    """Closed-form mean of 1/SNR over the airspace position distribution.

    Independent of the blocklength and error probability: a sweep evaluates
    it, and so its four Ei terms, once for all rows.

    Separates into the distance moment u = (r_max^5 - r_min^5)/5 and an
    elevation integral v expressed through Ei via the antiderivative
    t(x) = (e^-a_tilde Ei(a_tilde - 1/x) - Ei(-1/x)) / a_tilde.
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

    u = (big_d**5 - r**5) / 5.0
    s1 = a * math.exp(-b * (th_min - a))
    s2 = a * math.exp(-b * (90.0 - a))
    v = (at / b) * (t_of_sigmoid(s1) - t_of_sigmoid(s2))
    norm = 3.0 / consts.c_tilde / ((90.0 - th_min) * (big_d**3 - r**3))
    return norm * u * v


class DistanceLimitError(ValueError):
    """The airspace reaches beyond d_max, where the lower bound is invalid."""


def _lower_bound_rows(space: Airspace, consts: DerivedConstants, q):
    """(Jensen bound in bits/channel use, d_max) at q >= 0, a float or an array.

    The bound is nan where the airspace reaches beyond d_max. At q = 0
    (epsilon = 0.5) the penalty vanishes, d_max is inf and the bound is
    log2(1 + 1/E(1/gamma)).
    """
    mean_inv = expected_inverse_snr(space, consts)
    q = np.asarray(q, dtype=float)
    if np.any(q < 0.0):
        raise ValueError("aadr_lower_bound needs epsilon <= 0.5")
    bound = np.full(q.shape, math.nan)
    limit = np.full(q.shape, math.inf)
    zero = q == 0.0
    if zero.any():
        bound[zero] = math.log1p(1.0 / mean_inv) / _LN2
    if not zero.all():
        limit[~zero] = _distance_limit(consts, q[~zero])
        rows = ~zero & (space.r_max_m <= limit)
        if rows.any():
            if mean_inv <= 0.0:
                raise ValueError(f"aadr_lower_bound needs E(1/SNR) > 0, got {mean_inv}")
            bound[rows] = _f(mean_inv, q[rows]) / _LN2
    return _scalar_or_array(bound), _scalar_or_array(limit)


def aadr_lower_bound(space: Airspace, consts: DerivedConstants, cfg: FblConfig) -> float:
    """Jensen lower bound of the average achievable data rate, bits/channel use.

    Valid only while the airspace fits inside d_max; a larger airspace is a
    hard error because the convexity argument breaks. At epsilon = 0.5 the
    penalty vanishes and the bound reduces to log2(1 + 1/E(1/gamma)).
    """
    bound, limit = _lower_bound_rows(space, consts, cfg.q)
    if space.r_max_m > limit:
        raise DistanceLimitError(
            f"airspace radius {space.r_max_m} m exceeds d_max {limit:.1f} m; "
            "the lower bound is invalid for this configuration"
        )
    return bound
