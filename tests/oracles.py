"""Independent reference implementations used to pin expected test values.

These deliberately avoid the code paths under test: the Ei oracle is an
extended-precision power series, the path loss, the Gaussian tail Q and the
position densities are the paper's formulas, one quantile oracle is plain
bisection on Q, one an mpmath root of ln Q and one mpmath's inverse error
function, the penalty threshold g and its root are evaluated in mpmath, the
root by bisection in ln x, the slope of g is mpmath's numerical derivative,
the lemma's two thresholds g1 and g2 are their closed forms in plain numpy,
E(1/SNR) is mpmath quadrature, the penalty-free GCQ is a plain nested
Gauss-Legendre sum of the Shannon rate, the paper's GCQ is a nested
Gauss-Chebyshev sum of the rate, and a mean under either elevation density
is a nested Gauss-Legendre sum over one node grid.
"""

import math

import mpmath as mp
import numpy as np

from uavlink.channel import snr
from uavlink.fbl_rate import achievable_rate, shannon_rate
from uavlink.geometry import _cube_difference
from uavlink.montecarlo import _moments
from uavlink.quadrature import integrate, legendre_rule


def mean_path_loss_db(s, link, theta, d):
    """Mean path loss in dB at elevation theta (degrees) and distance d (m): free-space
    loss at the link's carrier plus the scenario's excess losses, blended by P_los."""
    p_los = 1.0 / (1.0 + s.a * np.exp(-s.b * (np.asarray(theta) - s.a)))
    free_space_db = 20.0 * np.log10(4.0 * math.pi * link.carrier_hz * d / link.light_speed_m_s)
    return free_space_db + p_los * s.eta_los_db + (1.0 - p_los) * s.eta_nlos_db


def cdf_distance(space, x):
    """CDF of the station-to-UAV distance, (x^3 - r_min^3) / (r_max^3 - r_min^3)."""
    return (_cube_difference(np.asarray(x), space.r_min_m)
            / _cube_difference(space.r_max_m, space.r_min_m))


def pdf_distance(space, x):
    """Density of the distance, 3 x^2 / (r_max^3 - r_min^3), per meter."""
    return 3.0 * np.square(x) / _cube_difference(space.r_max_m, space.r_min_m)


def pdf_elevation(space, theta):
    """Density of the elevation angle, uniform 1/(90 - theta_min), per degree."""
    return np.full_like(np.asarray(theta, dtype=float), 1.0 / (90.0 - space.theta_min_deg))


def q_function(x):
    """Upper-tail standard normal probability Q(x) = 0.5 erfc(x / sqrt 2)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def ei_series_oracle(x, dps=60, truncation=1e-15):
    """Power series gamma + ln|x| + sum x^k/(k k!), summed at dps digits."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        total = mp.euler + mp.log(abs(xm))
        term = mp.mpf(1)
        for k in range(1, 20_000):
            term *= xm / k
            contrib = term / k
            total += contrib
            if abs(contrib) < mp.mpf(truncation) * abs(total) + mp.mpf("1e-100"):
                return float(total)
        raise RuntimeError(f"series oracle did not converge at x={x}")


def bisect_root(fn, lo, hi, iterations=200):
    """Bisection for a root of fn, which must change sign on [lo, hi]."""
    flo = fn(lo)
    fhi = fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise ValueError("no sign change on the bracket")
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (flo > 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def q_inverse_oracle(p):
    """Quantile by bisection on q_function."""
    return bisect_root(lambda x: q_function(x) - p, -40.0, 40.0)


def log_q_inverse_oracle(p, dps=50):
    """Root of ln Q(x) = ln p in mpmath at dps digits, as an mpf.

    Unlike q_inverse_oracle it never forms Q(x) in floating point, so it
    stays exact where Q(x) is a subnormal double.
    """
    with mp.workdps(dps):
        log_p = mp.log(mp.mpf(p))
        return mp.findroot(lambda x: mp.log(mp.erfc(x / mp.sqrt(2)) / 2) - log_p,
                           mp.sqrt(-2 * log_p))


def erfinv_q_inverse_oracle(p, dps=50):
    """Qinv(p) = -sqrt(2) erfinv(2p - 1) in mpmath at dps digits, as an mpf.

    Simpler than log_q_inverse_oracle's root search, and as exact wherever
    2p - 1 is not rounded to -1 at dps digits, which holds for p in the
    central bands.
    """
    with mp.workdps(dps):
        return -mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1)


def inverse_snr_oracle(space, consts, dps=40):
    """E(1/SNR) over the airspace by mpmath quadrature of its elevation factor, an mpf.

    1/SNR = d^2 exp(-a_tilde P_los(theta)) / c_tilde with independent
    distance and elevation, so the mean is E(d^2) times the mean of
    exp(-a_tilde P_los) over theta uniform on [theta_min, 90], over c_tilde.
    The theta integral is split at the sigmoid's transition, its midpoint
    a + ln(a)/b and k/b either side: in one piece a steep sigmoid (b = 4.76)
    was 1.7e-7 off.
    """
    with mp.workdps(dps):
        at, a, b = (mp.mpf(v) for v in (consts.a_tilde, consts.a_env, consts.b_env))
        th_min, r, big_d = (mp.mpf(v) for v in (space.theta_min_deg, space.r_min_m,
                                                   space.r_max_m))
        mid = a + mp.log(a) / b
        splits = {mid + k / b for k in (-16, -4, -1, 0, 1, 4, 16)}
        elevation = mp.quad(lambda th: mp.exp(-at / (1 + a * mp.exp(-b * (th - a)))),
                            sorted({th_min, 90, *(t for t in splits if th_min < t < 90)})
                            ) / (90 - th_min)
        mean_d2 = 3 * (big_d**5 - r**5) / (5 * (big_d**3 - r**3))
        return mean_d2 * elevation / mp.mpf(consts.c_tilde)


def inverse_snr_monte_carlo(space, consts, n, seed, shards=1):
    """(mean, standard error) of 1/SNR over one seeded Monte Carlo draw.

    The moments are those of c_tilde/SNR = d^2 exp(-a_tilde P_los), at most
    r_max^2, whose squares stay finite where those of 1/SNR could overflow.
    """
    mean, variance = _moments(space, consts, n, seed, shards, lambda g: (consts.c_tilde / g,))
    return mean / consts.c_tilde, math.sqrt(variance) / consts.c_tilde / math.sqrt(n)


def g_oracle(x, dps=60):
    """g(x) = (x + 1) ln(1 + 1/x) / sqrt(2x + 1) as an mpf at dps digits."""
    with mp.workdps(dps):
        x = mp.mpf(x)
        return (x + 1) * mp.log1p(1 / x) / mp.sqrt(2 * x + 1)


def g_inverse_oracle(q, dps=60):
    """Root of g(x) = q by bisection in u = ln x on the mpmath g, as a float.

    The bracket u in [-720, 160] holds every root for q in [1e-32, 710], and
    80 halvings narrow it below 1e-21 in u, far under a double's ulp of x.
    """
    with mp.workdps(dps):
        u = bisect_root(lambda u: g_oracle(mp.exp(u), dps) - q, mp.mpf(-720), mp.mpf(160),
                        iterations=80)
        return float(mp.exp(u))


def x_dg_oracle(x, dps=50):
    """x g'(x) as an mpf, by mpmath differentiation of g_oracle's formula at dps digits.

    It is the slope of g(e^u) in u = ln x. mpmath's default step is absolute,
    about 2^-(prec + 10); taken in u it stays far below the scale of g, however
    small x is. The formula is inlined, as mp.diff raises the working precision.
    """
    def g_of_u(u):
        y = mp.exp(u)
        return (y + 1) * mp.log1p(1 / y) / mp.sqrt(2 * y + 1)

    with mp.workdps(dps):
        return mp.diff(g_of_u, mp.log(mp.mpf(x)))


def g1_threshold(x):
    """Penalty threshold (1 + x) sqrt(2x + 1) / (2 x^2), for x > 0; dominates g."""
    x = np.asarray(x, dtype=float)
    return (1.0 + x) * np.sqrt(2.0 * x + 1.0) / (2.0 * x * x)


def g2_threshold(x):
    """Penalty threshold (x + 1) (2x + 1)^(5/2) / (2 x^2 (3 x^2 - 1)).

    Only meaningful right of the pole at 1/sqrt(3); dominates g there.
    """
    x = np.asarray(x, dtype=float)
    return (x + 1.0) * (2.0 * x + 1.0) ** 2.5 / (2.0 * x * x * (3.0 * x * x - 1.0))


def shannon_gcq_oracle(space, consts, order=30):
    """E(log2(1 + SNR)) over the airspace by a nested order-point Gauss-Legendre sum.

    The distance rule's nodes are walked one at a time, each with its own
    elevation integral; no node grid is shared as in quadrature.aadr_gcq.
    """
    def inner(x):
        return integrate(
            legendre_rule(order),
            lambda th: pdf_elevation(space, th) * shannon_rate(snr(consts, th, x)),
            space.theta_min_deg, 90.0,
        )

    return integrate(
        legendre_rule(order),
        lambda xs: np.array([pdf_distance(space, x) * inner(x) for x in np.atleast_1d(xs)]),
        space.r_min_m, space.r_max_m,
    )


def chebyshev_gcq_oracle(space, consts, cfg, order):
    """AADR by the paper's GCQ: a nested order-point Gauss-Chebyshev rule.

    On [-1, 1] the rule has nodes x_i = cos((2i - 1) pi / (2N)) and weights
    (pi/N) sqrt(1 - x_i^2), and it is mapped affinely onto [theta_min, 90]
    and [r_min, r_max]. Its weight puts a square-root endpoint singularity
    into the smooth integrand, so its error falls only as N^-2.
    """
    x = np.cos((2 * np.arange(1, order + 1) - 1) * np.pi / (2 * order))
    w = np.pi / order * np.sqrt(1.0 - x * x)
    th_half, d_half = 0.5 * (90.0 - space.theta_min_deg), 0.5 * (space.r_max_m - space.r_min_m)
    theta = th_half * x + 0.5 * (90.0 + space.theta_min_deg)
    dist = d_half * x + 0.5 * (space.r_max_m + space.r_min_m)
    inner = th_half * (w * pdf_elevation(space, theta))
    outer = d_half * (w * pdf_distance(space, dist))
    rate = achievable_rate(snr(consts, theta[None, :], dist[:, None]), cfg)
    return float(outer @ rate @ inner)


def position_mean(space, consts, fn, order=200, volume=False):
    """Mean of fn(snr) over the airspace by a nested order-point Gauss-Legendre sum.

    The distance density is d^2. The elevation density is uniform in theta,
    as in uavlink, or with volume=True proportional to cos(theta): a UAV
    uniform in the volume between the two cones. Each rule's weights are
    normalised to sum to one.
    """
    rule = legendre_rule(order)
    th_min, r_min, r_max = space.theta_min_deg, space.r_min_m, space.r_max_m
    theta = 0.5 * (90.0 - th_min) * rule.nodes + 0.5 * (90.0 + th_min)
    dist = 0.5 * (r_max - r_min) * rule.nodes + 0.5 * (r_max + r_min)
    w_theta = rule.weights * (np.cos(np.radians(theta)) if volume else 1.0)
    w_dist = rule.weights * dist**2
    values = fn(snr(consts, theta[None, :], dist[:, None]))
    return float(w_dist @ values @ w_theta / (w_dist.sum() * w_theta.sum()))
