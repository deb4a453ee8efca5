"""Independent reference implementations used to pin expected test values.

These deliberately avoid the code paths under test: the Ei oracle is an
extended-precision power series, the quantile oracle is plain bisection on
the implemented tail probability, and the penalty threshold g and its root
are evaluated in mpmath, the root by bisection in ln x.
"""

import mpmath as mp


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
    """Quantile by bisection on the implemented tail probability."""
    from uavlink.fbl_rate import q_function

    return bisect_root(lambda x: q_function(x) - p, -40.0, 40.0)


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
