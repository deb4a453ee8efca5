"""Numerical verification of the lower-bound lemmas.

The lemma: for q in g_inverse's domain [1e-31, 700], the penalized log-rate
f(x) = ln(1 + 1/x) - q sqrt(2x + 1)/(x + 1) is nonnegative, decreasing and
convex on (0, x_q], x_q = g_inverse(q). The test suite proves in exact
arithmetic that it follows from q <= g on that interval and three q-free
facts, g' < 0, g1 > g and g2 > g, which this suite samples on 200-point
log-grids (g's slope by the closed form x g' of bound._x_dg).

Per q it checks only the root: |g(x_q) - q| / q <= 1e-14, g_inverse's
documented residual. The lemma is its corollary. g decreasing gives
g(x) >= g(x_q) >= (1 - 1e-14) q on (0, x_q]. With s = sqrt(2x + 1) <= x + 1,
f = (s/(x + 1)) (g - q) >= -1e-14 q there. x (x + 1) f' = q/(2 g1) - 1 and,
for x > 1/sqrt(3), x^2 (x + 1)^2 f'' = (2x + 1) (1 - q/(2 g2)), with q/(2 g1)
and q/(2 g2) below 1/(2 (1 - 1e-14)); for x <= 1/sqrt(3), f'' > 0 at any q.
So f' < 0 and f'' > 0 with a factor of about 2 to spare.
"""

import numpy as np

from .bound import _INV_SQRT3, _g, _x_dg, g1_threshold, g2_threshold, g_bound, g_inverse

_GRID_POINTS = 200  # per q-free log-grid


def run_lemma_suite(q_values=(0.05, 0.2, 0.6)) -> dict:
    """Run every lemma check and return a machine-readable report.

    q_values must be nonempty and each q lie in g_inverse's domain. Each q
    gets one g_inverse_root check at its root, whose worst is the relative
    residual |g(x_q) - q| / q and whose grid is the root to 12 significant
    digits. The three q-free checks sample log-grids of 200 points. The
    report lists, per check, the grid, the tolerance and the worst observed
    value; all_passed aggregates the verdicts.
    """
    q_values = list(q_values)
    if not q_values:
        raise ValueError("q_values must be nonempty")
    checks = []

    for q in q_values:
        x_q = g_inverse(q)
        residual = float(abs(_g(x_q) - q) / q)
        # The root to the 12 digits its 1e-13 error guarantees; the rest are
        # g's rounding noise, which moves with numpy's SIMD level.
        shown = float(f"{x_q:.12g}")
        checks.append(_check(
            name="g_inverse_root", q=q, grid=(shown, shown), points=1,
            tolerance=1e-14, worst=residual, passed=residual <= 1e-14,
        ))

    xs = np.geomspace(1e-6, 1e3, _GRID_POINTS)
    x_dg = _x_dg(xs)
    checks.append(_check(
        name="g_decreasing", q=None, grid=(1e-6, 1e3), points=_GRID_POINTS,
        tolerance=0.0, worst=float(x_dg.max()), passed=bool(x_dg.max() < 0.0),
    ))

    margin1 = g1_threshold(xs) - g_bound(xs)
    checks.append(_check(
        name="g1_dominates_g", q=None, grid=(1e-6, 1e3), points=_GRID_POINTS,
        tolerance=0.0, worst=float(margin1.min()), passed=bool(margin1.min() > 0.0),
    ))

    lo = _INV_SQRT3 * (1.0 + 1e-6)
    xs2 = np.geomspace(lo, 1e3, _GRID_POINTS)
    margin2 = g2_threshold(xs2) - g_bound(xs2)
    checks.append(_check(
        name="g2_dominates_g", q=None, grid=(lo, 1e3), points=_GRID_POINTS,
        tolerance=0.0, worst=float(margin2.min()), passed=bool(margin2.min() > 0.0),
    ))

    return {
        "q_values": q_values,
        "grid_points": _GRID_POINTS,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def _check(name, q, grid, points, tolerance, worst, passed):
    return {
        "name": name,
        "q": q,
        "grid": [float(grid[0]), float(grid[1])],
        "points": points,
        "tolerance": tolerance,
        "worst": worst,
        "passed": passed,
    }
