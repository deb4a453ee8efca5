"""Numerical verification of the lower-bound lemmas on dense log-grids.

Checks, per penalty coefficient q: nonnegativity of the penalized log-rate
f on (0, g_inverse(q)], its decrease and convexity there (central finite
differences), the strict decrease of g, and the two dominating thresholds
g1 > g and g2 > g that underpin the derivative sign arguments.
"""

import numpy as np

from .bound import _INV_SQRT3, f_penalized, g1_threshold, g2_threshold, g_bound, g_inverse

NONNEGATIVITY_TOLERANCE = -1e-12
REL_STEP = 1e-4  # central-difference step, relative to x
MAX_GRID_POINTS = 10**6  # several float arrays of this length are built per q
# f'' is about 1/x^2 near 0, and the f grid reaches down to 1e-3 g_inverse(q),
# about 1e-3 e^-q; from q = 348 on, its finite-difference f'' overflows.
MAX_Q = 300.0


def run_lemma_suite(
    q_values=(0.05, 0.2, 0.6),
    grid_points: int = 200,
    f_impl=None,
) -> dict:
    """Run every lemma check and return a machine-readable report.

    Each q must lie in [1e-31, MAX_Q]. f_impl is a test hook replacing
    f_penalized; the default is the real implementation. The report lists,
    per check, the grid, the tolerance and the worst observed value;
    all_passed aggregates the verdicts.
    """
    if not 2 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(f"grid_points must lie in [2, {MAX_GRID_POINTS}], got {grid_points}")
    f = f_penalized if f_impl is None else f_impl
    checks = []

    for q in q_values:
        x_hi = g_inverse(q)
        if q > MAX_Q:
            raise ValueError(f"the lemma suite needs q <= {MAX_Q:g}, got q={q}")
        # The grid starts below the root: at 1e-6, or at a thousandth of the
        # root where that is smaller (q above about 13.8).
        x_lo = min(1e-6, 1e-3 * x_hi)
        xs = np.geomspace(x_lo, x_hi, grid_points)
        h = xs * REL_STEP
        fx = f(xs, q)
        f_plus = f(xs + h, q)
        f_minus = f(xs - h, q)
        d1 = (f_plus - f_minus) / (2.0 * h)
        d2 = (f_plus - 2.0 * fx + f_minus) / (h * h)

        checks.append(_check(
            name="f_nonnegative", q=q, grid=(x_lo, x_hi), points=grid_points,
            tolerance=NONNEGATIVITY_TOLERANCE, worst=float(fx.min()),
            passed=bool(fx.min() >= NONNEGATIVITY_TOLERANCE),
        ))
        checks.append(_check(
            name="f_decreasing", q=q, grid=(x_lo, x_hi), points=grid_points,
            tolerance=0.0, worst=float(d1.max()), passed=bool(d1.max() < 0.0),
        ))
        checks.append(_check(
            name="f_convex", q=q, grid=(x_lo, x_hi), points=grid_points,
            tolerance=0.0, worst=float(d2.min()), passed=bool(d2.min() > 0.0),
        ))

    xs = np.geomspace(1e-6, 1e3, grid_points)
    h = xs * REL_STEP
    g_deriv = (g_bound(xs + h) - g_bound(xs - h)) / (2.0 * h)
    checks.append(_check(
        name="g_decreasing", q=None, grid=(1e-6, 1e3), points=grid_points,
        tolerance=0.0, worst=float(g_deriv.max()), passed=bool(g_deriv.max() < 0.0),
    ))

    margin1 = g1_threshold(xs) - g_bound(xs)
    checks.append(_check(
        name="g1_dominates_g", q=None, grid=(1e-6, 1e3), points=grid_points,
        tolerance=0.0, worst=float(margin1.min()), passed=bool(margin1.min() > 0.0),
    ))

    lo = _INV_SQRT3 * (1.0 + 1e-6)
    xs2 = np.geomspace(lo, 1e3, grid_points)
    margin2 = g2_threshold(xs2) - g_bound(xs2)
    checks.append(_check(
        name="g2_dominates_g", q=None, grid=(lo, 1e3), points=grid_points,
        tolerance=0.0, worst=float(margin2.min()), passed=bool(margin2.min() > 0.0),
    ))

    return {
        "q_values": list(q_values),
        "grid_points": grid_points,
        "rel_step": REL_STEP,
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
