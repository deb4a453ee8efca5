"""Numerical verification of the lower-bound lemmas on dense log-grids.

Checks, per penalty coefficient q in g_inverse's domain [1e-31, 700], that the
penalized log-rate f is nonnegative on (0, g_inverse(q)] and, by the closed
forms x (x + 1) f' and x^2 (x + 1)^2 f'' of bound._f_slopes, decreasing and
convex there. Then g's decrease by the closed form x g' (bound._x_dg), and the
two dominating thresholds g1 > g and g2 > g behind the derivative signs.
"""

import numpy as np

from .bound import (_INV_SQRT3, _f_slopes, _x_dg, f_penalized, g1_threshold, g2_threshold,
                    g_bound, g_inverse)

NONNEGATIVITY_TOLERANCE = -1e-12
MAX_GRID_POINTS = 10**6  # several float arrays of this length are built per q


def run_lemma_suite(
    q_values=(0.05, 0.2, 0.6),
    grid_points: int = 200,
    f_impl=None,
) -> dict:
    """Run every lemma check and return a machine-readable report.

    q_values must be nonempty and each q lie in g_inverse's domain
    [1e-31, 700]. f_impl is a test hook replacing f_penalized in the
    f_nonnegative check, the only one that evaluates f; the default is the
    real implementation. The report lists, per check, the grid, the
    tolerance and the worst observed value, which for the slope checks is
    the scaled slope; all_passed aggregates the verdicts.
    """
    if not 2 <= grid_points <= MAX_GRID_POINTS:
        raise ValueError(f"grid_points must lie in [2, {MAX_GRID_POINTS}], got {grid_points}")
    q_values = list(q_values)
    if not q_values:
        raise ValueError("q_values must be nonempty")
    f = f_penalized if f_impl is None else f_impl
    checks = []

    for q in q_values:
        x_hi = g_inverse(q)
        # The grid starts below the root: at 1e-6, or at a thousandth of the
        # root where that is smaller (q above about 13.8).
        x_lo = min(1e-6, 1e-3 * x_hi)
        xs = np.geomspace(x_lo, x_hi, grid_points)
        fx = f(xs, q)
        d1, d2 = _f_slopes(xs, q)

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
    x_dg = _x_dg(xs)
    checks.append(_check(
        name="g_decreasing", q=None, grid=(1e-6, 1e3), points=grid_points,
        tolerance=0.0, worst=float(x_dg.max()), passed=bool(x_dg.max() < 0.0),
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
        "q_values": q_values,
        "grid_points": grid_points,
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
