"""Numerical verification of the lower-bound lemmas.

The lemma: for q in g_inverse's domain [1e-31, 700], the penalized log-rate
f(x) = ln(1 + 1/x) - q sqrt(2x + 1)/(x + 1) is nonnegative, decreasing and
convex on (0, x_q], x_q = g_inverse(q). It follows from q <= g on that
interval and three q-free facts: g' < 0 and g1 > g for every x > 0, and
g2 > g for every x > 1/sqrt(3). tests/test_lemma_proofs.py proves the
reduction and the three facts in exact arithmetic, so the report names them
as proved and samples nothing.

Per q it checks only the root: |g(x_q) - q| / q <= 1e-14, g_inverse's
documented residual. The lemma is its corollary. g decreasing gives
g(x) >= g(x_q) >= (1 - 1e-14) q on (0, x_q]. With s = sqrt(2x + 1) <= x + 1,
f = (s/(x + 1)) (g - q) >= -1e-14 q there. x (x + 1) f' = q/(2 g1) - 1 and,
for x > 1/sqrt(3), x^2 (x + 1)^2 f'' = (2x + 1) (1 - q/(2 g2)), with q/(2 g1)
and q/(2 g2) below 1/(2 (1 - 1e-14)); for x <= 1/sqrt(3), f'' > 0 at any q.
So f' < 0 and f'' > 0 with a factor of about 2 to spare.
"""

from .bound import _g, g_inverse


def run_lemma_suite(q_values=(0.05, 0.2, 0.6)) -> dict:
    """Run the lemma's root checks and return a machine-readable report.

    q_values must be nonempty and each q lie in g_inverse's domain. Each q
    gets one g_inverse_root check, whose root is x_q to 12 significant
    digits and whose worst is the relative residual |g(x_q) - q| / q. The
    report lists, per check, the root, the tolerance and the worst observed
    value, and names the proved q-free facts; all_passed aggregates the
    verdicts.
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
        checks.append({
            "name": "g_inverse_root", "q": q, "root": shown,
            "tolerance": 1e-14, "worst": residual, "passed": residual <= 1e-14,
        })

    return {
        "q_values": q_values,
        # The q-free facts, proved in tests/test_lemma_proofs.py.
        "proved": ["g_decreasing", "g1_dominates_g", "g2_dominates_g"],
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
