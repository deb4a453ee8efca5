"""Gauss-Legendre quadrature and the nested average-rate approximation.

Rules are generated table-free by Newton iteration on the Legendre
recurrence; the average achievable data rate over the airspace is the
double integral of rate times position density, approximated by one rule
in elevation nested inside one rule in distance (the "GCQ" method label
used by the CLI). The rate is affine in q, R = S - (q/ln 2) W with the
q-free terms of fbl_rate.q_free_terms, so a sweep evaluates the nested-rule
sums of S and W on its node grid once and each row is one multiply-add.

The node grid is evaluated in blocks of at most the Monte Carlo draw's
block size (_node_terms), so its memory does not grow with the orders.

The paper's GCQ nests Gauss-Chebyshev rules (nodes cos((2i-1)pi/2N),
weights (pi/N) sqrt(1-x^2)), whose weight puts a square-root endpoint
singularity into the smooth integrand, so its error falls only as N^-2.
Relative error against the 200x200 Gauss-Legendre value at M = 200,
eps = 1e-9, dense_urban / suburban:

    N per axis   Gauss-Legendre        Gauss-Chebyshev
    10           6.9e-13 / 1.0e-11     8.1e-3 / 8.4e-3
    30           7.8e-16 / 5.3e-16     9.0e-4 / 9.2e-4
    100          1.2e-15 / 8.9e-16     8.1e-5 / 8.3e-5
    1000         7.8e-16 / 8.9e-16     8.1e-7 / 8.3e-7

So the rule here reaches rounding by 30x30 nodes, where the paper's is
about 9e-4 off.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import _BLOCK, DerivedConstants, snr
from .fbl_rate import FblConfig, _rate, q_free_terms
# achievable_rate is no longer called here; bench/tracer.py PROBES still looks it up.
from .fbl_rate import achievable_rate  # noqa: F401
from .geometry import Airspace

_MAX_ORDER = 1000


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of an order-N Gauss-Legendre rule on [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray


def _legendre_and_derivative(n: int, x: np.ndarray):
    """Evaluate P_n and P_n' at x via the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def _check_order(order: int, name: str = "order") -> None:
    if not 1 <= order <= _MAX_ORDER:
        raise ValueError(f"{name} must lie in [1, {_MAX_ORDER}], got {order!r}")


@lru_cache(maxsize=None)
def legendre_rule(order: int) -> QuadratureRule:
    """Order-N Gauss-Legendre rule, exact for polynomials up to degree 2N-1.

    Newton steps below 1e-15 from the asymptotic cosine guesses, on the
    nonnegative half of the nodes, then mirrored; an odd order's middle node
    lands within 1e-60 of 0. Results are cached per order with read-only arrays.
    """
    _check_order(order)
    k = np.arange(1, (order + 1) // 2 + 1)
    x = np.cos(math.pi * (k - 0.25) / (order + 0.5))
    for _ in range(100):
        p, dp = _legendre_and_derivative(order, x)
        dx = p / dp
        x = x - dx
        if np.all(np.abs(dx) < 1e-15):
            break
    _, dp = _legendre_and_derivative(order, x)
    w_half = 2.0 / ((1.0 - x * x) * dp * dp)
    left = x.size - order % 2  # an odd order's middle node appears once
    nodes = np.concatenate([-x[:left], x[::-1]])
    weights = np.concatenate([w_half[:left], w_half[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights)


def integrate(rule: QuadratureRule, f, lo: float, hi: float) -> float:
    """Integrate f over [lo, hi] with the rule mapped affinely from [-1, 1]."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    half = 0.5 * (hi - lo)
    xm = half * rule.nodes + 0.5 * (hi + lo)
    return float(half * np.sum(rule.weights * f(xm)))


def _node_terms(space: Airspace, consts: DerivedConstants, n_theta: int, n_dist: int):
    """Nested-rule averages (GCQ[S], GCQ[W]) of the q-free terms, as floats.

    The grid is evaluated in blocks of whole distance rows, at most _BLOCK
    nodes each, and only the rows' elevation sums of S and W are kept. Each
    row is summed on its own (pairwise, by np.add.reduce), so the sums do not
    depend on where the blocks end.
    """
    rule_theta = legendre_rule(n_theta)
    rule_dist = legendre_rule(n_dist)
    th_lo, th_hi = space.theta_min_deg, 90.0
    d_lo, d_hi = space.r_min_m, space.r_max_m
    theta = 0.5 * (th_hi - th_lo) * rule_theta.nodes + 0.5 * (th_hi + th_lo)
    dist = 0.5 * (d_hi - d_lo) * rule_dist.nodes + 0.5 * (d_hi + d_lo)
    dist_weights = rule_dist.weights * dist**2
    prefactor = 0.75 / (d_hi**2 + d_hi * d_lo + d_lo**2)  # (d_hi - d_lo) divided out exactly
    row_sums = np.empty((2, n_dist))
    rows = _BLOCK // n_theta
    for lo in range(0, n_dist, rows):
        block = q_free_terms(snr(consts, theta[None, :], dist[lo:lo + rows, None]))
        for terms, sums in zip(block, row_sums[:, lo:lo + rows]):
            np.multiply(terms, rule_theta.weights, out=terms)
            np.add.reduce(terms, axis=1, out=sums)
        del block, terms  # the block is not kept while the next is evaluated
    return tuple(float(prefactor * np.sum(dist_weights * sums)) for sums in row_sums)


def aadr_gcq(
    space: Airspace,
    consts: DerivedConstants,
    cfg: FblConfig,
    n_theta: int = 30,
    n_dist: int = 30,
) -> float:
    """Average achievable data rate via the nested quadrature approximation.

    The inner elevation integral uses an n_theta-point rule on
    [theta_min, 90], the outer distance integral an n_dist-point rule on
    [r_min, r_max]; the position-density normalization collapses to the
    prefactor (3/4) (r_max - r_min) / (r_max^3 - r_min^3), r_max - r_min divided out.
    """
    return _rate(*_node_terms(space, consts, n_theta, n_dist), cfg.q)

