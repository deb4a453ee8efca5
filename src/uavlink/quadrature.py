"""Gauss-Legendre quadrature and the nested average-rate approximation.

Rules are generated table-free by Newton iteration on the Legendre
recurrence; the average achievable data rate over the airspace is the
double integral of rate times position density, approximated by one rule
in elevation nested inside one rule in distance (the "GCQ" method label
used by the CLI). The rate is affine in q, R = S - (q/ln 2) W with the
q-free terms of fbl_rate.q_free_terms, so a sweep evaluates the nested-rule
sums of S and W on its node grid once and each row is one multiply-add.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import DerivedConstants, snr
from .fbl_rate import FblConfig, _rate, q_free_terms
# achievable_rate is no longer called here; bench/tracer.py PROBES still looks it up.
from .fbl_rate import achievable_rate  # noqa: F401
from .geometry import Airspace

_MAX_ORDER = 1000


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Nodes and weights of an order-N Gauss-Legendre rule on [-1, 1]."""

    order: int
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


@lru_cache(maxsize=None)
def legendre_rule(order: int) -> QuadratureRule:
    """Order-N Gauss-Legendre rule, exact for polynomials up to degree 2N-1.

    Newton refinement from the asymptotic cosine initial guesses, residual
    below 1e-14; results are cached per order with read-only arrays.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if order > _MAX_ORDER:
        raise ValueError(f"order {order} exceeds the supported maximum {_MAX_ORDER}")
    if order == 1:
        nodes = np.array([0.0])
        weights = np.array([2.0])
    else:
        # Positive half of the nodes only; the rule is symmetric.
        k = np.arange(1, order // 2 + 1)
        x = np.cos(math.pi * (k - 0.25) / (order + 0.5))
        for _ in range(100):
            p, dp = _legendre_and_derivative(order, x)
            dx = p / dp
            x = x - dx
            if np.max(np.abs(dx)) < 1e-15:
                break
        _, dp = _legendre_and_derivative(order, x)
        w_half = 2.0 / ((1.0 - x * x) * dp * dp)
        if order % 2:
            p0 = np.zeros(1)
            _, dp0 = _legendre_and_derivative(order, p0)
            w0 = 2.0 / (dp0 * dp0)
            nodes = np.concatenate([-x, [0.0], x[::-1]])
            weights = np.concatenate([w_half, w0, w_half[::-1]])
        else:
            nodes = np.concatenate([-x, x[::-1]])
            weights = np.concatenate([w_half, w_half[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


def integrate(rule: QuadratureRule, f, lo: float, hi: float) -> float:
    """Integrate f over [lo, hi] with the rule mapped affinely from [-1, 1]."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    half = 0.5 * (hi - lo)
    xm = half * rule.nodes + 0.5 * (hi + lo)
    return float(half * np.sum(rule.weights * f(xm)))


def _node_terms(space: Airspace, consts: DerivedConstants, n_theta: int, n_dist: int):
    """Nested-rule averages (GCQ[S], GCQ[W]) of the q-free terms, as floats."""
    rule_theta = legendre_rule(n_theta)
    rule_dist = legendre_rule(n_dist)
    th_lo, th_hi = space.theta_min_deg, 90.0
    d_lo, d_hi = space.r_min_m, space.r_max_m
    theta = 0.5 * (th_hi - th_lo) * rule_theta.nodes + 0.5 * (th_hi + th_lo)
    dist = 0.5 * (d_hi - d_lo) * rule_dist.nodes + 0.5 * (d_hi + d_lo)
    dist_weights = rule_dist.weights * dist**2
    prefactor = 0.75 * (d_hi - d_lo) / (d_hi**3 - d_lo**3)
    return tuple(float(prefactor * np.sum(dist_weights * (terms @ rule_theta.weights)))
                 for terms in q_free_terms(snr(consts, theta[None, :], dist[:, None])))


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
    prefactor (3/4) (r_max - r_min) / (r_max^3 - r_min^3).
    """
    return _rate(*_node_terms(space, consts, n_theta, n_dist), cfg.q)

