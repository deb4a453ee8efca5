import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import chebyshev_gcq_oracle, shannon_gcq_oracle
from uavlink.channel import derive_constants, snr
from uavlink.config import PRESET_NAMES, load_preset
from uavlink.fbl_rate import FblConfig, q_free_terms
from uavlink.geometry import Airspace
from uavlink.montecarlo import estimate_aadr
from uavlink.quadrature import _node_terms, aadr_gcq, integrate, legendre_rule


def test_order_one_is_midpoint_rule():
    rule = legendre_rule(1)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_order_two_closed_form():
    # two-point moment equations give nodes +-1/sqrt(3), unit weights
    rule = legendre_rule(2)
    assert rule.nodes == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], rel=1e-15)
    assert rule.weights == pytest.approx([1.0, 1.0], rel=1e-15)


def test_order_three_closed_form():
    rule = legendre_rule(3)
    root = math.sqrt(3.0 / 5.0)
    assert rule.nodes == pytest.approx([-root, 0.0, root], abs=1e-15)
    assert rule.weights == pytest.approx([5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0], rel=1e-14)


def test_rejects_bad_orders():
    with pytest.raises(ValueError):
        legendre_rule(0)
    with pytest.raises(ValueError):
        legendre_rule(1001)


def test_nodes_sorted_symmetric_weights_positive():
    for order in range(1, 21):
        rule = legendre_rule(order)
        assert np.all(np.diff(rule.nodes) > 0.0)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) < 1e-15
        assert np.max(np.abs(rule.weights - rule.weights[::-1])) < 1e-15
        assert np.all(rule.weights > 0.0)
        assert np.sum(rule.weights) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("order", [1, 2, 3, 78, 79, 200, 999, 1000])
def test_rule_is_increasing_and_mirror_symmetric_up_to_the_top_order(order):
    # One Newton pass on the nonnegative half; an odd order's middle node is
    # a Newton root near 0, not a literal 0.
    rule = legendre_rule(order)
    half = order // 2
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert np.array_equal(rule.nodes[:half], -rule.nodes[::-1][:half])
    assert np.array_equal(rule.weights, rule.weights[::-1])
    if order % 2:
        assert abs(rule.nodes[half]) <= 1e-60
    assert abs(np.sum(rule.weights) - 2.0) <= 1e-13


def test_monomial_exactness_up_to_degree():
    for order in range(1, 21):
        rule = legendre_rule(order)
        for k in range(2 * order):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            approx = float(np.sum(rule.weights * rule.nodes**k))
            assert abs(approx - exact) < 1e-12, (order, k)


def test_exactness_is_sharp():
    # degree 2N must fail for at least one order
    failures = []
    for order in range(1, 21):
        rule = legendre_rule(order)
        k = 2 * order
        approx = float(np.sum(rule.weights * rule.nodes**k))
        failures.append(abs(approx - 2.0 / (k + 1)))
    assert max(failures) > 1e-6


def test_matches_numpy_rule_generator():
    nodes, weights = np.polynomial.legendre.leggauss(64)
    rule = legendre_rule(64)
    assert np.max(np.abs(rule.nodes - nodes)) < 1e-14
    assert np.max(np.abs(rule.weights - weights)) < 1e-14


def test_cached_rules_are_immutable():
    rule = legendre_rule(6)
    assert legendre_rule(6) is rule
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


def test_integrate_constant_gives_length():
    rule = legendre_rule(5)
    assert integrate(rule, lambda x: np.ones_like(x), -2.0, 7.5) == pytest.approx(9.5, rel=1e-15)


def test_integrate_cubic_with_two_points():
    assert integrate(legendre_rule(2), lambda x: x**3, 0.0, 1.0) == pytest.approx(0.25, abs=1e-15)


def test_integrate_exponential():
    value = integrate(legendre_rule(8), np.exp, 0.0, 1.0)
    assert abs(value - (math.e - 1.0)) < 1e-12


def test_integrate_rejects_empty_interval():
    with pytest.raises(ValueError):
        integrate(legendre_rule(3), np.exp, 1.0, 1.0)


def test_gcq_penalty_free_reduces_to_shannon_quadrature(dense_urban, dense_consts):
    space = dense_urban.airspace
    reference = shannon_gcq_oracle(space, dense_consts)
    assert _node_terms(space, dense_consts, 30, 30)[0] == pytest.approx(reference, rel=1e-12)


def test_gcq_agrees_with_monte_carlo(dense_urban, dense_consts):
    cfg = FblConfig(blocklength=500, epsilon=1e-9)
    approx = aadr_gcq(dense_urban.airspace, dense_consts, cfg, 30, 30)
    mc = estimate_aadr(dense_urban.airspace, dense_consts, cfg, n=10_000, seed=1)
    assert abs(approx - mc.mean) <= 3.0 * mc.std_error


def test_gcq_self_convergence(dense_urban, dense_consts):
    cfg = FblConfig(blocklength=500, epsilon=1e-9)
    coarse = aadr_gcq(dense_urban.airspace, dense_consts, cfg, 30, 30)
    fine = aadr_gcq(dense_urban.airspace, dense_consts, cfg, 60, 60)
    assert abs(coarse - fine) <= 1e-8


def test_gcq_convergence_improves_with_order(suburban, suburban_consts):
    # successive refinements shrink until they sit on the rounding floor
    # (the integrand is smooth, so N=16 already reaches ~1e-14 on a value
    # of about 10 bits per channel use)
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    diffs = []
    for n in (4, 8, 16, 32):
        a = aadr_gcq(suburban.airspace, suburban_consts, cfg, n, n)
        b = aadr_gcq(suburban.airspace, suburban_consts, cfg, 2 * n, 2 * n)
        diffs.append(abs(a - b))
    assert all(d2 < d1 or d2 < 1e-13 for d1, d2 in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-13


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_the_papers_chebyshev_gcq_converges_as_n_to_the_minus_two(preset):
    # The paper's GCQ is a nested Gauss-Chebyshev rule and aadr_gcq nests
    # Gauss-Legendre rules, which reach rounding by 30x30 nodes. The
    # Chebyshev rule's relative error against the 200x200 Legendre value is
    # about 0.8 / N^2: 9e-4 at the paper's N = 30.
    cfg = load_preset(preset)
    consts = derive_constants(cfg.scenario, cfg.link)
    reference = aadr_gcq(cfg.airspace, consts, cfg.fbl, 200, 200)

    def scaled_error(order):
        chebyshev = chebyshev_gcq_oracle(cfg.airspace, consts, cfg.fbl, order)
        return order**2 * abs(chebyshev - reference) / reference

    at_1000 = scaled_error(1000)
    assert 0.75 < at_1000 < 0.9
    for order in (30, 100, 300):
        assert at_1000 / 2 <= scaled_error(order) <= 2 * at_1000, order


def test_gcq_monotone_in_blocklength_and_epsilon(dense_urban, dense_consts):
    space = dense_urban.airspace
    for eps in (1e-9, 1e-6):
        values = [aadr_gcq(space, dense_consts, FblConfig(m, eps)) for m in
                  (100, 200, 400, 700, 1000)]
        assert np.all(np.diff(values) > 0.0)
    for m in (100, 500):
        values = [aadr_gcq(space, dense_consts, FblConfig(m, eps)) for eps in
                  (1e-12, 1e-9, 1e-6, 1e-3)]
        assert np.all(np.diff(values) > 0.0)


@pytest.mark.parametrize("rows", [1, 3, 4, 81])
def test_node_terms_do_not_depend_on_the_block_size(suburban, suburban_consts, monkeypatch, rows):
    # Blocks of `rows` distance rows, then a tail of none or up to 5 rows,
    # against the whole grid as one block.
    space = suburban.airspace
    for n_theta in (7, 30):
        for n_dist in {5 * rows, *(2 * rows + tail for tail in range(min(rows, 6)))}:
            monkeypatch.setattr("uavlink.quadrature._BLOCK", n_theta * n_dist)
            whole = _node_terms(space, suburban_consts, n_theta, n_dist)
            monkeypatch.setattr("uavlink.quadrature._BLOCK", rows * n_theta + n_theta - 1)
            assert _node_terms(space, suburban_consts, n_theta, n_dist) == whole, (n_theta, n_dist)


def _exact_node_terms(space, consts, n_theta: int, n_dist: int):
    """(GCQ[S], GCQ[W]) as the exact nested sums over the whole grid of the
    float node terms and weights, times the exact prefactor, rounded once."""
    rule_theta, rule_dist = legendre_rule(n_theta), legendre_rule(n_dist)
    th_lo, d_lo, d_hi = space.theta_min_deg, space.r_min_m, space.r_max_m
    theta = 0.5 * (90.0 - th_lo) * rule_theta.nodes + 0.5 * (90.0 + th_lo)
    dist = 0.5 * (d_hi - d_lo) * rule_dist.nodes + 0.5 * (d_hi + d_lo)
    dist_weights = rule_dist.weights * dist**2
    lo, hi = Fraction(d_lo), Fraction(d_hi)
    prefactor = Fraction(3, 4) * (hi - lo) / (hi**3 - lo**3)
    weights = [Fraction(w) for w in rule_theta.weights.tolist()]
    return tuple(
        float(prefactor * sum(Fraction(dw) * sum(map(Fraction.__mul__, map(Fraction, row), weights))
                              for dw, row in zip(dist_weights.tolist(), terms.tolist())))
        for terms in q_free_terms(snr(consts, theta[None, :], dist[:, None])))


@pytest.mark.parametrize("n_theta, n_dist", [(30, 30), (7, 86), (200, 200)])
def test_node_terms_lie_within_1e_15_of_the_exact_grid_sums(dense_urban, dense_consts, suburban,
                                                             suburban_consts, n_theta, n_dist):
    for cfg, consts in ((dense_urban, dense_consts), (suburban, suburban_consts)):
        got = _node_terms(cfg.airspace, consts, n_theta, n_dist)
        for x, ref in zip(got, _exact_node_terms(cfg.airspace, consts, n_theta, n_dist)):
            assert abs(x - ref) <= 1e-15 * abs(ref), (x, ref, abs(x - ref) / abs(ref))


@pytest.mark.parametrize("width", [1e-6, 1e-9, 1e-12, 1e-14, 1e-15])
def test_node_terms_lie_within_1e_15_of_the_exact_grid_sums_on_a_thin_shell(dense_consts, width):
    # r_max - r_min is divided out of the prefactor exactly; the unfactored
    # prefactor was 1.6e-3 off at width 1e-14.
    space = Airspace(300.0, 300.0 * (1.0 + width), 45.0)
    got = _node_terms(space, dense_consts, 30, 30)
    for x, ref in zip(got, _exact_node_terms(space, dense_consts, 30, 30)):
        assert abs(x - ref) <= 1e-15 * abs(ref), (x, ref, abs(x - ref) / abs(ref))


@pytest.mark.parametrize("order", [200, 1000])
def test_node_terms_peak_below_one_mebibyte(suburban, suburban_consts, order):
    # Only a block of at most _BLOCK nodes is evaluated at a time. The whole
    # 1000x1000 grid, evaluated at once, peaked at about 23 MB.
    tracemalloc.start()
    try:
        _node_terms(suburban.airspace, suburban_consts, order, order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20, (order, peak)
