import math
import random
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.special

import uavlink.bound
from oracles import ei_series_oracle, g_inverse_oracle, g_oracle
from uavlink.bound import (
    DistanceLimitError,
    aadr_lower_bound,
    g1_threshold,
    g2_threshold,
    d_max,
    exp_integral_ei,
    expected_inverse_snr,
    f_penalized,
    g_bound,
    g_inverse,
)
from uavlink.channel import derive_constants, snr
from uavlink.config import PRESET_NAMES, load_preset
from uavlink.fbl_rate import _LN2, FblConfig, achievable_rate
from uavlink.geometry import Airspace, pdf_distance, pdf_elevation
from uavlink.montecarlo import estimate_aadr, estimate_inverse_snr
from uavlink.quadrature import integrate, legendre_rule


def test_f_penalized_reference_value():
    # ln 2 - 0.5 sqrt(3)/2, direct arithmetic
    assert f_penalized(1.0, 0.5) == pytest.approx(0.26013447866772599, rel=1e-14)


def test_f_penalized_small_penalty_approaches_log():
    assert f_penalized(1.0, 1e-14) == pytest.approx(math.log(2.0), rel=1e-12)


def test_f_penalized_domain_errors():
    with pytest.raises(ValueError):
        f_penalized(0.0, 0.5)
    with pytest.raises(ValueError):
        f_penalized(1.0, 0.0)


def test_g_bound_reference_value():
    # 2 ln 2 / sqrt(3)
    assert g_bound(1.0) == pytest.approx(0.80037742256862912, rel=1e-14)


def test_g_bound_decreasing():
    assert g_bound(2.0) < g_bound(1.0)
    xs = np.geomspace(1e-6, 1e3, 500)
    assert np.all(np.diff(g_bound(xs)) < 0.0)


def test_g_bound_decays_at_infinity():
    assert g_bound(1e12) < 1e-5


def test_g_bound_domain_error():
    with pytest.raises(ValueError):
        g_bound(-1.0)


def test_g_inverse_roundtrip_at_one():
    assert g_inverse(g_bound(1.0)) == pytest.approx(1.0, abs=1e-10)


def test_g_inverse_matches_bisection_oracle():
    # q for M=100, eps=1e-9 is Qinv(1e-9)/10 = 0.5997807015007687
    q = FblConfig(blocklength=100, epsilon=1e-9).q
    assert g_inverse(q) == pytest.approx(1.6781781540290580, abs=1e-10)
    for q in (0.05, 0.2, 0.6, 1.5):
        assert g_inverse(q) == pytest.approx(g_inverse_oracle(q), abs=1e-9)


def test_g_inverse_residual_small():
    for q in (0.05, 0.2, 0.6):
        assert abs(g_bound(g_inverse(q)) - q) < 1e-10


def test_g_inverse_zeroes_f():
    for q in (0.1, 0.3, 0.6):
        assert f_penalized(g_inverse(q), q) == pytest.approx(0.0, abs=1e-9)
        # the returned root sits on the nonnegative side of f
        assert f_penalized(g_inverse(q), q) >= -1e-12


def test_g_inverse_domain_error():
    with pytest.raises(ValueError):
        g_inverse(0.0)


@pytest.mark.parametrize("call,message", [
    (lambda: f_penalized(math.nan, 0.5), "f_penalized needs x > 0"),
    (lambda: f_penalized(1.0, math.nan), "f_penalized needs q > 0"),
    (lambda: g_bound(np.array([1.0, math.nan])), "g_bound needs x > 0"),
    (lambda: g1_threshold(math.nan), "g1_threshold needs x > 0"),
    (lambda: g2_threshold(math.nan), "g2_threshold needs x > 1/sqrt"),
])
def test_a_nan_argument_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_g_inverse_rejects_non_finite_q(q):
    with pytest.raises(ValueError, match="q="):
        g_inverse(q)


def _dense_sweep_eps(seed):
    # The eps grid of the dense-sweep benchmark workload: 400 log-uniform
    # values in [1e-12, 1e-3], rounded to 12 significant digits.
    rng = random.Random(seed)
    return [float(f"{10.0 ** rng.uniform(-12.0, -3.0):.12g}") for _ in range(400)]


# Penalties over the valid configurations, M in [1, 1e6] and eps in
# [1e-300, 0.49], plus the ends of g_inverse's domain, the 5.6e-31 and 689
# that an absolute-width bisection could still bracket, and q = 30, where
# such a bisection missed the root 9.3576e-14 by 83%.
DOMAIN_QS = [FblConfig(m, eps).q for m in (1, 10, 100, 10**3, 10**4, 10**5, 10**6)
             for eps in np.geomspace(1e-300, 0.49, 30)] + [1e-31, 5.6e-31, 30.0, 689.0, 700.0]

# Roots whose final Newton steps sit at g's rounding noise: a 1e-15 step test
# cycles between two neighbouring iterates on them.
NOISY_QS = [0.7002430011449055, 0.7199246964738155, 1.1446214449054908, 1.312540352751994]


@pytest.fixture(scope="module")
def domain_roots():
    return [g_inverse_oracle(q) for q in DOMAIN_QS]


def test_g_inverse_is_accurate_to_the_oracle_over_the_valid_domain(domain_roots):
    root_errors, residuals = [], []
    for q, exact in zip(DOMAIN_QS, domain_roots):
        x = g_inverse(q)
        root_errors.append(abs(x - exact) / exact)
        residuals.append(float(abs(g_oracle(x) - q) / q))
    assert max(root_errors) <= 1e-13
    assert max(residuals) <= 1e-14


def test_g_inverse_of_an_array_is_bit_identical_to_its_scalar_calls():
    qs = DOMAIN_QS + NOISY_QS
    assert g_inverse(np.array(qs)).tolist() == [g_inverse(q) for q in qs]


def test_g_inverse_evaluates_g_at_most_eight_times(monkeypatch):
    calls, g = [], uavlink.bound._g

    def counted(x):
        calls.append(1)
        return g(x)

    monkeypatch.setattr(uavlink.bound, "_g", counted)
    # Each element steps on its own, so an array call takes as many steps as
    # its slowest element.
    g_inverse(np.geomspace(1e-31, 700.0, 20_001))
    assert len(calls) <= 8
    for q in [1e-31, 1.0, 700.0, *NOISY_QS]:
        calls.clear()
        g_inverse(q)
        assert len(calls) <= 8


@pytest.mark.parametrize("q", [9.99e-32, 700.5, 1000.0, 1e-300, 1e300])
def test_g_inverse_rejects_q_outside_its_domain(q):
    with pytest.raises(ValueError, match=re.escape(f"g_inverse needs q in [1e-31, 700], got q={q}")):
        g_inverse(q)


def test_g_inverse_keeps_the_shape_of_its_argument():
    assert type(g_inverse(0.6)) is float
    assert type(g_inverse(np.float64(0.6))) is float
    assert g_inverse(np.array([[0.6, 0.2], [5.0, 1e-3]])).tolist() == [
        [g_inverse(0.6), g_inverse(0.2)], [g_inverse(5.0), g_inverse(1e-3)]]
    assert g_inverse(np.array([])).shape == (0,)


def test_g_inverse_of_an_array_names_the_first_bad_q():
    with pytest.raises(ValueError, match=r"got q=-1\.0$"):
        g_inverse(np.array([0.6, -1.0, math.nan]))
    with pytest.raises(ValueError, match=r"got q=nan$"):
        g_inverse([0.6, math.nan, 0.0])


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_lower_bound_is_bit_identical_to_f_penalized(name):
    cfg = load_preset(name)
    consts = derive_constants(cfg.scenario, cfg.link)
    mean_inv = expected_inverse_snr(cfg.airspace, consts)
    for eps in _dense_sweep_eps(1)[:50]:
        fbl = replace(cfg.fbl, epsilon=eps)
        assert aadr_lower_bound(cfg.airspace, consts, fbl) == f_penalized(mean_inv, fbl.q) / _LN2


def test_g1_threshold_reference_value():
    assert g1_threshold(1.0) == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_g1_threshold_dominates_g():
    xs = np.geomspace(1e-6, 1e3, 400)
    assert np.all(g1_threshold(xs) > g_bound(xs))


def test_g2_threshold_dominates_g():
    xs = np.geomspace(1.0 / math.sqrt(3.0) * (1.0 + 1e-9), 1e3, 400)
    assert np.all(g2_threshold(xs) > g_bound(xs))


def test_g2_threshold_rejects_pole_and_left_branch():
    with pytest.raises(ValueError):
        g2_threshold(1.0 / math.sqrt(3.0))
    with pytest.raises(ValueError):
        g2_threshold(0.3)
    with pytest.raises(ValueError):
        g1_threshold(0.0)


def test_f_nonnegative_up_to_g_inverse():
    for q in (0.05, 0.2, 0.6):
        xs = np.geomspace(1e-6, g_inverse(q), 400)
        assert np.min(f_penalized(xs, q)) >= -1e-12


def test_f_decreasing_and_convex():
    for q in (0.05, 0.2, 0.6):
        xs = np.geomspace(1e-6, g_inverse(q), 400)
        h = xs * 1e-4
        fp = (f_penalized(xs + h, q) - f_penalized(xs - h, q)) / (2.0 * h)
        fpp = (f_penalized(xs + h, q) - 2.0 * f_penalized(xs, q)
               + f_penalized(xs - h, q)) / (h * h)
        assert np.max(fp) < 0.0
        assert np.min(fpp) > 0.0


def test_ei_reference_values():
    # frozen from the extended-precision series oracle
    assert exp_integral_ei(-1.0) == pytest.approx(-0.21938393439552027, rel=1e-13)
    assert exp_integral_ei(1.0) == pytest.approx(1.8951178163559368, rel=1e-13)


def test_ei_against_series_oracle_grid():
    xs = np.geomspace(1e-3, 40.0, 120)
    for x in np.concatenate([xs, -xs]):
        expected = ei_series_oracle(x)
        assert exp_integral_ei(x) == pytest.approx(expected, rel=1e-10), x


def test_ei_against_scipy_wide_range():
    for x in (-600.0, -120.0, -40.0, -5.5, -1e-6, 1e-6, 0.2, 39.0, 41.0, 300.0, 690.0):
        assert exp_integral_ei(x) == pytest.approx(scipy.special.expi(x), rel=1e-11), x


def test_ei_derivative_identity():
    # d/dx Ei = e^x / x
    for x in (-2.0, -0.5, 0.5, 3.0):
        h = 1e-5 * abs(x)
        approx = (exp_integral_ei(x + h) - exp_integral_ei(x - h)) / (2.0 * h)
        assert approx == pytest.approx(math.exp(x) / x, rel=1e-6)


def test_ei_domain_and_overflow_guards():
    with pytest.raises(ValueError):
        exp_integral_ei(0.0)
    with pytest.raises(OverflowError):
        exp_integral_ei(700.5)


def test_d_max_scales_with_link_constant(dense_consts):
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    base = d_max(dense_consts, cfg)
    doubled = d_max(replace(dense_consts, c_tilde=2.0 * dense_consts.c_tilde), cfg)
    assert doubled / base == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_d_max_decreasing_in_penalty(dense_consts):
    strict = d_max(dense_consts, FblConfig(blocklength=200, epsilon=1e-9))
    loose = d_max(dense_consts, FblConfig(blocklength=200, epsilon=1e-6))
    assert strict < loose


def test_d_max_default_values(dense_consts, suburban_consts):
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    assert d_max(dense_consts, cfg) == pytest.approx(1784.3832231839097, rel=1e-9)
    assert d_max(suburban_consts, cfg) == pytest.approx(2260.2553398953943, rel=1e-9)


def test_d_max_rejects_large_epsilon(dense_consts):
    with pytest.raises(ValueError):
        d_max(dense_consts, FblConfig(blocklength=200, epsilon=0.5))


def test_expected_inverse_snr_frozen_values(dense_urban, dense_consts,
                                            suburban, suburban_consts):
    # frozen from 40-digit direct quadrature of the defining double integral
    assert expected_inverse_snr(dense_urban.airspace, dense_consts) == pytest.approx(
        0.0012733382099371815, rel=1e-12)
    assert expected_inverse_snr(suburban.airspace, suburban_consts) == pytest.approx(
        0.00064620116386209603, rel=1e-12)


def test_expected_inverse_snr_matches_quadrature(dense_urban, dense_consts):
    space = dense_urban.airspace
    rule = legendre_rule(40)

    def inner(x):
        return integrate(rule, lambda th: pdf_elevation(space, th) / snr(dense_consts, th, x),
                         space.theta_min_deg, 90.0)

    reference = integrate(
        rule,
        lambda xs: np.array([pdf_distance(space, x) * inner(x) for x in np.atleast_1d(xs)]),
        space.r_min_m, space.r_max_m,
    )
    assert expected_inverse_snr(space, dense_consts) == pytest.approx(reference, rel=1e-12)


def test_expected_inverse_snr_matches_monte_carlo(suburban, suburban_consts):
    closed = expected_inverse_snr(suburban.airspace, suburban_consts)
    mc = estimate_inverse_snr(suburban.airspace, suburban_consts, n=200_000, seed=9)
    assert abs(closed - mc.mean) <= 3.0 * mc.std_error
    assert closed > 0.0


def test_lower_bound_penalty_free_reduces_to_jensen_on_log(dense_urban, dense_consts):
    cfg = FblConfig(blocklength=200, epsilon=0.5)
    mean_inv = expected_inverse_snr(dense_urban.airspace, dense_consts)
    expected = math.log2(1.0 + 1.0 / mean_inv)
    assert aadr_lower_bound(dense_urban.airspace, dense_consts, cfg) == pytest.approx(
        expected, rel=1e-14)


def test_lower_bound_frozen_value(dense_urban, dense_consts):
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    assert aadr_lower_bound(dense_urban.airspace, dense_consts, cfg) == pytest.approx(
        9.007145033898338, rel=1e-10)


def test_lower_bound_below_monte_carlo(dense_urban, dense_consts):
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    lb = aadr_lower_bound(dense_urban.airspace, dense_consts, cfg)
    mc = estimate_aadr(dense_urban.airspace, dense_consts, cfg, n=10_000, seed=1)
    assert lb <= mc.mean + 3.0 * mc.std_error


def test_lower_bound_rejects_airspace_beyond_d_max(dense_consts):
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    big = Airspace(r_min_m=250.0, r_max_m=5000.0, theta_min_deg=45.0)
    with pytest.raises(DistanceLimitError, match="exceeds d_max"):
        aadr_lower_bound(big, dense_consts, cfg)


def test_jensen_ordering_on_blocklength_epsilon_grid(dense_urban, dense_consts,
                                                     suburban, suburban_consts):
    from uavlink.quadrature import aadr_gcq

    for cfg, consts in ((dense_urban, dense_consts), (suburban, suburban_consts)):
        space = cfg.airspace
        shannon = aadr_gcq(space, consts, FblConfig(blocklength=200, epsilon=0.5), 30, 30)
        for m in (100, 200, 1000):
            for eps in (1e-12, 1e-9, 1e-3):
                fbl = FblConfig(blocklength=m, epsilon=eps)
                lb = aadr_lower_bound(space, consts, fbl)
                mid = aadr_gcq(space, consts, fbl, 30, 30)
                assert lb <= mid <= shannon, (cfg.scenario.name, m, eps)


def test_lower_bound_rejects_epsilon_above_half(dense_urban, dense_consts):
    with pytest.raises(ValueError):
        aadr_lower_bound(dense_urban.airspace, dense_consts,
                         FblConfig(blocklength=200, epsilon=0.6))


def test_penalized_log_identity_with_rate():
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    q = cfg.q
    lo = 1.0 / g_inverse(q)
    rng = np.random.default_rng(2)
    gammas = np.exp(rng.uniform(math.log(lo), math.log(1e4), 100))
    for gamma in gammas:
        lhs = f_penalized(1.0 / gamma, q) / math.log(2.0)
        assert abs(lhs - achievable_rate(gamma, cfg)) <= 1e-12
