import math
import random
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.special

import uavlink.bound
from oracles import (ei_series_oracle, g1_threshold, g2_threshold, g_inverse_oracle, g_oracle,
                     inverse_snr_monte_carlo, inverse_snr_oracle, pdf_distance, pdf_elevation,
                     x_dg_oracle)
from uavlink.bound import (
    DistanceLimitError,
    _f,
    _g,
    _lower_bound_rows,
    _within_d_max,
    _x_dg,
    aadr_lower_bound,
    d_max,
    exp_integral_ei,
    expected_inverse_snr,
    g_inverse,
)
from uavlink.channel import DerivedConstants, derive_constants, snr
from uavlink.config import PRESET_NAMES, load_preset
from uavlink.fbl_rate import _LN2, FblConfig, achievable_rate
from uavlink.geometry import Airspace
from uavlink.montecarlo import estimate_aadr
from uavlink.quadrature import integrate, legendre_rule


def test_f_penalized_reference_value():
    # ln 2 - 0.5 sqrt(3)/2, direct arithmetic
    assert _f(1.0, 0.5) == pytest.approx(0.26013447866772599, rel=1e-14)


def test_f_penalized_small_penalty_approaches_log():
    assert _f(1.0, 1e-14) == pytest.approx(math.log(2.0), rel=1e-12)


def test_g_bound_reference_value():
    # 2 ln 2 / sqrt(3)
    assert _g(1.0) == pytest.approx(0.80037742256862912, rel=1e-14)


def test_g_bound_decreasing():
    assert _g(2.0) < _g(1.0)
    xs = np.geomspace(1e-6, 1e3, 500)
    assert np.all(np.diff(_g(xs)) < 0.0)


def test_g_bound_decays_at_infinity():
    assert _g(1e12) < 1e-5


def test_g_inverse_roundtrip_at_one():
    assert g_inverse(_g(1.0)) == pytest.approx(1.0, abs=1e-10)


def test_g_inverse_matches_bisection_oracle():
    # q for M=100, eps=1e-9 is Qinv(1e-9)/10 = 0.5997807015007687
    q = FblConfig(blocklength=100, epsilon=1e-9).q
    assert g_inverse(q) == pytest.approx(1.6781781540290580, abs=1e-10)
    for q in (0.05, 0.2, 0.6, 1.5):
        assert g_inverse(q) == pytest.approx(g_inverse_oracle(q), abs=1e-9)


def test_g_inverse_residual_small():
    for q in (0.05, 0.2, 0.6):
        assert abs(_g(g_inverse(q)) - q) < 1e-10


def test_g_inverse_zeroes_f():
    for q in (0.1, 0.3, 0.6):
        assert _f(g_inverse(q), q) == pytest.approx(0.0, abs=1e-9)
        # the returned root sits on the nonnegative side of f
        assert _f(g_inverse(q), q) >= -1e-12


def test_g_inverse_domain_error():
    with pytest.raises(ValueError):
        g_inverse(0.0)


@pytest.mark.parametrize("q", [math.nan, math.inf, -math.inf])
def test_g_inverse_rejects_non_finite_q(q):
    # The domain rule alone rejects them: a comparison with nan is false.
    with pytest.raises(ValueError) as error:
        g_inverse(q)
    assert str(error.value) == f"g_inverse needs q in [1e-31, 700], got q={q}"


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


def test_g_inverse_evaluates_g_at_most_eight_times(monkeypatch):
    calls, g = [], uavlink.bound._g

    def counted(x):
        calls.append(1)
        return g(x)

    monkeypatch.setattr(uavlink.bound, "_g", counted)
    for q in [1e-31, 1.0, 700.0, *NOISY_QS]:
        calls.clear()
        g_inverse(q)
        assert len(calls) <= 8


@pytest.mark.parametrize("q", [1e-31, 700.0])
def test_g_inverse_accepts_both_ends_of_its_domain(q):
    assert 0.0 < g_inverse(q) < math.inf


@pytest.mark.parametrize("q", [math.nextafter(1e-31, 0.0), math.nextafter(700.0, math.inf),
                               9.99e-32, 700.5, 1000.0, 1e-300, 1e300, 0.0, -0.0, -1.0])
def test_g_inverse_rejects_q_outside_its_domain(q):
    with pytest.raises(ValueError, match=re.escape(f"g_inverse needs q in [1e-31, 700], got q={q}")):
        g_inverse(q)


def test_g_inverse_returns_a_python_float():
    assert type(g_inverse(0.6)) is float
    assert type(g_inverse(np.float64(0.6))) is float


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_lower_bound_is_bit_identical_to_f_penalized(name):
    cfg = load_preset(name)
    consts = derive_constants(cfg.scenario, cfg.link)
    mean_inv = expected_inverse_snr(cfg.airspace, consts)
    for eps in _dense_sweep_eps(1)[:50]:
        fbl = replace(cfg.fbl, epsilon=eps)
        assert aadr_lower_bound(cfg.airspace, consts, fbl) == _f(mean_inv, fbl.q) / _LN2


def test_g1_threshold_reference_value():
    assert g1_threshold(1.0) == pytest.approx(math.sqrt(3.0), rel=1e-15)


def test_g1_threshold_dominates_g():
    xs = np.geomspace(1e-6, 1e3, 400)
    assert np.all(g1_threshold(xs) > _g(xs))


def test_g2_threshold_dominates_g():
    xs = np.geomspace(1.0 / math.sqrt(3.0) * (1.0 + 1e-9), 1e3, 400)
    assert np.all(g2_threshold(xs) > _g(xs))


def test_f_nonnegative_up_to_g_inverse():
    for q in (0.05, 0.2, 0.6):
        xs = np.geomspace(1e-6, g_inverse(q), 400)
        assert np.min(_f(xs, q)) >= -1e-12


def test_f_decreasing_and_convex():
    for q in (0.05, 0.2, 0.6):
        xs = np.geomspace(1e-6, g_inverse(q), 400)
        h = xs * 1e-4
        fp = (_f(xs + h, q) - _f(xs - h, q)) / (2.0 * h)
        fpp = (_f(xs + h, q) - 2.0 * _f(xs, q)
               + _f(xs - h, q)) / (h * h)
        assert np.max(fp) < 0.0
        assert np.min(fpp) > 0.0


def test_x_dg_matches_mpmath_on_the_lemma_grid():
    xs = np.geomspace(1e-6, 1e3, 200)
    for x, x_dg in zip(xs, _x_dg(xs)):
        assert abs(x_dg / float(x_dg_oracle(x)) - 1.0) <= 1e-15, x


@pytest.mark.parametrize("formula", [lambda x: _f(x, 0.2), _g, _x_dg], ids=["_f", "_g", "_x_dg"])
def test_an_unchecked_formula_gives_a_float_and_an_array_element_the_same_bits(formula):
    # As bound.py states: each element of an array gets a float's bits, so a
    # value does not depend on the shape it is evaluated in. Over g_inverse's
    # roots, 1e-304 to 5e61.
    xs = np.geomspace(1e-304, 5e61, 1001)
    values = formula(xs)
    assert [float(formula(float(x))) for x in xs] == values.tolist()
    assert np.array_equal(formula(xs[:1000].reshape(20, 50)).ravel(), values[:1000])


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


def test_ei_matches_mpmath_on_the_negative_axis():
    # The alternating series lost up to 1e-12 relative on [-5, -2], where the
    # presets' arguments (-3.72, -4.92, -4.81) lie; the continued fraction
    # takes over below -2.
    with mpmath.workdps(30):
        for x in (*np.linspace(-50.0, -0.01, 1999), -5.0, -2.0, -3.72, -4.92, -4.81):
            expected = float(mpmath.ei(x))
            assert abs(exp_integral_ei(x) - expected) <= 1e-14 * abs(expected), x


def test_ei_matches_mpmath_between_minus_a_hundredth_and_zero():
    # ln|x| dominates the series here, down to the smallest subnormal; the
    # worst of these 6,003 points is 5.2e-16 relative, at x = -0.0083.
    xs = (*-np.geomspace(5e-324, 0.01, 3000), *np.linspace(-0.01, 0.0, 3001)[1:-1],
          -5e-324, -1e-320, -2.2e-308, -0.00476)
    with mpmath.workdps(40):
        for x in xs:
            expected = mpmath.ei(x)
            assert abs(exp_integral_ei(x) - expected) <= 1e-15 * abs(expected), x


def test_ei_matches_mpmath_up_to_its_overflow():
    # The series alone covers x >= 40: every term is positive, so nothing
    # cancels, and x = 700 needs 932 of its 1000 terms.
    with mpmath.workdps(40):
        for x in (*np.geomspace(40.0, 700.0, 300), 700.0):
            expected = mpmath.ei(x)
            assert abs(exp_integral_ei(x) - expected) <= 1e-14 * expected, x


# Ei's zero on the positive axis (the Ramanujan-Soldner constant's log).
_EI_ZERO = 0.37250741078136663


def test_ei_matches_mpmath_on_the_positive_axis_below_40():
    # expected_inverse_snr calls Ei on (0, a_tilde), about (0, 4.93) at the
    # presets. Near Ei's zero the relative error grows as Ei(x) -> 0 (4e-13 at
    # x = 0.3725), so there the bound is on the absolute error.
    near = np.linspace(_EI_ZERO - 0.05, _EI_ZERO + 0.05, 2001)
    with mpmath.workdps(30):
        for x in (*np.geomspace(1e-300, 1e-3, 100), *np.linspace(1e-3, 40.0, 4000), *near):
            expected = mpmath.ei(x)
            tolerance = 3e-16 if abs(x - _EI_ZERO) < 0.05 else 3e-15 * abs(expected)
            assert abs(exp_integral_ei(x) - expected) <= tolerance, x


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
    for x in (math.nan, -math.inf):
        with pytest.raises(ValueError, match=f"got x={x}$"):
            exp_integral_ei(x)


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


def test_expected_inverse_snr_frozen_values(dense_urban, dense_consts,
                                            suburban, suburban_consts):
    # frozen from 40-digit direct quadrature of the defining double integral
    assert expected_inverse_snr(dense_urban.airspace, dense_consts) == pytest.approx(
        0.0012733382099371815, rel=1e-12)
    assert expected_inverse_snr(suburban.airspace, suburban_consts) == pytest.approx(
        0.00064620116386209603, rel=1e-12)


@pytest.mark.parametrize("name, bits", [("dense_urban", "0x1.4dcc47dfab6d5p-10"),
                                        ("suburban", "0x1.52cba6ec63dc0p-11")])
def test_expected_inverse_snr_preset_bits(name, bits):
    cfg = load_preset(name)
    consts = derive_constants(cfg.scenario, cfg.link)
    assert expected_inverse_snr(cfg.airspace, consts).hex() == bits


@pytest.mark.parametrize("theta_min", [0.0, 45.0, 89.0, 89.9, 89.99, 89.999])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_expected_inverse_snr_is_accurate_up_to_vertical(name, theta_min):
    # the Ei antiderivative cancels as theta_min nears 90: 1.3e-11 off at 89.999
    cfg = load_preset(name)
    consts = derive_constants(cfg.scenario, cfg.link)
    space = replace(cfg.airspace, theta_min_deg=theta_min)
    assert abs(expected_inverse_snr(space, consts) / inverse_snr_oracle(space, consts) - 1) \
        <= 1e-14


@pytest.mark.parametrize("width", [1e-6, 1e-9, 1e-12, 1e-14, 1e-15])
def test_expected_inverse_snr_is_accurate_on_a_thin_shell(dense_consts, width):
    # r_max - r_min is divided out of the distance moment exactly; the
    # unfactored ratio was 2.1e-3 off at width 1e-14.
    space = Airspace(300.0, 300.0 * (1.0 + width), 45.0)
    assert abs(expected_inverse_snr(space, dense_consts) / inverse_snr_oracle(space, dense_consts)
               - 1) <= 2e-15


def test_expected_inverse_snr_is_accurate_over_random_scenarios():
    # Both branches and the switch between them: narrow ranges, ranges far
    # above the sigmoid's transition (where the Ei form cancelled to 1e-10)
    # and wide ones.
    rng = random.Random(20)
    for _ in range(40):
        consts = DerivedConstants(a_env=rng.uniform(0.3, 30.0), b_env=rng.uniform(0.03, 2.5),
                                  a_tilde=rng.uniform(0.2, 12.0), c_tilde=1e6)
        theta_min = max(0.0, rng.choice([rng.uniform(0.0, 90.0),
                                         90.0 - 10.0 ** rng.uniform(-4.0, 1.9)]))
        space = Airspace(10.0, 500.0, theta_min)
        assert abs(expected_inverse_snr(space, consts) / inverse_snr_oracle(space, consts)
                   - 1) <= 1e-14, (consts, theta_min)


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
    mean, std_error = inverse_snr_monte_carlo(suburban.airspace, suburban_consts, 200_000, 9)
    assert abs(closed - mean) <= 3.0 * std_error
    assert closed > 0.0


def test_lower_bound_penalty_free_reduces_to_jensen_on_log(dense_urban, dense_consts):
    mean_inv = expected_inverse_snr(dense_urban.airspace, dense_consts)
    expected = math.log2(1.0 + 1.0 / mean_inv)
    assert _lower_bound_rows(dense_urban.airspace, dense_consts, 0.0) == pytest.approx(
        expected, rel=1e-14)


def test_lower_bound_rows_of_mixed_q_match_their_scalar_calls(dense_urban, dense_consts):
    # q = 0, a q inside d_max and one beyond it, in one array
    space = dense_urban.airspace
    q = np.array([0.0, FblConfig(blocklength=200, epsilon=1e-9).q, 3.0, 0.0])
    bound = _lower_bound_rows(space, dense_consts, q)
    for i, qi in enumerate(q):
        row_bound = _lower_bound_rows(space, dense_consts, float(qi))
        assert isinstance(row_bound, float)
        assert np.float64(row_bound).tobytes() == bound[i].tobytes(), qi
    assert bound[0] == bound[3] == pytest.approx(
        math.log2(1.0 + 1.0 / expected_inverse_snr(space, dense_consts)), rel=1e-15)
    assert math.isfinite(bound[1]) and math.isnan(bound[2])
    assert _within_d_max(space, dense_consts, q).tolist() == [True, True, False, True]


def test_within_d_max_compares_r_max_with_d_max(dense_urban, dense_consts):
    # d_max is 1,784 m at M = 200, eps = 1e-9 and 220 m at M = 1, eps = 1e-3,
    # on either side of the 400 m airspace.
    space = dense_urban.airspace
    inside, beyond = FblConfig(200, 1e-9), FblConfig(1, 1e-3)
    assert d_max(dense_consts, inside) > space.r_max_m > d_max(dense_consts, beyond)
    assert _within_d_max(space, dense_consts, inside.q)
    assert not _within_d_max(space, dense_consts, beyond.q)
    # The rule's edge is d_max: airspaces just inside and just beyond it.
    for cfg in (inside, beyond):
        limit = d_max(dense_consts, cfg)
        below, above = (replace(space, r_min_m=100.0, r_max_m=limit * (1.0 + rel))
                        for rel in (-1e-12, 1e-12))
        assert _within_d_max(below, dense_consts, cfg.q)
        assert not _within_d_max(above, dense_consts, cfg.q)


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
    from uavlink.quadrature import _node_terms, aadr_gcq

    for cfg, consts in ((dense_urban, dense_consts), (suburban, suburban_consts)):
        space = cfg.airspace
        shannon = _node_terms(space, consts, 30, 30)[0]
        for m in (100, 200, 1000):
            for eps in (1e-12, 1e-9, 1e-3):
                fbl = FblConfig(blocklength=m, epsilon=eps)
                lb = aadr_lower_bound(space, consts, fbl)
                mid = aadr_gcq(space, consts, fbl, 30, 30)
                assert lb <= mid <= shannon, (cfg.scenario.name, m, eps)


def test_penalized_log_identity_with_rate():
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    q = cfg.q
    lo = 1.0 / g_inverse(q)
    rng = np.random.default_rng(2)
    gammas = np.exp(rng.uniform(math.log(lo), math.log(1e4), 100))
    for gamma in gammas:
        lhs = _f(1.0 / gamma, q) / math.log(2.0)
        assert abs(lhs - achievable_rate(gamma, cfg)) <= 1e-12
