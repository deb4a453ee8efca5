"""Property tests over random valid configs: GCQ ordering in M and eps, LB <= GCQ,
where the lower bound holds, and the accuracy of g_inverse and of
expected_inverse_snr over their domains.

Examples are derandomized and not stored, so every run checks the same
configs and writes no example database.
"""

import math

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import g_inverse_oracle, g_oracle, inverse_snr_oracle
from uavlink.bound import (_lower_bound_rows, _within_d_max, aadr_lower_bound, d_max,
                           expected_inverse_snr, g_inverse)
from uavlink.channel import DerivedConstants, derive_constants
from uavlink.config import PRESET_NAMES, load_preset
from uavlink.fbl_rate import FblConfig
from uavlink.geometry import Airspace
from uavlink.quadrature import aadr_gcq

_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# expected_inverse_snr's stated relative error (its docstring).
_INVERSE_SNR_RTOL = 3e-15
_CONSTS = {name: derive_constants(load_preset(name).scenario, load_preset(name).link)
           for name in PRESET_NAMES}


@st.composite
def airspaces(draw):
    r_min = draw(st.floats(1.0, 500.0))
    r_max = r_min * (1.0 + draw(st.floats(1e-3, 20.0)))
    return Airspace(r_min_m=r_min, r_max_m=r_max, theta_min_deg=draw(st.floats(0.0, 89.0)))


blocklengths = st.integers(1, 10**6)
log10_epsilons = st.floats(-300.0, math.log10(0.49))
orders = st.integers(4, 40)


@_PROPERTY
@given(st.sampled_from(PRESET_NAMES), airspaces(), blocklengths, blocklengths, log10_epsilons,
       orders, orders)
def test_gcq_strictly_increasing_in_blocklength(preset, space, m1, m2, log_eps, n_theta, n_dist):
    assume(m1 != m2)
    lo, hi = sorted((m1, m2))
    eps = 10.0**log_eps
    consts = _CONSTS[preset]
    assert aadr_gcq(space, consts, FblConfig(lo, eps), n_theta, n_dist) \
        < aadr_gcq(space, consts, FblConfig(hi, eps), n_theta, n_dist)


@_PROPERTY
@given(st.sampled_from(PRESET_NAMES), airspaces(), blocklengths, log10_epsilons, log10_epsilons,
       orders, orders)
def test_gcq_strictly_increasing_in_epsilon(preset, space, m, log_e1, log_e2, n_theta, n_dist):
    # Epsilons a relative 1e-6 apart or more, well above q_inverse's rounding.
    lo, hi = sorted((log_e1, log_e2))
    assume(hi - lo > 1e-6)
    consts = _CONSTS[preset]
    assert aadr_gcq(space, consts, FblConfig(m, 10.0**lo), n_theta, n_dist) \
        < aadr_gcq(space, consts, FblConfig(m, 10.0**hi), n_theta, n_dist)


@_PROPERTY
@given(st.sampled_from(PRESET_NAMES), airspaces(), blocklengths, log10_epsilons)
def test_lower_bound_below_gcq_within_d_max(preset, space, m, log_eps):
    consts = _CONSTS[preset]
    cfg = FblConfig(m, 10.0**log_eps)
    assume(space.r_max_m <= d_max(consts, cfg))
    assert aadr_lower_bound(space, consts, cfg) <= aadr_gcq(space, consts, cfg)


@_PROPERTY
@given(st.sampled_from(PRESET_NAMES), airspaces(), blocklengths, log10_epsilons)
def test_the_bound_is_nan_exactly_beyond_d_max(preset, space, m, log_eps):
    # The sweep's bound column and the dmax verdict state one rule, r_max <= d_max.
    # Checked on the drawn airspace and on its shape scaled to end a relative
    # 10**-k inside and beyond d_max, so that a rule 1e-11 off d_max fails.
    consts, fbl = _CONSTS[preset], FblConfig(m, 10.0**log_eps)
    limit = d_max(consts, fbl)
    assume(abs(space.r_max_m / limit - 1.0) > 1e-12)
    edges = [limit * (1.0 + sign * 10.0**-k) for k in range(1, 12) for sign in (-1.0, 1.0)]
    for r_max in [space.r_max_m, *edges]:
        shape = Airspace(space.r_min_m * (r_max / space.r_max_m), r_max, space.theta_min_deg)
        holds = r_max <= limit
        assert math.isnan(_lower_bound_rows(shape, consts, fbl.q)) is not holds
        assert bool(_within_d_max(shape, consts, fbl.q)) is holds


@settings(_PROPERTY, max_examples=150)
@given(st.floats(-31.0, math.log10(700.0)))
def test_g_inverse_meets_its_stated_accuracy_over_its_domain(log_q):
    q = min(10.0**log_q, 700.0)  # 10**log10(700) rounds one ulp above 700
    x, exact = g_inverse(q), g_inverse_oracle(q)
    assert abs(x - exact) / exact <= 1e-13
    assert float(abs(g_oracle(x) - q) / q) <= 1e-14


@st.composite
def inverse_snr_scenarios(draw):
    """Sigmoids up to b = 5, theta_min in [0, 90), r_min from 1e-3 m, shells from
    1e-15 relative wide up to r_max**5's limit, and c_tilde down to its floor."""
    consts = DerivedConstants(
        a_env=draw(st.floats(0.3, 30.0)), b_env=10.0**draw(st.floats(-1.6, math.log10(5.0))),
        a_tilde=draw(st.floats(0.02, 12.0)), c_tilde=2.0**draw(st.floats(-560.0, 100.0)))
    theta_min = draw(st.one_of(st.just(0.0), st.floats(0.0, 90.0, exclude_max=True),
                               st.floats(-4.0, 1.9).map(lambda u: 90.0 - 10.0**u)))
    r_min = 10.0**draw(st.floats(-3.0, 61.6))
    r_max = r_min * (1.0 + 10.0**draw(st.floats(-15.0, 6.0)))
    assume(r_max < 4.4765e61)  # r_max**5 stays finite
    return Airspace(r_min, r_max, theta_min), consts


def _scenario(a, b, a_tilde, theta_min, r_min=10.0, r_max=500.0):
    return (Airspace(r_min, r_max, theta_min),
            DerivedConstants(a_env=a, b_env=b, a_tilde=a_tilde, c_tilde=1e6))


@settings(_PROPERTY, max_examples=100)
@given(inverse_snr_scenarios())
# A steep sigmoid, where an unsplit mpmath quadrature was 1.7e-7 off, and the
# worst cases found for the Ei form, where Ei's series near -2 passes its
# cancellation through.
@example(_scenario(25.45, 4.76, 4.93, 0.0))
@example(_scenario(3.39, 0.0886, 11.96, 0.0, 6.17, 24.87))
@example(_scenario(3.9797646332836782, 0.11395842040172302, 10.101557844100446,
                   3.5888479655735894, 0.024561616109215693, 0.0845383928139652))
def test_expected_inverse_snr_meets_its_stated_accuracy_over_its_domain(scenario):
    space, consts = scenario
    exact = inverse_snr_oracle(space, consts)
    assert abs(expected_inverse_snr(space, consts) / exact - 1) <= _INVERSE_SNR_RTOL
