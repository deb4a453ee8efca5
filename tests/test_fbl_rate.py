import math
import statistics
import sys

import mpmath as mp
import numpy as np
import pytest

from oracles import erfinv_q_inverse_oracle, log_q_inverse_oracle, q_function, q_inverse_oracle
from uavlink.bound import g_inverse
from uavlink.fbl_rate import (
    FblConfig,
    _dispersion,
    _rate,
    achievable_rate,
    q_free_terms,
    q_inverse,
    shannon_rate,
)


def dispersion(gamma):
    """V = 1 - (1 + gamma)^-2 as the rate's W term takes it."""
    return _dispersion(np.asarray(gamma, dtype=float))


def min_snr(cfg):
    """Smallest SNR at which the rate is nonnegative, 1 / g_inverse(q)."""
    return 1.0 / g_inverse(cfg.q)


def test_q_function_at_zero():
    assert q_function(0.0) == 0.5


def test_q_function_tail_limits():
    assert q_function(40.0) < 1e-300
    assert q_function(-40.0) == pytest.approx(1.0, abs=1e-300)


def test_q_function_strictly_decreasing():
    xs = np.linspace(-8.0, 8.0, 200)
    values = np.array([q_function(x) for x in xs])
    assert np.all(np.diff(values) < 0.0)
    assert np.all((values > 0.0) & (values < 1.0))


def test_q_function_deep_tail_value():
    # frozen from a 40-digit complementary-error-function evaluation
    assert q_function(5.99781) == pytest.approx(9.9998162353023544e-10, rel=1e-12)


def test_q_inverse_median():
    assert q_inverse(0.5) == 0.0


def test_q_inverse_deep_tail_value():
    # frozen from bisection on q_function refined at 40 digits
    assert q_inverse(1e-9) == pytest.approx(5.997807015007687, rel=1e-13)
    assert q_inverse(1e-12) == pytest.approx(7.034483825301132, rel=1e-13)


def test_q_inverse_matches_bisection_oracle():
    # the oracle itself loses absolute resolution for p near 1, so upper-tail
    # points are covered by the symmetry test instead
    for p in (1e-12, 1e-9, 1e-6, 0.01, 0.3, 0.49, 0.7):
        assert q_inverse(p) == pytest.approx(q_inverse_oracle(p), abs=1e-11)


@pytest.mark.parametrize("p", [5e-324, 1e-323, 2.5e-320, 1e-310])
def test_q_inverse_is_accurate_at_subnormal_p(p):
    # Q(x) is a subnormal there, so no method that forms Q(x) in doubles can
    # hold this bound; AS241 never evaluates Q
    x = q_inverse(p)
    assert abs(x / log_q_inverse_oracle(p) - 1) <= 1e-15


def _ulps_around(x, n=50):
    """x and the n doubles on either side of it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    return below[:0:-1] + above


# AS241 switches rational function at |p - 1/2| = 0.425 and at sqrt(-ln p) = 5.
_BRANCH_SWITCHES = [*_ulps_around(0.075), *_ulps_around(math.exp(-25.0))]
_NEAR_HALF = [0.5 - 10.0**-k for k in range(2, 16)]


def test_q_inverse_is_bit_identical_to_the_stdlib_normal_quantile():
    # CPython's NormalDist.inv_cdf runs AS241 in C in the same operation order,
    # so a mistyped coefficient among the 48 shows as a mismatch here.
    inv_cdf = statistics.NormalDist().inv_cdf
    upper = [0.5 + 10.0**-k for k in range(2, 16)] + [0.6, 0.925, 0.99, 1.0 - 1e-9, 1.0 - 2.0**-53]
    ps = [*np.geomspace(5e-324, 0.5, 2000).tolist(), *_BRANCH_SWITCHES, *_NEAR_HALF, *upper]
    mismatches = [p for p in ps if q_inverse(p) != -inv_cdf(p)]
    assert not mismatches


# Relative error against a 50-digit root in each band of p. In the tails the
# oracle solves ln Q(x) = ln p; in the central bands it is -sqrt(2) erfinv(2p - 1).
_ACCURACY_BANDS = {
    "subnormal": ([*np.geomspace(5e-324, sys.float_info.min, 12, endpoint=False).tolist(),
                   1e-323, 2.5e-320, 1e-310], log_q_inverse_oracle),
    "normal-tail": ([*np.geomspace(sys.float_info.min, 0.075, 24, endpoint=False).tolist(),
                     *_ulps_around(math.exp(-25.0), 3), *_ulps_around(0.075, 3)[:3]],
                    log_q_inverse_oracle),
    "central-low": ([*np.linspace(0.075, 0.4, 24, endpoint=False).tolist(),
                     *_ulps_around(0.075, 3)[3:]], erfinv_q_inverse_oracle),
    "central-near-half": ([*np.linspace(0.4, 0.5, 24, endpoint=False).tolist(), *_NEAR_HALF],
                          erfinv_q_inverse_oracle),
}


@pytest.mark.parametrize("band", list(_ACCURACY_BANDS))
def test_q_inverse_relative_error_is_below_1e15_in_every_band(band):
    ps, oracle = _ACCURACY_BANDS[band]
    with mp.workdps(50):  # the ratio at double precision would round to 1.1e-16 steps
        worst = max(abs(q_inverse(p) / oracle(p) - 1) for p in ps)
    assert worst <= 1e-15


def test_q_inverse_tail_symmetry():
    # exact at dyadic complements where 1-p is representable
    for p in (0.25, 0.125, 0.0625):
        assert q_inverse(1.0 - p) == -q_inverse(p)
    # deep tail: limited by the spacing of doubles near 1
    assert q_inverse(1.0 - 1e-9) == pytest.approx(-q_inverse(1e-9), abs=2e-8)


def test_q_inverse_roundtrip():
    for p in (1e-12, 1e-9, 1e-3, 0.4):
        assert abs(q_function(q_inverse(p)) - p) / p <= 1e-10


def test_q_inverse_strictly_decreasing():
    ps = np.geomspace(1e-12, 0.9, 300)
    values = np.array([q_inverse(p) for p in ps])
    assert np.all(np.diff(values) < 0.0)


def test_q_inverse_rejects_out_of_range():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            q_inverse(p)


def test_dispersion_reference_points():
    assert dispersion(0.0) == 0.0
    assert dispersion(1.0) == pytest.approx(0.75, rel=1e-15)
    assert dispersion(1e6) < 1.0
    assert dispersion(1e6) > 1.0 - 1e-11
    # saturates to the limit once (1+gamma)^-2 drops below resolution
    assert dispersion(1e12) == pytest.approx(1.0, abs=1e-15)


def test_dispersion_increasing_and_bounded():
    gammas = np.geomspace(1e-6, 1e6, 300)
    values = dispersion(gammas)
    assert np.all(np.diff(values) > 0.0)
    assert np.all((values >= 0.0) & (values < 1.0))


def test_fbl_config_validation():
    with pytest.raises(ValueError):
        FblConfig(blocklength=0, epsilon=1e-9)
    with pytest.raises(ValueError):
        FblConfig(blocklength=200, epsilon=0.0)


@pytest.mark.parametrize("blocklength", [200.0, True])
def test_fbl_config_rejects_non_integer_blocklength(blocklength):
    with pytest.raises(ValueError, match="blocklength must be a positive integer"):
        FblConfig(blocklength=blocklength, epsilon=1e-9)


def test_fbl_config_rejects_a_blocklength_beyond_the_doubles_when_built():
    # q's root once raised the error on the first read of q, not on construction.
    with pytest.raises(ValueError, match="^blocklength is too large for a double$"):
        FblConfig(blocklength=10**400, epsilon=1e-9)
    assert FblConfig(blocklength=10**308, epsilon=1e-9).q > 0.0


def test_fbl_config_accepts_numpy_integer():
    assert FblConfig(blocklength=np.int64(200), epsilon=1e-9).q == \
        FblConfig(blocklength=200, epsilon=1e-9).q


def test_rate_at_q_zero_is_shannon():
    for gamma in (0.5, 3.0, 236.0):
        assert _rate(*q_free_terms(gamma), 0.0) == shannon_rate(gamma)


def test_rate_approaches_shannon_for_long_blocks():
    cfg = FblConfig(blocklength=10**12, epsilon=1e-9)
    gap = shannon_rate(10.0) - achievable_rate(10.0, cfg)
    assert 0.0 < gap < 1e-5


def test_rate_frozen_value():
    # log2(11) - sqrt((1 - 1/121)/200) * Qinv(1e-9) / ln 2, 40-digit evaluation
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    assert achievable_rate(10.0, cfg) == pytest.approx(2.8501052581973066, rel=1e-13)


def test_rate_term_by_term_against_oracle():
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    expected = (math.log2(11.0)
                - math.sqrt((1.0 - (1.0 + 10.0) ** -2) / 200.0)
                * q_inverse_oracle(1e-9) / math.log(2.0))
    assert achievable_rate(10.0, cfg) == pytest.approx(expected, abs=1e-11)


def test_rate_never_exceeds_shannon():
    cfg = FblConfig(blocklength=150, epsilon=1e-6)
    gammas = np.geomspace(1e-3, 1e5, 200)
    assert np.all(achievable_rate(gammas, cfg) <= shannon_rate(gammas))


def test_rate_increasing_in_blocklength_and_epsilon():
    gammas = np.geomspace(0.5, 1e4, 50)
    for eps in (1e-12, 1e-9, 1e-6, 1e-2):
        rates = [achievable_rate(gammas, FblConfig(m, eps)).sum()
                 for m in (100, 200, 400, 700, 1000)]
        assert np.all(np.diff(rates) > 0.0)
    for m in (100, 500, 1000):
        rates = [achievable_rate(gammas, FblConfig(m, eps)).sum()
                 for eps in (1e-12, 1e-9, 1e-6, 1e-3, 1e-2)]
        assert np.all(np.diff(rates) > 0.0)


def test_rate_increasing_in_snr_above_threshold():
    cfg = FblConfig(blocklength=100, epsilon=1e-9)
    lo = min_snr(cfg)
    gammas = np.geomspace(lo, 1e4, 400)
    assert np.all(np.diff(achievable_rate(gammas, cfg)) > 0.0)


def test_rate_can_be_negative_below_threshold():
    cfg = FblConfig(blocklength=100, epsilon=1e-9)
    lo = min_snr(cfg)
    assert achievable_rate(0.5 * lo, cfg) < 0.0


def test_shannon_reference_points():
    assert shannon_rate(0.0) == 0.0
    assert shannon_rate(1.0) == pytest.approx(1.0, rel=1e-15)
    assert shannon_rate(3.0) == pytest.approx(2.0, rel=1e-15)


def test_min_snr_threshold_frozen_value():
    # 1 / g_inverse(Qinv(1e-9)/10), pinned from the bisection oracle
    cfg = FblConfig(blocklength=100, epsilon=1e-9)
    assert min_snr(cfg) == pytest.approx(0.5958842913067052, rel=1e-10)


def test_min_snr_threshold_vanishes_as_epsilon_grows():
    cfg = FblConfig(blocklength=100, epsilon=0.499)
    assert min_snr(cfg) < 1e-6


def test_rate_is_zero_at_threshold():
    for m, eps in ((100, 1e-9), (200, 1e-9), (500, 1e-6)):
        cfg = FblConfig(blocklength=m, epsilon=eps)
        assert achievable_rate(min_snr(cfg), cfg) == pytest.approx(0.0, abs=1e-9)


def test_rate_rejects_nonpositive_snr():
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    with pytest.raises(ValueError):
        achievable_rate(0.0, cfg)
    with pytest.raises(ValueError):
        achievable_rate(np.array([1.0, -2.0]), cfg)


def _gammas():
    # from deep below the dispersion's knee to far above it
    return 10.0 ** np.random.default_rng(6).uniform(-8.0, 8.0, 1001)


def test_q_free_terms_equal_their_expressions_bit_for_bit():
    g = _gammas()
    s_terms, w_terms = q_free_terms(g)
    assert np.array_equal(g, _gammas())  # it works in place only in its own arrays
    # the same bits as the expressions they are evaluated from
    assert np.array_equal(s_terms, np.log1p(g) / math.log(2.0))
    assert np.array_equal(w_terms, np.sqrt(g * (g + 2.0) / (1.0 + g) ** 2))
    assert np.array_equal(w_terms, np.sqrt(dispersion(g)))
    # and elementwise: a scalar or a 2-d input gives the same bits
    assert [float(t) for t in q_free_terms(g[5])] == [s_terms[5], w_terms[5]]
    grid_s, grid_w = q_free_terms(g[:1000].reshape(20, 50))
    assert np.array_equal(grid_s.ravel(), s_terms[:1000])
    assert np.array_equal(grid_w.ravel(), w_terms[:1000])


@pytest.mark.parametrize("gamma", [[2.0, 0.0], [-1e-300, 2.0]])
def test_q_free_terms_reject_a_non_positive_snr(gamma):
    with pytest.raises(ValueError, match="SNR must be positive"):
        q_free_terms(np.array(gamma))


@pytest.mark.parametrize("call,message", [
    (lambda: q_free_terms([math.nan, 1.0]), "SNR must be positive"),
    (lambda: q_free_terms(np.array([1.0, math.nan])), "SNR must be positive"),
    (lambda: shannon_rate([2.0, math.nan]), "SNR must be nonnegative"),
    (lambda: achievable_rate(math.nan, FblConfig(blocklength=200, epsilon=1e-9)),
     "SNR must be positive"),
])
def test_a_nan_snr_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()
