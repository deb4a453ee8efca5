import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from oracles import cdf_distance, pdf_distance, pdf_elevation, position_mean
from uavlink.bound import _f
from uavlink.channel import derive_constants
from uavlink.config import load_preset
from uavlink.fbl_rate import _LN2, FblConfig, achievable_rate
from uavlink.geometry import Airspace, sample_positions
from uavlink.quadrature import aadr_gcq, integrate, legendre_rule

SPACE = Airspace(r_min_m=250.0, r_max_m=400.0, theta_min_deg=45.0)

# Asymptotic Kolmogorov-Smirnov critical coefficient at the 1% level,
# sqrt(-ln(0.005) / 2).
KS_COEFF_1PCT = 1.6276236115189504


class _StubRng:
    """Returns preset uniform blocks in order; stands in for a Generator."""

    def __init__(self, *blocks):
        self._blocks = list(blocks)

    def random(self, n):
        return np.full(n, self._blocks.pop(0))


def test_airspace_rejects_bad_radii():
    with pytest.raises(ValueError):
        Airspace(r_min_m=0.0, r_max_m=400.0, theta_min_deg=45.0)
    with pytest.raises(ValueError):
        Airspace(r_min_m=400.0, r_max_m=250.0, theta_min_deg=45.0)
    with pytest.raises(ValueError):
        Airspace(r_min_m=250.0, r_max_m=250.0, theta_min_deg=45.0)


def test_airspace_rejects_bad_elevation():
    with pytest.raises(ValueError):
        Airspace(r_min_m=250.0, r_max_m=400.0, theta_min_deg=90.0)
    with pytest.raises(ValueError):
        Airspace(r_min_m=250.0, r_max_m=400.0, theta_min_deg=-1.0)


@pytest.mark.parametrize("bounds", [
    (250.0, math.inf, 45.0), (math.nan, 400.0, 45.0), (250.0, 400.0, math.nan),
])
def test_airspace_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="airspace bounds must be finite"):
        Airspace(*bounds)


def test_airspace_rejects_radius_whose_fifth_power_overflows():
    Airspace(r_min_m=250.0, r_max_m=1e61, theta_min_deg=45.0)
    with pytest.raises(ValueError, match=r"r_max=1e\+62 m is too large"):
        Airspace(r_min_m=250.0, r_max_m=1e62, theta_min_deg=45.0)


def test_cdf_support_endpoints():
    assert cdf_distance(SPACE, 250.0) == 0.0
    assert cdf_distance(SPACE, 400.0) == 1.0


def test_cdf_interior_value():
    # (325^3 - 250^3) / (400^3 - 250^3) = 18703125 / 48375000
    assert cdf_distance(SPACE, 325.0) == pytest.approx(0.38662790697674419, rel=1e-14)


def test_cdf_nondecreasing():
    xs = np.linspace(250.0, 400.0, 400)
    values = cdf_distance(SPACE, xs)
    assert np.all(np.diff(values) >= 0.0)


def test_pdf_value_at_lower_endpoint():
    # 3 * 250^2 / (400^3 - 250^3)
    assert pdf_distance(SPACE, 250.0) == pytest.approx(3.875968992248062e-3, rel=1e-14)


def test_pdf_endpoint_ratio_is_quadratic():
    ratio = pdf_distance(SPACE, 400.0) / pdf_distance(SPACE, 250.0)
    assert ratio == pytest.approx((400.0 / 250.0) ** 2, rel=1e-14)


def test_pdf_normalizes_to_one():
    rule = legendre_rule(16)
    total = integrate(rule, lambda x: pdf_distance(SPACE, x), 250.0, 400.0)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_pdf_is_cdf_derivative():
    xs = np.linspace(255.0, 395.0, 29)
    h = xs * 1e-5
    approx = (cdf_distance(SPACE, xs + h) - cdf_distance(SPACE, xs - h)) / (2.0 * h)
    assert np.max(np.abs(approx / pdf_distance(SPACE, xs) - 1.0)) < 1e-6


@pytest.mark.parametrize("width", [1e-6, 1e-9, 1e-12, 1e-14, 1e-15])
def test_distance_law_keeps_its_digits_on_a_thin_shell(width):
    # r_max^3 - r_min^3 computed as a difference of cubes cancels to 1.1e-2
    # relative error at width 1e-15; factored by geometry._cube_difference, as
    # the sampler and these densities take it, every digit survives.
    space = Airspace(r_min_m=300.0, r_max_m=300.0 * (1.0 + width), theta_min_deg=45.0)
    xs = np.linspace(space.r_min_m, space.r_max_m, 7)[1:]
    with mp.workdps(40):
        r, top = mp.mpf(space.r_min_m), mp.mpf(space.r_max_m) ** 3 - mp.mpf(space.r_min_m) ** 3
        pdfs = [float(3 * mp.mpf(x) ** 2 / top) for x in xs]
        cdfs = [float((mp.mpf(x) ** 3 - r**3) / top) for x in xs]
    assert np.max(np.abs(pdf_distance(space, xs) / pdfs - 1.0)) <= 1e-15
    assert np.max(np.abs(cdf_distance(space, xs) / cdfs - 1.0)) <= 1e-15
    assert cdf_distance(space, space.r_min_m) == 0.0


def test_elevation_density_values():
    assert pdf_elevation(SPACE, 60.0) == pytest.approx(1.0 / 45.0, rel=1e-15)
    wide = Airspace(r_min_m=250.0, r_max_m=400.0, theta_min_deg=30.0)
    assert pdf_elevation(wide, 30.0) == pytest.approx(1.0 / 60.0, rel=1e-15)


def test_elevation_density_normalizes():
    total = integrate(legendre_rule(4), lambda t: pdf_elevation(SPACE, t), 45.0, 90.0)
    assert total == pytest.approx(1.0, abs=1e-13)


def test_inverse_transform_at_zero_hits_lower_corner():
    d, theta = sample_positions(SPACE, _StubRng(0.0, 0.0), 1)
    assert (d[0], theta[0]) == (250.0, 45.0)


def test_inverse_transform_near_one_hits_upper_corner():
    u = 1.0 - 1e-12
    d, theta = sample_positions(SPACE, _StubRng(u, u), 1)
    assert d[0] == pytest.approx(400.0, rel=1e-9)
    assert theta[0] == pytest.approx(90.0, rel=1e-9)


def test_sample_position_respects_bounds():
    d, theta = sample_positions(SPACE, np.random.default_rng(7), 200)
    assert np.all((250.0 <= d) & (d <= 400.0))
    assert np.all((45.0 <= theta) & (theta <= 90.0))


def test_sampler_matches_distance_cdf():
    n = 200_000
    rng = np.random.default_rng(42)
    d, _ = sample_positions(SPACE, rng, n)
    d_sorted = np.sort(d)
    model = cdf_distance(SPACE, d_sorted)
    grid = np.arange(1, n + 1) / n
    sup_dist = max(np.max(np.abs(model - grid)), np.max(np.abs(model - (grid - 1.0 / n))))
    assert sup_dist < KS_COEFF_1PCT / math.sqrt(n)


def test_sampler_elevation_is_uniform():
    n = 200_000
    rng = np.random.default_rng(11)
    _, theta = sample_positions(SPACE, rng, n)
    counts, _ = np.histogram(theta, bins=20, range=(45.0, 90.0))
    result = stats.chisquare(counts)
    assert result.pvalue > 0.01


def test_sampler_distance_elevation_uncorrelated():
    rng = np.random.default_rng(3)
    d, theta = sample_positions(SPACE, rng, 100_000)
    corr = np.corrcoef(d, theta)[0, 1]
    assert abs(corr) < 0.01


def test_sample_positions_rejects_empty():
    with pytest.raises(ValueError):
        sample_positions(SPACE, np.random.default_rng(0), 0)



# AADR at M = 200 and eps = 1e-9 with uavlink's uniform elevation and with a UAV
# uniform in the volume (density d^2 cos theta), and the Jensen bound under the
# latter, by 200x200 Gauss-Legendre sums. On suburban the sigmoid has saturated
# above 30 degrees and the reading does not matter; on dense_urban it moves the
# AADR by 0.2175 bits, more than the uniform-theta bound's gap of 0.127.
@pytest.mark.parametrize("name, uniform_theta, uniform_volume, volume_bound", [
    ("dense_urban", 9.13460, 8.91705, 8.7805),
    ("suburban", 10.030815, 10.030795, 9.98478),
])
def test_uniform_elevation_against_uniform_volume(name, uniform_theta, uniform_volume,
                                                  volume_bound):
    cfg = load_preset(name)
    consts = derive_constants(cfg.scenario, cfg.link)
    fbl = FblConfig(blocklength=200, epsilon=1e-9)

    def rate(gamma):
        return achievable_rate(gamma, fbl)

    aadr = position_mean(cfg.airspace, consts, rate)
    assert aadr == pytest.approx(aadr_gcq(cfg.airspace, consts, fbl, 200, 200), rel=1e-14)
    assert aadr == pytest.approx(uniform_theta, rel=5e-5)
    volume = position_mean(cfg.airspace, consts, rate, volume=True)
    assert volume == pytest.approx(uniform_volume, rel=5e-5)
    bound = _f(position_mean(cfg.airspace, consts, lambda g: 1.0 / g, volume=True), fbl.q) / _LN2
    assert bound == pytest.approx(volume_bound, rel=5e-5)
    assert bound < volume
