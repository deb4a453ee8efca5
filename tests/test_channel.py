import dataclasses
import math

import numpy as np
import pytest

from oracles import mean_path_loss_db
from uavlink.bound import _lower_bound_rows, expected_inverse_snr
from uavlink.channel import LinkBudget, Scenario, _sigmoid, derive_constants, snr
from uavlink.cli import sweep_epsilon
from uavlink.config import load_preset
from uavlink.geometry import Airspace

DENSE = Scenario(name="dense_urban", a=12.08, b=0.11, eta_los_db=1.6, eta_nlos_db=23.0)
SUBURBAN = Scenario(name="suburban", a=4.88, b=0.43, eta_los_db=0.1, eta_nlos_db=21.0)
LINK = LinkBudget(tx_power_dbw=-20.0, noise_psd_dbm_hz=-173.0,
                  bandwidth_hz=1e6, carrier_hz=2.5e9)


def test_scenario_rejects_nonpositive_shape():
    with pytest.raises(ValueError):
        Scenario(name="x", a=0.0, b=0.11, eta_los_db=1.0, eta_nlos_db=20.0)
    with pytest.raises(ValueError):
        Scenario(name="x", a=12.0, b=-0.1, eta_los_db=1.0, eta_nlos_db=20.0)


def test_scenario_rejects_degenerate_excess_losses():
    with pytest.raises(ValueError):
        Scenario(name="x", a=12.0, b=0.11, eta_los_db=21.0, eta_nlos_db=21.0)
    with pytest.raises(ValueError):
        Scenario(name="x", a=12.0, b=0.11, eta_los_db=23.0, eta_nlos_db=21.0)


def test_link_budget_rejects_nonpositive_frequencies():
    with pytest.raises(ValueError):
        LinkBudget(tx_power_dbw=-20.0, noise_psd_dbm_hz=-173.0,
                   bandwidth_hz=0.0, carrier_hz=2.5e9)


def test_noise_power_integrates_bandwidth():
    # -173 dBm/Hz over 1 MHz -> -113 dBm -> -143 dBW
    assert LINK.noise_power_dbw == pytest.approx(-143.0, abs=1e-12)


def los_probability(s, theta):
    """P_los at elevation theta (degrees), as snr computes it."""
    return _sigmoid(s.a, s.b, np.asarray(theta, dtype=float))


def test_los_probability_at_sigmoid_offset():
    # theta = a makes the exponent vanish for any scenario
    assert los_probability(DENSE, 12.08) == pytest.approx(1.0 / 13.08, rel=1e-14)
    assert los_probability(SUBURBAN, 4.88) == pytest.approx(1.0 / 5.88, rel=1e-14)


def test_los_probability_saturates_near_vertical():
    p = los_probability(SUBURBAN, 90.0)
    assert p < 1.0
    assert p > 1.0 - 1e-14


def test_los_probability_strictly_increasing():
    # strict on a 2-degree grid; a finer grid ties in the last few ulp where
    # the sigmoid saturates toward 1
    coarse = np.linspace(0.0, 90.0, 46)
    fine = np.linspace(0.0, 90.0, 721)
    for scenario in (DENSE, SUBURBAN):
        values = los_probability(scenario, coarse)
        assert np.all(np.diff(values) > 0.0)
        dense_values = los_probability(scenario, fine)
        assert np.all(np.diff(dense_values) >= 0.0)
        assert np.all((dense_values > 0.0) & (dense_values < 1.0))


def test_derived_constants_dense_urban():
    c = derive_constants(DENSE, LINK)
    # -a_tilde is the LoS-minus-NLoS excess loss, -21.4 dB, on a natural-log scale
    assert -10.0 * c.a_tilde / math.log(10.0) == pytest.approx(-21.4, abs=1e-12)
    assert c.a_tilde == pytest.approx(4.927532099007258, rel=1e-14)
    assert c.a_tilde > 0.0
    # c_tilde is the 123 dB SNR before path loss less the NLoS offset at 1 m: the
    # 23 dB NLoS excess loss and the free-space 20 log10(4 pi f_c / c) at 2.5 GHz
    c_db = LINK.tx_power_dbw - LINK.noise_power_dbw - 10.0 * math.log10(c.c_tilde)
    assert c_db - 23.0 == pytest.approx(40.400572359489428, rel=1e-14)
    assert c.c_tilde > 0.0


def test_path_loss_distance_doubling_law():
    step = (mean_path_loss_db(DENSE, LINK, 60.0, 500.0)
            - mean_path_loss_db(DENSE, LINK, 60.0, 250.0))
    assert step == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)


def test_path_loss_at_sigmoid_offset():
    # At theta = a, P_los = 1 / (1 + a); 40.4006 dB is the free-space loss at 1 m and 2.5 GHz.
    excess_db = DENSE.eta_nlos_db + (DENSE.eta_los_db - DENSE.eta_nlos_db) / (1.0 + DENSE.a)
    expected = excess_db + 20.0 * math.log10(300.0) + 40.400572359489428
    assert mean_path_loss_db(DENSE, LINK, 12.08, 300.0) == pytest.approx(expected, rel=1e-14)


def test_path_loss_monotonicity():
    thetas = np.linspace(0.0, 90.0, 200)
    assert np.all(np.diff(mean_path_loss_db(DENSE, LINK, thetas, 300.0)) < 0.0)
    dists = np.linspace(250.0, 400.0, 200)
    assert np.all(np.diff(mean_path_loss_db(DENSE, LINK, 60.0, dists)) > 0.0)


def test_snr_consistency_with_path_loss():
    # 10 log10(snr) must equal (P - sigma^2) - L for any position
    c = derive_constants(DENSE, LINK)
    budget_db = LINK.tx_power_dbw - LINK.noise_power_dbw
    rng = np.random.default_rng(5)
    for _ in range(100):
        theta = rng.uniform(0.0, 90.0)
        d = rng.uniform(250.0, 400.0)
        lhs = 10.0 * math.log10(snr(c, theta, d))
        rhs = budget_db - mean_path_loss_db(DENSE, LINK, theta, d)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_snr_inverse_square_in_distance():
    c = derive_constants(DENSE, LINK)
    assert snr(c, 60.0, 500.0) / snr(c, 60.0, 250.0) == pytest.approx(0.25, rel=1e-13)


def test_snr_monotonicity():
    c = derive_constants(SUBURBAN, LINK)
    thetas = np.linspace(0.0, 90.0, 46)
    assert np.all(np.diff(snr(c, thetas, 300.0)) > 0.0)
    assert np.all(np.diff(snr(c, np.linspace(0.0, 90.0, 721), 300.0)) >= 0.0)
    dists = np.linspace(250.0, 400.0, 200)
    assert np.all(np.diff(snr(c, 60.0, dists)) < 0.0)


def test_minimum_snr_at_far_low_corner():
    c = derive_constants(DENSE, LINK)
    thetas = np.linspace(0.0, 90.0, 91)
    dists = np.linspace(250.0, 400.0, 61)
    grid = snr(c, thetas[None, :], dists[:, None])
    i, j = np.unravel_index(np.argmin(grid), grid.shape)
    assert thetas[j] == 0.0
    assert dists[i] == 400.0
    # pinned regression value for the default dense-urban configuration
    assert grid[i, j] == pytest.approx(6.334693458092044, rel=1e-12)


def test_snr_rejects_bad_arguments():
    c = derive_constants(DENSE, LINK)
    with pytest.raises(ValueError):
        snr(c, 95.0, 300.0)
    with pytest.raises(ValueError):
        snr(c, 45.0, 0.0)


def _positions(n=1001):
    rng = np.random.default_rng(4)
    return rng.uniform(0.0, 90.0, n), rng.uniform(1.0, 5e4, n)


@pytest.mark.parametrize("scenario", [DENSE, SUBURBAN])
def test_snr_equals_its_expression_bit_for_bit(scenario):
    c = derive_constants(scenario, LINK)
    theta, d = _positions()
    gamma = snr(c, theta, d)
    assert np.array_equal((theta, d), _positions())  # it works in place only in its own arrays
    # the same bits as the expression it is evaluated from, and broadcasting
    p_los = 1.0 / (1.0 + c.a_env * np.exp(-c.b_env * (theta - c.a_env)))
    assert np.array_equal(gamma, c.c_tilde * d**-2.0 * np.exp(c.a_tilde * p_los))
    grid = snr(c, theta[:7][None, :], d[:, None])
    assert grid.shape == (d.size, 7)
    assert np.array_equal(grid, snr(c, theta[:7], d[:, None]))
    assert np.array_equal(grid[:, 3], snr(c, theta[3], d))
    assert snr(c, 60.0, 300.0) == float(snr(c, np.array([60.0]), np.array([300.0]))[0])


@pytest.mark.parametrize("theta,d,message", [
    ([60.0, -1e-9], [300.0, 300.0], "elevation angle"),
    ([60.0, 90.5], [300.0, 300.0], "elevation angle"),
    ([60.0, 60.0], [300.0, 0.0], "distance must be positive"),
    ([60.0, 60.0], [-1.0, 300.0], "distance must be positive"),
])
def test_snr_checks_array_inputs(theta, d, message):
    c = derive_constants(DENSE, LINK)
    with pytest.raises(ValueError, match=message):
        snr(c, np.array(theta), np.array(d))


@pytest.mark.parametrize("call,message", [
    (lambda c: snr(c, math.nan, 300.0), "elevation angle must lie in"),
    (lambda c: snr(c, np.array([60.0, math.nan]), 300.0), "elevation angle must lie in"),
    (lambda c: snr(c, 60.0, math.nan), "distance must be positive"),
    (lambda c: snr(c, 60.0, np.array([300.0, math.nan])), "distance must be positive"),
])
def test_a_nan_position_is_rejected(call, message):
    # Every comparison with NaN is false, so a range check must ask that all
    # values lie inside, not that none lies outside.
    with pytest.raises(ValueError, match=message):
        call(derive_constants(DENSE, LINK))


def test_a_link_budget_whose_snr_underflows_is_rejected():
    # At -3200 dBW, c_tilde = 9.1e-313: the SNR at r_max was subnormal, the lower
    # bound at eps = 0.5 failed with d_max's error and a sweep wrote a subnormal
    # Shannon column, with RuntimeWarnings.
    link = dataclasses.replace(LINK, tx_power_dbw=-3200.0)
    message = r"c_tilde=9\.11\d*e-313, the NLoS SNR at 1 m; need c_tilde >= 2\*\*-560 "
    with pytest.raises(ValueError, match=message):
        derive_constants(DENSE, link)


def _link_with_c_tilde(scenario, c_tilde):
    """LINK with the transmit power that gives about this c_tilde."""
    gain_db = 10.0 * math.log10(c_tilde / derive_constants(scenario, LINK).c_tilde)
    return dataclasses.replace(LINK, tx_power_dbw=LINK.tx_power_dbw + gain_db)


def test_the_c_tilde_floor_is_two_to_the_minus_560():
    assert derive_constants(DENSE, _link_with_c_tilde(DENSE, 2.0**-559.99)).c_tilde >= 2.0**-560
    with pytest.raises(ValueError, match=r"need c_tilde >= 2\*\*-560"):
        derive_constants(DENSE, _link_with_c_tilde(DENSE, 2.0**-560.01))


# Within 1e-5 of the largest r_max whose fifth power is finite, as Airspace requires.
_R_MAX_LIMIT = 4.4765e61


@pytest.mark.parametrize("r_min,r_max,theta_min", [
    (250.0, 400.0, 45.0),
    (1.0, _R_MAX_LIMIT, 0.0),
    (0.99 * _R_MAX_LIMIT, _R_MAX_LIMIT, math.nextafter(90.0, 0.0)),
])
def test_a_sweep_at_the_c_tilde_floor_stays_finite(r_min, r_max, theta_min):
    # At the floor, on the widest and the narrowest airspaces an Airspace admits,
    # every estimator column is finite and no RuntimeWarning is raised (pytest
    # turns them into errors); aadr_lb is nan because the bound's rule fails.
    cfg = dataclasses.replace(load_preset("dense_urban"),
                              link=_link_with_c_tilde(DENSE, 2.0**-559.99),
                              airspace=Airspace(r_min, r_max, theta_min), n_samples=2_000)
    consts = derive_constants(cfg.scenario, cfg.link)
    assert math.isfinite(expected_inverse_snr(cfg.airspace, consts))
    assert math.isfinite(_lower_bound_rows(cfg.airspace, consts, 0.0))
    for row in sweep_epsilon(cfg, [1e-9, 0.49]):
        assert all(math.isfinite(row[c]) for c in row if c != "aadr_lb")
