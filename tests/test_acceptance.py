"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured numbers when it succeeds (run pytest -v -s to
see them; any failure shows up as a normal pytest failure).
"""

import copy
import dataclasses
import math

import numpy as np

from oracles import ei_series_oracle, inverse_snr_monte_carlo, q_function
from uavlink.bound import aadr_lower_bound, d_max, exp_integral_ei, expected_inverse_snr
from uavlink.channel import derive_constants
from uavlink.cli import SWEEP_M_COLUMNS, sweep_blocklength, sweep_epsilon, write_csv
from uavlink.config import config_from_dict, load_preset, preset_config
from uavlink.fbl_rate import FblConfig, achievable_rate, q_inverse
from uavlink.lemmas import run_lemma_suite
from uavlink.montecarlo import estimate_aadr, estimate_shannon
from uavlink.quadrature import aadr_gcq, legendre_rule

PRESETS = ("dense_urban", "suburban")
GRID_M = (100, 500, 1000)
GRID_EPS = (1e-9, 1e-6)


def _setup(name):
    cfg = load_preset(name)
    return cfg, derive_constants(cfg.scenario, cfg.link)


def test_criterion_01_cross_estimator_agreement():
    worst = 0.0
    for name in PRESETS:
        cfg, consts = _setup(name)
        for m in GRID_M:
            for eps in GRID_EPS:
                fbl = FblConfig(blocklength=m, epsilon=eps)
                approx = aadr_gcq(cfg.airspace, consts, fbl, 30, 30)
                mc = estimate_aadr(cfg.airspace, consts, fbl, n=10_000, seed=cfg.seed)
                z = abs(approx - mc.mean) / mc.std_error
                worst = max(worst, z)
                assert z <= 3.0, (name, m, eps, z)
    print(f"PASS criterion 1: quadrature vs Monte Carlo within 3 std errors "
          f"(worst z = {worst:.2f})")


def test_criterion_02_jensen_ordering():
    for name in PRESETS:
        cfg, consts = _setup(name)
        shannon = estimate_shannon(cfg.airspace, consts, n=10_000, seed=cfg.seed)
        for m in GRID_M:
            for eps in GRID_EPS:
                fbl = FblConfig(blocklength=m, epsilon=eps)
                lb = aadr_lower_bound(cfg.airspace, consts, fbl)
                mc = estimate_aadr(cfg.airspace, consts, fbl, n=10_000, seed=cfg.seed)
                assert lb <= mc.mean + 3.0 * mc.std_error, (name, m, eps)
                assert (mc.mean + 3.0 * mc.std_error
                        <= shannon.mean + 3.0 * shannon.std_error), (name, m, eps)
    print("PASS criterion 2: lower bound <= simulation <= Shannon ordering holds")


def test_criterion_03_monotone_in_blocklength():
    ratios = []
    for name in PRESETS:
        cfg, _ = _setup(name)
        rows = sweep_blocklength(cfg, list(range(100, 1001, 100)))
        gcq = np.array([r["aadr_gcq"] for r in rows])
        assert np.all(np.diff(gcq) > 0.0), name
        gaps = np.array([r["shannon_mc"] - r["aadr_gcq"] for r in rows])
        assert gaps[-1] * 2.0 <= gaps[0], (name, gaps[0], gaps[-1])
        ratios.append(gaps[0] / gaps[-1])
    print(f"PASS criterion 3: rate strictly increasing in M, Shannon gap shrinks "
          f"{min(ratios):.2f}x over the sweep")


def test_criterion_04_monotone_in_epsilon():
    eps_values = [10.0**k for k in range(-12, -2)]
    for name in PRESETS:
        cfg, _ = _setup(name)
        rows = sweep_epsilon(cfg, eps_values)
        gcq = np.array([r["aadr_gcq"] for r in rows])
        assert np.all(np.diff(gcq) > 0.0), name
    print("PASS criterion 4: rate strictly increasing in epsilon at M=200")


def test_criterion_05_closed_form_inverse_snr():
    for name in PRESETS:
        cfg, consts = _setup(name)
        closed = expected_inverse_snr(cfg.airspace, consts)
        mean, std_error = inverse_snr_monte_carlo(cfg.airspace, consts, 1_000_000, cfg.seed)
        z = abs(closed - mean) / std_error
        assert z <= 3.0, (name, z)
    print("PASS criterion 5: closed-form E(1/SNR) within 3 std errors of a "
          "1e6-sample Monte Carlo run")


def test_criterion_06_lemma_suite():
    report = run_lemma_suite(q_values=(0.05, 0.2, 0.6))
    # The q-free facts are proved for every x in tests/test_lemma_proofs.py.
    assert report["proved"] == ["g_decreasing", "g1_dominates_g", "g2_dominates_g"]
    failures = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["all_passed"], failures
    print(f"PASS criterion 6: {len(report['checks'])} lemma checks, zero failures")


def test_criterion_07_special_function_accuracy():
    ps = np.geomspace(1e-12, 0.499, 200)
    worst_q = max(abs(q_function(q_inverse(p)) - p) / p for p in ps)
    assert worst_q <= 1e-10

    xs = np.geomspace(1e-3, 40.0, 120)
    worst_ei = 0.0
    for x in np.concatenate([xs, -xs]):
        expected = ei_series_oracle(x)
        worst_ei = max(worst_ei, abs(exp_integral_ei(x) - expected) / abs(expected))
    assert worst_ei <= 1e-10
    print(f"PASS criterion 7: quantile roundtrip ({worst_q:.1e}) and Ei vs series "
          f"oracle ({worst_ei:.1e}) within 1e-10")


def test_criterion_08_quadrature_exactness():
    for order in range(1, 21):
        rule = legendre_rule(order)
        assert abs(float(np.sum(rule.weights)) - 2.0) <= 1e-12
        for k in range(2 * order):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            err = abs(float(np.sum(rule.weights * rule.nodes**k)) - exact)
            assert err <= 1e-12, (order, k, err)
    print("PASS criterion 8: rules N=1..20 integrate degrees <= 2N-1 within 1e-12")


def test_criterion_09_rate_identity():
    from uavlink.bound import _f, g_inverse

    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    q = cfg.q
    lo = 1.0 / g_inverse(q)
    rng = np.random.default_rng(7)
    gammas = np.exp(rng.uniform(math.log(lo), math.log(1e4), 100))
    worst = max(abs(_f(1.0 / g, q) / math.log(2.0) - achievable_rate(g, cfg))
                for g in gammas)
    assert worst <= 1e-12
    print(f"PASS criterion 9: rate identity with penalized log within 1e-12 "
          f"(worst {worst:.1e})")


def test_criterion_10_distance_limit_sanity():
    reference_km = {"dense_urban": 56.4, "suburban": 56.8}
    for name in PRESETS:
        cfg, consts = _setup(name)
        limit = d_max(consts, cfg.fbl)
        assert limit > 4.0 * cfg.airspace.r_max_m, (name, limit)

        data = copy.deepcopy(preset_config(name))
        data["link"]["tx_power_unit"] = "dBm"
        data["link"]["noise_unit"] = "dBm"
        alt = config_from_dict(data)
        alt_limit = d_max(derive_constants(alt.scenario, alt.link), alt.fbl)
        print(f"  {name}: d_max = {limit / 1e3:.3f} km (default reading), "
              f"{alt_limit / 1e3:.2f} km (dBm/total reading); "
              f"reference figure {reference_km[name]} km")
    print("PASS criterion 10: airspace sits far inside d_max for both presets; "
          "reference figures reported (exact reproduction not required)")


def test_criterion_11_deterministic_csv(tmp_path):
    cfg = dataclasses.replace(load_preset("dense_urban"), n_samples=4_000)
    blobs = []
    for run in range(2):
        rows = sweep_blocklength(cfg, [100, 500, 1000])
        path = tmp_path / f"run{run}.csv"
        write_csv(str(path), SWEEP_M_COLUMNS, rows)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    print("PASS criterion 11: repeated sweeps with a fixed seed are byte-identical")
