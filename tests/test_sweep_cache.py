"""A sweep draws the Monte Carlo sample and evaluates the quadrature grid once.

The golden CSVs under tests/data were written by the per-row estimators that
re-drew every row; the rows built from one draw's moments of S and W must
reproduce them byte for byte. sweep_eps_suburban_blocks3.csv was written
by the whole-array Monte Carlo chain that the blocked one replaced, and
sweep_m_dense_urban_large.csv (1e6 samples in two shards) by the chain that
kept S and W before the positions were streamed. The
golden dmax and packet-size stdout and verify report pin the outputs that do
not go through a sweep.
"""

import copy
import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uavlink.bound
import uavlink.fbl_rate
import uavlink.montecarlo
import uavlink.quadrature
from oracles import q_function
from test_bound import _dense_sweep_eps
from uavlink.bound import DistanceLimitError, aadr_lower_bound
from uavlink.channel import derive_constants, snr
from uavlink.cli import main, sweep_blocklength, sweep_epsilon
from uavlink.config import (PRESET_NAMES, config_from_dict, config_to_dict, load_preset,
                            preset_config)
from uavlink.fbl_rate import FblConfig, achievable_rate, shannon_rate
from uavlink.geometry import Airspace, sample_positions
from uavlink.montecarlo import McEstimate, _rate_terms, estimate_aadr, estimate_shannon
from uavlink.quadrature import _node_terms, aadr_gcq, legendre_rule

DATA = Path(__file__).parent / "data"
M_VALUES = list(range(100, 1001, 100))
# 40 log-uniform values in [1e-12, 1e-3] at 12 significant digits: many
# distinct q values through the per-row bound path.
_rng = random.Random(1)
DENSE_EPS = ",".join(repr(float(f"{10.0 ** _rng.uniform(-12.0, -3.0):.12g}")) for _ in range(40))


# name: (preset, n_samples, shards). blocks3 gives each of its three shards
# one full Monte Carlo block and a partial one; large is the benchmark's
# Monte Carlo draw.
_ESTIMATOR_CONFIGS = {"shards2": ("dense_urban", 2001, 2),
                      "blocks3": ("suburban", 3 * uavlink.montecarlo._BLOCK + 17, 3),
                      "large": ("dense_urban", 1_000_000, 2)}


def _estimator_configs(tmp_path) -> dict:
    paths = {}
    for name, (preset, n_samples, shards) in _ESTIMATOR_CONFIGS.items():
        data = preset_config(preset)
        data["estimators"].update(n_samples=n_samples, shards=shards)
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(data))
    return paths


@pytest.mark.parametrize("golden,argv", [
    ("sweep_m_dense_urban_seed1.csv", ["sweep-m", "--scenario", "dense_urban", "--seed", "1"]),
    ("sweep_eps_suburban_seed1.csv", ["sweep-eps", "--scenario", "suburban", "--seed", "1"]),
    ("sweep_m_dense_urban_shards2.csv", ["sweep-m", "--config", "{shards2}",
                                         "--m-values", "100,300,1000"]),
    ("sweep_eps_suburban_dense.csv", ["sweep-eps", "--scenario", "suburban", "--seed", "1",
                                      "--n1", "60", "--n2", "60", "--eps-values", DENSE_EPS]),
    ("sweep_eps_suburban_blocks3.csv", ["sweep-eps", "--config", "{blocks3}"]),
    ("sweep_m_dense_urban_large.csv", ["sweep-m", "--config", "{large}"]),
])
def test_sweep_csv_matches_golden_bytes(tmp_path, golden, argv):
    configs = _estimator_configs(tmp_path)
    argv = [a.format(**configs) for a in argv]
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / golden).read_bytes()


@pytest.mark.parametrize("golden,argv", [
    (f"{command}_{scenario}.txt", [command.replace("_", "-"), "--scenario", scenario, *extra])
    for command, extra in (("dmax", []), ("packet_size", ["--t-max", "2e-4"]))
    for scenario in ("dense_urban", "suburban")
])
def test_stdout_matches_golden_text(capsys, golden, argv):
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text(encoding="utf-8")


def test_verify_report_matches_golden_bytes(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "verify.json").read_bytes()


# Runs pytest on its arguments once numpy is seen to dispatch none of the
# features NPY_DISABLE_CPU_FEATURES names.
_AT_SIMD_LEVEL = """
import os, sys, pytest
from numpy._core._multiarray_umath import __cpu_features__
off = os.environ["NPY_DISABLE_CPU_FEATURES"].split()
assert not any(__cpu_features__[name] for name in off), off
sys.exit(pytest.main(sys.argv[1:]))
"""


def test_the_pinned_outputs_hold_at_each_lower_simd_level():
    # numpy picks its SIMD kernels at run time, and some ufuncs round their
    # last bits differently at each level. Rerun the golden-file tests at
    # every dispatch level below this machine's, all at once.
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    dispatch, has = umath.__cpu_dispatch__, umath.__cpu_features__
    # Each level below a dispatched feature the machine has: the features it disables.
    levels = {f"below {feature}": " ".join(f for f in dispatch[k:] if has.get(f))
              for k, feature in enumerate(dispatch) if has.get(feature)}
    if not levels:
        pytest.skip("this machine runs none of numpy's dispatched SIMD levels")
    argv = [sys.executable, "-c", _AT_SIMD_LEVEL, "-q", "-p", "no:cacheprovider",
            "-p", "no:hypothesispytest", __file__, "-k", "golden"]
    runs = {level: subprocess.Popen(argv, cwd=Path(__file__).parent.parent, text=True,
                                     stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                     env={**os.environ, "NPY_DISABLE_CPU_FEATURES": off})
            for level, off in levels.items()}
    failed = {level: run.communicate(timeout=300)[0][-2000:] for level, run in runs.items()}
    failed = {level: out for level, out in failed.items() if runs[level].returncode != 0}
    assert not failed, failed


def _reference_mc(space, consts, n, seed, shards, rate):
    # The per-row estimator the moment form replaces: draw, then rate, per shard.
    base, rem = divmod(n, shards)
    chunks = []
    for i in range(shards):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        d, theta = sample_positions(space, rng, base + 1 if i < rem else base)
        chunks.append(rate(snr(consts, theta, d)))
    return np.concatenate(chunks)


def _reference_gcq(space, consts, cfg, n_theta, n_dist):
    rule_theta, rule_dist = legendre_rule(n_theta), legendre_rule(n_dist)
    theta = 0.5 * (90.0 - space.theta_min_deg) * rule_theta.nodes \
        + 0.5 * (90.0 + space.theta_min_deg)
    d_lo, d_hi = space.r_min_m, space.r_max_m
    dist = 0.5 * (d_hi - d_lo) * rule_dist.nodes + 0.5 * (d_hi + d_lo)
    rate = achievable_rate(snr(consts, theta[None, :], dist[:, None]), cfg)
    outer = np.sum(rule_dist.weights * dist**2 * (rate @ rule_theta.weights))
    return float(0.75 * (d_hi - d_lo) / (d_hi**3 - d_lo**3) * outer)


@pytest.mark.parametrize("m,eps", [(1, 0.4), (200, 1e-9), (5000, 1e-300)])
def test_cached_estimators_equal_per_row_reference(dense_urban, dense_consts, m, eps):
    # A row is E[S] - c E[W]: equal to the per-sample mean up to rounding on
    # the scale of its two terms, and likewise for the standard error.
    space, cfg = dense_urban.airspace, FblConfig(blocklength=m, epsilon=eps)
    c = cfg.q / math.log(2.0)
    n = 3001
    for shards in (1, 3):
        est = estimate_aadr(space, dense_consts, cfg, n=n, seed=9, shards=shards)
        mean_s, mean_w, var_s, _, var_w = _rate_terms(space, dense_consts, n, 9, shards)
        reference = _reference_mc(space, dense_consts, n, 9, shards,
                                  lambda g: achievable_rate(g, cfg))
        assert abs(est.mean - reference.mean()) <= 1e-13 * (abs(mean_s) + c * abs(mean_w))
        spread = math.sqrt(var_s + c * c * var_w) / math.sqrt(n)
        assert abs(est.std_error - reference.std(ddof=1) / math.sqrt(n)) <= 1e-13 * spread

        # Shannon is E[S] itself: the per-sample summary, bit for bit.
        shannon = estimate_shannon(space, dense_consts, n=n, seed=9, shards=shards)
        reference = _reference_mc(space, dense_consts, n, 9, shards, shannon_rate)
        assert shannon.mean == float(reference.mean())
        assert shannon.std_error == float(reference.std(ddof=1) / math.sqrt(n))

    gcq_s, gcq_w = _node_terms(space, dense_consts, 17, 23)
    assert abs(aadr_gcq(space, dense_consts, cfg, 17, 23)
               - _reference_gcq(space, dense_consts, cfg, 17, 23)) \
        <= 1e-13 * (abs(gcq_s) + c * abs(gcq_w))


class _Counted:
    def __init__(self, monkeypatch, module, name):
        self.calls = 0
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def _sweep_config(**changes):
    data = copy.deepcopy(preset_config("dense_urban"))
    data["estimators"].update(n_samples=2000, shards=2)
    for section, values in changes.items():
        data[section].update(values)
    return config_from_dict(data)


def test_a_sweep_draws_once_per_shard_and_grid(monkeypatch):
    draws = _Counted(monkeypatch, uavlink.montecarlo, "sample_positions")
    grids = _Counted(monkeypatch, uavlink.quadrature, "snr")
    ei = _Counted(monkeypatch, uavlink.bound, "exp_integral_ei")
    cfg = _sweep_config()
    rows = sweep_blocklength(cfg, M_VALUES)
    assert len(rows) == 10
    assert draws.calls == cfg.shards
    assert grids.calls == 1
    assert ei.calls == 4

    sweep_blocklength(cfg, M_VALUES)
    assert (draws.calls, grids.calls, ei.calls) == (2 * cfg.shards, 2, 8)


def test_an_in_process_run_does_the_work_of_a_fresh_process(monkeypatch, tmp_path):
    draws = _Counted(monkeypatch, uavlink.montecarlo, "sample_positions")
    grids = _Counted(monkeypatch, uavlink.quadrature, "snr")
    config = _estimator_configs(tmp_path)["shards2"]
    outputs = []
    for run in (1, 2):
        outputs.append(tmp_path / f"run{run}.csv")
        assert main(["sweep-m", "--config", str(config), "--out", str(outputs[-1])]) == 0
        assert (draws.calls, grids.calls) == (2 * run, run)
    assert outputs[0].read_bytes() == outputs[1].read_bytes()


def test_a_sweep_computes_q_once_per_row(monkeypatch):
    qinv = _Counted(monkeypatch, uavlink.fbl_rate, "q_inverse")
    rows = sweep_epsilon(_sweep_config(), [1e-9, 1e-6, 1e-3])
    assert len(rows) == 3
    assert qinv.calls == 3


def test_a_sweep_decides_every_row_with_one_evaluation_of_g(monkeypatch):
    # g is decreasing, so whether each row's bound holds is one comparison of
    # its q with g at the airspace's weakest SNR; no row needs a root.
    g = _Counted(monkeypatch, uavlink.bound, "_g")
    g_inverse = _Counted(monkeypatch, uavlink.bound, "g_inverse")
    qinv = _Counted(monkeypatch, uavlink.fbl_rate, "q_inverse")
    rows = sweep_epsilon(_sweep_config(), _dense_sweep_eps(1))
    assert len(rows) == 400
    assert qinv.calls == 400
    assert (g.calls, g_inverse.calls) == (1, 0)


def _per_row_composition(cfg, fbl):
    # A row as the public per-config estimators give it.
    space, consts = cfg.airspace, derive_constants(cfg.scenario, cfg.link)
    draw = {"n": cfg.n_samples, "seed": cfg.seed, "shards": cfg.shards}
    mc = estimate_aadr(space, consts, fbl, **draw)
    try:
        bound = aadr_lower_bound(space, consts, fbl)
    except DistanceLimitError:
        bound = math.nan
    return {"shannon_mc": estimate_shannon(space, consts, **draw).mean, "aadr_mc": mc.mean,
            "aadr_mc_stderr": mc.std_error,
            "aadr_gcq": aadr_gcq(space, consts, fbl, cfg.n_theta, cfg.n_dist),
            "aadr_lb": bound}


def _bits(row):
    return {key: value if key in ("M", "epsilon") else float.hex(value)
            for key, value in row.items()}


@pytest.mark.parametrize("name", PRESET_NAMES)
@pytest.mark.parametrize("column,values", [
    *[("epsilon", _dense_sweep_eps(seed)) for seed in (1, 2, 3)],
    ("M", [1, 2, 50, 200, 1000]),
])
def test_sweep_rows_equal_the_public_estimators_row_by_row(name, column, values):
    cfg = load_preset(name)
    if column == "M":
        rows = sweep_blocklength(cfg, values)
        configs = [dataclasses.replace(cfg.fbl, blocklength=m) for m in values]
    else:
        rows = sweep_epsilon(cfg, values)
        configs = [dataclasses.replace(cfg.fbl, epsilon=eps) for eps in values]
    expected = [{column: value, **_per_row_composition(cfg, fbl)}
                for value, fbl in zip(values, configs)]
    assert [_bits(row) for row in rows] == [_bits(row) for row in expected]
    assert all(type(row[key]) is float for row in rows for key in row if key != "M")


def test_a_sweep_config_with_epsilon_above_one_half_is_not_built(dense_urban):
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 0\.5\), got 0\.6$"):
        dataclasses.replace(dense_urban, fbl=FblConfig(blocklength=200, epsilon=0.6))


def test_the_lower_bound_rows_at_q_zero_are_jensen_on_log(dense_urban, dense_consts):
    space = dense_urban.airspace
    rows = uavlink.bound._lower_bound_rows(space, dense_consts, np.zeros(2))
    mean_inv = uavlink.bound.expected_inverse_snr(space, dense_consts)
    assert rows.tolist() == [math.log1p(1.0 / mean_inv) / math.log(2.0)] * 2
    assert rows[0] == uavlink.bound._lower_bound_rows(space, dense_consts, 0.0)


def test_q_is_not_a_field():
    fbl = FblConfig(blocklength=200, epsilon=1e-9)
    assert fbl.q == fbl.q
    assert dataclasses.replace(fbl).q == fbl.q
    assert dataclasses.replace(fbl, epsilon=1e-6).q < fbl.q

    fresh, used = _sweep_config(), _sweep_config()
    digest = hashlib.sha256(json.dumps(config_to_dict(fresh), sort_keys=True).encode())
    assert used.fbl.q > 0.0
    assert used == fresh and hash(used.fbl) == hash(fresh.fbl)
    assert dataclasses.asdict(used.fbl) == {"blocklength": 200, "epsilon": 1e-9}
    assert config_to_dict(used) == config_to_dict(fresh)
    assert hashlib.sha256(json.dumps(config_to_dict(used), sort_keys=True).encode()).digest() \
        == digest.digest()


@pytest.mark.parametrize("change", [
    {"estimators": {"seed": 2}},
    {"estimators": {"n_samples": 2001}},
    {"airspace": {"r_max_m": 380.0}},
])
def test_a_changed_input_gives_a_fresh_draw(change):
    changed = _sweep_config(**change)
    first = sweep_blocklength(_sweep_config(), M_VALUES[:2])
    second = sweep_blocklength(changed, M_VALUES[:2])
    assert [r["aadr_mc"] for r in first] != [r["aadr_mc"] for r in second]
    assert sweep_blocklength(changed, M_VALUES[:2]) == second


def test_cached_terms_are_floats(dense_urban, dense_consts):
    space = dense_urban.airspace
    cached = [*_rate_terms(space, dense_consts, 100, 1, 1), *_node_terms(space, dense_consts, 5, 6)]
    assert len(cached) == 7
    assert all(type(value) is float for value in cached)
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    for est in (estimate_aadr(space, dense_consts, cfg, n=100, seed=1),
                estimate_shannon(space, dense_consts, n=100, seed=1)):
        assert [type(v) for v in vars(est).values()] == [float, float]
    assert [f.name for f in dataclasses.fields(McEstimate)] == ["mean", "std_error"]


def test_std_error_of_a_nearly_constant_rate_is_finite(dense_consts):
    # A 3 mm shell straight overhead at 30 km (SNR about 0.14): S and W are
    # almost affine in the SNR, and at c = Cov(S, W)/Var W the combined
    # variance Var S - 2c Cov + c^2 Var W cancels down to rounding noise.
    shell = Airspace(r_min_m=3e4 * (1.0 - 1e-7), r_max_m=3e4, theta_min_deg=90.0 - 1e-12)
    _, _, var_s, cov_sw, var_w = _rate_terms(shell, dense_consts, 2000, 2, 1)
    eps = q_function(cov_sw / var_w * math.log(2.0))
    for k in range(-40, 41):
        cfg = FblConfig(blocklength=1, epsilon=eps + k * float(np.spacing(eps)))
        est = estimate_aadr(shell, dense_consts, cfg, n=2000, seed=2)
        assert math.isfinite(est.std_error) and est.std_error >= 0.0
        assert est.std_error <= 1e-7 * math.sqrt(var_s / 2000)


def test_a_combined_variance_rounded_below_zero_gives_zero_std_error(monkeypatch, dense_urban,
                                                                     dense_consts):
    # Moments whose sums rounded past Cauchy-Schwarz: Var S - 2c Cov + c^2 Var W < 0.
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    c = cfg.q / math.log(2.0)
    moments = (9.0, 1.0, c * c, c * (1.0 + 1e-12), 1.0)
    monkeypatch.setattr(uavlink.montecarlo, "_rate_terms", lambda *args: moments)
    est = estimate_aadr(dense_urban.airspace, dense_consts, cfg, n=100, seed=1)
    assert est == McEstimate(mean=9.0 - c, std_error=0.0)


def test_non_positive_snr_is_rejected(monkeypatch, dense_urban, dense_consts):
    def underflowed(consts, theta, d):
        return np.zeros(np.broadcast(theta, d).shape)

    monkeypatch.setattr(uavlink.montecarlo, "snr", underflowed)
    monkeypatch.setattr(uavlink.quadrature, "snr", underflowed)
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    with pytest.raises(ValueError, match="SNR must be positive"):
        estimate_shannon(dense_urban.airspace, dense_consts, n=10, seed=1)
    with pytest.raises(ValueError, match="SNR must be positive"):
        aadr_gcq(dense_urban.airspace, dense_consts, cfg, 4, 4)
