"""A sweep draws the Monte Carlo sample and evaluates the quadrature grid once.

The golden CSVs under tests/data were written by the per-row estimators that
re-drew every row; the cached q-free terms must reproduce them byte for byte.
The golden dmax and packet-size stdout and verify report pin the outputs that
do not go through a sweep.
"""

import copy
import dataclasses
import hashlib
import json
import random
from pathlib import Path

import numpy as np
import pytest

import uavlink.bound
import uavlink.fbl_rate
import uavlink.montecarlo
import uavlink.quadrature
from uavlink.channel import snr
from uavlink.cli import main, sweep_blocklength, sweep_epsilon
from uavlink.config import config_from_dict, config_to_dict, preset_config
from uavlink.fbl_rate import FblConfig, achievable_rate
from uavlink.geometry import sample_positions
from uavlink.montecarlo import _rate_terms, estimate_aadr, estimate_shannon
from uavlink.quadrature import _node_terms, aadr_gcq, legendre_rule

DATA = Path(__file__).parent / "data"
M_VALUES = list(range(100, 1001, 100))
# 40 log-uniform values in [1e-12, 1e-3] at 12 significant digits: many
# distinct q values through the per-row bound path.
_rng = random.Random(1)
DENSE_EPS = ",".join(repr(float(f"{10.0 ** _rng.uniform(-12.0, -3.0):.12g}")) for _ in range(40))


@pytest.fixture(autouse=True)
def _empty_caches():
    for cached in (_rate_terms, _node_terms, uavlink.bound.expected_inverse_snr):
        cached.cache_clear()


def _shards2_config(tmp_path) -> Path:
    data = preset_config("dense_urban")
    data["estimators"].update(n_samples=2001, shards=2)
    path = tmp_path / "shards2.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("golden,argv", [
    ("sweep_m_dense_urban_seed1.csv", ["sweep-m", "--scenario", "dense_urban", "--seed", "1"]),
    ("sweep_eps_suburban_seed1.csv", ["sweep-eps", "--scenario", "suburban", "--seed", "1"]),
    ("sweep_m_dense_urban_shards2.csv", ["sweep-m", "--config", "{shards2}",
                                         "--m-values", "100,300,1000"]),
    ("sweep_eps_suburban_dense.csv", ["sweep-eps", "--scenario", "suburban", "--seed", "1",
                                      "--n1", "60", "--n2", "60", "--eps-values", DENSE_EPS]),
])
def test_sweep_csv_matches_golden_bytes(tmp_path, golden, argv):
    argv = [a.format(shards2=_shards2_config(tmp_path)) for a in argv]
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


def _reference_mc(space, consts, cfg, n, seed, shards):
    # The per-row estimator the cache replaces: draw, then rate, per shard.
    base, rem = divmod(n, shards)
    chunks = []
    for i in range(shards):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        d, theta = sample_positions(space, rng, base + 1 if i < rem else base)
        chunks.append(achievable_rate(snr(consts, theta, d), cfg))
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
def test_cached_estimators_equal_per_row_reference(monkeypatch, dense_urban, dense_consts,
                                                   m, eps):
    summarized = []
    summary = uavlink.montecarlo._summary

    def keep_values(values, seed):
        summarized.append(values.copy())
        return summary(values, seed)

    monkeypatch.setattr(uavlink.montecarlo, "_summary", keep_values)
    space, cfg = dense_urban.airspace, FblConfig(blocklength=m, epsilon=eps)
    for shards in (1, 3):
        est = estimate_aadr(space, dense_consts, cfg, n=3001, seed=9, shards=shards)
        reference = _reference_mc(space, dense_consts, cfg, 3001, 9, shards)
        assert np.array_equal(summarized.pop(), reference)  # per sample, not just the mean
        assert est.mean == float(reference.mean())
        assert est.std_error == float(reference.std(ddof=1) / np.sqrt(3001))
    assert aadr_gcq(space, dense_consts, cfg, 17, 23) == _reference_gcq(
        space, dense_consts, cfg, 17, 23)


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
    assert (draws.calls, grids.calls, ei.calls) == (cfg.shards, 1, 4)


def test_a_sweep_computes_q_once_per_row(monkeypatch):
    qinv = _Counted(monkeypatch, uavlink.fbl_rate, "q_inverse")
    rows = sweep_epsilon(_sweep_config(), [1e-9, 1e-6, 1e-3])
    assert len(rows) == 3
    assert qinv.calls == 3


def test_q_is_cached_per_config_and_not_a_field(monkeypatch):
    qinv = _Counted(monkeypatch, uavlink.fbl_rate, "q_inverse")
    fbl = FblConfig(blocklength=200, epsilon=1e-9)
    assert fbl.q == fbl.q
    assert qinv.calls == 1
    same = dataclasses.replace(fbl)
    assert same.q == fbl.q
    assert qinv.calls == 2
    assert dataclasses.replace(fbl, epsilon=1e-6).q < fbl.q
    assert qinv.calls == 3

    fresh, used = _sweep_config(), _sweep_config()
    digest = hashlib.sha256(json.dumps(config_to_dict(fresh), sort_keys=True).encode())
    assert used.fbl.q > 0.0
    assert "q" in vars(used.fbl) and "q" not in vars(fresh.fbl)
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
def test_a_changed_input_gives_a_fresh_draw(monkeypatch, change):
    draws = _Counted(monkeypatch, uavlink.montecarlo, "sample_positions")
    grids = _Counted(monkeypatch, uavlink.quadrature, "snr")
    base, changed = _sweep_config(), _sweep_config(**change)

    first = sweep_blocklength(base, M_VALUES[:2])
    second = sweep_blocklength(changed, M_VALUES[:2])
    assert draws.calls == 2 * base.shards
    assert grids.calls == (2 if "airspace" in change else 1)
    assert [r["aadr_mc"] for r in first] != [r["aadr_mc"] for r in second]

    for cached in (_rate_terms, _node_terms, uavlink.bound.expected_inverse_snr):
        cached.cache_clear()
    assert sweep_blocklength(changed, M_VALUES[:2]) == second


def test_cached_terms_are_read_only(dense_urban, dense_consts):
    space = dense_urban.airspace
    arrays = [*_rate_terms(space, dense_consts, 100, 1, 1),
              *_node_terms(space, dense_consts, 5, 6)[:4]]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_non_positive_snr_is_rejected_and_not_cached(monkeypatch, dense_urban, dense_consts):
    def underflowed(consts, theta, d):
        return np.zeros(np.broadcast(theta, d).shape)

    monkeypatch.setattr(uavlink.montecarlo, "snr", underflowed)
    monkeypatch.setattr(uavlink.quadrature, "snr", underflowed)
    cfg = FblConfig(blocklength=200, epsilon=1e-9)
    with pytest.raises(ValueError, match="SNR must be positive"):
        estimate_shannon(dense_urban.airspace, dense_consts, n=10, seed=1)
    with pytest.raises(ValueError, match="SNR must be positive"):
        aadr_gcq(dense_urban.airspace, dense_consts, cfg, 4, 4)
    assert _rate_terms.cache_info().currsize == 0
    assert _node_terms.cache_info().currsize == 0
