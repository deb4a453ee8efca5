import copy
import json
import math
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import uavlink.lemmas
from uavlink.channel import snr
from uavlink.cli import (
    SWEEP_EPS_COLUMNS,
    SWEEP_M_COLUMNS,
    main,
    packet_size,
    report_dmax,
    sweep_blocklength,
    sweep_epsilon,
    write_csv,
)
from uavlink.config import config_from_dict, load_preset, preset_config
from uavlink.fbl_rate import FblConfig, shannon_rate
from uavlink.geometry import pdf_distance, pdf_elevation
from uavlink.lemmas import run_lemma_suite
from uavlink.quadrature import integrate, legendre_rule


def _small_cfg(name="dense_urban", **changes):
    data = copy.deepcopy(preset_config(name))
    data["estimators"]["n_samples"] = 2_000
    for section, values in changes.items():
        data[section].update(values)
    return config_from_dict(data)


def test_sweep_blocklength_rows_and_ordering():
    cfg = _small_cfg()
    rows = sweep_blocklength(cfg, [100, 200, 500])
    assert [r["M"] for r in rows] == [100, 200, 500]
    for row in rows:
        assert set(row) == set(SWEEP_M_COLUMNS)
        assert row["aadr_lb"] <= row["aadr_mc"] + 3.0 * row["aadr_mc_stderr"]
        assert row["aadr_mc"] <= row["shannon_mc"]
    gcq = [r["aadr_gcq"] for r in rows]
    assert np.all(np.diff(gcq) > 0.0)


def test_sweep_blocklength_validates_input():
    cfg = _small_cfg()
    with pytest.raises(ValueError):
        sweep_blocklength(cfg, [])
    with pytest.raises(ValueError):
        sweep_blocklength(cfg, [100, 0])
    with pytest.raises(ValueError):
        sweep_blocklength(cfg, [100.5])


def test_sweep_blocklength_penalty_free_matches_shannon_quadrature():
    # The config loader rejects eps = 0.5, where q = 0; the library takes it.
    cfg = replace(_small_cfg(), fbl=FblConfig(blocklength=200, epsilon=0.5))
    rows = sweep_blocklength(cfg, [200])
    space = cfg.airspace
    from uavlink.channel import derive_constants

    consts = derive_constants(cfg.scenario, cfg.link)

    def inner(x):
        return integrate(
            legendre_rule(30),
            lambda th: pdf_elevation(space, th) * shannon_rate(snr(consts, th, x)),
            space.theta_min_deg, 90.0,
        )

    reference = integrate(
        legendre_rule(30),
        lambda xs: np.array([pdf_distance(space, x) * inner(x) for x in np.atleast_1d(xs)]),
        space.r_min_m, space.r_max_m,
    )
    assert rows[0]["aadr_gcq"] == pytest.approx(reference, rel=1e-12)


def test_sweep_epsilon_rows_monotone():
    cfg = _small_cfg()
    eps_values = [1e-12, 1e-9, 1e-6, 1e-3]
    rows = sweep_epsilon(cfg, eps_values)
    assert [r["epsilon"] for r in rows] == eps_values
    gcq = [r["aadr_gcq"] for r in rows]
    assert np.all(np.diff(gcq) > 0.0)
    for row in rows:
        assert set(row) == set(SWEEP_EPS_COLUMNS)


def test_sweep_epsilon_approaches_shannon():
    cfg = _small_cfg()
    rows = sweep_epsilon(cfg, [0.499])
    gap = rows[0]["shannon_mc"] - rows[0]["aadr_gcq"]
    # the Monte Carlo column carries its own sampling offset
    assert abs(gap) < 0.05


def test_sweep_epsilon_rejects_out_of_range():
    cfg = _small_cfg()
    with pytest.raises(ValueError):
        sweep_epsilon(cfg, [0.5])
    with pytest.raises(ValueError):
        sweep_epsilon(cfg, [0.0])


def test_write_csv_format(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b"), [{"a": 1, "b": 0.1234567890123456}])
    text = path.read_text()
    assert text == "a,b\n1,0.123456789012\n"


def test_packet_size_channel_uses():
    result = packet_size(1e6, 2e-4, 5.0)
    assert result.channel_uses == pytest.approx(200.0, rel=1e-15)
    assert result.packet_bits == pytest.approx(1000.0, rel=1e-15)
    assert packet_size(1e6, 1e-4, 5.0).channel_uses == pytest.approx(100.0, rel=1e-15)


def test_packet_size_zero_rate():
    assert packet_size(1e6, 2e-4, 0.0).packet_bits == 0.0


def test_packet_size_validation():
    with pytest.raises(ValueError):
        packet_size(0.0, 2e-4, 5.0)
    with pytest.raises(ValueError):
        packet_size(1e6, 0.0, 5.0)
    with pytest.raises(ValueError):
        packet_size(1e6, 2e-4, -1.0)


@pytest.mark.parametrize("args", [
    (math.nan, 2e-4, 5.0), (math.inf, 2e-4, 5.0), (1e6, math.nan, 5.0), (1e6, math.inf, 5.0),
    (1e6, 2e-4, math.nan), (1e6, 2e-4, math.inf), (1e6, 1e305, 5.0),
])
def test_packet_size_rejects_non_finite_input(args):
    with pytest.raises(ValueError):
        packet_size(*args)


def test_report_dmax_default_ok():
    cfg = load_preset("dense_urban")
    limit, ok = report_dmax(cfg)
    assert ok
    assert limit > cfg.airspace.r_max_m


def test_report_dmax_flags_oversized_airspace():
    cfg = _small_cfg(airspace={"r_max_m": 5000.0})
    _, ok = report_dmax(cfg)
    assert not ok


def test_cli_sweep_m_writes_deterministic_csv(tmp_path, capsys):
    out = tmp_path / "m.csv"
    args = ["sweep-m", "--scenario", "suburban", "--samples", "2000",
            "--m-values", "100,300", "--seed", "7", "--out", str(out)]
    assert main(args) == 0
    first = out.read_bytes()
    header = first.decode().splitlines()[0]
    assert header == ",".join(SWEEP_M_COLUMNS)
    assert len(first.decode().splitlines()) == 3
    assert main(args) == 0
    assert out.read_bytes() == first


def test_cli_sweep_m_writes_nan_bound_beyond_d_max(tmp_path, capsys):
    # d_max is about 50 m at M = 1, inside the 400 m airspace: only that
    # row's bound is invalid, and its MC and GCQ cells still are not.
    out = tmp_path / "m.csv"
    assert main(["sweep-m", "--scenario", "dense_urban", "--seed", "1",
                 "--m-values", "1,200", "--out", str(out)]) == 0
    header, m1, m200 = out.read_text().splitlines()
    cells = dict(zip(header.split(","), m1.split(",")))
    assert cells["aadr_lb"] == "nan"
    assert all(math.isfinite(float(cells[c]))
               for c in ("shannon_mc", "aadr_mc", "aadr_mc_stderr", "aadr_gcq"))
    golden = (Path(__file__).parent / "data" / "sweep_m_dense_urban_seed1.csv").read_text()
    assert m200 in golden.splitlines()
    assert m200.startswith("200,")


def test_cli_sweep_eps(tmp_path):
    out = tmp_path / "eps.csv"
    assert main(["sweep-eps", "--samples", "2000", "--eps-values", "1e-9,1e-6",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_EPS_COLUMNS)
    assert len(lines) == 3


def test_cli_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("UAVLINK_OUT_DIR", str(tmp_path))
    assert main(["sweep-eps", "--samples", "2000", "--eps-values", "1e-9"]) == 0
    assert (tmp_path / "sweep_eps.csv").exists()


def test_cli_config_file(tmp_path):
    data = copy.deepcopy(preset_config("suburban"))
    data["estimators"]["n_samples"] = 2_000
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "m.csv"
    assert main(["sweep-m", "--config", str(cfg_path), "--m-values", "200",
                 "--out", str(out)]) == 0
    assert out.exists()


def test_cli_dmax_exit_codes(tmp_path, capsys):
    assert main(["dmax", "--scenario", "dense_urban"]) == 0
    captured = capsys.readouterr()
    assert "d_max" in captured.out
    assert "56.4" in captured.out  # reference-figure note

    data = copy.deepcopy(preset_config("dense_urban"))
    data["airspace"]["r_max_m"] = 5000.0
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["dmax", "--config", str(cfg_path)]) == 1


@pytest.mark.parametrize("command", ["sweep-m", "dmax"])
@pytest.mark.parametrize("epsilon", [0.5, 0.6])
def test_cli_rejects_a_config_epsilon_outside_the_bound_domain(tmp_path, capsys, command,
                                                               epsilon):
    data = preset_config("dense_urban")
    data["fbl"]["epsilon"] = epsilon
    cfg_path = tmp_path / "eps.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"error: fbl.epsilon must lie in (0, 0.5), got {epsilon}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["sweep-m", "--m-values", "200"], ["dmax"]])
def test_cli_accepts_a_config_epsilon_inside_the_bound_domain(tmp_path, capsys, extra):
    data = copy.deepcopy(preset_config("dense_urban"))
    data["estimators"]["n_samples"] = 2_000
    data["fbl"]["epsilon"] = 0.1
    cfg_path = tmp_path / "eps.json"
    cfg_path.write_text(json.dumps(data))
    assert main([*extra, "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 0
    assert "eps=0.1" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["sweep-m", "dmax"])
def test_cli_rejects_airspace_too_large_for_floats(tmp_path, capsys, command):
    data = preset_config("dense_urban")
    data["airspace"]["r_max_m"] = 1e62
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(data))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o.csv")]) == 2
    assert "error: r_max=1e+62 m is too large" in capsys.readouterr().err


def test_cli_packet_size(capsys):
    assert main(["packet-size", "--t-max", "2e-4"]) == 0
    out = capsys.readouterr().out
    assert "M = B*T_max = 200" in out

    assert main(["packet-size", "--t-max", "1e-4", "--aadr", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "100" in out
    assert "400" in out


def test_cli_packet_size_rejects_tiny_budget(capsys):
    assert main(["packet-size", "--t-max", "1e-9"]) == 2


@pytest.mark.parametrize("argv,flag", [
    (["--t-max", "nan"], "--t-max"),
    (["--t-max", "inf"], "--t-max"),
    (["--t-max", "nan", "--aadr", "2"], "--t-max"),
    (["--t-max", "2e-4", "--aadr", "nan"], "--aadr"),
    (["--t-max", "2e-4", "--aadr", "inf"], "--aadr"),
])
def test_cli_packet_size_rejects_non_finite_flags(capsys, argv, flag):
    assert main(["packet-size", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be")


@pytest.mark.parametrize("extra", [[], ["--aadr", "3"]])
def test_cli_packet_size_rejects_an_overflowing_budget(capsys, extra):
    assert main(["packet-size", "--t-max", "1e305", *extra]) == 2
    assert "B*T_max = inf" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["nan", "inf"])
def test_cli_verify_rejects_non_finite_q(capsys, q):
    assert main(["verify", "--q-values", f"0.2,{q}"]) == 2
    assert f"error: g_inverse needs a finite q > 0, got q={q}" in capsys.readouterr().err


def test_cli_verify_rejects_q_outside_the_domain_of_g_inverse(capsys):
    assert main(["verify", "--q-values", "1000"]) == 2
    assert "error: g_inverse needs q in [1e-31, 700], got q=1000.0" in capsys.readouterr().err


def test_cli_verify_passes_where_the_root_is_below_the_fixed_grid_start(tmp_path):
    # For q above about 13.8, g_inverse(q) < 1e-6; 38.5 is about the largest
    # q a configuration reaches.
    report_path = tmp_path / "report.json"
    assert main(["verify", "--q-values", "14,30,38.5", "--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["all_passed"] is True


def test_lemma_suite_runs_without_runtime_warnings_over_the_domain_of_g_inverse():
    for q in np.geomspace(1e-31, 700.0, 41):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if q <= uavlink.lemmas.MAX_Q:
                run_lemma_suite(q_values=(float(q),))
            else:
                with pytest.raises(ValueError, match="the lemma suite needs q <= 300"):
                    run_lemma_suite(q_values=(float(q),))


def test_cli_verify_rejects_a_huge_grid_before_building_it(monkeypatch, capsys):
    def unreachable(q):
        raise AssertionError("the grid size must be checked before any grid is built")

    monkeypatch.setattr(uavlink.lemmas, "g_inverse", unreachable)
    assert main(["verify", "--grid-points", str(10**9)]) == 2
    assert "error: grid_points must lie in [2, 1000000], got 1000000000" in capsys.readouterr().err
    with pytest.raises(ValueError, match="grid_points"):
        run_lemma_suite(grid_points=10**6 + 1)


def test_cli_verify_passes(tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--grid-points", "200", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    assert report["grid_points"] == 200
    names = {c["name"] for c in report["checks"]}
    assert {"f_nonnegative", "f_decreasing", "f_convex",
            "g_decreasing", "g1_dominates_g",
            "g2_dominates_g"} == names
    for check in report["checks"]:
        assert check["points"] >= 200
        assert "tolerance" in check
        assert "grid" in check


def test_lemma_suite_detects_injected_sign_flip():
    # a sign-flipped implementation must break the nonnegativity lemma
    from uavlink.bound import f_penalized

    def perturbed(x, q):
        return -f_penalized(x, q)

    report = run_lemma_suite(q_values=(0.6,), grid_points=100, f_impl=perturbed)
    by_name = {c["name"]: c for c in report["checks"]}
    assert not report["all_passed"]
    assert not by_name["f_nonnegative"]["passed"]


def test_lemma_suite_rejects_tiny_grid():
    with pytest.raises(ValueError):
        run_lemma_suite(grid_points=1)


@pytest.mark.parametrize("command", ["sweep-m", "dmax"])
@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_cli_rejects_a_seed_outside_the_philox_key_range(tmp_path, capsys, command, seed):
    out = tmp_path / "o.csv"
    assert main([command, "--seed", seed, "--out", str(out)]) == 2
    assert f"error: estimators.seed must lie in [0, 2**128), got {seed}" \
        in capsys.readouterr().err
    assert not out.exists()


def test_cli_reports_a_sample_count_too_large_to_allocate(tmp_path, capsys):
    # 10^15 doubles (7 PiB) fail at the first allocation.
    out = tmp_path / "o.csv"
    assert main(["sweep-m", "--samples", str(10**15), "--m-values", "100",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: Unable to allocate")
    assert not out.exists()


def test_cli_accepts_the_largest_seed(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["sweep-m", "--seed", str(2**128 - 1), "--samples", "100",
                 "--m-values", "200", "--out", str(out)]) == 0
    assert out.exists()
