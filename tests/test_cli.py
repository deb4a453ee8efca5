import argparse
import copy
import json
import math
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import uavlink.bound
import uavlink.cli
from oracles import shannon_gcq_oracle
from uavlink.bound import d_max
from uavlink.channel import derive_constants, snr
from uavlink.cli import (
    SWEEP_EPS_COLUMNS,
    SWEEP_M_COLUMNS,
    build_parser,
    main,
    sweep_blocklength,
    sweep_epsilon,
    write_csv,
)
from uavlink.config import RunConfig, config_from_dict, load_preset, preset_config
from uavlink.fbl_rate import FblConfig
from uavlink.lemmas import run_lemma_suite
from uavlink.quadrature import _node_terms, aadr_gcq


def _small_cfg(name="dense_urban", **changes):
    data = copy.deepcopy(preset_config(name))
    data["estimators"]["n_samples"] = 2_000
    for section, values in changes.items():
        data[section].update(values)
    return config_from_dict(data)


def _config_file(tmp_path, name="dense_urban", **changes):
    """Path of a JSON config: preset name with each section's entries updated from changes."""
    data = preset_config(name)
    for section, values in changes.items():
        data[section].update(values)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def _with_out(argv, out):
    """argv, with --out out for the sweeps: dmax and packet-size write no file."""
    return argv if argv[0] in ("dmax", "packet-size") else [*argv, "--out", str(out)]


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


def test_the_sweeps_penalty_free_gcq_term_matches_shannon_quadrature():
    # A sweep's aadr_gcq column is S - (q / ln 2) W over these node sums.
    cfg = _small_cfg()
    s_term = _node_terms(cfg.airspace, cfg.consts, cfg.n_theta, cfg.n_dist)[0]
    assert s_term == pytest.approx(shannon_gcq_oracle(cfg.airspace, cfg.consts), rel=1e-12)


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


def test_cli_sweep_gives_the_bound_below_the_domain_of_g_inverse(tmp_path, capsys):
    # M = 10**77 puts q = 1.9e-38 below g_inverse's domain. Deciding the row
    # needs no root, and the bound holds there.
    out = tmp_path / "m.csv"
    assert main(["sweep-m", "--m-values", str(10**77), "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["aadr_lb"] == "9.61900449204"


def test_cli_dmax_rejects_q_below_the_domain_of_g_inverse(tmp_path, capsys):
    # M has no upper bound, so a config can reach below g_inverse's domain;
    # d_max needs the root and so names the domain.
    data = copy.deepcopy(preset_config("dense_urban"))
    data["fbl"]["blocklength"] = 10**77
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["dmax", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.startswith("error: g_inverse needs q in [1e-31, 700], got q=")


def test_cli_sweep_eps(tmp_path):
    out = tmp_path / "eps.csv"
    assert main(["sweep-eps", "--samples", "2000", "--eps-values", "1e-9,1e-6",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_EPS_COLUMNS)
    assert len(lines) == 3


def test_cli_writes_to_the_config_output_directory_without_out(tmp_path):
    data = preset_config("dense_urban")
    data["output"] = {"directory": str(tmp_path)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    assert main(["sweep-eps", "--config", str(cfg_path), "--samples", "2000",
                 "--eps-values", "1e-9"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "sweep_eps.csv"]


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
    assert "airspace r_max = 5000 m -> EXCEEDS the convexity limit" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["dense_urban", "suburban"])
@pytest.mark.parametrize("offset, status", [(-1e-11, 0), (1e-11, 1)])
def test_cli_dmax_exits_1_exactly_beyond_d_max(tmp_path, capsys, name, offset, status):
    # An airspace a relative 1e-11 inside d_max is within it, and one as far
    # beyond exceeds it: the verdict is r_max <= d_max, as printed.
    cfg = load_preset(name)
    limit = d_max(derive_constants(cfg.scenario, cfg.link), cfg.fbl)
    r_max = limit * (1.0 + offset)
    assert main(["dmax", "--config", _config_file(tmp_path, name,
                                                  airspace={"r_max_m": r_max})]) == status
    out = capsys.readouterr().out
    assert f"d_max = {limit:.6g} m" in out
    assert f"-> {'EXCEEDS' if status else 'within'} the convexity limit" in out


@pytest.mark.parametrize("text,message", [
    ("3", "config must be an object, got 3"),
    ('{"scenario": 3}', "config section 'scenario' must be an object, got 3"),
    (json.dumps({**preset_config("dense_urban"), "airspace": {"r_min_m": 250.0,
                 "r_max_m": None, "theta_min_deg": 45.0}}),
     "airspace.r_max_m must be a number, got None"),
])
def test_cli_rejects_a_config_value_that_is_not_a_number(tmp_path, capsys, text, message):
    # each once ended in a TypeError traceback and status 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    assert main(["dmax", "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize("section,key", [("output", "directory"), ("scenario", "name")])
@pytest.mark.parametrize("value", [None, 200, [1], True])
def test_cli_rejects_a_config_text_field_that_is_not_a_string_before_drawing(
        tmp_path, capsys, monkeypatch, section, key, value):
    # A null directory once computed the whole sweep, then failed to write
    # None/sweep_m.csv.
    def no_draw(*args, **kwargs):
        raise AssertionError("drew positions")

    monkeypatch.setattr("uavlink.montecarlo.sample_positions", no_draw)
    data = preset_config("dense_urban")
    data[section][key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    monkeypatch.chdir(tmp_path)
    assert main(["sweep-m", "--config", str(cfg_path), "--m-values", "200"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {section}.{key} must be a string, got {value!r}\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("command", ["sweep-m", "dmax"])
@pytest.mark.parametrize("epsilon", [0.5, 0.6])
def test_cli_rejects_a_config_epsilon_outside_the_bound_domain(tmp_path, capsys, command,
                                                               epsilon):
    data = preset_config("dense_urban")
    data["fbl"]["epsilon"] = epsilon
    cfg_path = tmp_path / "eps.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    assert main(_with_out([command, "--config", str(cfg_path)], out)) == 2
    assert f"error: epsilon must lie in (0, 0.5), got {epsilon}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", [["sweep-m", "--m-values", "200"], ["dmax"]])
def test_cli_accepts_a_config_epsilon_inside_the_bound_domain(tmp_path, capsys, extra):
    data = copy.deepcopy(preset_config("dense_urban"))
    data["estimators"]["n_samples"] = 2_000
    data["fbl"]["epsilon"] = 0.1
    cfg_path = tmp_path / "eps.json"
    cfg_path.write_text(json.dumps(data))
    assert main(_with_out([*extra, "--config", str(cfg_path)], tmp_path / "o.csv")) == 0
    assert "eps=0.1" in capsys.readouterr().out


_LINK_CONSTANTS = ("the link fields (tx_power_dbw, noise_psd_dbm_hz, bandwidth_hz, carrier_hz, "
                   "light_speed_m_s) and eta_los_db, eta_nlos_db give a_tilde=4.927532099007258, "
                   "c_db={} and c_tilde={}; need them finite and c_tilde > 0")


@pytest.mark.parametrize("command", ["sweep-m", "dmax", "packet-size"])
@pytest.mark.parametrize("key,value,message", [
    ("light_speed_m_s", 0, "light_speed_m_s must be finite and positive, got 0.0"),
    ("bandwidth_hz", math.nan, "bandwidth_hz must be finite and positive, got nan"),
    ("tx_power_db", math.inf, "tx_power_dbw must be finite, got inf"),
    ("carrier_hz", math.inf, "carrier_hz must be finite and positive, got inf"),
    ("carrier_hz", 1e300, _LINK_CONSTANTS.format(5875.441772186048, 0.0)),
    ("tx_power_db", 1e300, _LINK_CONSTANTS.format(63.40057235948943, math.inf)),
])
def test_cli_rejects_a_non_finite_channel_parameter(tmp_path, capsys, command, key, value,
                                                    message):
    # Each once gave a traceback (light speed 0) or a d_max of nan, inf or 0; the
    # finite 1e300 values a d_max of 0 or an OverflowError naming no field.
    data = preset_config("dense_urban")
    data["link"][key] = value
    cfg_path = tmp_path / "link.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    argv = _with_out([command, "--config", str(cfg_path)], out)
    assert main([*argv, "--t-max", "2e-4"] if command == "packet-size" else argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep-m", "dmax"])
def test_cli_rejects_airspace_too_large_for_floats(tmp_path, capsys, command):
    data = preset_config("dense_urban")
    data["airspace"]["r_max_m"] = 1e62
    cfg_path = tmp_path / "huge.json"
    cfg_path.write_text(json.dumps(data))
    assert main(_with_out([command, "--config", str(cfg_path)], tmp_path / "o.csv")) == 2
    assert "error: r_max=1e+62 m is too large" in capsys.readouterr().err


def test_cli_packet_size(capsys):
    assert main(["packet-size", "--t-max", "2e-4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("channel uses M = round(B*T_max) = 200\n")

    assert main(["packet-size", "--t-max", "1e-4", "--aadr", "4.0"]) == 0
    out = capsys.readouterr().out
    assert "100" in out
    assert "400" in out

    # A rate of -0 is 0, not a packet of -0 bits.
    assert main(["packet-size", "--t-max", "2e-4", "--aadr", "-0"]) == 0
    out = capsys.readouterr().out
    assert "average rate = 0 bits/channel use" in out
    assert "packet size L = 0 bits" in out


_BUDGET_ERROR = "error: latency budget needs 1 <= B*T_max < inf, got B*T_max = {}\n"


@pytest.mark.parametrize("t_max, aadr, channel_uses", [
    ("1e-9", None, "0.001"),
    ("1e-9", "5", "0.001"),
    ("6e-7", "5", "0.6"),
    (repr(math.nextafter(1e-6, 0.0)), None, "0.9999999999999998"),
    (repr(math.nextafter(1e-6, 0.0)), "5", "0.9999999999999998"),
])
def test_cli_packet_size_rejects_tiny_budget(capsys, t_max, aadr, channel_uses):
    # With --aadr, a budget below one channel use once printed a packet of
    # B*T_max * rate bits: 0.005 bits at 1e-9 s. The float below 1e-6 s is
    # just short of one channel use, which %g printed as 1.
    assert main(["packet-size", "--t-max", t_max,
                 *(["--aadr", aadr] if aadr is not None else [])]) == 2
    captured = capsys.readouterr()
    assert captured.err == _BUDGET_ERROR.format(channel_uses)
    assert captured.out == ""


@pytest.mark.parametrize("t_max, channel_uses", [("6e-7", "0.6"),
                                                 ("9.99e-7", "0.9990000000000001")])
def test_cli_packet_size_rejects_a_budget_that_rounds_up_to_one_channel_use(capsys, t_max,
                                                                            channel_uses):
    # B*T_max in [0.5, 1) once rounded to M = 1 and printed a rate.
    assert main(["packet-size", "--t-max", t_max]) == 2
    captured = capsys.readouterr()
    assert captured.err == _BUDGET_ERROR.format(channel_uses)
    assert captured.out == ""


@pytest.mark.parametrize("t_max, m", [("1e-6", 1), ("1.4e-6", 1), ("2.5e-6", 2)])
def test_cli_packet_size_is_the_rate_over_the_rounded_channel_uses(capsys, t_max, m):
    # B*T_max = 1.4 once printed M = 1.4 and a packet of 1.4 times the rate at M = 1.
    cfg = load_preset("dense_urban")
    rate = aadr_gcq(cfg.airspace, derive_constants(cfg.scenario, cfg.link),
                    FblConfig(blocklength=m, epsilon=cfg.fbl.epsilon), cfg.n_theta, cfg.n_dist)
    assert main(["packet-size", "--t-max", t_max]) == 0
    assert capsys.readouterr().out == (f"channel uses M = round(B*T_max) = {m}\n"
                                       f"average rate = {rate:.12g} bits/channel use\n"
                                       f"packet size L = {m * rate:.12g} bits\n")


def test_cli_packet_size_rejects_a_negative_computed_rate(tmp_path, capsys):
    # At M = 1 and -40 dBW the dispersion penalty outweighs the capacity.
    assert main(["packet-size", "--t-max", "1e-6", "--config",
                 _config_file(tmp_path, link={"tx_power_db": -40.0})]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: average rate must be finite and nonnegative, got -")
    assert captured.out == ""


@pytest.mark.parametrize("t_max, aadr, channel_uses, rate, bits", [
    ("2e-4", "5", "200", "5", "1000"),
    ("1e-4", "5", "100", "5", "500"),
    ("2e-4", "0", "200", "0", "0"),
    ("2.5e-6", "5", "2", "5", "10"),
    ("1e-6", "5", "1", "5", "5"),  # B*T_max is exactly 1.0
])
def test_cli_packet_size_of_a_given_rate(capsys, t_max, aadr, channel_uses, rate, bits):
    assert main(["packet-size", "--t-max", t_max, "--aadr", aadr]) == 0
    assert capsys.readouterr().out == (f"channel uses M = round(B*T_max) = {channel_uses}\n"
                                       f"average rate = {rate} bits/channel use\n"
                                       f"packet size L = {bits} bits\n")


@pytest.mark.parametrize("argv, flag", [
    (["--t-max", "0"], "--t-max"),
    (["--t-max=-2e-4", "--aadr", "5"], "--t-max"),
    (["--t-max", "2e-4", "--aadr", "-1"], "--aadr"),
])
def test_cli_packet_size_rejects_a_flag_out_of_range(capsys, argv, flag):
    assert main(["packet-size", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be")


@pytest.mark.parametrize("argv, message", [
    (["--t-max", "1e302"], "M = 1e+308, rate = 9.74646"),
    (["--t-max", "1e294", "--aadr", "1e10"], "M = 1e+300, rate = 1e+10"),
])
def test_cli_packet_size_rejects_a_packet_size_that_overflows(capsys, argv, message):
    assert main(["packet-size", *argv]) == 2
    assert capsys.readouterr().err == f"error: packet size overflows: {message}\n"


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
    assert capsys.readouterr() == ("", _BUDGET_ERROR.format("inf"))


@pytest.mark.parametrize("q", ["nan", "inf"])
def test_cli_verify_rejects_non_finite_q(capsys, q):
    assert main(["verify", "--q-values", f"0.2,{q}"]) == 2
    assert capsys.readouterr() == ("", f"error: g_inverse needs q in [1e-31, 700], got q={q}\n")


def test_cli_verify_rejects_q_outside_the_domain_of_g_inverse(capsys):
    assert main(["verify", "--q-values", "1000"]) == 2
    assert "error: g_inverse needs q in [1e-31, 700], got q=1000.0" in capsys.readouterr().err


def test_cli_verify_passes_at_both_ends_of_the_domain_of_g_inverse(capsys):
    assert main(["verify", "--q-values", "1e-31,700"]) == 0
    assert capsys.readouterr().out.endswith("all passed\n")


@pytest.mark.parametrize("command, flag, message", [
    ("sweep-m", "--m-values", "M values must be nonempty"),
    ("sweep-eps", "--eps-values", "epsilon values must be nonempty"),
    ("verify", "--q-values", "q_values must be nonempty"),
])
@pytest.mark.parametrize("value", ["", ","])
def test_cli_rejects_an_empty_value_list(tmp_path, capsys, command, flag, message, value):
    out = tmp_path / "o.csv"
    assert main([command, f"{flag}={value}", "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["dmax", "--config", ""],
    ["sweep-m", "--m-values", "200", "--samples", "2000", "--out", ""],
    ["sweep-eps", "--eps-values", "1e-9", "--samples", "2000", "--out", ""],
    ["verify", "--out", ""],
], ids=["dmax-config", "sweep-m-out", "sweep-eps-out", "verify-out"])
def test_cli_rejects_an_empty_path(tmp_path, capsys, monkeypatch, argv):
    # An empty path is a missing file. It once read as no flag: dmax ran the
    # preset, a sweep wrote ./sweep_*.csv and verify printed its report.
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [Errno 2] ")
    assert list(tmp_path.iterdir()) == []


def test_lemma_suite_rejects_no_q_values():
    with pytest.raises(ValueError, match="q_values must be nonempty"):
        run_lemma_suite(q_values=())


def test_cli_verify_passes_where_the_root_is_below_the_fixed_grid_start(tmp_path):
    # For q above about 13.8, g_inverse(q) < 1e-6; 38.5 is about the largest
    # q a configuration reaches.
    report_path = tmp_path / "report.json"
    assert main(["verify", "--q-values", "14,30,38.5", "--out", str(report_path)]) == 0
    assert json.loads(report_path.read_text())["all_passed"] is True


def test_lemma_suite_runs_without_runtime_warnings_over_the_domain_of_g_inverse():
    # The root check evaluates g at roots down to about 1e-304, at q = 700;
    # beyond 700, g_inverse rejects q.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for q in np.geomspace(1e-31, 700.0, 41):
            assert run_lemma_suite(q_values=(float(q),))["all_passed"], q
        with pytest.raises(ValueError, match=re.escape("g_inverse needs q in [1e-31, 700], "
                                                       "got q=1000.0")):
            run_lemma_suite(q_values=(1000.0,))


def test_cli_verify_passes(tmp_path):
    report_path = tmp_path / "report.json"
    assert main(["verify", "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["all_passed"] is True
    assert report["proved"] == ["g_decreasing", "g1_dominates_g", "g2_dominates_g"]
    names = [c["name"] for c in report["checks"]]
    assert names == ["g_inverse_root"] * 3
    for check in report["checks"]:
        assert list(check) == ["name", "q", "root", "tolerance", "worst", "passed"]
        assert check["root"] == pytest.approx(uavlink.bound.g_inverse(check["q"]), rel=1e-11)


def test_cli_verify_prints_a_verdict_per_root_and_names_the_proved_facts(capsys):
    assert main(["verify", "--q-values", "0.05,0.2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" q=")[0] for line in lines[-6:]] == [
        "PASS g_inverse_root", "PASS g_inverse_root", "PROVED g_decreasing",
        "PROVED g1_dominates_g", "PROVED g2_dominates_g", "all passed"]
    assert lines[-6].startswith("PASS g_inverse_root q=0.05 worst=")
    assert lines[-5].startswith("PASS g_inverse_root q=0.2 worst=")


def _off_root(q):
    return 1.001 * uavlink.bound.g_inverse(q)


def _g_off(x, g=uavlink.bound._g):
    return 1.001 * g(x)


def _negated_x_dg(x, x_dg=uavlink.bound._x_dg):
    # The original, bound at definition: looked up at call time it is this stub.
    return -x_dg(x)


@pytest.mark.parametrize("target, fault, failing", [
    ("uavlink.lemmas.g_inverse", _off_root, {"g_inverse_root"}),
    ("uavlink.bound._x_dg", _negated_x_dg, {"g_inverse_root"}),
    ("uavlink.lemmas._g", _g_off, {"g_inverse_root"}),
], ids=["root_off_by_0.1%", "x_dg_negated", "checked_g_off_by_0.1%"])
def test_lemma_suite_detects_an_injected_fault(monkeypatch, capsys, target, fault, failing):
    monkeypatch.setattr(target, fault)
    # A negated slope sends g_inverse's Newton steps off to 0 or infinity.
    with np.errstate(all="ignore"):
        report = run_lemma_suite()
        assert not report["all_passed"]
        assert {c["name"] for c in report["checks"] if not c["passed"]} == failing
        assert main(["verify"]) == 1
    assert capsys.readouterr().out.endswith("FAILURES detected\n")


@pytest.mark.parametrize("argv", [["sweep-m", "--m-values", "100"], ["dmax"],
                                  ["packet-size", "--t-max", "2e-4"]],
                         ids=["sweep-m", "dmax", "packet-size"])
@pytest.mark.parametrize("override, builds", [([], 1), (["--seed", "3"], 2)],
                         ids=["preset", "seed-override"])
def test_a_command_builds_its_config_once_and_again_only_for_an_override(
        tmp_path, monkeypatch, argv, override, builds):
    # Each build validates the whole config and derives the SNR constants.
    built = []
    post_init = RunConfig.__post_init__

    def counted(cfg):
        built.append(cfg)
        post_init(cfg)

    monkeypatch.setattr(RunConfig, "__post_init__", counted)
    assert main(_with_out([*argv, *override], tmp_path / "o.csv")) == 0
    assert len(built) == builds


@pytest.mark.parametrize("command", ["sweep-m", "dmax"])
@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_cli_rejects_a_seed_outside_the_philox_key_range(tmp_path, capsys, command, seed):
    out = tmp_path / "o.csv"
    assert main(_with_out([command, "--seed", seed], out)) == 2
    assert f"error: estimators.seed must lie in [0, 2**128), got {seed}" \
        in capsys.readouterr().err
    assert not out.exists()


def _no_draw(*args, **kwargs):
    raise AssertionError("drew positions")


def test_cli_rejects_a_sample_count_above_the_ceiling(tmp_path, capsys, monkeypatch):
    # A draw's memory does not grow with n, so 10^15 samples would not fail
    # at an allocation: they would run for about a year. The stub fails the
    # test at once if anything is drawn.
    monkeypatch.setattr("uavlink.montecarlo.sample_positions", _no_draw)
    out = tmp_path / "o.csv"
    assert main(["sweep-m", "--samples", str(10**15), "--m-values", "100",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("error: estimators.n_samples: need at most "
                                       "1,000,000,000 samples, got 1,000,000,000,000,000\n")
    assert not out.exists()


def test_cli_rejects_a_config_shard_count_above_the_ceiling(tmp_path, capsys, monkeypatch):
    # Each shard costs two Philox jumps and a block, so n_samples = shards =
    # 1e9 would draw for hours; the check comes before anything is drawn.
    monkeypatch.setattr("uavlink.montecarlo.sample_positions", _no_draw)
    data = preset_config("dense_urban")
    data["estimators"]["shards"] = 2000
    cfg_path = tmp_path / "shards.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    assert main(["sweep-m", "--config", str(cfg_path), "--m-values", "100",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: estimators.shards: shards must lie in [1, min(n, 1,024)], got 2,000\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [["dmax"], ["packet-size", "--t-max", "2e-4"]])
@pytest.mark.parametrize("estimators, message", [
    ({"n_samples": 1}, "estimators.n_samples: need at least 2 samples, got 1"),
    ({"n_samples": -10**400}, "estimators.n_samples: need at least 2 samples, got about -10**400"),
    ({"n_samples": 10**15},
     "estimators.n_samples: need at most 1,000,000,000 samples, got 1,000,000,000,000,000"),
    ({"n_samples": 10**400},
     "estimators.n_samples: need at most 1,000,000,000 samples, got about 10**400"),
    ({"shards": 0}, "estimators.shards: shards must lie in [1, min(n, 1,024)], got 0"),
    ({"shards": 2000}, "estimators.shards: shards must lie in [1, min(n, 1,024)], got 2,000"),
    ({"shards": 10**400},
     "estimators.shards: shards must lie in [1, min(n, 1,024)], got about 10**400"),
])
def test_cli_dmax_and_packet_size_reject_a_bad_sample_or_shard_count(tmp_path, capsys, command,
                                                                       estimators, message):
    # Each count is checked when the config is built, as for the sweeps.
    data = preset_config("dense_urban")
    data["estimators"].update(estimators)
    cfg_path = tmp_path / "counts.json"
    cfg_path.write_text(json.dumps(data))
    assert main([*command, "--config", str(cfg_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def _readme_flag_table() -> list[tuple[list[str], set[str]]]:
    """(commands, flags) of each row of README's CLI flag table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and cells[1].strip().startswith("`"):
            rows.append((re.findall(r"`([a-z-]+)`", cells[1]),
                         set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", cells[2]))))
    return rows


def test_readme_flag_table_matches_the_parser():
    # Both are written by hand; a flag added to or dropped from one shows here.
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    rows = _readme_flag_table()
    assert sorted(c for commands, _ in rows for c in commands) == sorted(subparsers)
    for commands, flags in rows:
        options = {s for c in commands for a in subparsers[c]._actions for s in a.option_strings}
        assert flags == options - {"-h", "--help"}, commands


_FLAG_VALUES = {"--scenario": "suburban", "--config": "cfg.json", "--seed": "5", "--n1": "8",
                "--n2": "8", "--samples": "5", "--out": "r.txt"}


@pytest.mark.parametrize("command, kept", [
    (["dmax"], {"--scenario", "--config", "--seed"}),
    (["packet-size", "--t-max", "2e-4"], {"--scenario", "--config", "--seed", "--n1", "--n2"}),
], ids=["dmax", "packet-size"])
@pytest.mark.parametrize("flag", list(_FLAG_VALUES))
def test_cli_dmax_and_packet_size_take_only_the_flags_they_read(tmp_path, capsys, monkeypatch,
                                                                command, kept, flag):
    # Both once took --samples and --out, and dmax --n1 and --n2, then
    # ignored them: dmax --out r.txt exited 0 and wrote no file.
    monkeypatch.chdir(tmp_path)
    _config_file(tmp_path)
    argv = [*command, flag, _FLAG_VALUES[flag]]
    if flag in kept:
        assert main(argv) == 0
    else:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"error: unrecognized arguments: {flag}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("flag, key", [("--n1", "n_theta"), ("--n2", "n_dist")])
def test_cli_rejects_a_quadrature_order_before_drawing(tmp_path, capsys, monkeypatch, flag, key):
    # The sweep draws before it evaluates the node grid: 2e7 samples took
    # about 1.4 s before a bad order was reported.
    monkeypatch.setattr("uavlink.montecarlo.sample_positions", _no_draw)
    out = tmp_path / "o.csv"
    assert main(["sweep-m", "--samples", str(2 * 10**7), flag, "0", "--m-values", "100",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: estimators.{key} must lie in [1, 1000], got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["n_theta", "n_dist"])
def test_cli_rejects_a_config_quadrature_order_before_drawing(tmp_path, capsys, monkeypatch,
                                                              key):
    monkeypatch.setattr("uavlink.montecarlo.sample_positions", _no_draw)
    data = preset_config("dense_urban")
    data["estimators"].update(n_samples=2 * 10**7, **{key: 1001})
    cfg_path = tmp_path / "orders.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    assert main(["sweep-eps", "--config", str(cfg_path), "--eps-values", "1e-9",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: estimators.{key} must lie in [1, 1000], got 1001\n"
    assert not out.exists()


def test_cli_accepts_the_largest_seed(tmp_path):
    out = tmp_path / "o.csv"
    assert main(["sweep-m", "--seed", str(2**128 - 1), "--samples", "100",
                 "--m-values", "200", "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("command, flag, value, message", [
    ("sweep-m", "--m-values", "100,1e3", "argument --m-values: invalid int value: '1e3'"),
    ("sweep-eps", "--eps-values", "abc", "argument --eps-values: invalid float value: 'abc'"),
    ("verify", "--q-values", "0.2, abc ,0.6", "argument --q-values: invalid float value: 'abc'"),
])
def test_cli_names_the_flag_and_the_token_of_a_bad_value(tmp_path, capsys, command, flag, value,
                                                         message):
    out = tmp_path / "o.csv"
    assert main([command, flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_rejects_a_link_budget_whose_snr_underflows(tmp_path, capsys):
    data = preset_config("dense_urban")
    data["link"]["tx_power_db"] = -3200.0  # c_tilde = 9.1e-313
    cfg_path = tmp_path / "weak.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    assert main(["sweep-eps", "--config", str(cfg_path), "--eps-values", "1e-9,0.49",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: the link budget gives c_tilde=9.11")
    assert not out.exists()


_PEAK_SNR_MESSAGE = (r"error: the link budget and airspace\.r_min_m=\S+ give a peak SNR of \S+; "
                     r"need it below 2\*\*512 \(1541\.3 dB\), so that the channel dispersion "
                     r"stays finite\n")


def _peak_snr_tx_power(log2_peak):
    """The dense_urban transmit power, in dBW, whose SNR at r_min and 90 degrees is 2**log2_peak."""
    cfg = load_preset("dense_urban")
    peak = snr(derive_constants(cfg.scenario, cfg.link), 90.0, cfg.airspace.r_min_m)
    return cfg.link.tx_power_dbw + 10.0 * (log2_peak * math.log10(2.0) - math.log10(peak))


@pytest.mark.parametrize("command", [["sweep-m", "--m-values", "200"], ["sweep-eps"], ["dmax"],
                                     ["packet-size", "--t-max", "2e-4"],
                                     ["packet-size", "--t-max", "2e-4", "--aadr", "5"]])
@pytest.mark.parametrize("section, changes", [
    ("link", {"tx_power_db": 3000.0}),  # the peak SNR is 2.0e305
    ("link", {"tx_power_db": 1489.0}),  # just above 2**512
    ("airspace", {"r_min_m": 1e-160}),  # r_min**-2 overflows
])
def test_cli_rejects_a_link_budget_whose_peak_snr_overflows_the_dispersion(
        tmp_path, capsys, command, section, changes):
    # The dispersion's g (g + 2) and (1 + g)^2 overflowed: the sweeps wrote nan
    # Monte Carlo and GCQ columns, dmax reported d_max = inf as within the
    # limit, and packet-size failed on a nan rate, after three RuntimeWarnings.
    # packet-size --aadr, which computes no SNR, printed a packet size.
    data = preset_config("dense_urban")
    data[section].update(changes)
    cfg_path = tmp_path / "hot.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(_with_out([*command, "--config", str(cfg_path)], out)) == 2
    assert re.fullmatch(_PEAK_SNR_MESSAGE, capsys.readouterr().err)
    assert not out.exists()


def test_a_run_config_whose_peak_snr_overflows_is_rejected_when_built():
    # The ceiling is a RunConfig rule: a replace() override or a config dict is checked
    # when the config is built, before any command reads it.
    cfg = load_preset("dense_urban")
    for tx_power_dbw in (_peak_snr_tx_power(512.0) + 1e-9, 3000.0):
        with pytest.raises(ValueError) as info:
            replace(cfg, link=replace(cfg.link, tx_power_dbw=tx_power_dbw))
        assert re.fullmatch(_PEAK_SNR_MESSAGE, f"error: {info.value}\n")
        data = preset_config("dense_urban")
        data["link"]["tx_power_db"] = tx_power_dbw
        with pytest.raises(ValueError) as info:
            config_from_dict(data)
        assert re.fullmatch(_PEAK_SNR_MESSAGE, f"error: {info.value}\n")


def test_a_peak_snr_just_below_the_ceiling_sweeps_finite(tmp_path, capsys):
    at_ceiling = _peak_snr_tx_power(512.0)
    for tx_power_dbw in (at_ceiling + 1e-9, at_ceiling + 1e-3):
        assert main(["dmax", "--config", _config_file(tmp_path,
                                                      link={"tx_power_db": tx_power_dbw})]) == 2
        assert "need it below 2" in capsys.readouterr().err
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tx_power_dbw in (_peak_snr_tx_power(511.5), at_ceiling - 1e-3):
            cfg = _small_cfg(link={"tx_power_db": tx_power_dbw})
            rows = sweep_blocklength(cfg, [100, 1000]) + sweep_epsilon(cfg, [1e-12, 0.49])
            assert all(math.isfinite(v) for row in rows for v in row.values())
            assert main(["dmax", "--config", _config_file(tmp_path,
                                                          link={"tx_power_db": tx_power_dbw})]) == 0
