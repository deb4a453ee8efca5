import copy
import dataclasses
import json
import math

import pytest

from uavlink.bound import d_max
from uavlink.channel import derive_constants
from uavlink.cli import main, sweep_epsilon
from uavlink.config import (
    PRESET_NAMES,
    config_from_dict,
    config_to_dict,
    load_config,
    load_preset,
    preset_config,
)
from uavlink.fbl_rate import FblConfig
from uavlink.montecarlo import _rate_terms
from uavlink.quadrature import _node_terms


def test_presets_carry_expected_defaults():
    dense = load_preset("dense_urban")
    assert dense.airspace.theta_min_deg == 45.0
    assert dense.airspace.r_min_m == 250.0
    assert dense.airspace.r_max_m == 400.0
    assert dense.fbl.blocklength == 200
    assert dense.fbl.epsilon == 1e-9
    assert dense.link.bandwidth_hz == 1e6
    assert dense.link.carrier_hz == 2.5e9
    sub = load_preset("suburban")
    assert sub.airspace.theta_min_deg == 30.0
    assert sub.scenario.a == 4.88


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_config("rural")


def test_round_trip_is_idempotent():
    data = preset_config("dense_urban")
    cfg = config_from_dict(data)
    dumped = config_to_dict(cfg)
    assert dumped == data
    assert config_from_dict(dumped) == cfg
    assert json.dumps(config_to_dict(config_from_dict(dumped))) == json.dumps(dumped)


# json.dumps(preset_config(name)) as fixed text: it pins every preset value,
# the key order and the int and float types, so a drift in any of them fails.
_PRESET_JSON = {
    "dense_urban": (
        '{"scenario": {"name": "dense_urban", "a": 12.08, "b": 0.11, "eta_los_db": 1.6, '
        '"eta_nlos_db": 23.0}, "link": {"tx_power_db": -20.0, "tx_power_unit": "dBW", '
        '"noise_db": -173.0, "noise_unit": "dBm_per_Hz", "bandwidth_hz": 1000000.0, '
        '"carrier_hz": 2500000000.0, "light_speed_m_s": 300000000.0}, '
        '"airspace": {"r_min_m": 250.0, "r_max_m": 400.0, "theta_min_deg": 45.0}, '
        '"fbl": {"blocklength": 200, "epsilon": 1e-09}, "estimators": {"n_theta": 30, '
        '"n_dist": 30, "n_samples": 10000, "seed": 1, "shards": 1}, '
        '"output": {"directory": "."}}'
    ),
    "suburban": (
        '{"scenario": {"name": "suburban", "a": 4.88, "b": 0.43, "eta_los_db": 0.1, '
        '"eta_nlos_db": 21.0}, "link": {"tx_power_db": -20.0, "tx_power_unit": "dBW", '
        '"noise_db": -173.0, "noise_unit": "dBm_per_Hz", "bandwidth_hz": 1000000.0, '
        '"carrier_hz": 2500000000.0, "light_speed_m_s": 300000000.0}, '
        '"airspace": {"r_min_m": 250.0, "r_max_m": 400.0, "theta_min_deg": 30.0}, '
        '"fbl": {"blocklength": 200, "epsilon": 1e-09}, "estimators": {"n_theta": 30, '
        '"n_dist": 30, "n_samples": 10000, "seed": 1, "shards": 1}, '
        '"output": {"directory": "."}}'
    ),
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_presets_are_canonical(name):
    assert json.dumps(preset_config(name)) == _PRESET_JSON[name]
    assert json.dumps(config_to_dict(config_from_dict(preset_config(name)))) == _PRESET_JSON[name]


def test_non_canonical_units_converge_after_one_cycle():
    data = preset_config("dense_urban")
    data["link"]["tx_power_db"] = -20.0
    data["link"]["tx_power_unit"] = "dBm"
    first = config_to_dict(config_from_dict(data))
    second = config_to_dict(config_from_dict(first))
    assert first == second
    assert first["link"]["tx_power_unit"] == "dBW"
    assert first["link"]["tx_power_db"] == -50.0


def test_total_noise_reading_converts_to_density():
    data = preset_config("dense_urban")
    data["link"]["noise_db"] = -113.0  # total over 1 MHz
    data["link"]["noise_unit"] = "dBm"
    cfg = config_from_dict(data)
    assert cfg.link.noise_psd_dbm_hz == pytest.approx(-173.0, abs=1e-12)


def test_unknown_section_rejected():
    data = preset_config("dense_urban")
    data["extra"] = {"x": 1}
    with pytest.raises(ValueError, match="unknown config sections"):
        config_from_dict(data)


def test_unknown_key_rejected():
    data = preset_config("dense_urban")
    data["scenario"]["typo"] = 1.0
    with pytest.raises(ValueError, match="unknown keys"):
        config_from_dict(data)


def test_missing_key_rejected():
    data = preset_config("dense_urban")
    del data["fbl"]["epsilon"]
    with pytest.raises(ValueError, match="missing keys"):
        config_from_dict(data)


def test_missing_section_rejected():
    data = preset_config("dense_urban")
    del data["airspace"]
    with pytest.raises(ValueError, match="missing"):
        config_from_dict(data)


def test_bad_units_rejected():
    data = preset_config("dense_urban")
    data["link"]["tx_power_unit"] = "watts"
    with pytest.raises(ValueError, match="tx_power_unit"):
        config_from_dict(data)
    data = preset_config("dense_urban")
    data["link"]["noise_unit"] = "K"
    with pytest.raises(ValueError, match="noise_unit"):
        config_from_dict(data)


@pytest.mark.parametrize("section,key", [
    ("fbl", "blocklength"), ("estimators", "n_theta"), ("estimators", "n_dist"),
    ("estimators", "n_samples"), ("estimators", "seed"), ("estimators", "shards"),
])
def test_non_integral_counts_rejected(section, key):
    data = preset_config("dense_urban")
    data[section][key] += 0.7
    with pytest.raises(ValueError, match=f"{section}.{key} must be an integer"):
        config_from_dict(data)
    data[section][key] = float(round(data[section][key]))
    assert isinstance(config_to_dict(config_from_dict(data))[section][key], int)


def test_infinite_airspace_rejected(tmp_path):
    data = preset_config("dense_urban")
    data["airspace"]["r_max_m"] = math.inf
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))  # written as the JSON extension Infinity
    with pytest.raises(ValueError, match="airspace bounds must be finite"):
        load_config(path)


# (section, config key, dataclass field named in the message)
_CHANNEL_FIELDS = [
    ("scenario", "a", "a"), ("scenario", "b", "b"),
    ("scenario", "eta_los_db", "eta_los_db"), ("scenario", "eta_nlos_db", "eta_nlos_db"),
    ("link", "tx_power_db", "tx_power_dbw"), ("link", "noise_db", "noise_psd_dbm_hz"),
    ("link", "bandwidth_hz", "bandwidth_hz"), ("link", "carrier_hz", "carrier_hz"),
    ("link", "light_speed_m_s", "light_speed_m_s"),
]
_POSITIVE = {"a", "b", "bandwidth_hz", "carrier_hz", "light_speed_m_s"}


@pytest.mark.parametrize("section,key,field", _CHANNEL_FIELDS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_channel_parameters_rejected(tmp_path, section, key, field, value):
    data = preset_config("dense_urban")
    data[section][key] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))  # written as the JSON extensions NaN and Infinity
    need = "finite and positive" if field in _POSITIVE else "finite"
    with pytest.raises(ValueError, match=f"^{field} must be {need}, got {value!r}$"):
        load_config(path)


@pytest.mark.parametrize("key", ["a", "b", "bandwidth_hz", "carrier_hz", "light_speed_m_s"])
@pytest.mark.parametrize("value", [0.0, -1.0])
def test_non_positive_channel_parameters_rejected(key, value):
    data = preset_config("dense_urban")
    data["scenario" if key in ("a", "b") else "link"][key] = value
    with pytest.raises(ValueError, match=f"^{key} must be finite and positive, got {value!r}$"):
        config_from_dict(data)


@pytest.mark.parametrize("value", [math.nan, 0.0, -1e6])
def test_a_bad_bandwidth_is_named_before_the_noise_conversion_uses_it(value):
    # noise_unit 'dBm' divides the noise power by the bandwidth: the bandwidth
    # is checked first, not left to a math domain error or a NaN noise density.
    data = preset_config("dense_urban")
    data["link"].update(noise_unit="dBm", bandwidth_hz=value)
    with pytest.raises(ValueError, match="^bandwidth_hz must be finite and positive"):
        config_from_dict(data)


_LINK_FIELDS = ("the link fields (tx_power_dbw, noise_psd_dbm_hz, bandwidth_hz, carrier_hz, "
                "light_speed_m_s) and eta_los_db, eta_nlos_db give ")


@pytest.mark.parametrize("section,changes,derived", [
    ("link", {"carrier_hz": 1e300}, "c_tilde=0.0"),          # the SNR scale underflows
    ("link", {"light_speed_m_s": 1e-300}, "c_db=inf"),       # 4 pi f / c overflows
    ("link", {"tx_power_db": 1e300}, "c_tilde=inf"),         # the SNR scale overflows
    ("link", {"bandwidth_hz": 1e-300}, "c_tilde=inf"),
    ("link", {"noise_db": -1e300}, "c_tilde=inf"),
    ("scenario", {"eta_los_db": -1e308, "eta_nlos_db": 1e308}, "a_tilde=inf"),
])
def test_finite_fields_whose_constants_leave_the_doubles_are_named(section, changes, derived):
    data = preset_config("dense_urban")
    data[section].update(changes)
    with pytest.raises(ValueError) as info:
        config_from_dict(data)
    message = str(info.value)
    assert message.startswith(_LINK_FIELDS) and derived in message


_FLOAT_FIELDS = [
    ("scenario", "a"), ("scenario", "b"), ("scenario", "eta_los_db"),
    ("scenario", "eta_nlos_db"), ("link", "tx_power_db"), ("link", "noise_db"),
    ("link", "bandwidth_hz"), ("link", "carrier_hz"), ("link", "light_speed_m_s"),
    ("airspace", "r_min_m"), ("airspace", "r_max_m"), ("airspace", "theta_min_deg"),
    ("fbl", "epsilon"),
]


@pytest.mark.parametrize("section,key", _FLOAT_FIELDS)
@pytest.mark.parametrize("value", [None, [400.0], {"value": 1.0}, True, "400"])
def test_a_float_field_that_is_not_a_number_is_named(section, key, value):
    # null and containers once raised a TypeError; true and "400" were read as numbers
    data = preset_config("dense_urban")
    data[section][key] = value
    with pytest.raises(ValueError, match=f"^{section}.{key} must be a number, got "):
        config_from_dict(data)


@pytest.mark.parametrize("command", ["dmax", "sweep-eps"])
@pytest.mark.parametrize("section,key", _FLOAT_FIELDS + [("fbl", "blocklength")])
def test_a_number_too_large_for_a_double_is_named(tmp_path, capsys, command, section, key):
    # float() and math.sqrt once failed with only "int too large to convert to float"
    data = preset_config("dense_urban")
    data[section][key] = 10**400
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    argv = [command, "--config", str(path)]
    assert main(argv if command == "dmax" else [*argv, "--out", str(tmp_path / "out.csv")]) == 2
    name = "blocklength" if key == "blocklength" else f"{section}.{key}"
    assert capsys.readouterr().err == f"error: {name} is too large for a double\n"


@pytest.mark.parametrize("section,key", [("output", "directory"), ("scenario", "name")])
@pytest.mark.parametrize("value", [None, 3, 2.5, ["out"], True, False])
def test_a_text_field_that_is_not_a_string_is_named(section, key, value):
    # str(...) once read these as the strings "None", "3", "['out']" and "True"
    data = preset_config("dense_urban")
    data[section][key] = value
    with pytest.raises(ValueError, match=f"^{section}.{key} must be a string, got "):
        config_from_dict(data)


@pytest.mark.parametrize("section,key", [
    (section, key) for section, key in _FLOAT_FIELDS
    if float(preset_config("dense_urban")[section][key]).is_integer()])
def test_an_integral_float_field_is_read_as_a_float(section, key):
    data = preset_config("dense_urban")
    data[section][key] = int(data[section][key])
    assert config_from_dict(data) == config_from_dict(preset_config("dense_urban"))


@pytest.mark.parametrize("section", ["scenario", "link", "airspace", "fbl", "estimators",
                                     "output"])
@pytest.mark.parametrize("value", [3, 2.5, None, [], "x"])
def test_a_section_that_is_not_an_object_is_named(section, value):
    data = preset_config("dense_urban")
    data[section] = value
    with pytest.raises(ValueError, match=f"^config section '{section}' must be an object"):
        config_from_dict(data)


@pytest.mark.parametrize("text", ["3", "null", "[]", '"config"'])
def test_a_config_file_that_is_not_an_object_is_rejected(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="^config must be an object, got "):
        load_config(path)


def test_load_config_file(tmp_path):
    data = preset_config("suburban")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    cfg = load_config(path)
    assert cfg == config_from_dict(data)


def test_overrides():
    cfg = load_preset("dense_urban")
    bumped = dataclasses.replace(cfg, seed=77, n_samples=123)
    assert bumped.seed == 77
    assert bumped.n_samples == 123
    assert bumped.scenario == cfg.scenario


def test_consts_is_not_a_field():
    # RunConfig.consts is derived from the scenario and link on each read, like FblConfig.q.
    cfg, fresh = load_preset("dense_urban"), load_preset("dense_urban")
    assert cfg.consts == derive_constants(cfg.scenario, cfg.link)
    assert "consts" not in [field.name for field in dataclasses.fields(cfg)]
    assert cfg == fresh and hash(cfg) == hash(fresh)
    assert config_to_dict(cfg) == config_to_dict(fresh) == preset_config("dense_urban")
    assert dataclasses.replace(cfg) == fresh
    with pytest.raises(TypeError, match="consts"):
        dataclasses.replace(cfg, consts=cfg.consts)
    louder = dataclasses.replace(cfg, link=dataclasses.replace(cfg.link, tx_power_dbw=-10.0))
    assert louder.consts.c_tilde == pytest.approx(10.0 * cfg.consts.c_tilde, rel=1e-14)
    assert louder.consts.a_tilde == cfg.consts.a_tilde


def _alternate_reading(name):
    # transmit power read as dBm, noise value read as total power in dBm
    data = copy.deepcopy(preset_config(name))
    data["link"]["tx_power_unit"] = "dBm"
    data["link"]["noise_unit"] = "dBm"
    return config_from_dict(data)


def test_distance_limit_under_alternate_unit_reading():
    # documents how the unit switches move d_max into the tens of kilometers
    dense = _alternate_reading("dense_urban")
    limit = d_max(derive_constants(dense.scenario, dense.link), dense.fbl)
    assert limit == pytest.approx(56427.15203853725, rel=1e-9)
    sub = _alternate_reading("suburban")
    limit_sub = d_max(derive_constants(sub.scenario, sub.link), sub.fbl)
    assert limit_sub == pytest.approx(71475.549676274926, rel=1e-9)


@pytest.mark.parametrize("epsilon", [0.5, 0.6, 0.0, -1e-9, math.nan])
def test_epsilon_outside_the_bound_domain_rejected(epsilon):
    data = preset_config("dense_urban")
    data["fbl"]["epsilon"] = epsilon
    with pytest.raises(ValueError, match=r"^epsilon must lie in \(0, 0\.5\), got "):
        config_from_dict(data)


def test_epsilon_just_below_one_half_accepted():
    data = preset_config("dense_urban")
    data["fbl"]["epsilon"] = 0.49
    assert config_from_dict(data).fbl.epsilon == 0.49


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_seed_outside_the_philox_key_range_rejected(seed):
    data = preset_config("dense_urban")
    data["estimators"]["seed"] = seed
    with pytest.raises(ValueError, match=r"estimators\.seed must lie in \[0, 2\*\*128\)"):
        config_from_dict(data)
    # an override applied with replace is checked the same way
    with pytest.raises(ValueError, match=r"estimators\.seed must lie in \[0, 2\*\*128\)"):
        dataclasses.replace(load_preset("dense_urban"), seed=seed)


@pytest.mark.parametrize("seed", [0, 2**128 - 1])
def test_seed_at_the_ends_of_the_philox_key_range_accepted(seed):
    data = preset_config("dense_urban")
    data["estimators"]["seed"] = seed
    assert config_from_dict(data).seed == seed
    assert dataclasses.replace(load_preset("dense_urban"), seed=seed).seed == seed


@pytest.mark.parametrize("key", ["n_theta", "n_dist"])
@pytest.mark.parametrize("order", [0, -1, 1001])
def test_quadrature_order_outside_the_rule_range_rejected(key, order):
    data = preset_config("dense_urban")
    data["estimators"][key] = order
    match = rf"estimators\.{key} must lie in \[1, 1000\], got {order}$"
    with pytest.raises(ValueError, match=match):
        config_from_dict(data)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(load_preset("dense_urban"), **{key: order})


@pytest.mark.parametrize("key", ["n_theta", "n_dist"])
@pytest.mark.parametrize("order", [1, 1000])
def test_quadrature_order_at_the_ends_of_the_rule_range_accepted(key, order):
    data = preset_config("dense_urban")
    data["estimators"][key] = order
    assert getattr(config_from_dict(data), key) == order
    assert getattr(dataclasses.replace(load_preset("dense_urban"), **{key: order}), key) == order


@pytest.mark.parametrize("n", [1_000, 70_000])  # drawn by _ArrayPhilox, then by numpy
@pytest.mark.parametrize("seed", [-1, 2**128])
def test_the_draw_and_the_config_reject_a_seed_alike(dense_urban, dense_consts, seed, n):
    with pytest.raises(ValueError) as own:
        _rate_terms(dense_urban.airspace, dense_consts, n, seed, 1)
    with pytest.raises(ValueError) as config:
        dataclasses.replace(dense_urban, seed=seed)
    assert str(own.value) == f"seed must lie in [0, 2**128), got {seed}"
    assert str(config.value) == f"estimators.{own.value}"


@pytest.mark.parametrize("key", ["n_theta", "n_dist"])
@pytest.mark.parametrize("order", [0, 1001])
def test_the_rule_and_the_config_reject_an_order_alike(dense_urban, dense_consts, key, order):
    # The estimator names the order it checks "order"; the config names the key.
    orders = {"n_theta": 30, "n_dist": 30, key: order}
    with pytest.raises(ValueError) as own:
        _node_terms(dense_urban.airspace, dense_consts, **orders)
    with pytest.raises(ValueError) as config:
        dataclasses.replace(dense_urban, **{key: order})
    assert str(own.value) == f"order must lie in [1, 1000], got {order}"
    assert str(config.value) == f"estimators.{key}{str(own.value).removeprefix('order')}"


@pytest.mark.parametrize("epsilon", [0.5, 0.0, math.nan])
def test_the_sweep_and_the_config_reject_an_epsilon_alike(dense_urban, epsilon):
    with pytest.raises(ValueError) as sweep:
        sweep_epsilon(dense_urban, [epsilon])
    data = preset_config("dense_urban")
    data["fbl"]["epsilon"] = epsilon
    with pytest.raises(ValueError) as config:
        config_from_dict(data)
    assert str(sweep.value) == str(config.value) == f"epsilon must lie in (0, 0.5), got {epsilon}"


@pytest.mark.parametrize("epsilon,inside", [
    *((eps, False) for eps in (0.0, -1e-9, 0.5, math.nextafter(0.5, 1.0), 0.6, 1.0, math.nan,
                               math.inf)),
    (5e-324, True), (0.49999999999999994, True),
])
def test_fbl_config_alone_rules_on_epsilon_and_every_way_in_says_so(dense_urban, tmp_path, capsys,
                                                                   epsilon, inside):
    # The bound, d_max and g_inverse need q > 0: epsilon in (0, 0.5). The config
    # loader, a sweep's rows and both CLI ways in hand epsilon to FblConfig.
    data = preset_config("dense_urban")
    data["fbl"]["epsilon"] = epsilon
    if inside:
        assert FblConfig(200, epsilon).q > 0.0
        assert config_from_dict(data).fbl.epsilon == epsilon
        return
    message = f"epsilon must lie in (0, 0.5), got {epsilon}"
    for build in (lambda: FblConfig(200, epsilon), lambda: config_from_dict(data),
                  lambda: sweep_epsilon(dense_urban, [epsilon])):
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == message
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "out.csv"
    for argv in (["sweep-m", "--config", str(path)], ["sweep-eps", f"--eps-values={epsilon!r}"]):
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()
