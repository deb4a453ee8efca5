"""Run configuration: one structured file drives every estimator.

A config is a JSON object with sections scenario / link / airspace / fbl /
estimators (and an optional output section). Two presets carry the default
parameter sets for the bundled dense-urban and suburban environments.
Loading is strict: unknown, missing or repeated keys, numeric fields that
are not numbers and text fields that are not strings are rejected. Serialization is
canonical (power in dBW, noise as a dBm/Hz density), so a load/dump cycle is
idempotent.
"""

import math
import numbers
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .channel import DerivedConstants, LinkBudget, Scenario, derive_constants, snr
from .fbl_rate import FblConfig
from .geometry import Airspace, _philox_key, _shard_sizes
from .quadrature import _check_order


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI run needs, validated on construction."""

    scenario: Scenario
    link: LinkBudget
    airspace: Airspace
    fbl: FblConfig
    n_theta: int
    n_dist: int
    n_samples: int
    seed: int
    shards: int
    output_dir: str

    def __post_init__(self):
        # The estimators' own rules, applied here too: so replace() overrides are
        # checked, every command rejects a bad count and a sweep fails before it
        # draws. n_samples is checked alone (one shard always fits), then shards.
        _philox_key(self.seed, "estimators.seed")
        for name in ("n_theta", "n_dist"):
            _check_order(getattr(self, name), f"estimators.{name}")
        for key, shards in (("n_samples", 1), ("shards", self.shards)):
            try:
                _shard_sizes(self.n_samples, shards)
            except ValueError as error:
                raise ValueError(f"estimators.{key}: {error}") from None
        # The largest SNR lies at r_min and 90 degrees, and from 2**512 on the
        # dispersion's g (g + 2) and (1 + g)^2 overflow.
        with np.errstate(over="ignore"):  # an SNR beyond the doubles is inf, and fails below
            peak = snr(self.consts, 90.0, self.airspace.r_min_m)
        if not peak < 2.0**512:
            raise ValueError(f"the link budget and airspace.r_min_m={self.airspace.r_min_m!r} "
                             f"give a peak SNR of {peak!r}; need it below 2**512 (1541.3 dB), "
                             "so that the channel dispersion stays finite")

    @property
    def consts(self) -> DerivedConstants:
        """The SNR model's parameters, derived from the scenario and link on each read."""
        return derive_constants(self.scenario, self.link)


# Each preset's environment constants and minimum elevation; the rest of a
# preset's settings are shared (load_preset).
_PRESETS = {
    "dense_urban": (Scenario("dense_urban", a=12.08, b=0.11, eta_los_db=1.6, eta_nlos_db=23.0),
                    45.0),
    "suburban": (Scenario("suburban", a=4.88, b=0.43, eta_los_db=0.1, eta_nlos_db=21.0), 30.0),
}
PRESET_NAMES = tuple(_PRESETS)


def load_preset(name: str) -> RunConfig:
    """The RunConfig of a bundled preset."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    scenario, theta_min_deg = _PRESETS[name]
    return RunConfig(
        scenario=scenario,
        link=LinkBudget(tx_power_dbw=-20.0, noise_psd_dbm_hz=-173.0, bandwidth_hz=1e6,
                        carrier_hz=2.5e9, light_speed_m_s=3e8),
        airspace=Airspace(r_min_m=250.0, r_max_m=400.0, theta_min_deg=theta_min_deg),
        fbl=FblConfig(blocklength=200, epsilon=1e-9),
        n_theta=30, n_dist=30, n_samples=10_000, seed=1, shards=1, output_dir=".",
    )


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical dict form of a RunConfig (dBW power, dBm/Hz noise density)."""
    return {
        "scenario": asdict(cfg.scenario),
        "link": {
            "tx_power_db": cfg.link.tx_power_dbw,
            "tx_power_unit": "dBW",
            "noise_db": cfg.link.noise_psd_dbm_hz,
            "noise_unit": "dBm_per_Hz",
            "bandwidth_hz": cfg.link.bandwidth_hz,
            "carrier_hz": cfg.link.carrier_hz,
            "light_speed_m_s": cfg.link.light_speed_m_s,
        },
        "airspace": asdict(cfg.airspace),
        "fbl": asdict(cfg.fbl),
        "estimators": {field.name: getattr(cfg, field.name) for field in fields(cfg)
                       if field.type is int},
        "output": {"directory": cfg.output_dir},
    }


def preset_config(name: str) -> dict:
    """Canonical config dict for a bundled preset."""
    return config_to_dict(load_preset(name))


# Each section's keys, in the writer's order.
_SECTION_KEYS = {section: keys.keys() for section, keys in preset_config(PRESET_NAMES[0]).items()}


def _strict_section(data: dict, section: str) -> dict:
    if section not in data:
        raise ValueError(f"config is missing the {section!r} section")
    got = data[section]
    if not isinstance(got, dict):
        raise ValueError(f"config section {section!r} must be an object, got {got!r}")
    expected = _SECTION_KEYS[section]
    unknown = set(got) - expected
    if unknown:
        raise ValueError(f"unknown keys in {section!r} section: {sorted(unknown)}")
    missing = expected - set(got)
    if missing:
        raise ValueError(f"missing keys in {section!r} section: {sorted(missing)}")
    return got


def _integer(section: dict, name: str, key: str) -> int:
    """section[key] as an int; a non-integral number is an error, not truncated."""
    value = section[key]
    integral = isinstance(value, numbers.Integral) or (
        isinstance(value, numbers.Real) and float(value).is_integer())
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{name}.{key} must be an integer, got {value!r}")
    return int(value)


def _real(section: dict, name: str, key: str) -> float:
    """section[key] as a float; a bool, string, null or container is an error."""
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the doubles
        raise ValueError(f"{name}.{key} is too large for a double") from None


def _string(section: dict, name: str, key: str) -> str:
    """section[key], which must be a string: null, a number, a bool or a container is an error."""
    value = section[key]
    if not isinstance(value, str):
        raise ValueError(f"{name}.{key} must be a string, got {value!r}")
    return value


_READERS = {int: _integer, float: _real, str: _string}


def _read_section(data: dict, section: str, cls) -> dict:
    """The section's values, each read by the annotated type of cls's field of its name."""
    got = _strict_section(data, section)
    types = {field.name: field.type for field in fields(cls)}
    return {key: _READERS[types[key]](got, section, key) for key in _SECTION_KEYS[section]}


def config_from_dict(data: dict) -> RunConfig:
    """Build a validated RunConfig from a config dict; strict about keys.

    The scenario, airspace and fbl sections and the estimators keys are read
    by the annotated type of the dataclass field each key names; the link
    section is read key by key because of its units.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config must be an object, got {data!r}")
    unknown = set(data) - _SECTION_KEYS.keys()
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")

    sc = _read_section(data, "scenario", Scenario)
    li = _strict_section(data, "link")
    ai = _read_section(data, "airspace", Airspace)
    fb = _read_section(data, "fbl", FblConfig)
    es = _read_section(data, "estimators", RunConfig)
    out_dir = "."
    if "output" in data:
        out_dir = _string(_strict_section(data, "output"), "output", "directory")

    tx_power_dbw = _real(li, "link", "tx_power_db")
    unit = li["tx_power_unit"]
    if unit == "dBm":
        tx_power_dbw -= 30.0
    elif unit != "dBW":
        raise ValueError(f"tx_power_unit must be 'dBW' or 'dBm', got {unit!r}")

    nunit = li["noise_unit"]
    if nunit not in ("dBm", "dBm_per_Hz"):
        raise ValueError(f"noise_unit must be 'dBm_per_Hz' or 'dBm', got {nunit!r}")
    link = LinkBudget(tx_power_dbw=tx_power_dbw, noise_psd_dbm_hz=_real(li, "link", "noise_db"),
                      **{key: _real(li, "link", key)
                         for key in ("bandwidth_hz", "carrier_hz", "light_speed_m_s")})
    if nunit == "dBm":  # total power over the (checked) bandwidth
        link = replace(link, noise_psd_dbm_hz=link.noise_psd_dbm_hz
                       - 10.0 * math.log10(link.bandwidth_hz))

    return RunConfig(scenario=Scenario(**sc), link=link, airspace=Airspace(**ai),
                     fbl=FblConfig(**fb), output_dir=out_dir, **es)


def _unique_keys(pairs) -> dict:
    """A JSON object's pairs as a dict; a key given twice is an error, not the last one."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def load_config(path) -> RunConfig:
    """Load and validate a JSON config file; a JSON error names the file."""
    import json  # here, so that only a run from a file loads it

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys)
        except ValueError as error:  # bad JSON or UTF-8, or a repeated key
            raise ValueError(f"config file {path}: {error}") from None
    return config_from_dict(data)

