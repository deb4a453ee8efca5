"""Workload generator: turns (workload name, seed) into the CLI commands of one op.

The seed reaches the program only through the generated inputs: the `--seed`
flag, the config file and the value grids. The same (name, seed) always gives
the same commands; every op of a run repeats them, so each op after the first
is a rerun whose outputs must match the first byte for byte.
"""

import json
import os
import random
from typing import NamedTuple

WORKLOADS = ("cli-paper", "mc-large", "dense-sweep")

SWEEP_M_HEADER = "M,shannon_mc,aadr_mc,aadr_mc_stderr,aadr_gcq,aadr_lb"
SWEEP_EPS_HEADER = "epsilon,shannon_mc,aadr_mc,aadr_mc_stderr,aadr_gcq,aadr_lb"
DEFAULT_M_VALUES = tuple(range(100, 1001, 100))
DEFAULT_EPS_VALUES = tuple(10.0**k for k in range(-12, -2))

MC_LARGE_SAMPLES = 1_000_000
MC_LARGE_SHARDS = 2
DENSE_SWEEP_ROWS = 400
DENSE_SWEEP_ORDER = 200
PACKET_T_MAX = "2e-4"


class Command(NamedTuple):
    """One `uavlink` invocation and what the checker needs to judge its output.

    kind is the subcommand; config is the run's config dict (the oracle's
    input); x_values are the sweep's first-column values; out is the file the
    command writes, relative to the work directory.
    """

    kind: str
    argv: tuple
    config: dict
    x_values: tuple = ()
    out: str | None = None
    t_max: float | None = None


def _preset(presets: dict, name: str, seed: int) -> dict:
    cfg = json.loads(json.dumps(presets[name]))
    cfg["estimators"]["seed"] = seed
    return cfg


def _eps_grid(seed: int) -> tuple:
    # Log-uniform in [1e-12, 1e-3], rounded to the 12 significant digits the
    # CSV prints, so the epsilon column can be compared exactly.
    rng = random.Random(seed)
    return tuple(float(f"{10.0 ** rng.uniform(-12.0, -3.0):.12g}")
                 for _ in range(DENSE_SWEEP_ROWS))


def make_workload(name: str, seed: int, workdir: str, presets: dict) -> list[Command]:
    """Commands of one op of workload name, with inputs drawn from seed.

    presets maps each bundled preset name to its config dict, as
    `uavlink.config.preset_config` gives it. mc-large writes its config file
    into workdir; outputs go there too.
    """
    s = str(seed)
    if name == "cli-paper":
        return [
            Command("sweep-m", ("sweep-m", "--scenario", "dense_urban", "--seed", s,
                                "--out", "sweep_m.csv"),
                    _preset(presets, "dense_urban", seed), DEFAULT_M_VALUES, "sweep_m.csv"),
            Command("sweep-eps", ("sweep-eps", "--scenario", "suburban", "--seed", s,
                                  "--out", "sweep_eps.csv"),
                    _preset(presets, "suburban", seed), DEFAULT_EPS_VALUES, "sweep_eps.csv"),
            Command("dmax", ("dmax", "--seed", s), _preset(presets, "dense_urban", seed)),
            Command("packet-size", ("packet-size", "--t-max", PACKET_T_MAX, "--seed", s),
                    _preset(presets, "dense_urban", seed), t_max=float(PACKET_T_MAX)),
            Command("verify", ("verify", "--out", "verify.json"), {}, out="verify.json"),
        ]
    if name == "mc-large":
        cfg = _preset(presets, "dense_urban", seed)
        cfg["estimators"].update(n_samples=MC_LARGE_SAMPLES, shards=MC_LARGE_SHARDS)
        with open(os.path.join(workdir, "mc_large.json"), "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=2)
        return [Command("sweep-m", ("sweep-m", "--config", "mc_large.json", "--seed", s,
                                    "--out", "sweep_m.csv"),
                        cfg, DEFAULT_M_VALUES, "sweep_m.csv")]
    if name == "dense-sweep":
        eps = _eps_grid(seed)
        order = str(DENSE_SWEEP_ORDER)
        return [Command("sweep-eps", ("sweep-eps", "--scenario", "suburban", "--seed", s,
                                      "--n1", order, "--n2", order,
                                      "--eps-values", ",".join(repr(e) for e in eps),
                                      "--out", "sweep_eps.csv"),
                        _preset(presets, "suburban", seed), eps, "sweep_eps.csv")]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def csv_rows(commands) -> int:
    """Sweep CSV rows one op writes."""
    return sum(len(c.x_values) for c in commands if c.kind.startswith("sweep"))
