"""Command-line interface: parameter sweeps, distance-limit and packet-size
calculators, and the lemma verification runner. Sweeps emit plot-ready CSV
with 12 significant digits; reruns with the same config and seed are
byte-identical.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .bound import _lower_bound_rows, d_max
from .channel import derive_constants
from .config import PRESET_NAMES, RunConfig, load_config, load_preset
from .fbl_rate import FblConfig, _penalty, _rate
from .lemmas import run_lemma_suite
from .montecarlo import _aadr_rows, _rate_terms
from .quadrature import _node_terms, aadr_gcq
# The sweep computes these estimators' columns through _rate_terms, _aadr_rows
# and _lower_bound_rows; bench/tracer.py PROBES still looks them up in this module.
from .bound import aadr_lower_bound  # noqa: F401
from .montecarlo import estimate_aadr, estimate_shannon  # noqa: F401

OUT_DIR_ENV = "UAVLINK_OUT_DIR"

SWEEP_M_COLUMNS = ("M", "shannon_mc", "aadr_mc", "aadr_mc_stderr", "aadr_gcq", "aadr_lb")
SWEEP_EPS_COLUMNS = ("epsilon", "shannon_mc", "aadr_mc", "aadr_mc_stderr", "aadr_gcq", "aadr_lb")

DMAX_REFERENCE_NOTE = (
    "note: reference figures of 56.4 km (dense urban) and 56.8 km (suburban) "
    "correspond to tx_power_unit='dBm' with noise_unit='dBm' at M=200, "
    "eps=1e-9; the default dBW / dBm-per-Hz reading gives km-scale values."
)


def _sweep(cfg: RunConfig, column: str, values: list, q: list) -> list[dict]:
    """One row per (value, q) pair; value fills the given column.

    The sweep draws the Monte Carlo sample, evaluates the node grid and
    E(1/SNR) once each; every estimator column is then one array expression
    over q and those q-free sums, with the bits of the per-config public
    estimators. The Shannon column is E[S], the first Monte Carlo moment.
    aadr_lb is nan in a row whose d_max is below the airspace radius.
    """
    consts = derive_constants(cfg.scenario, cfg.link)
    space, q = cfg.airspace, np.array(q)
    moments = _rate_terms(space, consts, cfg.n_samples, cfg.seed, cfg.shards)
    mc_mean, mc_stderr = _aadr_rows(moments, q, cfg.n_samples)
    bound, _ = _lower_bound_rows(space, consts, q)
    gcq = _rate(*_node_terms(space, consts, cfg.n_theta, cfg.n_dist), q)
    columns = {column: values, "shannon_mc": [moments[0]] * len(values),
               "aadr_mc": mc_mean.tolist(), "aadr_mc_stderr": mc_stderr.tolist(),
               "aadr_gcq": gcq.tolist(), "aadr_lb": bound.tolist()}
    return [dict(zip(columns, row)) for row in zip(*columns.values())]


def sweep_blocklength(cfg: RunConfig, m_values) -> list[dict]:
    """One row per blocklength M at the config's epsilon."""
    m_list = list(m_values)
    if not m_list:
        raise ValueError("m_values must be nonempty")
    for m in m_list:
        if int(m) != m or m < 1:
            raise ValueError(f"blocklength values must be positive integers, got {m}")
    m_list = [int(m) for m in m_list]
    return _sweep(cfg, "M", m_list, [_penalty(cfg.fbl.epsilon, m) for m in m_list])


def sweep_epsilon(cfg: RunConfig, eps_values) -> list[dict]:
    """One row per decoding error probability at the config's blocklength."""
    eps_list = [float(e) for e in eps_values]
    if not eps_list:
        raise ValueError("eps_values must be nonempty")
    for eps in eps_list:
        if not 0.0 < eps < 0.5:
            raise ValueError(f"epsilon values must lie in (0, 0.5), got {eps}")
    return _sweep(cfg, "epsilon", eps_list,
                  [_penalty(eps, cfg.fbl.blocklength) for eps in eps_list])


class PacketSize(NamedTuple):
    packet_bits: float
    channel_uses: float


def packet_size(bandwidth_hz: float, t_max_s: float, aadr: float) -> PacketSize:
    """Packet size B * T_max * rate in bits, plus the channel-use budget B * T_max."""
    if not (0.0 < bandwidth_hz < math.inf and 0.0 < t_max_s < math.inf):
        raise ValueError("bandwidth and latency budget must be positive and finite")
    if not 0.0 <= aadr < math.inf:
        raise ValueError("average rate must be finite and nonnegative")
    channel_uses = bandwidth_hz * t_max_s
    packet_bits = channel_uses * aadr
    if not math.isfinite(packet_bits):
        raise ValueError(f"packet size overflows: B*T_max = {channel_uses:g}, rate = {aadr:g}")
    return PacketSize(packet_bits=packet_bits, channel_uses=channel_uses)


def report_dmax(cfg: RunConfig) -> tuple[float, bool]:
    """Distance limit for the config and whether the airspace satisfies it."""
    consts = derive_constants(cfg.scenario, cfg.link)
    limit = d_max(consts, cfg.fbl)
    return limit, cfg.airspace.r_max_m <= limit


def _format_cell(value) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value:.12g}"


def write_csv(path: str, columns, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_format_cell(row[c]) for c in columns) + "\n")


def _resolve_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else load_preset(args.scenario)
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.samples is not None:
        overrides["n_samples"] = args.samples
    if args.n1 is not None:
        overrides["n_theta"] = args.n1
    if args.n2 is not None:
        overrides["n_dist"] = args.n2
    return replace(cfg, **overrides)


def _out_path(args, cfg: RunConfig, default_name: str) -> str:
    if args.out:
        return args.out
    directory = os.environ.get(OUT_DIR_ENV) or cfg.output_dir
    return os.path.join(directory, default_name)


def _parse_values(text: str, kind):
    return [kind(tok) for tok in text.split(",") if tok.strip()]


def _cmd_sweep_m(args) -> int:
    cfg = _resolve_config(args)
    m_values = _parse_values(args.m_values, int) if args.m_values else list(range(100, 1001, 100))
    rows = sweep_blocklength(cfg, m_values)
    path = _out_path(args, cfg, "sweep_m.csv")
    write_csv(path, SWEEP_M_COLUMNS, rows)
    print(f"scenario={cfg.scenario.name} eps={cfg.fbl.epsilon:g} rows={len(rows)}")
    print(f"wrote {path}")
    return 0


def _cmd_sweep_eps(args) -> int:
    cfg = _resolve_config(args)
    eps_values = (_parse_values(args.eps_values, float) if args.eps_values
                  else [10.0**k for k in range(-12, -2)])
    rows = sweep_epsilon(cfg, eps_values)
    path = _out_path(args, cfg, "sweep_eps.csv")
    write_csv(path, SWEEP_EPS_COLUMNS, rows)
    print(f"scenario={cfg.scenario.name} M={cfg.fbl.blocklength} rows={len(rows)}")
    print(f"wrote {path}")
    return 0


def _cmd_dmax(args) -> int:
    cfg = _resolve_config(args)
    limit, ok = report_dmax(cfg)
    print(f"scenario={cfg.scenario.name} M={cfg.fbl.blocklength} eps={cfg.fbl.epsilon:g}")
    print(f"d_max = {limit:.6g} m ({limit / 1e3:.4g} km)")
    print(f"airspace r_max = {cfg.airspace.r_max_m:.6g} m -> "
          f"{'within' if ok else 'EXCEEDS'} the convexity limit")
    print(DMAX_REFERENCE_NOTE)
    return 0 if ok else 1


def _cmd_packet_size(args) -> int:
    if not 0.0 < args.t_max < math.inf:
        raise ValueError(f"--t-max must be a positive finite number of seconds, got {args.t_max}")
    if args.aadr is not None and not 0.0 <= args.aadr < math.inf:
        raise ValueError(f"--aadr must be a finite nonnegative rate, got {args.aadr}")
    cfg = _resolve_config(args)
    bandwidth = cfg.link.bandwidth_hz
    channel_uses = bandwidth * args.t_max
    if args.aadr is not None:
        rate = args.aadr
    else:
        if not math.isfinite(channel_uses):
            raise ValueError(f"latency budget too large: B*T_max = {channel_uses:g}")
        m = round(channel_uses)
        if m < 1:
            raise ValueError(f"latency budget too small: B*T_max = {channel_uses:g} < 1")
        consts = derive_constants(cfg.scenario, cfg.link)
        fbl = FblConfig(blocklength=m, epsilon=cfg.fbl.epsilon)
        rate = aadr_gcq(cfg.airspace, consts, fbl, cfg.n_theta, cfg.n_dist)
    result = packet_size(bandwidth, args.t_max, rate)
    print(f"channel uses M = B*T_max = {result.channel_uses:.12g}")
    print(f"average rate = {rate:.12g} bits/channel use")
    print(f"packet size L = {result.packet_bits:.12g} bits")
    return 0


def _cmd_verify(args) -> int:
    q_values = _parse_values(args.q_values, float) if args.q_values else (0.05, 0.2, 0.6)
    report = run_lemma_suite(q_values=tuple(q_values), grid_points=args.grid_points)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    for check in report["checks"]:
        label = f"{check['name']}" + (f" q={check['q']:g}" if check["q"] is not None else "")
        print(f"{'PASS' if check['passed'] else 'FAIL'} {label} worst={check['worst']:.3e}")
    print("all passed" if report["all_passed"] else "FAILURES detected")
    return 0 if report["all_passed"] else 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", choices=PRESET_NAMES, default="dense_urban",
                        help="bundled preset to start from")
    parser.add_argument("--config", help="JSON config file (overrides --scenario)")
    parser.add_argument("--seed", type=int, help="Monte Carlo seed override")
    parser.add_argument("--samples", type=int, help="Monte Carlo sample count override")
    parser.add_argument("--n1", type=int, help="elevation quadrature order override")
    parser.add_argument("--n2", type=int, help="distance quadrature order override")
    parser.add_argument("--out", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavlink",
        description="Average achievable data rate of a short-packet ground-to-UAV "
                    "control link: Monte Carlo, nested quadrature (GCQ) and a "
                    "closed-form lower bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep-m", help="sweep the channel blocklength, emit CSV")
    _add_common(p)
    p.add_argument("--m-values", help="comma-separated blocklengths (default 100..1000 step 100)")
    p.set_defaults(func=_cmd_sweep_m)

    p = sub.add_parser("sweep-eps", help="sweep the decoding error probability, emit CSV")
    _add_common(p)
    p.add_argument("--eps-values", help="comma-separated epsilons in (0, 0.5) "
                                        "(default 1e-12..1e-3 decades)")
    p.set_defaults(func=_cmd_sweep_eps)

    p = sub.add_parser("dmax", help="report the convexity distance limit")
    _add_common(p)
    p.set_defaults(func=_cmd_dmax)

    p = sub.add_parser("packet-size", help="packet size for a latency budget")
    _add_common(p)
    p.add_argument("--t-max", type=float, required=True, help="latency budget in seconds")
    p.add_argument("--aadr", type=float, help="use this rate instead of computing it")
    p.set_defaults(func=_cmd_packet_size)

    p = sub.add_parser("verify", help="run the numerical lemma suite")
    p.add_argument("--q-values", help="comma-separated penalty coefficients "
                                      "(default 0.05,0.2,0.6)")
    p.add_argument("--grid-points", type=int, default=200, help="points per log-grid")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
