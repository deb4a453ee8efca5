"""Command-line interface: parameter sweeps, distance-limit and packet-size
calculators, and the lemma verification runner. Sweeps emit plot-ready CSV
with 12 significant digits; reruns with the same config and seed are
byte-identical.
"""

import argparse
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from .bound import _G_INVERSE_DOMAIN, _lower_bound_rows, _within_d_max, d_max
from .config import PRESET_NAMES, RunConfig, load_config, load_preset
from .fbl_rate import FblConfig, _rate
from .lemmas import run_lemma_suite
from .quadrature import _node_terms, aadr_gcq
# bench/tracer.py PROBES look up aadr_lower_bound and the Monte Carlo estimators
# in this module, though the sweep computes their columns through _rate_terms,
# _aadr_rows and _lower_bound_rows. bound loads in every command anyway; the
# estimators come from __getattr__ below, so that only a sweep imports
# montecarlo. Both go once the probes move (ROADMAP item 1).
from .bound import aadr_lower_bound  # noqa: F401

_PROBE_ONLY = ("estimate_aadr", "estimate_shannon")

_ESTIMATOR_COLUMNS = ("shannon_mc", "aadr_mc", "aadr_mc_stderr", "aadr_gcq", "aadr_lb")
SWEEP_M_COLUMNS = ("M", *_ESTIMATOR_COLUMNS)
SWEEP_EPS_COLUMNS = ("epsilon", *_ESTIMATOR_COLUMNS)

DMAX_REFERENCE_NOTE = (
    "note: reference figures of 56.4 km (dense urban) and 56.8 km (suburban) "
    "correspond to tx_power_unit='dBm' with noise_unit='dBm' at M=200, "
    "eps=1e-9; the default dBW / dBm-per-Hz reading gives km-scale values."
)


def __getattr__(name):
    """montecarlo's estimate_aadr and estimate_shannon, looked up here by bench/tracer.py."""
    if name not in _PROBE_ONLY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import montecarlo

    return getattr(montecarlo, name)


def _sweep(cfg: RunConfig, column: str, values: list, rows: list[FblConfig]) -> list[dict]:
    """One row per (value, FblConfig) pair; value fills the given column.

    The sweep draws the Monte Carlo sample, evaluates the node grid and
    E(1/SNR) once each; every estimator column is then one array expression
    over q and those q-free sums, with the bits of the per-config public
    estimators. The Shannon column is E[S], the first Monte Carlo moment.
    aadr_lb is nan in a row whose d_max is below the airspace radius.
    """
    from .montecarlo import _aadr_rows, _rate_terms  # only a sweep draws

    space, consts, q = cfg.airspace, cfg.consts, np.array([row.q for row in rows])
    moments = _rate_terms(space, consts, cfg.n_samples, cfg.seed, cfg.shards)
    mc_mean, mc_stderr = _aadr_rows(moments, q, cfg.n_samples)
    gcq = _rate(*_node_terms(space, consts, cfg.n_theta, cfg.n_dist), q)
    estimates = ([moments[0]] * len(values), mc_mean.tolist(), mc_stderr.tolist(),
                 gcq.tolist(), _lower_bound_rows(space, consts, q).tolist())
    return [dict(zip((column, *_ESTIMATOR_COLUMNS), row)) for row in zip(values, *estimates)]


def sweep_blocklength(cfg: RunConfig, m_values) -> list[dict]:
    """One row per blocklength M at the config's epsilon."""
    m_list = list(m_values)
    if not m_list:
        raise ValueError("m_values must be nonempty")
    return _sweep(cfg, "M", m_list,
                  [FblConfig(blocklength=m, epsilon=cfg.fbl.epsilon) for m in m_list])


def sweep_epsilon(cfg: RunConfig, eps_values) -> list[dict]:
    """One row per decoding error probability at the config's blocklength."""
    eps_list = [float(e) for e in eps_values]
    if not eps_list:
        raise ValueError("eps_values must be nonempty")
    return _sweep(cfg, "epsilon", eps_list,
                  [FblConfig(blocklength=cfg.fbl.blocklength, epsilon=eps) for eps in eps_list])


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
    cfg = load_config(args.config) if args.config else load_preset(args.preset)
    # Each override flag stores under its RunConfig field's name. replace()
    # builds, and so validates, the config again: only an override needs it.
    overrides = {field.name: getattr(args, field.name) for field in fields(RunConfig)
                 if getattr(args, field.name, None) is not None}
    return replace(cfg, **overrides) if overrides else cfg


def _parse_values(text: str, kind, flag: str):
    """The comma-separated values of flag, each read by kind; a bad one is named with flag."""
    values = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            values.append(kind(tok))
        except ValueError:
            raise ValueError(f"argument {flag}: invalid {kind.__name__} value: {tok!r}") from None
    return values


def _cmd_sweep_m(args) -> int:
    cfg = _resolve_config(args)
    m_values = (_parse_values(args.m_values, int, "--m-values") if args.m_values is not None
                else list(range(100, 1001, 100)))
    rows = sweep_blocklength(cfg, m_values)
    path = args.out or os.path.join(cfg.output_dir, "sweep_m.csv")
    write_csv(path, SWEEP_M_COLUMNS, rows)
    print(f"scenario={cfg.scenario.name} eps={cfg.fbl.epsilon:g} rows={len(rows)}")
    print(f"wrote {path}")
    return 0


def _cmd_sweep_eps(args) -> int:
    cfg = _resolve_config(args)
    eps_values = (_parse_values(args.eps_values, float, "--eps-values")
                  if args.eps_values is not None else [10.0**k for k in range(-12, -2)])
    rows = sweep_epsilon(cfg, eps_values)
    path = args.out or os.path.join(cfg.output_dir, "sweep_eps.csv")
    write_csv(path, SWEEP_EPS_COLUMNS, rows)
    print(f"scenario={cfg.scenario.name} M={cfg.fbl.blocklength} rows={len(rows)}")
    print(f"wrote {path}")
    return 0


def _cmd_dmax(args) -> int:
    cfg = _resolve_config(args)
    consts = cfg.consts
    limit = d_max(consts, cfg.fbl)
    ok = bool(_within_d_max(cfg.airspace, consts, cfg.fbl.q))
    print(f"scenario={cfg.scenario.name} M={cfg.fbl.blocklength} eps={cfg.fbl.epsilon:g}")
    print(f"d_max = {limit:.6g} m ({limit / 1e3:.4g} km)")
    print(f"airspace r_max = {cfg.airspace.r_max_m:.6g} m -> "
          f"{'within' if ok else 'EXCEEDS'} the convexity limit")
    print(DMAX_REFERENCE_NOTE)
    return 0 if ok else 1


def _cmd_packet_size(args) -> int:
    """Packet size L = M * rate in bits over M = round(B * T_max) channel uses.

    B * T_max must be finite and at least 1, with or without --aadr. The
    rate is --aadr, or else GCQ's at M.
    """
    if not 0.0 < args.t_max < math.inf:
        raise ValueError(f"--t-max must be a positive finite number of seconds, got {args.t_max}")
    if args.aadr is not None and not 0.0 <= args.aadr < math.inf:
        raise ValueError(f"--aadr must be a finite nonnegative rate, got {args.aadr}")
    cfg = _resolve_config(args)
    budget = cfg.link.bandwidth_hz * args.t_max
    if not math.isfinite(budget):
        raise ValueError(f"latency budget too large: B*T_max = {budget:g}")
    if budget < 1.0:
        raise ValueError(f"latency budget too small: B*T_max = {budget:g} < 1")
    m = round(budget)
    if args.aadr is not None:
        rate = args.aadr + 0.0  # -0 becomes 0
    else:
        fbl = FblConfig(blocklength=m, epsilon=cfg.fbl.epsilon)
        rate = aadr_gcq(cfg.airspace, cfg.consts, fbl, cfg.n_theta, cfg.n_dist)
        if not 0.0 <= rate < math.inf:
            raise ValueError(f"average rate must be finite and nonnegative, got {rate:g} "
                             f"bits/channel use at M = {m}")
    packet_bits = m * rate
    if not math.isfinite(packet_bits):
        raise ValueError(f"packet size overflows: M = {m:g}, rate = {rate:g}")
    print(f"channel uses M = round(B*T_max) = {m}")
    print(f"average rate = {rate:.12g} bits/channel use")
    print(f"packet size L = {packet_bits:.12g} bits")
    return 0


def _cmd_verify(args) -> int:
    import json  # only verify writes JSON

    # run_lemma_suite's signature holds the default q values.
    report = (run_lemma_suite() if args.q_values is None
              else run_lemma_suite(_parse_values(args.q_values, float, "--q-values")))
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    for check in report["checks"]:
        verdict = "PASS" if check["passed"] else "FAIL"
        print(f"{verdict} {check['name']} q={check['q']:g} worst={check['worst']:.3e}")
    for name in report["proved"]:
        print(f"PROVED {name}")
    print("all passed" if report["all_passed"] else "FAILURES detected")
    return 0 if report["all_passed"] else 1


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of the help raises.

    argparse ignores it, which would hide a closed stdout pipe from
    __main__.run; the subcommands' parsers are of this class too.
    """

    def print_help(self, file=None):
        file = file or sys.stdout
        if file is not None:  # a closed stdout: nothing to write to, as in argparse
            file.write(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="uavlink",
        description="Average achievable data rate of a short-packet ground-to-UAV "
                    "control link: Monte Carlo, nested quadrature (GCQ) and a "
                    "closed-form lower bound.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each command takes only the flags it reads. dmax and packet-size draw
    # nothing, but --seed is part of their config and is checked with it.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--scenario", dest="preset", choices=PRESET_NAMES,
                        default="dense_urban", help="bundled preset to start from")
    config.add_argument("--config", help="JSON config file (overrides --scenario)")
    config.add_argument("--seed", type=int, help="Monte Carlo seed override")
    orders = argparse.ArgumentParser(add_help=False, parents=[config])
    orders.add_argument("--n1", type=int, dest="n_theta", metavar="N1",
                        help="elevation quadrature order override")
    orders.add_argument("--n2", type=int, dest="n_dist", metavar="N2",
                        help="distance quadrature order override")
    sweep = argparse.ArgumentParser(add_help=False, parents=[orders])
    sweep.add_argument("--samples", type=int, dest="n_samples", metavar="SAMPLES",
                       help="Monte Carlo sample count override")
    sweep.add_argument("--out", help="output file path")

    p = sub.add_parser("sweep-m", parents=[sweep],
                       help="sweep the channel blocklength, emit CSV")
    p.add_argument("--m-values", help="comma-separated blocklengths (default 100..1000 step 100)")
    p.set_defaults(func=_cmd_sweep_m)

    p = sub.add_parser("sweep-eps", parents=[sweep],
                       help="sweep the decoding error probability, emit CSV")
    p.add_argument("--eps-values", help="comma-separated epsilons in (0, 0.5) "
                                        "(default 1e-12..1e-3 decades)")
    p.set_defaults(func=_cmd_sweep_eps)

    p = sub.add_parser("dmax", parents=[config], help="report the convexity distance limit")
    p.set_defaults(func=_cmd_dmax)

    p = sub.add_parser("packet-size", parents=[orders], help="packet size for a latency budget")
    p.add_argument("--t-max", type=float, required=True, help="latency budget in seconds")
    p.add_argument("--aadr", type=float, help="use this rate instead of computing it")
    p.set_defaults(func=_cmd_packet_size)

    p = sub.add_parser("verify", help="run the numerical lemma suite")
    p.add_argument("--q-values", help="comma-separated penalty coefficients, "
                                      "each in [{:g}, {:g}]".format(*_G_INVERSE_DOMAIN))
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except BrokenPipeError:
        raise  # stdout's reader has gone: not a usage error; see __main__.run
    except (ValueError, OSError, RuntimeError, OverflowError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
