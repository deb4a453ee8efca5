"""Output checker: judges every command of every op; a problem fails the op.

Every run of a command must exit 0 and reproduce the first run's stdout and
output file byte for byte. The first run is then checked in full; if it is
wrong, so is every run that reproduced it.

Full checks of a sweep CSV: header, row count and first column; on every row
aadr_lb <= aadr_gcq and |aadr_mc - aadr_gcq| <= 4 aadr_mc_stderr; and
aadr_gcq within ORACLE_RTOL of an independent oracle. The oracle uses that the
rate is affine in q = Qinv(eps)/sqrt(M): AADR(q) = E[S] - q E[W] with
S = log2(1 + snr) and W = sqrt(V)/ln 2. E[S] and E[W] come once per config
from scipy's dblquad over the position density, with the SNR formula written
out here from the config's raw parameters.
"""

import json
import math

from workloads import SWEEP_EPS_HEADER, SWEEP_M_HEADER

ORACLE_RTOL = 1e-9
MC_SIGMAS = 4.0


def _link_snr(cfg: dict):
    """snr(theta_deg, d_m) of a config dict, from the link budget up."""
    sc, li = cfg["scenario"], cfg["link"]
    bw = li["bandwidth_hz"]
    tx_dbw = li["tx_power_db"] - (30.0 if li["tx_power_unit"] == "dBm" else 0.0)
    noise_psd = li["noise_db"] - (10.0 * math.log10(bw) if li["noise_unit"] == "dBm" else 0.0)
    noise_dbw = noise_psd + 10.0 * math.log10(bw) - 30.0
    free_space_db = 20.0 * math.log10(4.0 * math.pi * li["carrier_hz"] / li["light_speed_m_s"])
    gain = 10.0 ** ((tx_dbw - noise_dbw - free_space_db - sc["eta_nlos_db"]) / 10.0)
    los_gain = (sc["eta_nlos_db"] - sc["eta_los_db"]) * math.log(10.0) / 10.0
    a, b = sc["a"], sc["b"]

    def snr(theta, d):
        p_los = 1.0 / (1.0 + a * math.exp(-b * (theta - a)))
        return gain / (d * d) * math.exp(los_gain * p_los)

    return snr


class Oracle:
    """AADR(M, eps) = E[S] - q E[W], with the moments cached per config."""

    def __init__(self):
        self._moments: dict[str, tuple[float, float]] = {}

    def moments(self, cfg: dict) -> tuple[float, float]:
        key = json.dumps([cfg["scenario"], cfg["link"], cfg["airspace"]], sort_keys=True)
        if key not in self._moments:
            from scipy import integrate

            snr = _link_snr(cfg)
            air = cfg["airspace"]
            r, big_r, th = air["r_min_m"], air["r_max_m"], air["theta_min_deg"]
            density = 3.0 / ((big_r**3 - r**3) * (90.0 - th))  # times d^2
            ln2 = math.log(2.0)

            def s_term(theta, d):
                return density * d * d * math.log1p(snr(theta, d)) / ln2

            def w_term(theta, d):
                g = snr(theta, d)
                return density * d * d * math.sqrt(g * (g + 2.0)) / (1.0 + g) / ln2

            es = integrate.dblquad(s_term, r, big_r, th, 90.0, epsabs=0.0, epsrel=1e-13)[0]
            ew = integrate.dblquad(w_term, r, big_r, th, 90.0, epsabs=0.0, epsrel=1e-13)[0]
            self._moments[key] = (es, ew)
        return self._moments[key]

    def aadr(self, cfg: dict, m: int, eps: float) -> float:
        from scipy import stats

        es, ew = self.moments(cfg)
        return float(es - stats.norm.isf(eps) / math.sqrt(m) * ew)


def check_sweep_csv(text: str, cmd, oracle: Oracle) -> list[str]:
    """Problems found in one sweep CSV; an empty list means it passed."""
    lines = text.split("\n")
    by_m = cmd.kind == "sweep-m"
    header = SWEEP_M_HEADER if by_m else SWEEP_EPS_HEADER
    if lines[0] != header:
        return [f"{cmd.kind}: header {lines[0]!r}, expected {header!r}"]
    if lines[-1] != "" or len(lines) - 2 != len(cmd.x_values):
        return [f"{cmd.kind}: {len(lines) - 2} rows, expected {len(cmd.x_values)}"]
    fbl = cmd.config["fbl"]
    problems = []
    for i, (line, x) in enumerate(zip(lines[1:-1], cmd.x_values), start=1):
        cells = line.split(",")
        try:
            first = int(cells[0]) if by_m else float(cells[0])
            _shannon, mc, stderr, gcq, lb = (float(c) for c in cells[1:])
        except ValueError:
            problems.append(f"{cmd.kind} row {i}: malformed row {line!r}")
            continue
        if first != x:
            problems.append(f"{cmd.kind} row {i}: first column {cells[0]}, expected {x!r}")
            continue
        if not lb <= gcq:
            problems.append(f"{cmd.kind} row {i}: aadr_lb {lb} > aadr_gcq {gcq}")
        if not abs(mc - gcq) <= MC_SIGMAS * stderr:
            problems.append(f"{cmd.kind} row {i}: |aadr_mc - aadr_gcq| = {abs(mc - gcq):.3g}"
                            f" > {MC_SIGMAS:g} stderr = {MC_SIGMAS * stderr:.3g}")
        m, eps = (x, fbl["epsilon"]) if by_m else (fbl["blocklength"], x)
        want = oracle.aadr(cmd.config, m, eps)
        if not abs(gcq - want) <= ORACLE_RTOL * abs(want):
            problems.append(f"{cmd.kind} row {i}: aadr_gcq {gcq!r} vs oracle {want!r} "
                            f"(relative error {abs(gcq - want) / abs(want):.3g})")
    return problems


def _field(stdout: str, prefix: str) -> float | None:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix):].split()[0])
    return None


def check_packet_size(stdout: str, cmd, oracle: Oracle) -> list[str]:
    bandwidth = cmd.config["link"]["bandwidth_hz"]
    m = round(bandwidth * cmd.t_max)
    rate = _field(stdout, "average rate = ")
    bits = _field(stdout, "packet size L = ")
    if rate is None or bits is None:
        return ["packet-size: rate or packet size missing from stdout"]
    want = oracle.aadr(cmd.config, m, cmd.config["fbl"]["epsilon"])
    problems = []
    if not abs(rate - want) <= ORACLE_RTOL * abs(want):
        problems.append(f"packet-size: rate {rate!r} vs oracle {want!r}")
    if not abs(bits - m * want) <= ORACLE_RTOL * abs(m * want):
        problems.append(f"packet-size: {bits!r} bits vs oracle {m * want!r}")
    return problems


class OutputChecker:
    """Checks each command's exit code and reruns; remembers first runs.

    check() needs no numpy or scipy, so a benchmark process stays small while
    it spawns the program; check_references() runs the full content checks
    (and the oracle) on the first run of each command once the timing is done.
    """

    def __init__(self, oracle: Oracle | None = None):
        self.oracle = oracle or Oracle()
        self._first: dict[tuple, tuple] = {}

    def check(self, cmd, exit_code: int, stdout: str, out_text: str | None) -> list[str]:
        if exit_code != 0:
            return [f"{cmd.kind}: exit code {exit_code}"]
        first = self._first.setdefault((cmd.kind, cmd.argv), (cmd, stdout, out_text))
        if first[1:] != (stdout, out_text):
            return [f"{cmd.kind}: output differs from the first run of the same argv"]
        return []

    def check_references(self) -> list[str]:
        """Full content checks of each command's first successful run."""
        problems = []
        for cmd, stdout, out_text in self._first.values():
            problems += self._check_content(cmd, stdout, out_text)
        return problems

    def _check_content(self, cmd, stdout: str, out_text: str | None) -> list[str]:
        if cmd.out is not None and out_text is None:
            return [f"{cmd.kind}: output file {cmd.out} missing"]
        if cmd.kind in ("sweep-m", "sweep-eps"):
            return check_sweep_csv(out_text, cmd, self.oracle)
        if cmd.kind == "packet-size":
            return check_packet_size(stdout, cmd, self.oracle)
        if cmd.kind == "dmax":
            return [] if "within the convexity limit" in stdout else \
                ["dmax: airspace not reported within the convexity limit"]
        if cmd.kind == "verify":
            try:
                passed = json.loads(out_text).get("all_passed") is True
            except (ValueError, AttributeError):
                passed = False
            return [] if passed else ["verify: report does not say all_passed"]
        return [f"unknown command kind {cmd.kind}"]
