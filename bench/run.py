"""uavlink benchmark: closed-loop CLI workloads, checked outputs, traced layers.

    python3 bench/run.py --workload {cli-paper,mc-large,dense-sweep,all}
                         --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout that has `src/uavlink`; nothing needs
installing. One client runs one op at a time (a closed loop), so at most two
processes are alive: this one and the op's `python -m uavlink` child.

--trace 0 times fresh CLI processes, in the environment the benchmark was
started with, and reports the end-to-end metrics scaled to a reference machine
speed (see REFERENCE_CODE).
--trace 1 calls `uavlink.cli.main(argv)` in this process, alternating untraced
ops with ops under the timing wrappers of tracer.py, and reports the
per-layer metrics. Every op's outputs go through checker.py; an op with any
problem counts as failed. The metric names and units are those BENCHMARK.json
declares. The last stdout line is the JSON result; the lines before it list
every metric by name and unit, and the full report with the run environment.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checker import OutputChecker  # noqa: E402
from workloads import WORKLOADS, csv_rows, make_workload  # noqa: E402

IMPORT_REPEATS = 5
# End-to-end times are scaled to a reference machine speed: a shared host's
# speed drifts by a third or more over minutes, and process start and array
# arithmetic drift by different amounts, in wall time and in CPU time. After
# every op a reference process imports numpy, then runs fixed array
# arithmetic, on large arrays and in many small calls as the workloads do, and
# prints that part's wall and CPU time; no change to uavlink can move either
# part. REFERENCE_NOMINAL is the reference on the machine the scaled times are
# given for.
REFERENCE_CODE = (
    "import time, numpy as np\n"
    "t, c = time.perf_counter(), time.thread_time()\n"
    "x = np.random.Generator(np.random.Philox(7)).random(1_000_000)\n"
    "for _ in range(3):\n"
    "    y = np.sqrt(np.log1p(np.exp(-3.0 * x) * 1e3) * x)\n"
    "for i in range(1000):\n"
    "    s = x[i:i + 5000]\n"
    "    y = float(np.sqrt(np.log1p(np.exp(-3.0 * s) * 1e3) * s).sum())\n"
    "print(time.perf_counter() - t, time.thread_time() - c)\n"
)


class Reference(NamedTuple):
    start_s: float  # wall time of everything but the arithmetic
    compute_s: float  # wall time of the arithmetic
    start_cpu_s: float  # CPU time of everything but the arithmetic, all threads
    compute_cpu_s: float  # CPU time of the arithmetic, main thread


REFERENCE_NOMINAL = Reference(start_s=0.2, compute_s=0.1, start_cpu_s=0.3, compute_cpu_s=0.1)
PROCESS_TIMEOUT_S = 120.0
MEASUREMENT_LIMITS = ("no cache drop, CPU pinning or cgroup change was made; "
                      "only the benchmark's own processes were measured")

END_TO_END = ("setup_s", "op_s_p50", "rows_per_s", "cpu_s_per_op", "peak_rss_mb")

# Per-layer metrics, each per traced op: span self times, span call counts
# and the tracer's counters.
SELF_TIME_SPANS = (
    "geometry.sample_positions", "geometry.philox_draw", "channel.snr",
    "fbl_rate.achievable_rate", "fbl_rate.shannon_rate", "montecarlo.estimate",
    "quadrature.aadr_gcq", "quadrature.legendre_rule", "bound.g_inverse",
    "bound.aadr_lower_bound", "lemmas.run_lemma_suite", "config.load",
    "cli.sweep", "cli.write_csv",
)
CALL_COUNT_SPANS = (
    "fbl_rate.q_inverse", "montecarlo.estimate", "bound.g_inverse",
    "bound.expected_inverse_snr", "bound.exp_integral_ei",
)
COUNTERS = (
    "geometry.sample_positions.samples", "channel.snr.points",
    "fbl_rate.achievable_rate.points", "montecarlo.samples_drawn",
    "quadrature.aadr_gcq.nodes", "cli.write_csv.bytes",
)
MC_CHAIN_LAYERS = ("geometry.", "channel.", "fbl_rate.", "montecarlo.")
PER_ROW_LAYERS = ("quadrature.", "bound.")


def per_layer_names() -> tuple:
    return ("import.numpy_s", "import.uavlink_s",
            *(f"{s}.self_s" for s in SELF_TIME_SPANS),
            *(f"{s}.calls" for s in CALL_COUNT_SPANS),
            *COUNTERS,
            "montecarlo.distinct_draw_ratio", "quadrature.legendre_rule.cache_hit_ratio",
            "trace.overhead_ratio")


def declared_units(trace: int) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for this trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Proc(NamedTuple):
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("UAVLINK_OUT_DIR", None)
    return env


def run_process(argv, cwd: Path, env: dict) -> Proc:
    """Run one child to completion; wall time, its own rusage and its output.

    os.wait4 gives this child's CPU time and peak RSS alone; a watchdog
    kills it if it outlives PROCESS_TIMEOUT_S.
    """
    out_path, err_path = cwd / "_stdout", cwd / "_stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0,
                out_path.read_text(encoding="utf-8", errors="replace"),
                err_path.read_text(encoding="utf-8", errors="replace"))


# Asked of a child, so this process never imports numpy while it times the
# program: a child's peak RSS counts the memory of the process it forked from.
PROGRAM_INFO = ("import json, numpy, uavlink.config as c; print(json.dumps("
                "{'numpy': numpy.__version__, "
                "'presets': {n: c.preset_config(n) for n in c.PRESET_NAMES}}))")


def program_info(env: dict) -> dict:
    """numpy's version and the bundled preset configs, from a child process."""
    p = run_process([sys.executable, "-c", PROGRAM_INFO], WORK, env)
    if p.exit_code != 0:
        raise RuntimeError(f"cannot load the uavlink presets: {p.stderr.strip()[-500:]}")
    return json.loads(p.stdout)


def _read_out(workdir: Path, cmd) -> str | None:
    if cmd.out is None:
        return None
    try:
        return (workdir / cmd.out).read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def _clear_outputs(workdir: Path, commands) -> None:
    for cmd in commands:
        if cmd.out is not None:
            (workdir / cmd.out).unlink(missing_ok=True)


class Op(NamedTuple):
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    problems: list


class Tally:
    """Attempted and failed ops, and the problems that failed them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, op: Op) -> None:
        self.attempted += 1
        self.failed += bool(op.problems)
        self.problems += op.problems

    def finish(self, checker: OutputChecker) -> None:
        """Check the reference outputs; if they are wrong, every op was."""
        wrong = checker.check_references()
        if wrong:
            self.failed = self.attempted
            self.problems += wrong


class Run(NamedTuple):
    """One workload's timing, before its outputs get their full check."""

    metrics: dict
    extra: dict
    tally: Tally
    checker: OutputChecker


def run_process_op(commands, workdir: Path, env: dict, checker: OutputChecker) -> Op:
    """One op as fresh `python -m uavlink` processes, one after another."""
    _clear_outputs(workdir, commands)
    wall = cpu = rss = 0.0
    problems = []
    for cmd in commands:
        p = run_process([sys.executable, "-m", "uavlink", *cmd.argv], workdir, env)
        wall += p.wall_s
        cpu += p.cpu_s
        rss = max(rss, p.peak_rss_mb)
        found = checker.check(cmd, p.exit_code, p.stdout, _read_out(workdir, cmd))
        if found and p.stderr.strip():
            found.append(f"{cmd.kind} stderr: {p.stderr.strip()[-300:]}")
        problems += found
    return Op(wall, cpu, rss, problems)


def time_import(env: dict) -> float:
    return run_process([sys.executable, "-c", "import uavlink"], WORK, env).wall_s


def time_reference(env: dict) -> Reference:
    p = run_process([sys.executable, "-c", REFERENCE_CODE], WORK, env)
    compute, compute_cpu = (float(v) for v in p.stdout.split())
    return Reference(p.wall_s - compute, compute, p.cpu_s - compute_cpu, compute_cpu)


def import_breakdown(env: dict) -> dict:
    """numpy's and uavlink's own share of `import uavlink`, from -X importtime.

    import.uavlink_s is the uavlink package's cumulative time minus numpy's.
    """
    numpy_s, uavlink_s = [], []
    for _ in range(IMPORT_REPEATS):
        p = run_process([sys.executable, "-X", "importtime", "-c", "import uavlink"],
                        WORK, env)
        cumulative = {}
        for line in p.stderr.splitlines():
            fields = line.split("|")
            if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) * 1e-6
        numpy_s.append(cumulative.get("numpy", 0.0))
        uavlink_s.append(cumulative.get("uavlink", 0.0) - numpy_s[-1])
    return {"import.numpy_s": statistics.median(numpy_s),
            "import.uavlink_s": statistics.median(uavlink_s)}


def run_untraced(commands, seconds: float, workdir: Path, env: dict) -> Run:
    # A child's peak RSS counts the memory of the process it forked from, so
    # this one must not hold numpy or scipy while it times the program.
    held = [m for m in ("numpy", "scipy") if m in sys.modules]
    if held:
        raise RuntimeError(f"the benchmark process has imported {held} before timing")
    checker, tally = OutputChecker(), Tally()
    time_import(env)  # compiles bytecode so every timed import is alike
    tally.add(run_process_op(commands, workdir, env, checker))  # warm-up, sets the reference
    ops, setup, refs = [], [], []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        op = run_process_op(commands, workdir, env, checker)
        tally.add(op)
        ops.append(op)
        # Each op is followed by a set-up sample and a reference; a sample is
        # scaled by the reference timed right after it, which saw the same
        # machine state.
        setup.append(time_import(env))
        refs.append(time_reference(env))
    walls = [o.wall_s for o in ops]
    median = statistics.median
    raw = {"setup_s": median(setup), "op_s_p50": median(walls),
           "cpu_s_per_op": median(o.cpu_s for o in ops)}
    # An op spends about startup_share of its time starting processes, which
    # scales with the reference's start; the rest scales with its arithmetic.
    share = min(1.0, len(commands) * raw["setup_s"] / raw["op_s_p50"])
    nom = REFERENCE_NOMINAL

    def wall_speed(r: Reference) -> float:
        return share * nom.start_s / r.start_s + (1.0 - share) * nom.compute_s / r.compute_s

    def cpu_speed(r: Reference) -> float:
        return (share * nom.start_cpu_s / r.start_cpu_s
                + (1.0 - share) * nom.compute_cpu_s / r.compute_cpu_s)

    metrics = {
        "setup_s": median(s * nom.start_s / r.start_s for s, r in zip(setup, refs)),
        "op_s_p50": median(o.wall_s * wall_speed(r) for o, r in zip(ops, refs)),
        "cpu_s_per_op": median(o.cpu_s * cpu_speed(r) for o, r in zip(ops, refs)),
    }
    metrics["rows_per_s"] = csv_rows(commands) / metrics["op_s_p50"]
    metrics["peak_rss_mb"] = max(o.peak_rss_mb for o in ops)
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (walls[0],) * 3
    extra = {"timed_ops": len(ops), "raw": raw, "raw_op_s_quartiles": [q1, q3],
             "reference": {f: median(getattr(r, f) for r in refs) for f in Reference._fields},
             "startup_share": share}
    # Report p90 only when at least ten samples lie beyond it.
    if len(walls) >= 100:
        extra["raw_op_s_p90"] = statistics.quantiles(walls, n=10)[8]
    return Run(metrics, extra, tally, checker)


def run_inprocess_op(commands, workdir: Path, checker, tracer=None) -> tuple[Op, dict]:
    """One op through uavlink.cli.main in this process, traced if tracer is given."""
    import uavlink.cli
    import uavlink.quadrature
    from tracer import Probes, self_times

    # Start every op with an empty rule cache, as a fresh process does.
    rules = uavlink.quadrature.legendre_rule
    if hasattr(rules, "cache_clear"):
        rules.cache_clear()
    _clear_outputs(workdir, commands)
    wall = 0.0
    problems = []
    if tracer is not None:
        tracer.reset()
    probes = Probes(tracer) if tracer is not None else contextlib.nullcontext()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with probes:
            for cmd in commands:
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    start = time.perf_counter()
                    try:
                        code = uavlink.cli.main(list(cmd.argv))
                    except SystemExit as exc:
                        code = exc.code if isinstance(exc.code, int) else 1
                    wall += time.perf_counter() - start
                problems += checker.check(cmd, code, stdout.getvalue(), _read_out(workdir, cmd))
    finally:
        os.chdir(cwd)
    if tracer is None:
        return Op(wall, 0.0, 0.0, problems), {}

    # A probe whose target is gone would read 0 and look like a gain.
    problems += [f"tracer.py probe target {t} does not exist; update PROBES"
                 for t in probes.missing]
    self_s = self_times(tracer.spans)
    if sum(self_s.values()) > wall:
        problems.append(f"summed self time {sum(self_s.values()):.6f} s exceeds "
                        f"the op's {wall:.6f} s")
    calls = {}
    for span in tracer.spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    layers = {f"{s}.self_s": self_s.get(s, 0.0) for s in SELF_TIME_SPANS}
    layers.update({f"{s}.calls": calls.get(s, 0) for s in CALL_COUNT_SPANS})
    layers.update({c: tracer.counters.get(c, 0) for c in COUNTERS})
    keys = tracer.draw_keys
    layers["montecarlo.distinct_draw_ratio"] = len(set(keys)) / len(keys) if keys else 0.0
    info = rules.cache_info() if hasattr(rules, "cache_info") else None
    lookups = info.hits + info.misses if info else 0
    layers["quadrature.legendre_rule.cache_hit_ratio"] = info.hits / lookups if lookups else 0.0
    layers["_mc_chain_s"] = sum(v for k, v in self_s.items() if k.startswith(MC_CHAIN_LAYERS))
    layers["_per_row_s"] = sum(v for k, v in self_s.items() if k.startswith(PER_ROW_LAYERS))
    layers["_wall_s"] = wall
    return Op(wall, 0.0, 0.0, problems), layers


def run_traced(commands, seconds: float, workdir: Path, env: dict) -> Run:
    from tracer import Tracer

    checker, tally = OutputChecker(), Tally()
    imports = import_breakdown(env)
    # One process op first: the in-process ops must reproduce its outputs.
    reference = run_process_op(commands, workdir, env, checker)
    tally.add(reference)
    tally.add(run_inprocess_op(commands, workdir, checker)[0])  # warm-up
    tracer = Tracer()
    plain, traced, layer_samples = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        op, _ = run_inprocess_op(commands, workdir, checker)
        tally.add(op)
        plain.append(op.wall_s)
        op, layers = run_inprocess_op(commands, workdir, checker, tracer)
        tally.add(op)
        traced.append(op.wall_s)
        layer_samples.append(layers)
    layers = {k: statistics.median(s[k] for s in layer_samples) for k in layer_samples[0]}
    metrics = dict(imports)
    metrics.update({k: v for k, v in layers.items() if not k.startswith("_")})
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    extra = {
        "traced_ops": len(traced),
        "process_op_s": reference.wall_s,
        "inprocess_op_s": statistics.median(plain),
        "mc_chain_share_of_traced_op": layers["_mc_chain_s"] / layers["_wall_s"],
        "mc_chain_share_of_process_op": layers["_mc_chain_s"] / reference.wall_s,
        "quadrature_bound_self_s": layers["_per_row_s"],
    }
    return Run(metrics, extra, tally, checker)


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_environment(seed: int, numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "git_commit": git_commit(),
        "seed": seed,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "measurement_limits": MEASUREMENT_LIMITS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "uavlink" / "__init__.py").is_file():
        print(f"error: no uavlink sources under {SRC}; run inside a uavlink checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    env = child_env()
    info = program_info(env)
    run_env = run_environment(args.seed, info["numpy"])

    units = declared_units(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    for name in names:
        workdir = WORK / name
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        commands = make_workload(name, args.seed, str(workdir), info["presets"])
        measure = run_traced if args.trace else run_untraced
        runs[name] = measure(commands, args.seconds, workdir, env)
        if set(runs[name].metrics) != set(units):
            raise RuntimeError(f"computed metrics {sorted(runs[name].metrics)} differ "
                               f"from BENCHMARK.json's {sorted(units)}")

    # The full output checks run the oracle, which imports scipy; they wait
    # until every workload is timed.
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, run in runs.items():
        tally = run.tally
        tally.finish(run.checker)
        run.extra["failed_ops_ratio"] = tally.failed / tally.attempted
        prefix = f"{name}:" if args.workload == "all" else ""
        for metric, unit in units.items():
            value = run.metrics[metric]
            print(f"{name} {metric} = {value:.6g} {unit}")
            result["metrics"][prefix + metric] = {"value": value, "unit": unit}
        for key, value in run.extra.items():
            print(f"{name} [{key}] = {value}")
        for problem in tally.problems[:20]:
            print(f"{name} PROBLEM {problem}")
        result["attempted"] += tally.attempted
        result["failed"] += tally.failed
        print("report " + json.dumps({"workload": name, "trace": args.trace, "env": run_env,
                                      "extra": run.extra, "problems": tally.problems[:20]}))
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
