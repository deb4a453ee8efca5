"""A uavlink process imports only what it runs, and ends once its output is out.

`import uavlink` is lazy and leaves the environment alone; the CLI entry
defaults OpenBLAS to one thread before numpy loads, and the thread count
cannot change a single output bit. `python -m uavlink` skips the
interpreter's teardown, with the exit status and bytes of an ordinary exit.
"""

import atexit
import copy
import hashlib
import hmac
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import uavlink
import uavlink.__main__
from uavlink.config import preset_config
from uavlink.montecarlo import _ARRAY_PHILOX_MAX

SRC = Path(uavlink.__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
THREADS = "OPENBLAS_NUM_THREADS"
UNBUFFERED = "PYTHONUNBUFFERED"

# Every subcommand at small sizes.
SMALL = ["--samples", "2000", "--n1", "8", "--n2", "8"]
ORDINARY_EXIT = ["-c", "import sys, uavlink.cli; sys.exit(uavlink.cli.main())"]
FAST_EXIT = ["-m", "uavlink"]


def _env(env_changes=None) -> dict:
    """This environment with these sources first on the path; env_changes maps a
    variable to a value, or to None to unset it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key, value in (env_changes or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    return env


def _python(code_or_args, env_changes=None, cwd=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on these sources and require exit status 0."""
    args = ["-c", code_or_args] if isinstance(code_or_args, str) else code_or_args
    proc = subprocess.run([sys.executable, *args], env=_env(env_changes), cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc


def test_import_uavlink_loads_no_numpy_and_leaves_the_environment_alone():
    _python("import os, sys\n"
            "before = dict(os.environ)\n"
            "import uavlink\n"
            "assert 'numpy' not in sys.modules, 'numpy'\n"
            "assert not [m for m in sys.modules if m.startswith('uavlink.')], 'submodule'\n"
            "assert dict(os.environ) == before, 'environ'\n",
            {THREADS: None})


def test_cli_commands_without_monte_carlo_never_load_numpy_random():
    _python("import sys\n"
            "import uavlink.cli\n"
            "assert 'numpy.random' not in sys.modules, 'import'\n"
            "for argv in (['dmax'], ['packet-size', '--t-max', '2e-4'],\n"
            "             ['verify']):\n"
            "    uavlink.cli.main(argv)\n"
            "    assert 'numpy.random' not in sys.modules, argv\n")


# Each command in a fresh interpreter, and whether it loads the Monte Carlo
# module and json: only a sweep draws, and only verify and a config file read or
# write JSON.
COMMAND_MODULES = {
    "dmax": (["dmax"], False, False),
    "packet-size": (["packet-size", "--t-max", "2e-4"], False, False),
    "verify": (["verify", "--out", "out"], False, True),
    "sweep-eps": (["sweep-eps", "--scenario", "suburban", *SMALL, "--eps-values", "1e-9",
                   "--out", "out"], True, False),
    "sweep-m-config": (["sweep-m", "--config", "c.json", *SMALL, "--m-values", "200",
                        "--out", "out"], True, True),
}


@pytest.mark.parametrize("case", COMMAND_MODULES)
def test_each_command_loads_the_monte_carlo_module_and_json_only_if_it_runs_them(tmp_path, case):
    argv, loads_montecarlo, loads_json = COMMAND_MODULES[case]
    (tmp_path / "c.json").write_text(json.dumps(preset_config("dense_urban")), encoding="utf-8")
    proc = _python(["-c", "import sys, uavlink.cli\n"
                          "assert uavlink.cli.main(sys.argv[1:]) == 0\n"
                          "print(' '.join(m for m in ('uavlink.montecarlo', 'json')\n"
                          "               if m in sys.modules), file=sys.stderr)\n", *argv],
                   cwd=tmp_path)
    loaded = proc.stderr.split()
    assert ("uavlink.montecarlo" in loaded) == loads_montecarlo
    assert ("json" in loaded) == loads_json


def test_cli_entry_defaults_openblas_to_one_thread(monkeypatch, capsys):
    monkeypatch.delenv(THREADS, raising=False)
    assert uavlink.__main__.main(["packet-size", "--t-max", "2e-4", "--aadr", "1"]) == 0
    assert os.environ[THREADS] == "1"
    assert "packet size L = 200 bits" in capsys.readouterr().out


def test_cli_entry_keeps_an_explicit_openblas_thread_count(monkeypatch):
    monkeypatch.setenv(THREADS, "2")
    assert uavlink.__main__.main(["packet-size", "--t-max", "2e-4", "--aadr", "1"]) == 0
    assert os.environ[THREADS] == "2"


@pytest.mark.parametrize("name", uavlink.__all__)
def test_every_public_name_resolves_to_its_submodule_object(name):
    module = importlib.import_module(f"uavlink.{uavlink._SUBMODULE[name]}")
    assert uavlink.__getattr__(name) is getattr(module, name)
    assert getattr(uavlink, name) is getattr(module, name)


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from uavlink import *", namespace)
    assert set(uavlink.__all__) <= set(namespace)
    assert set(uavlink.__all__) <= set(dir(uavlink))
    assert "__version__" in dir(uavlink)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        uavlink.no_such_name


def test_openblas_thread_count_does_not_change_a_bit(tmp_path):
    # uavlink makes no BLAS call: the quadrature's 200x200 nodes and
    # bound.expected_inverse_snr's 16-point rule are summed by numpy's own
    # reductions, so the thread count reaches no output. The first run goes in
    # through uavlink.cli so an unset variable keeps OpenBLAS's own default
    # (`python -m uavlink` would set it to 1).
    rows = (DATA / "sweep_eps_suburban_dense.csv").read_text(encoding="utf-8").splitlines()[1:]
    argv = ["sweep-eps", "--scenario", "suburban", "--seed", "1", "--n1", "200", "--n2", "200",
            "--eps-values", ",".join(row.split(",")[0] for row in rows)]
    runs = {
        "unset": (["-c", "import sys, uavlink.cli; sys.exit(uavlink.cli.main())"], None),
        "1": (["-m", "uavlink"], "1"),
        "2": (["-m", "uavlink"], "2"),
    }
    outputs = {}
    for label, (entry, threads) in runs.items():
        out = tmp_path / f"threads_{label}.csv"
        _python([*entry, *argv, "--out", str(out)], {THREADS: threads})
        outputs[label] = out.read_bytes()
    assert len(outputs["unset"].splitlines()) == len(rows) + 1
    assert outputs["1"] == outputs["unset"]
    assert outputs["2"] == outputs["unset"]


# Every subcommand, and each way out of the CLI. Paths are relative to the run's
# own directory, so both entries print the same bytes.
CLI_CASES = {
    "sweep-m": (["sweep-m", *SMALL, "--m-values", "100,300", "--out", "result"], 0),
    "sweep-eps": (["sweep-eps", *SMALL, "--eps-values", "1e-9,1e-5", "--out", "result"], 0),
    "dmax": (["dmax"], 0),
    "packet-size": (["packet-size", "--t-max", "2e-4", "--n1", "8", "--n2", "8"], 0),
    "verify": (["verify"], 0),
    "verify-out": (["verify", "--out", "result"], 0),
    "dmax-beyond-limit": (["dmax", "--config", "big.json"], 1),
    "bad-config": (["dmax", "--config", "missing.json"], 2),
    "usage-error": (["no-such-command"], 2),
    "help": (["--help"], 0),
    "subcommand-help": (["sweep-m", "--help"], 0),
}
SUBCOMMANDS = ["sweep-m", "sweep-eps", "dmax", "packet-size", "verify", "verify-out"]
OUTPUT_MODES = [("pipe", None), ("pipe", "1"), ("file", None), ("file", "1")]


def _start_cli(entry, argv, workdir: Path, stdout_to: str, unbuffered):
    """Start the CLI in workdir; stdout goes to a pipe or to the regular file workdir/stdout."""
    workdir.mkdir()
    data = copy.deepcopy(preset_config("dense_urban"))
    data["airspace"]["r_max_m"] = 5000.0  # beyond dense_urban's d_max of about 1.8 km
    (workdir / "big.json").write_text(json.dumps(data), encoding="utf-8")
    stdout = subprocess.PIPE if stdout_to == "pipe" else open(workdir / "stdout", "wb")
    try:
        return subprocess.Popen([sys.executable, *entry, *argv], cwd=workdir,
                                env=_env({THREADS: "1", UNBUFFERED: unbuffered}),
                                stdin=subprocess.DEVNULL, stdout=stdout, stderr=subprocess.PIPE)
    finally:
        if stdout is not subprocess.PIPE:
            stdout.close()


def _finish_cli(proc, workdir: Path):
    """(exit status, stdout, stderr, output file or None) of a process from _start_cli."""
    out, err = proc.communicate(timeout=120)
    if out is None:
        out = (workdir / "stdout").read_bytes()
    result = workdir / "result"
    return proc.returncode, out, err, result.read_bytes() if result.exists() else None


def _both_exits(tmp_path, argv, stdout_to, unbuffered):
    """Run the ordinary and the fast exit side by side; their (status, stdout, stderr, file)."""
    started = [(_start_cli(entry, argv, tmp_path / label, stdout_to, unbuffered),
                tmp_path / label)
               for label, entry in (("ordinary", ORDINARY_EXIT), ("fast", FAST_EXIT))]
    return [_finish_cli(proc, workdir) for proc, workdir in started]


@pytest.mark.parametrize("stdout_to, unbuffered", OUTPUT_MODES)
@pytest.mark.parametrize("case", SUBCOMMANDS)
def test_fast_exit_matches_an_ordinary_exit(tmp_path, case, stdout_to, unbuffered):
    argv, status = CLI_CASES[case]
    ordinary, fast = _both_exits(tmp_path, argv, stdout_to, unbuffered)
    assert fast == ordinary
    assert fast[0] == status and fast[1] and not fast[2]
    assert (fast[3] is not None) == ("--out" in argv)


@pytest.mark.parametrize("stdout_to, unbuffered", [("file", None), ("pipe", "1")])
@pytest.mark.parametrize("case, stderr_start", [
    ("dmax-beyond-limit", b""), ("bad-config", b"error: "), ("usage-error", b"usage: "),
    ("help", b""),
])
def test_every_way_out_keeps_its_status_and_bytes(tmp_path, case, stderr_start, stdout_to,
                                                   unbuffered):
    argv, status = CLI_CASES[case]
    ordinary, fast = _both_exits(tmp_path, argv, stdout_to, unbuffered)
    assert fast == ordinary
    assert fast[0] == status
    assert fast[2].startswith(stderr_start) and bool(fast[2]) == bool(stderr_start)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_final_flush_takes_the_ordinary_exit():
    # With stdout buffered, dmax's lines first reach the full device at the
    # final flush; the interpreter's exit reports it and returns 120.
    runs = []
    for entry in (ORDINARY_EXIT, FAST_EXIT):
        with open("/dev/full", "wb") as full:
            runs.append(subprocess.run([sys.executable, *entry, "dmax"], stdout=full,
                                       stderr=subprocess.PIPE, timeout=120,
                                       env=_env({THREADS: "1", UNBUFFERED: None})))
    ordinary, fast = runs
    assert (fast.returncode, fast.stderr) == (ordinary.returncode, ordinary.stderr)
    assert fast.returncode == 120
    assert b"No space left on device" in fast.stderr


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("case", ["help", "subcommand-help"])
def test_help_into_a_live_pipe_exits_0_with_the_usage(tmp_path, case, unbuffered):
    ordinary, fast = _both_exits(tmp_path, CLI_CASES[case][0], "pipe", unbuffered)
    assert fast == ordinary
    assert fast[0] == 0 and fast[1].startswith(b"usage: uavlink") and not fast[2]


@pytest.mark.parametrize("unbuffered", [None, "1"])
@pytest.mark.parametrize("case", [*SUBCOMMANDS, "help", "subcommand-help"])
def test_a_closed_stdout_pipe_ends_the_process_quietly_with_status_1(tmp_path, case, unbuffered):
    # The read end is closed before the child starts, so its first write to
    # stdout fails: inside the command or the help when unbuffered, and when
    # not, at the flush after the command returns or after the help's sys.exit.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, *FAST_EXIT, *CLI_CASES[case][0]], cwd=tmp_path,
                              env=_env({THREADS: "1", UNBUFFERED: unbuffered}),
                              stdin=subprocess.DEVNULL, stdout=write_end,
                              stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


# `python -v` names every module the import system loads. A `_hashlib` blocked
# through sys.modules is never loaded, but `-X importtime` would still list the
# failed attempt.
OPENSSL_LOADED = "import '_hashlib'"
# fractions and decimal come in with statistics and add 0.3-0.5 MB to a process.
HEAVY_STDLIB = ("statistics", "fractions", "decimal")
# Sweeps of 2 shards. Only the large one draws more than _ARRAY_PHILOX_MAX
# samples, so only it imports numpy.random, and through its `secrets` hmac
# and hashlib.
SHARDED = ["sweep-m", "--config", "shards.json", "--m-values", "100,300", "--out", "result"]
LARGE = ["sweep-m", "--config", "large.json", "--m-values", "100,300", "--out", "result"]
SWEEP_SAMPLES = {"shards.json": 4000, "large.json": _ARRAY_PHILOX_MAX + 1}


def _write_sharded_configs(workdir: Path) -> None:
    for name, n_samples in SWEEP_SAMPLES.items():
        data = copy.deepcopy(preset_config("dense_urban"))
        data["estimators"].update(n_samples=n_samples, shards=2)
        (workdir / name).write_text(json.dumps(data), encoding="utf-8")


@pytest.mark.parametrize("case", ["sweep-m", "sweep-eps", "dmax", "packet-size", "verify-out",
                                  "sharded-sweep", "large-sweep"])
def test_a_cli_process_never_loads_openssl(tmp_path, case):
    argv = {"sharded-sweep": SHARDED, "large-sweep": LARGE}.get(case) or CLI_CASES[case][0]
    _write_sharded_configs(tmp_path)
    err = _python(["-v", *FAST_EXIT, *argv], {THREADS: "1"}, cwd=tmp_path).stderr
    assert OPENSSL_LOADED not in err
    assert not [name for name in HEAVY_STDLIB if f"import '{name}'" in err]
    for name in ("numpy.random", "secrets", "hmac", "hashlib"):
        assert (f"import '{name}'" in err) == (case == "large-sweep"), name


def test_in_process_callers_keep_openssl(tmp_path):
    # Only run() blocks `_hashlib`: importing uavlink and calling either main()
    # do not, and a sweep above _ARRAY_PHILOX_MAX samples loads the real
    # binding where the build has one. Smaller sweeps load no hashlib at all.
    has_openssl = importlib.util.find_spec("_hashlib") is not None
    _write_sharded_configs(tmp_path)
    small = [CLI_CASES[c][0] for c in ("dmax", "packet-size", "verify-out", "sweep-m")]
    _python("import sys\n"
            "import uavlink\n"
            "assert '_hashlib' not in sys.modules, 'import uavlink'\n"
            "import uavlink.cli, uavlink.__main__\n"
            "assert '_hashlib' not in sys.modules, 'import uavlink.cli'\n"
            f"for argv in {[*small, SHARDED]!r}:\n"
            "    assert uavlink.__main__.main(argv) == 0, argv\n"
            "    assert uavlink.cli.main(argv) == 0, argv\n"
            "    assert '_hashlib' not in sys.modules, argv\n"
            f"assert uavlink.__main__.main({LARGE!r}) == 0\n"
            f"assert uavlink.cli.main({LARGE!r}) == 0\n"
            f"assert ('_hashlib' in sys.modules) == {has_openssl}, 'sweep'\n"
            "assert sys.modules.get('_hashlib', 'absent') is not None, 'sweep'\n",
            cwd=tmp_path)


def _large_sweep(workdir: Path, entry) -> tuple:
    """(stdout, result file) of the LARGE sweep, which imports numpy.random,
    run through entry in a new workdir."""
    workdir.mkdir()
    _write_sharded_configs(workdir)
    proc = _python([*entry, *LARGE], {THREADS: "1"}, cwd=workdir)
    return proc.stdout, (workdir / "result").read_bytes()


def _run_then(code_after_main: str, code_before_run: str = "") -> list:
    """An entry that calls run(), with code_after_main executed once main() has returned."""
    return ["-c", f"{code_before_run}"
                  "import sys\n"
                  "import uavlink.__main__ as entry\n"
                  "command = entry.main\n"
                  "def main():\n"
                  "    status = command()\n"
                  f"{textwrap.indent(code_after_main, '    ')}"
                  "    return status\n"
                  "entry.main = main\n"
                  "entry.run()\n"]


HASHES = ("md5", "sha1", "sha256", "sha512", "sha3_256", "blake2b", "blake2s")


def test_a_cli_process_hashes_with_the_builtin_fallbacks(tmp_path):
    check = ("import hashlib, hmac, secrets\n"
             "assert sys.modules['_hashlib'] is None\n"
             f"for name in {HASHES!r}:\n"
             "    print(name, hashlib.new(name, b'uavlink').hexdigest())\n"
             "print('hmac', hmac.new(b'key', b'uavlink', 'sha256').hexdigest())\n"
             "assert hmac.compare_digest(b'uavlink', b'uavlink')\n"
             "assert len(secrets.token_hex(8)) == 16\n")
    stdout, _ = _large_sweep(tmp_path / "run", _run_then(check))
    expected = [f"{name} {hashlib.new(name, b'uavlink').hexdigest()}" for name in HASHES]
    expected.append(f"hmac {hmac.new(b'key', b'uavlink', 'sha256').hexdigest()}")
    assert stdout.splitlines()[-len(expected):] == expected


def test_a_hashlib_binding_imported_before_run_is_kept(tmp_path):
    pytest.importorskip("_hashlib")
    check = "print('kept' if sys.modules['_hashlib'] is _hashlib else 'replaced')\n"
    kept = _large_sweep(tmp_path / "kept", _run_then(check, "import _hashlib\n"))
    plain = _large_sweep(tmp_path / "plain", FAST_EXIT)
    assert kept[0].splitlines() == [*plain[0].splitlines(), "kept"]
    assert kept[1] == plain[1]


@pytest.mark.skipif(not hasattr(atexit, "_ncallbacks"), reason="needs CPython's atexit")
def test_the_cli_registers_no_exit_handler_for_the_fast_exit_to_skip(tmp_path):
    argv = [CLI_CASES[case][0] for case in SUBCOMMANDS]
    _python("import atexit, sys\n"
            "before = atexit._ncallbacks()\n"
            "import uavlink.cli\n"
            f"for argv in {argv!r}:\n"
            "    assert uavlink.cli.main(argv) == 0, argv\n"
            "assert atexit._ncallbacks() == before, (before, atexit._ncallbacks())\n",
            cwd=tmp_path)


def test_the_installed_script_takes_the_fast_exit():
    tomllib = pytest.importorskip("tomllib")
    pyproject = SRC.parent / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("not a source checkout")
    spec = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["uavlink"]
    module, _, name = spec.partition(":")
    assert getattr(importlib.import_module(module), name) is uavlink.__main__.run
