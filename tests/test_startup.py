"""A uavlink process imports only what it runs.

`import uavlink` is lazy and leaves the environment alone; the CLI entry
defaults OpenBLAS to one thread before numpy loads, and the thread count
cannot change a single output bit.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uavlink
import uavlink.__main__

SRC = Path(uavlink.__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
THREADS = "OPENBLAS_NUM_THREADS"


def _python(code_or_args, env_changes=None) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on these sources; env_changes maps a variable to a value,
    or to None to unset it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key, value in (env_changes or {}).items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    args = ["-c", code_or_args] if isinstance(code_or_args, str) else code_or_args
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)
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
            "             ['verify', '--grid-points', '20']):\n"
            "    uavlink.cli.main(argv)\n"
            "    assert 'numpy.random' not in sys.modules, argv\n")


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
    # The quadrature's `terms @ weights` is uavlink's only BLAS call, one
    # OpenBLAS may split across its threads at 200x200 nodes. The first run goes in
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
