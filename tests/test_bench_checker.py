"""The benchmark's output checker accepts what the program prints.

bench/checker.py judges every command of a benchmark op against an
independent oracle. A rule that the program and the checker state apart,
such as packet-size's channel-use count, only shows in a benchmark run;
these tests catch a drift with the rest of the suite.
"""

import importlib.util
from pathlib import Path

import pytest

from uavlink.cli import main
from uavlink.config import preset_config

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # checker.py imports workloads
        spec = importlib.util.spec_from_file_location("bench_checker", BENCH / "checker.py")
        checker = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checker)
        import workloads
    return checker, workloads, checker.Oracle()


@pytest.mark.parametrize("t_max", ["1.4e-6", "2.5e-6", "2e-4"])
def test_the_checker_accepts_the_packet_size(bench, capsys, t_max):
    checker, workloads, oracle = bench
    argv = ("packet-size", "--t-max", t_max, "--scenario", "dense_urban")
    cmd = workloads.Command("packet-size", argv, preset_config("dense_urban"),
                            t_max=float(t_max))
    assert main(list(argv)) == 0
    assert checker.check_packet_size(capsys.readouterr().out, cmd, oracle) == []
