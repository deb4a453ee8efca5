"""Tests of the benchmark's own parts: tracer, output checker, workload generator."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from checker import OutputChecker  # noqa: E402
from tracer import PROBES, Probes, Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, make_workload  # noqa: E402
from uavlink.config import PRESET_NAMES, preset_config  # noqa: E402

PRESETS = {name: preset_config(name) for name in PRESET_NAMES}


def test_self_times_of_synthetic_nest():
    spans = [
        Span(0, None, "op", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 5.0, 9.0),
        Span(3, 2, "a", 6.0, 7.0),
    ]
    assert self_times(spans) == pytest.approx({"op": 3.0, "a": 4.0, "b": 3.0})


def test_self_times_merge_overlapping_and_clip_children():
    spans = [
        Span(0, None, "p", 0.0, 10.0),
        Span(1, 0, "c", 2.0, 6.0),
        Span(2, 0, "c", 4.0, 8.0),   # overlaps the first child
        Span(3, 0, "c", 9.0, 12.0),  # runs past the parent's end
    ]
    assert self_times(spans)["p"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    def outer():
        return tracer.call("inner", inner) + tracer.call("inner", inner)

    assert tracer.call("outer", outer) == 14
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent_id is None
    assert all(s.parent_id == by_name["outer"].span_id
               for s in tracer.spans if s.name == "inner")
    assert self_times(tracer.spans) == pytest.approx({"outer": 3.0, "inner": 2.0})


def test_probes_restore_every_original():
    import uavlink.cli
    import uavlink.montecarlo

    before = (uavlink.cli.aadr_gcq, uavlink.montecarlo.snr)
    tracer = Tracer()
    with Probes(tracer):
        assert uavlink.cli.aadr_gcq is not before[0]
        assert uavlink.montecarlo.snr is not before[1]
    assert (uavlink.cli.aadr_gcq, uavlink.montecarlo.snr) == before


def test_a_missing_probe_target_fails_the_traced_op(monkeypatch, tmp_path):
    import uavlink.cli

    monkeypatch.delattr(uavlink.cli, "aadr_lower_bound")
    with Probes(Tracer()) as probes:
        assert probes.missing == ["uavlink.cli.aadr_lower_bound"]
    dmax = [c for c in make_workload("cli-paper", 3, str(tmp_path), PRESETS) if c.kind == "dmax"]
    op, _ = run.run_inprocess_op(dmax, tmp_path, OutputChecker(), Tracer())
    assert any("uavlink.cli.aadr_lower_bound does not exist" in p for p in op.problems)


def test_metric_names_match_benchmark_json():
    assert set(run.END_TO_END) == set(run.declared_units(0))
    assert set(run.per_layer_names()) == set(run.declared_units(1))
    # The sampler's generator stand-in opens the Philox spans.
    spans = {p.span for p in PROBES} | {"geometry.philox_draw"}
    assert set(run.SELF_TIME_SPANS) <= spans and set(run.CALL_COUNT_SPANS) <= spans


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """The cli-paper sweep-m command run once in this process, with its CSV."""
    import contextlib
    import io
    import os

    import uavlink.cli

    workdir = tmp_path_factory.mktemp("sweep")
    cmd = make_workload("cli-paper", 11, str(workdir), PRESETS)[0]
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout):
            assert uavlink.cli.main(list(cmd.argv)) == 0
    finally:
        os.chdir(cwd)
    return cmd, stdout.getvalue(), (workdir / cmd.out).read_text()


def _perturb_gcq(csv_text: str, row: int) -> str:
    lines = csv_text.split("\n")
    cells = lines[row].split(",")
    cells[4] = f"{float(cells[4]) * (1.0 + 1e-6):.12g}"
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def _check_once(cmd, stdout, text):
    checker = OutputChecker()
    return checker.check(cmd, 0, stdout, text) + checker.check_references()


def test_checker_accepts_real_sweep(sweep_run):
    assert _check_once(*sweep_run) == []


def test_checker_rejects_csv_perturbed_by_1e6_relative(sweep_run):
    cmd, stdout, text = sweep_run
    problems = _check_once(cmd, stdout, _perturb_gcq(text, 3))
    assert len(problems) == 1 and "oracle" in problems[0]


def test_checker_rejects_wrong_header_and_row_count(sweep_run):
    cmd, stdout, text = sweep_run
    assert "header" in _check_once(cmd, stdout, text.replace("aadr_lb", "lb", 1))[0]
    short = "\n".join(text.split("\n")[:-2]) + "\n"
    assert "rows" in _check_once(cmd, stdout, short)[0]


def test_checker_rejects_a_rerun_that_is_not_identical(sweep_run):
    cmd, stdout, text = sweep_run
    checker = OutputChecker()
    assert checker.check(cmd, 0, stdout, text) == []
    assert checker.check(cmd, 0, stdout, text) == []
    problems = checker.check(cmd, 0, stdout, _perturb_gcq(text, 3))
    assert problems and "differs" in problems[0]
    assert checker.check(cmd, 3, stdout, text) == ["sweep-m: exit code 3"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_argv_depends_only_on_seed(name, tmp_path):
    first = [c.argv for c in make_workload(name, 5, str(tmp_path), PRESETS)]
    again = [c.argv for c in make_workload(name, 5, str(tmp_path), PRESETS)]
    other = [c.argv for c in make_workload(name, 6, str(tmp_path), PRESETS)]
    assert first == again
    assert first != other


def test_dense_sweep_grid_follows_seed(tmp_path):
    def grid(seed):
        return make_workload("dense-sweep", seed, str(tmp_path), PRESETS)[0].x_values

    assert grid(1) == grid(1)
    assert grid(1) != grid(2)
    assert len(set(grid(1))) == 400 and all(1e-12 <= e <= 1e-3 for e in grid(1))


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bench(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "4",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_peak_rss_under_all_matches_a_single_workload_run():
    together = _bench("all")
    alone = _bench("dense-sweep")
    assert together["correct"] and alone["correct"]
    assert together["metrics"]["dense-sweep:peak_rss_mb"]["value"] == pytest.approx(
        alone["metrics"]["peak_rss_mb"]["value"], rel=0.03)
