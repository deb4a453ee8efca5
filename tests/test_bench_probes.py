"""The benchmark tracer's probes resolve against the package as it is.

bench/tracer.py wraps functions by the name their caller looks them up
under. A probed name that is renamed or removed only shows in a traced
benchmark run; these tests catch it with the rest of the suite.
"""

import importlib.util
from pathlib import Path

import pytest

from uavlink.channel import derive_constants
from uavlink.config import load_preset

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_probe_finds_its_target(tracer):
    with tracer.Probes(tracer.Tracer()) as probes:
        assert probes.missing == []


def test_the_probes_see_every_monte_carlo_sample(tracer):
    import uavlink.montecarlo

    cfg = load_preset("dense_urban")
    consts = derive_constants(cfg.scenario, cfg.link)
    spans = tracer.Tracer()
    with tracer.Probes(spans):
        uavlink.montecarlo._rate_terms(cfg.airspace, consts, 40_000, 1, 2)
    assert spans.counters["geometry.sample_positions.samples"] == 40_000
    assert spans.counters["channel.snr.points"] == 40_000


def test_the_probes_count_each_g_inverse_call_of_the_lemma_suite(tracer):
    # The suite looks g_inverse up as a module global of uavlink.lemmas, once per q.
    from uavlink.lemmas import run_lemma_suite

    spans = tracer.Tracer()
    with tracer.Probes(spans):
        run_lemma_suite(q_values=(0.05, 0.2, 0.6))
    assert [s.name for s in spans.spans].count("bound.g_inverse") == 3
