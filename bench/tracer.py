"""Span tracer and timing wrappers installed around uavlink's public functions.

A span is one call of a wrapped function: its name, start, end and the span
that was open when it started. Spans stay in memory until the op ends, when
`self_times` turns them into per-name self time (duration minus the part of
the interval its child spans cover) and the op's counters are read.

Each wrapper is installed in the namespace where the caller looks the name up
(for example `uavlink.montecarlo.snr`, not `uavlink.channel.snr`), so the
program's own files are not changed; `Probes.uninstall` puts every original
back.
"""

import importlib
import inspect
import os
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Records nested spans and named counters for one op at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.draw_keys: list[tuple] = []
        self._open: list[int] = []
        self._next_id = 0

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.draw_keys.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._open.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus what its children cover.

    Child intervals are merged and clipped to the parent's, so overlapping or
    out-of-range children are never subtracted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent_id is not None:
            children[s.parent_id].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.span_id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.name] += (s.end - s.start) - covered
    return dict(out)


class _TimedGenerator:
    """Stands in for a numpy Generator and times each of its methods as a span."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def timed(*args, **kwargs):
            return self._tracer.call("geometry.philox_draw", attr, *args, **kwargs)

        return timed


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# Per-probe counters: (tracer, original function, args, kwargs, result).
def _count_points(name):
    def count(tracer, fn, args, kwargs, result):
        tracer.count(name, np.size(result))
    return count


def _count_estimate(tracer, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    tracer.count("montecarlo.samples_drawn", a["n"])
    tracer.draw_keys.append((a["seed"], a["shards"], a["n"]))


def _count_gcq_nodes(tracer, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    tracer.count("quadrature.aadr_gcq.nodes", a["n_theta"] * a["n_dist"])


def _count_csv_bytes(tracer, fn, args, kwargs, result):
    tracer.count("cli.write_csv.bytes", os.path.getsize(_bind(fn, args, kwargs)["path"]))


class Probe(NamedTuple):
    module: str
    attr: str
    span: str
    counter: object = None


# One entry per (namespace the caller looks the name up in, name). A name the
# program no longer has is listed in Probes.missing, and the traced op fails.
PROBES = (
    Probe("uavlink.montecarlo", "sample_positions", "geometry.sample_positions"),
    Probe("uavlink.montecarlo", "snr", "channel.snr", _count_points("channel.snr.points")),
    Probe("uavlink.quadrature", "snr", "channel.snr", _count_points("channel.snr.points")),
    Probe("uavlink.montecarlo", "achievable_rate", "fbl_rate.achievable_rate",
          _count_points("fbl_rate.achievable_rate.points")),
    Probe("uavlink.quadrature", "achievable_rate", "fbl_rate.achievable_rate",
          _count_points("fbl_rate.achievable_rate.points")),
    Probe("uavlink.montecarlo", "shannon_rate", "fbl_rate.shannon_rate"),
    Probe("uavlink.fbl_rate", "q_inverse", "fbl_rate.q_inverse"),
    Probe("uavlink.cli", "estimate_aadr", "montecarlo.estimate", _count_estimate),
    Probe("uavlink.cli", "estimate_shannon", "montecarlo.estimate", _count_estimate),
    Probe("uavlink.cli", "aadr_gcq", "quadrature.aadr_gcq", _count_gcq_nodes),
    Probe("uavlink.quadrature", "legendre_rule", "quadrature.legendre_rule"),
    Probe("uavlink.bound", "g_inverse", "bound.g_inverse"),
    Probe("uavlink.lemmas", "g_inverse", "bound.g_inverse"),
    Probe("uavlink.bound", "expected_inverse_snr", "bound.expected_inverse_snr"),
    Probe("uavlink.bound", "exp_integral_ei", "bound.exp_integral_ei"),
    Probe("uavlink.cli", "aadr_lower_bound", "bound.aadr_lower_bound"),
    Probe("uavlink.cli", "run_lemma_suite", "lemmas.run_lemma_suite"),
    Probe("uavlink.cli", "load_config", "config.load"),
    Probe("uavlink.cli", "load_preset", "config.load"),
    Probe("uavlink.cli", "sweep_blocklength", "cli.sweep"),
    Probe("uavlink.cli", "sweep_epsilon", "cli.sweep"),
    Probe("uavlink.cli", "write_csv", "cli.write_csv", _count_csv_bytes),
)


def _wrap(tracer: Tracer, probe: Probe, fn):
    if probe.span == "geometry.sample_positions":
        # Hand the sampler a stand-in generator so its Philox draws get spans.
        def wrapper(*args, **kwargs):
            a = _bind(fn, args, kwargs)
            a["rng"] = _TimedGenerator(a["rng"], tracer)
            tracer.count("geometry.sample_positions.samples", a["n"])
            return tracer.call(probe.span, fn, **a)
        return wrapper

    def wrapper(*args, **kwargs):
        result = tracer.call(probe.span, fn, *args, **kwargs)
        if probe.counter is not None:
            probe.counter(tracer, fn, args, kwargs, result)
        return result
    return wrapper


class Probes:
    """Installs the timing wrappers of PROBES and removes them again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing: list[str] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for probe in PROBES:
            module = importlib.import_module(probe.module)
            fn = getattr(module, probe.attr, None)
            if fn is None:
                self.missing.append(f"{probe.module}.{probe.attr}")
                continue
            self._saved.append((module, probe.attr, fn))
            setattr(module, probe.attr, _wrap(self.tracer, probe, fn))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
