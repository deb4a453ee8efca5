import json
import math
import operator
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import uavlink
import uavlink.montecarlo as montecarlo
from oracles import inverse_snr_monte_carlo
from uavlink.bound import expected_inverse_snr
from uavlink.channel import derive_constants, snr
from uavlink.config import load_preset, preset_config
from uavlink.fbl_rate import FblConfig, achievable_rate
from uavlink.geometry import MAX_SAMPLES, MAX_SHARDS, Airspace, sample_positions
from uavlink.montecarlo import (
    _ARRAY_PHILOX_MAX,
    _BLOCK,
    _ArrayPhilox,
    _rate_terms,
    estimate_aadr,
    estimate_shannon,
)
from uavlink.quadrature import _node_terms, aadr_gcq

CFG = FblConfig(blocklength=200, epsilon=1e-9)


def test_same_seed_is_bit_identical(dense_urban, dense_consts):
    space = dense_urban.airspace
    first = estimate_aadr(space, dense_consts, CFG, n=5_000, seed=123)
    second = estimate_aadr(space, dense_consts, CFG, n=5_000, seed=123)
    assert first == second


def test_different_seeds_differ(dense_urban, dense_consts):
    space = dense_urban.airspace
    a = estimate_aadr(space, dense_consts, CFG, n=5_000, seed=1)
    b = estimate_aadr(space, dense_consts, CFG, n=5_000, seed=2)
    assert a.mean != b.mean


def test_sharded_runs_are_deterministic(dense_urban, dense_consts):
    space = dense_urban.airspace
    a = estimate_aadr(space, dense_consts, CFG, n=5_000, seed=5, shards=4)
    b = estimate_aadr(space, dense_consts, CFG, n=5_000, seed=5, shards=4)
    assert a == b
    single = estimate_aadr(space, dense_consts, CFG, n=5_000, seed=5, shards=1)
    # different shard layouts are different draws but the same distribution
    assert abs(a.mean - single.mean) < 6.0 * (a.std_error + single.std_error)


def test_collapsing_support_pins_the_corner(dense_consts):
    corner = Airspace(r_min_m=399.9999, r_max_m=400.0, theta_min_deg=89.9999)
    est = estimate_aadr(corner, dense_consts, CFG, n=2_000, seed=3)
    target = achievable_rate(snr(dense_consts, 90.0, 400.0), CFG)
    assert est.mean == pytest.approx(target, rel=1e-6)
    assert est.std_error < 1e-6


def test_collapsing_support_inverse_snr(dense_consts):
    corner = Airspace(r_min_m=399.9999, r_max_m=400.0, theta_min_deg=89.9999)
    mean, _ = inverse_snr_monte_carlo(corner, dense_consts, 2_000, 3)
    assert mean == pytest.approx(1.0 / snr(dense_consts, 90.0, 400.0), rel=1e-6)


def test_std_error_scaling(dense_urban, dense_consts):
    space = dense_urban.airspace
    small = estimate_aadr(space, dense_consts, CFG, n=4_000, seed=17)
    large = estimate_aadr(space, dense_consts, CFG, n=16_000, seed=17)
    ratio = small.std_error / large.std_error
    assert 1.6 < ratio < 2.4


def test_aadr_matches_quadrature(suburban, suburban_consts):
    est = estimate_aadr(suburban.airspace, suburban_consts, CFG, n=10_000, seed=1)
    reference = aadr_gcq(suburban.airspace, suburban_consts, CFG, 30, 30)
    assert abs(est.mean - reference) <= 3.0 * est.std_error


def test_shannon_matches_quadrature(dense_urban, dense_consts):
    est = estimate_shannon(dense_urban.airspace, dense_consts, n=10_000, seed=1)
    reference = _node_terms(dense_urban.airspace, dense_consts, 30, 30)[0]
    assert abs(est.mean - reference) <= 3.0 * est.std_error


def test_shannon_dominates_aadr_on_same_seed(dense_urban, dense_consts):
    space = dense_urban.airspace
    shannon = estimate_shannon(space, dense_consts, n=5_000, seed=21)
    aadr = estimate_aadr(space, dense_consts, CFG, n=5_000, seed=21)
    assert shannon.mean > aadr.mean


def test_inverse_snr_same_seed_deterministic(dense_urban, dense_consts):
    a = inverse_snr_monte_carlo(dense_urban.airspace, dense_consts, 5_000, 8)
    b = inverse_snr_monte_carlo(dense_urban.airspace, dense_consts, 5_000, 8)
    assert a == b


@pytest.mark.parametrize("c_tilde", [2.7e-169, 1e-150])
def test_inverse_snr_stays_finite_down_to_the_c_tilde_floor(dense_urban, dense_consts, c_tilde):
    # 1/SNR reaches about 1e175 at these budgets, above the floor 2**-560:
    # its squares would overflow with a RuntimeWarning. _moments takes those of
    # c_tilde/SNR instead, at most r_max^2.
    consts = replace(dense_consts, c_tilde=c_tilde)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, std_error = inverse_snr_monte_carlo(dense_urban.airspace, consts, 10_000, 1)
    assert math.isfinite(std_error)
    expected = expected_inverse_snr(dense_urban.airspace, consts)
    assert abs(mean - expected) <= 4.0 * std_error


def test_estimate_validation(dense_urban, dense_consts):
    space = dense_urban.airspace
    with pytest.raises(ValueError):
        estimate_aadr(space, dense_consts, CFG, n=1, seed=1)
    with pytest.raises(ValueError):
        estimate_aadr(space, dense_consts, CFG, n=10, seed=1, shards=0)
    with pytest.raises(ValueError):
        estimate_aadr(space, dense_consts, CFG, n=10, seed=1, shards=11)


def _no_draw(*args, **kwargs):
    raise AssertionError("drew positions")


def _outcome(total):
    """total(), or OverflowError if it raises that."""
    try:
        return total()
    except OverflowError:
        return OverflowError


def _exact_total(values):
    """The sum of finite doubles as _moments totals them: in units of 2**-1074, rounded once."""
    return sum(map(montecarlo._in_units, values)) / 2**1074


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats() | st.sampled_from(
    [1.7e308, -1.7e308, 2.0**1023, 1.0, 2.0**-1074, math.inf, -math.inf]), max_size=100))
def test_finite_sums_total_as_their_exact_sum_rounded_once(values):
    # The same correctly rounded total, or an OverflowError on both sides
    # where the exact sum leaves the double range.
    finite = [x for x in values if math.isfinite(x)]
    assert (_outcome(lambda: _exact_total(finite))
            == _outcome(lambda: float(sum(map(Fraction, finite)))))


def test_a_total_is_kept_where_a_running_float_sum_overflows():
    values = [1.7e308, 1.7e308, -1.7e308]
    assert _exact_total(values) == 1.7e308
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        math.fsum(values)


@pytest.mark.parametrize("block_values, mean", [
    ((math.inf,), math.inf), ((-math.inf, -math.inf), -math.inf),
    ((math.inf, math.nan), math.nan), ((math.inf, -math.inf), None),
])
def test_non_finite_block_sums_total_as_math_fsum_gives_them(dense_urban, dense_consts,
                                                            block_values, mean):
    # One value per block of a 3-block draw is replaced; math.fsum of the
    # blocks' sums is inf, -inf or nan, or raises on inf + -inf.
    values = iter(block_values)

    def columns(gamma):
        column = 1.0 / gamma
        column[0] = next(values, 1.0)
        return (column,)

    def draw():
        with np.errstate(invalid="ignore"):  # the shifted sums are not finite
            return montecarlo._moments(dense_urban.airspace, dense_consts, 3 * _BLOCK, 1, 1,
                                       columns)[0]

    if mean is None:
        with pytest.raises(ValueError, match=r"-inf \+ inf in fsum"):
            draw()
    else:
        got = draw()
        assert got == mean or math.isnan(got) and math.isnan(mean)


@pytest.mark.parametrize("n", [MAX_SAMPLES + 1, 10**15])
def test_a_sample_count_above_the_ceiling_is_rejected_before_drawing(dense_urban, dense_consts,
                                                                     monkeypatch, n):
    # Without the check, 1e9 samples would draw for about half a minute.
    monkeypatch.setattr("uavlink.montecarlo.sample_positions", _no_draw)
    with pytest.raises(ValueError, match=f"need at most 1,000,000,000 samples, got {n:,}"):
        estimate_aadr(dense_urban.airspace, dense_consts, CFG, n=n, seed=1, shards=2)


@pytest.mark.parametrize("shards", [MAX_SHARDS + 1, 10**9])
def test_a_shard_count_above_the_ceiling_is_rejected_before_drawing(dense_urban, dense_consts,
                                                                    monkeypatch, shards):
    # Each shard costs two Philox jumps and a block: 1e9 shards would draw for hours.
    monkeypatch.setattr("uavlink.montecarlo.sample_positions", _no_draw)
    with pytest.raises(ValueError, match=re.escape(
            f"shards must lie in [1, min(n, 1,024)], got {shards:,}")):
        estimate_aadr(dense_urban.airspace, dense_consts, CFG, n=10**9, seed=1, shards=shards)


def test_a_draw_takes_its_blocks_within_shards(dense_urban, dense_consts, monkeypatch):
    n, shards = 3 * _BLOCK + 17, 3
    calls = []

    def recording(space, rng, k):
        calls.append(k)
        return sample_positions(space, rng, k)

    monkeypatch.setattr("uavlink.montecarlo.sample_positions", recording)
    _rate_terms(dense_urban.airspace, dense_consts, n, 1, shards)
    assert max(calls) <= _BLOCK
    remaining = iter(calls)
    for m in (n // shards + (i < n % shards) for i in range(shards)):
        taken, count = 0, 0
        while taken < m:
            taken, count = taken + next(remaining), count + 1
        assert taken == m  # no call spans two shards
        assert count == math.ceil(m / _BLOCK)
    assert next(remaining, None) is None  # the calls add up to n samples


def _numpy_doubles(key, jump, start):
    rng = np.random.Generator(np.random.Philox(key=key).jumped(jump).advance(start // 4))
    rng.random(start % 4)
    return rng


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(key=st.one_of(st.sampled_from([0, 1, 2**64 - 1, 2**64, 2**128 - 1]),
                     st.integers(0, 2**128 - 1)),
       jump=st.integers(0, MAX_SHARDS - 1),
       start=st.integers(0, 2 * MAX_SAMPLES),
       lengths=st.lists(st.integers(1, 2 * _BLOCK + 3), min_size=1, max_size=3))
@example(key=0, jump=0, start=0, lengths=[1])
@example(key=2**128 - 1, jump=MAX_SHARDS - 1, start=2 * MAX_SAMPLES - 1,
         lengths=[2 * _BLOCK + 3, 1])
@example(key=2**128 - 1, jump=1, start=3, lengths=[2, 4, 5])
@example(key=7, jump=1023, start=4 * 10**8 + 1, lengths=[_BLOCK - 1, _BLOCK + 1])
def test_array_philox_gives_numpys_doubles_bit_for_bit(key, jump, start, lengths):
    array, rng = _ArrayPhilox(key, jump, start), _numpy_doubles(key, jump, start)
    for k in lengths:
        got = array.random(k)
        assert got.dtype == np.float64 and got.shape == (k,)
        assert np.array_equal(got.view(np.uint64), rng.random(k).view(np.uint64)), k


def test_array_philox_takes_numpy_integer_keys_as_numpy_does():
    for key in (np.int64(5), np.uint64(2**64 - 1)):
        expected = _numpy_doubles(key, 2, 3).random(9)
        assert np.array_equal(_ArrayPhilox(key, 2, 3).random(9), expected)


@pytest.mark.parametrize("key", [-1, 2**128, 10**40])
def test_array_philox_rejects_a_key_numpy_rejects(key):
    with pytest.raises(ValueError):
        np.random.Philox(key=key)
    with pytest.raises(ValueError, match=re.escape(f"seed must lie in [0, 2**128), got {key}")):
        _ArrayPhilox(key, 0, 0)


@pytest.mark.parametrize("n,shards", [
    (n, shards) for n in (2, _BLOCK - 1, _BLOCK + 1, 3 * _BLOCK + 17)
    for shards in (1, 2, 3) if shards <= n])
def test_array_and_numpy_philox_give_the_same_estimates(dense_urban, dense_consts, monkeypatch,
                                                        n, shards):
    # The array Philox serves draws up to _ARRAY_PHILOX_MAX samples and
    # numpy.random larger ones; either source, forced, gives the same bits.
    used = []
    for name in ("_ArrayPhilox", "_numpy_philox"):
        source = getattr(montecarlo, name)
        monkeypatch.setattr(montecarlo, name,
                            lambda *a, name=name, source=source: used.append(name) or source(*a))
    estimates = {}
    for limit, name in ((MAX_SAMPLES, "_ArrayPhilox"), (0, "_numpy_philox")):
        monkeypatch.setattr(montecarlo, "_ARRAY_PHILOX_MAX", limit)
        used.clear()
        moments = _rate_terms(dense_urban.airspace, dense_consts, n, 11, shards)
        inverse = inverse_snr_monte_carlo(dense_urban.airspace, dense_consts, n, 11, shards)
        assert used == [name] * (4 * shards)  # two streams a shard, two draws
        estimates[name] = [x.hex() for x in (*moments, *inverse)]
    assert estimates["_ArrayPhilox"] == estimates["_numpy_philox"]


_LN2 = math.log(2.0)


# The whole-array chain that the streamed one replaced, formula for formula:
# sample_positions, snr and q_free_terms over a shard at once, then the
# moments in two passes through three product arrays.
def _whole_array_snr(space, consts, n, seed, shards):
    base, rem = divmod(n, shards)
    chunks = []
    for i in range(shards):
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(i))
        count = base + 1 if i < rem else base
        u = rng.random(count)
        u2 = rng.random(count)
        r3 = space.r_min_m**3
        d = np.cbrt(r3 + u * (space.r_max_m**3 - r3))
        theta = space.theta_min_deg + u2 * (90.0 - space.theta_min_deg)
        p_los = 1.0 / (1.0 + consts.a_env * np.exp(-consts.b_env * (theta - consts.a_env)))
        chunks.append(consts.c_tilde * d**-2.0 * np.exp(consts.a_tilde * p_los))
    return np.concatenate(chunks)


def _two_pass_covariances(columns):
    n = len(columns[0])
    centred = [c - c.mean() for c in columns]
    return [float(np.add.reduce(a * b)) / (n - 1)
            for i, a in enumerate(centred) for b in centred[i:]]


def _exact_covariances(columns):
    """Upper-triangle covariances (ddof = 1) of float columns, exact, then rounded once."""
    n = len(columns[0])
    scaled = []  # each column as integers over one power of two
    for column in columns:
        ratios = [x.as_integer_ratio() for x in column.tolist()]
        scale = max(den for _, den in ratios)
        scaled.append(([num * (scale // den) for num, den in ratios], scale))
    return [float(Fraction(n * sum(map(operator.mul, a, b)) - sum(a) * sum(b),
                           n * (n - 1) * scale_a * scale_b))
            for i, (a, scale_a) in enumerate(scaled) for b, scale_b in scaled[i:]]


def _assert_relative(actual, reference, bound=1e-15):
    for x, ref in zip(actual, reference, strict=True):
        assert abs(x - ref) <= bound * abs(ref), (x, ref, abs(x - ref) / abs(ref))


def _exact_mean(column):
    return math.fsum(column.tolist()) / len(column)


_EXACT_UP_TO = 3 * _BLOCK + 17

# Airspaces beyond the presets, as changes to a preset's: a shell 1e-14
# wide at 300 m, a 1 m to 20 km shell and a cone 0.1 degrees wide.
_BEYOND_THE_PRESETS = [
    {"r_min_m": 300.0, "r_max_m": 300.0 * (1.0 + 1e-14)},
    {"r_min_m": 1.0, "r_max_m": 20_000.0},
    {"theta_min_deg": 89.9},
]


def _assert_means(space, consts, n, shards):
    """The streamed means of S, W and 1/SNR lie within 5e-16 of the correctly
    rounded means of the whole-array chain, relative to them."""
    gamma = _whole_array_snr(space, consts, n, 11, shards)
    s_terms = np.log1p(gamma) / _LN2
    w_terms = np.sqrt(gamma * (gamma + 2.0) / (1.0 + gamma) ** 2)
    mean_s, mean_w, *_ = _rate_terms(space, consts, n, 11, shards)
    _assert_relative([mean_s, mean_w], [_exact_mean(s_terms), _exact_mean(w_terms)], 5e-16)
    mean_inverse, _ = inverse_snr_monte_carlo(space, consts, n, 11, shards)
    _assert_relative([mean_inverse], [_exact_mean(1.0 / gamma)], 5e-16)


@pytest.mark.parametrize("preset", ["dense_urban", "suburban"])
@pytest.mark.parametrize("n,shards", [
    *[(n, shards)
      for n in (2, _BLOCK - 1, _BLOCK, _BLOCK + 1, _EXACT_UP_TO, 200_001)
      for shards in (1, 2, 3) if shards <= n],
    (1_000_000, 2),  # the benchmark's draw
])
def test_streamed_chain_bounds_the_means_and_the_covariances(preset, n, shards):
    # Means: within 5e-16 of the correctly rounded mean of the whole-array
    # chain, relative to it. Covariances: within 1e-15 of the exact value
    # relative to it, or of the whole-array two-pass where the exact sums
    # would be slow. On suburban at n = 3 _BLOCK + 17, W lies within about
    # 1e-7 of 1: merging per-block means and centred sums (Chan's update)
    # misses this bound there by orders of magnitude.
    cfg = load_preset(preset)
    consts = derive_constants(cfg.scenario, cfg.link)
    gamma = _whole_array_snr(cfg.airspace, consts, n, 11, shards)
    s_terms = np.log1p(gamma) / _LN2
    w_terms = np.sqrt(gamma * (gamma + 2.0) / (1.0 + gamma) ** 2)
    inverse = 1.0 / gamma
    covariances = _exact_covariances if n <= _EXACT_UP_TO else _two_pass_covariances

    mean_s, mean_w, *rate_covariances = _rate_terms(cfg.airspace, consts, n, 11, shards)
    _assert_relative([mean_s, mean_w], [_exact_mean(s_terms), _exact_mean(w_terms)], 5e-16)
    _assert_relative(rate_covariances, covariances((s_terms, w_terms)))

    mean_inverse, std_error = inverse_snr_monte_carlo(cfg.airspace, consts, n, 11, shards)
    _assert_relative([mean_inverse], [_exact_mean(inverse)], 5e-16)
    _assert_relative([std_error], [math.sqrt(covariances((inverse,))[0]) / math.sqrt(n)])

    # The means hold their bound beyond the presets too, wherever a draw
    # has more than one block's sums to add.
    if n > _BLOCK or shards > 1:
        for changes in _BEYOND_THE_PRESETS:
            _assert_means(replace(cfg.airspace, **changes), consts, n, shards)


def test_a_draw_peaks_below_one_mebibyte_at_any_n(dense_urban, dense_consts):
    # Positions, SNRs, columns and products live only as long as a block of
    # at most _BLOCK samples, and so do the array Philox's round arrays. A
    # draw that kept the n SNRs peaked at 8n, and one that kept each block's
    # sums for a final math.fsum passed 1 MiB at 4e7 samples (1.05 MiB). The
    # warm-up draw is above _ARRAY_PHILOX_MAX, so that numpy.random's import
    # is not measured.
    _rate_terms(dense_urban.airspace, dense_consts, _ARRAY_PHILOX_MAX + 1, 1, 1)
    cases = [(estimate, n, shards) for estimate in (_rate_terms, inverse_snr_monte_carlo)
             for n, shards in ((_ARRAY_PHILOX_MAX, 1), (200_001, 1), (200_001, 3), (4_000_000, 1))]
    for estimate, n, shards in cases + [(_rate_terms, 40_000_000, 1)]:
        tracemalloc.start()
        try:
            estimate(dense_urban.airspace, dense_consts, n, 1, shards)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, (estimate.__name__, n, shards, peak)


def test_the_totals_stay_exact_and_small_at_the_sample_ceiling(dense_urban, dense_consts,
                                                              monkeypatch):
    # MAX_SAMPLES' 61,036 blocks, stubbed as blocks of 4 values from 1e-150 to
    # 1e150 of both signs, so that the products stay finite: each total holds
    # some 2,100 bits, and each mean is the exact total of the blocks' sums,
    # rounded once, over n. The stub draw under tracemalloc is most of the
    # test's 3.5-4.5 s on a 2-core Xeon.
    blocks = -(-MAX_SAMPLES // _BLOCK)
    values = np.geomspace(1e-150, 1e150, 4 * blocks)
    values[1::2] *= -1.0
    np.random.default_rng(5).shuffle(values)
    pool = values.reshape(blocks, 4)
    exact = float(sum(map(Fraction, np.add.reduce(pool, axis=1).tolist())))
    monkeypatch.setattr(montecarlo, "_snr_blocks", lambda *args: iter(pool))
    tracemalloc.start()
    try:
        mean, _ = montecarlo._moments(dense_urban.airspace, dense_consts, MAX_SAMPLES, 1, 1,
                                      lambda block: (block.copy(),))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mean == exact / MAX_SAMPLES
    assert peak <= 2**20, peak


# Linux carries the high-water mark of the memory a process had before exec
# into its ru_maxrss, so a child spawned from this test process reads at
# least this process's peak. The sweep is spawned from a small interpreter
# instead, which reports the sweep's own ru_maxrss from os.wait4.
_REPORT_CHILD_RSS = (
    "import os, subprocess, sys\n"
    "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(proc.pid, 0)\n"
    "proc.returncode = os.waitstatus_to_exitcode(status)\n"
    "print(proc.returncode, usage.ru_maxrss)\n"
)


def _cli_peak_rss_kib(*argv):
    """ru_maxrss (KiB) of a fresh `python -m uavlink` process run on argv."""
    env = dict(os.environ)
    src = str(Path(uavlink.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT_CHILD_RSS, sys.executable, "-m", "uavlink", *argv],
        env=env, capture_output=True, text=True, timeout=300)
    returncode, peak = map(int, proc.stdout.split())
    assert returncode == 0, proc.stderr[-2000:]
    return peak


def _sweep_peak_rss_kib(tmp_path, n):
    """ru_maxrss (KiB) of a fresh `python -m uavlink sweep-m` process that draws n samples."""
    data = preset_config("dense_urban")
    data["estimators"]["n_samples"] = n
    config = tmp_path / f"n{n}.json"
    config.write_text(json.dumps(data))
    return _cli_peak_rss_kib("sweep-m", "--config", str(config), "--m-values", "200",
                             "--out", str(tmp_path / f"n{n}.csv"))


@pytest.mark.skipif(not hasattr(os, "wait4") or sys.platform != "linux",
                    reason="reads a child's ru_maxrss in KiB through os.wait4")
def test_a_sweep_process_peak_rss_does_not_grow_with_the_sample_count(tmp_path):
    # Compared within each Philox source: up to _ARRAY_PHILOX_MAX samples a
    # sweep does not import numpy.random, above it it does (2.8 MB). A draw
    # that kept the 4e6 SNRs (32 MB) as one array raised the peak by about 30 MB.
    for small_n, large_n in ((10_000, _ARRAY_PHILOX_MAX), (_ARRAY_PHILOX_MAX + 1, 4_000_000)):
        small = _sweep_peak_rss_kib(tmp_path, small_n)
        large = _sweep_peak_rss_kib(tmp_path, large_n)
        assert abs(large - small) < 2 * 1024, (small_n, small, large_n, large)


@pytest.mark.skipif(not hasattr(os, "wait4") or sys.platform != "linux",
                    reason="reads a child's ru_maxrss in KiB through os.wait4")
def test_a_sweep_process_peak_rss_does_not_grow_with_the_quadrature_orders(tmp_path):
    # A node grid evaluated whole raised the peak by about 23 MB at 1000x1000.
    small, large = (_cli_peak_rss_kib("sweep-eps", "--n1", order, "--n2", order,
                                      "--eps-values", "1e-9", "--out", str(tmp_path / order))
                    for order in ("30", "1000"))
    assert abs(large - small) < 2 * 1024, (small, large)


@pytest.mark.skipif(not hasattr(os, "wait4") or sys.platform != "linux",
                    reason="reads a child's ru_maxrss in KiB through os.wait4")
def test_a_sweep_process_peaks_within_2_mib_of_a_dmax_process(tmp_path):
    # Both load the interpreter, numpy and uavlink; a default sweep adds its
    # draw's blocks and the quadrature's, 0.5-1 MB on a 2-core Xeon. It draws
    # with the array Philox; numpy.random, which it imported before, added
    # 2.8 MB more, and OpenSSL's libcrypto, which numpy.random's `secrets`
    # pulls in unless the CLI entry blocks `_hashlib`, 3.4 MB on top of that.
    dmax = _cli_peak_rss_kib("dmax")
    sweep = _sweep_peak_rss_kib(tmp_path, 10_000)
    assert sweep - dmax < 2 * 1024, (dmax, sweep)
