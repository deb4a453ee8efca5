import math
import tracemalloc

import numpy as np
import pytest

from uavlink.channel import derive_constants, snr
from uavlink.config import load_preset
from uavlink.fbl_rate import FblConfig, achievable_rate
from uavlink.geometry import Airspace
from uavlink.montecarlo import (
    _BLOCK,
    McEstimate,
    _pairwise,
    _rate_terms,
    estimate_aadr,
    estimate_inverse_snr,
    estimate_shannon,
)
from uavlink.quadrature import aadr_gcq

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
    est = estimate_inverse_snr(corner, dense_consts, n=2_000, seed=3)
    assert est.mean == pytest.approx(1.0 / snr(dense_consts, 90.0, 400.0), rel=1e-6)


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
    reference = aadr_gcq(dense_urban.airspace, dense_consts,
                         FblConfig(blocklength=200, epsilon=0.5), 30, 30)
    assert abs(est.mean - reference) <= 3.0 * est.std_error


def test_shannon_dominates_aadr_on_same_seed(dense_urban, dense_consts):
    space = dense_urban.airspace
    shannon = estimate_shannon(space, dense_consts, n=5_000, seed=21)
    aadr = estimate_aadr(space, dense_consts, CFG, n=5_000, seed=21)
    assert shannon.mean > aadr.mean


def test_inverse_snr_same_seed_deterministic(dense_urban, dense_consts):
    a = estimate_inverse_snr(dense_urban.airspace, dense_consts, n=5_000, seed=8)
    b = estimate_inverse_snr(dense_urban.airspace, dense_consts, n=5_000, seed=8)
    assert a == b


def test_estimate_validation(dense_urban, dense_consts):
    space = dense_urban.airspace
    with pytest.raises(ValueError):
        estimate_aadr(space, dense_consts, CFG, n=1, seed=1)
    with pytest.raises(ValueError):
        estimate_aadr(space, dense_consts, CFG, n=10, seed=1, shards=0)
    with pytest.raises(ValueError):
        estimate_aadr(space, dense_consts, CFG, n=10, seed=1, shards=11)


_LN2 = math.log(2.0)


# The whole-array chain that the blocked one replaced, formula for formula:
# sample_positions, snr and q_free_terms over a shard at once, then the
# moments through three product arrays.
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


def _whole_array_rate_terms(space, consts, n, seed, shards):
    g = _whole_array_snr(space, consts, n, seed, shards)
    s_terms = np.log1p(g) / _LN2
    w_terms = np.sqrt(g * (g + 2.0) / (1.0 + g) ** 2)
    mean_s, mean_w = float(s_terms.mean()), float(w_terms.mean())
    s_terms -= mean_s
    w_terms -= mean_w
    var_s, cov_sw, var_w = (float(np.add.reduce(a * b)) / (n - 1) for a, b in
                            ((s_terms, s_terms), (s_terms, w_terms), (w_terms, w_terms)))
    return mean_s, mean_w, var_s, cov_sw, var_w


@pytest.mark.parametrize("preset", ["dense_urban", "suburban"])
@pytest.mark.parametrize("n,shards", [
    *[(n, shards)
      for n in (2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 17, 200_001)
      for shards in (1, 2, 3) if shards <= n],
    (1_000_000, 2),  # the benchmark's draw
])
def test_blocked_chain_equals_the_whole_array_chain_bit_for_bit(preset, n, shards):
    cfg = load_preset(preset)
    consts = derive_constants(cfg.scenario, cfg.link)
    assert _rate_terms(cfg.airspace, consts, n, 11, shards) \
        == _whole_array_rate_terms(cfg.airspace, consts, n, 11, shards)

    values = 1.0 / _whole_array_snr(cfg.airspace, consts, n, 11, shards)
    assert estimate_inverse_snr(cfg.airspace, consts, n, 11, shards) == McEstimate(
        mean=float(values.mean()), std_error=float(values.std(ddof=1) / math.sqrt(n)))


def test_pairwise_sums_in_the_order_of_numpy_add_reduce():
    # Values over six decades of both signs, so that a sum in another order
    # differs in its last bits; if numpy changes its summation tree, this
    # test names the cause of the golden diffs that follow.
    rng = np.random.default_rng(5)
    lengths = [*range(1, 301), _BLOCK - 1, _BLOCK + 1, 2 * _BLOCK + 8, 3 * _BLOCK + 17,
               1_000_003]
    for n in lengths:
        data = rng.standard_normal(n + 7) * 10.0 ** rng.uniform(-3.0, 3.0, n + 7)
        for offset in (0, 1, 3, 7):
            x = data[offset:offset + n]
            assert _pairwise(n, lambda lo, hi: np.add.reduce(x[lo:hi])) \
                == np.add.reduce(x), (n, offset)
        # Several sums at once, as an array per leaf, keep each sum's bits.
        y = data[::-1][:n]
        pair = _pairwise(n, lambda lo, hi: np.array([np.add.reduce(data[lo:hi]),
                                                     np.add.reduce(y[lo:hi])]))
        assert pair.tolist() == [np.add.reduce(data[:n]), np.add.reduce(y)], n
    assert np.cumsum(x)[-1] != np.add.reduce(x)  # the order shows in these values


def test_a_draw_peaks_at_one_array_of_n_doubles(dense_urban, dense_consts):
    # The n SNRs; positions, S, W and the centred products live in block
    # buffers, which the 1 MiB covers. A draw that kept S and W peaked at
    # 3 x 8n with three shards and at 4 x 8n with one.
    n = 200_001
    _rate_terms(dense_urban.airspace, dense_consts, 100, 1, 1)  # imports numpy.random
    for estimate in (_rate_terms, estimate_inverse_snr):
        for shards in (1, 3):
            tracemalloc.start()
            try:
                estimate(dense_urban.airspace, dense_consts, n, 1, shards)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * n + 2**20, (estimate.__name__, shards, peak)
