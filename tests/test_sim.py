import math

import numpy as np
import pytest

from geomcode.sim import (
    ChannelConfig,
    LdpcCode,
    SumProductDecoder,
    awgn_llrs,
    ber_sweep,
    noise_sigma,
    random_regular_h,
    simulate_point,
    wilson_interval,
)


@pytest.fixture(scope="module")
def geo_code(hyp3):
    return LdpcCode.from_parity(hyp3.matrix)


@pytest.fixture(scope="module")
def geo_decoder(geo_code):
    return SumProductDecoder(geo_code)


def test_code_from_parity(geo_code):
    assert geo_code.n == 648 and geo_code.m == 81
    assert geo_code.dimension == 567
    assert geo_code.rate == 0.875
    assert geo_code.w_col == 3 and geo_code.w_row == 24


def test_decode_noiseless(geo_decoder):
    hard, iters, ok = geo_decoder.decode(np.full(648, 12.0), 100)
    assert not hard.any() and iters == 1 and ok


def test_decode_corrects_every_single_flip(geo_code, geo_decoder):
    for pos in range(geo_code.n):
        llrs = np.full(geo_code.n, 8.0)
        llrs[pos] = -8.0
        hard, _, ok = geo_decoder.decode(llrs, 50)
        assert ok and not hard.any(), f"failed to correct flip at {pos}"


def test_decode_erasure_does_not_converge(geo_decoder):
    hard, iters, ok = geo_decoder.decode(np.zeros(648), 10)
    assert iters == 10 and not ok


def test_decode_wrong_length(geo_decoder):
    with pytest.raises(ValueError):
        geo_decoder.decode(np.zeros(100), 5)


def test_syndrome_ok_is_exact(geo_code, geo_decoder):
    # every convergent output must satisfy H c^T = 0 in integer arithmetic
    converged = 0
    for frame in range(60):
        rng = np.random.default_rng([42, frame])
        llrs = awgn_llrs(np.zeros(geo_code.n, dtype=np.uint8), 3.5, geo_code.rate, rng)
        hard, _, ok = geo_decoder.decode(llrs, 40)
        if ok:
            converged += 1
            word = 0
            for j in np.flatnonzero(hard):
                word |= 1 << int(j)
            assert all((row & word).bit_count() % 2 == 0 for row in geo_code.h.rows)
    assert converged > 0


def test_awgn_noiseless_limit():
    rng = np.random.default_rng(0)
    bits = np.array([0, 1, 0, 1, 1], dtype=np.uint8)
    llrs = awgn_llrs(bits, 40.0, 0.5, rng)  # essentially noise-free
    assert ((llrs < 0) == bits.astype(bool)).all()


def test_awgn_determinism():
    bits = np.zeros(100, dtype=np.uint8)
    a = awgn_llrs(bits, 2.0, 0.875, np.random.default_rng(123))
    b = awgn_llrs(bits, 2.0, 0.875, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_awgn_llr_moments():
    # at 0 dB and rate 1/2 the noise deviation is exactly 1
    assert abs(noise_sigma(0.0, 0.5) - 1.0) < 1e-12
    n = 100_000
    rng = np.random.default_rng(9)
    llrs = awgn_llrs(np.zeros(n, dtype=np.uint8), 0.0, 0.5, rng)
    # |llr| = 2|y|, y ~ N(1,1): E|y| via the folded-normal mean
    phi_m1 = 0.5 * (1 + math.erf(-1 / math.sqrt(2)))
    mean_abs_y = math.sqrt(2 / math.pi) * math.exp(-0.5) + (1 - 2 * phi_m1)
    expected = 2 * mean_abs_y
    var_abs_llr = 4 * (2 - mean_abs_y ** 2)
    se = math.sqrt(var_abs_llr / n)
    assert abs(np.abs(llrs).mean() - expected) < 3 * se


def test_random_regular_shape_and_weights():
    code = random_regular_h(81, 648, 3, 24, seed=7)
    assert set(code.h.column_weights()) == {3}
    assert set(code.h.row_weights()) == {24}
    assert code.w_col == 3 and code.w_row == 24
    # each band's rows sum to all-ones, so the rank deficiency is >= w_col - 1
    assert code.dimension >= 648 - 79


def test_random_regular_determinism():
    a = random_regular_h(81, 648, 3, 24, seed=5)
    b = random_regular_h(81, 648, 3, 24, seed=5)
    assert a.h == b.h
    c = random_regular_h(81, 648, 3, 24, seed=6)
    assert c.h != a.h


def test_random_regular_infeasible():
    with pytest.raises(ValueError, match="weight equation"):
        random_regular_h(81, 648, 3, 25, seed=0)
    with pytest.raises(ValueError, match="bands"):
        random_regular_h(7, 14, 2, 4, seed=0)


def _columns_share_two_rows(h):
    ht = h.transpose()
    for i in range(ht.nrows):
        for j in range(i):
            if (ht.rows[i] & ht.rows[j]).bit_count() >= 2:
                return True
    return False


def test_random_regular_four_cycle_flag_small():
    # small enough that rejection sampling finds a clean matrix
    code = random_regular_h(6, 9, 2, 3, seed=1)
    assert code.four_cycle_free
    assert not _columns_share_two_rows(code.h)


def test_random_regular_four_cycle_flag_large():
    # at the Fig-1 scale a collision-free permutation is out of reach,
    # so the matrix is accepted with the warning flag set
    code = random_regular_h(81, 648, 3, 24, seed=7)
    assert code.four_cycle_free is False
    assert _columns_share_two_rows(code.h)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 1000)
    assert lo < 1e-12 and hi < 0.01
    lo, hi = wilson_interval(500, 1000)
    assert lo < 0.5 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_simulate_point_refuses_trivial_code():
    from geomcode.gf2 import BinaryMatrix

    eye = BinaryMatrix.from_bits([[1 if i == j else 0 for j in range(4)] for i in range(4)])
    code = LdpcCode.from_parity(eye)
    cfg = ChannelConfig(ebn0_db_list=(2.0,), rate=0.5)
    with pytest.raises(ValueError, match="dimension 0"):
        simulate_point(code, cfg, 0)


def test_ber_deep_noise_matches_channel_decisions(geo_code):
    # far below the waterfall the check messages vanish (tanh products over
    # 23 edges), so decoded BER equals the raw decision probability Q(1/sigma)
    cfg = ChannelConfig(ebn0_db_list=(-10.0,), rate=geo_code.rate,
                        max_iterations=20, min_frame_errors=100, max_frames=60, seed=2)
    pt = simulate_point(geo_code, cfg, 0)
    sigma = noise_sigma(-10.0, geo_code.rate)
    analytic = 0.5 * math.erfc(1 / sigma / math.sqrt(2))
    assert abs(pt.ber - analytic) < 0.01
    assert pt.fer == 1.0


def test_ber_sweep_deterministic(geo_code):
    cfg = ChannelConfig(ebn0_db_list=(3.0, 4.0), rate=geo_code.rate,
                        max_iterations=15, min_frame_errors=5, max_frames=40, seed=11)
    a = ber_sweep(geo_code, cfg)
    b = ber_sweep(geo_code, cfg)
    assert a == b


def test_point_stats_independent_of_grid_position(geo_code):
    # the RNG stream is keyed by (seed, point index, frame), so a point's
    # result does not depend on what other points are in the grid
    cfg1 = ChannelConfig(ebn0_db_list=(3.0,), rate=geo_code.rate,
                         max_iterations=15, min_frame_errors=5, max_frames=30, seed=4)
    cfg2 = ChannelConfig(ebn0_db_list=(3.0, 5.0), rate=geo_code.rate,
                         max_iterations=15, min_frame_errors=5, max_frames=30, seed=4)
    assert simulate_point(geo_code, cfg1, 0) == simulate_point(geo_code, cfg2, 0)


def test_high_snr_no_errors(geo_code):
    cfg = ChannelConfig(ebn0_db_list=(8.0,), rate=geo_code.rate,
                        max_iterations=30, min_frame_errors=100, max_frames=300, seed=3)
    pt = simulate_point(geo_code, cfg, 0)
    assert pt.bit_errors == 0 and pt.frames == 300
