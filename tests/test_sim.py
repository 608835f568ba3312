import math
import tracemalloc
import warnings

import numpy as np
import pytest

import geomcode.constructions
import geomcode.sim
from geomcode.gf2 import BinaryMatrix
from geomcode.sim import (
    SWEEP_MIN_CHECKS,
    ChannelConfig,
    LdpcCode,
    SumProductDecoder,
    awgn_llrs,
    noise_sigma,
    random_regular_h,
    simulate_point,
    wilson_interval,
)
from oracles import dense, matrix


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
    assert set(geo_code.h.column_weights()) == {3} and set(geo_code.h.row_weights()) == {24}


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


def test_decode_rejects_nan(geo_decoder):
    llrs = np.full(648, 5.0)
    llrs[17] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        geo_decoder.decode(llrs, 20)
    with pytest.raises(ValueError, match="NaN"):
        geo_decoder.decode(np.full(648, np.nan), 20)


def test_decode_accepts_infinite_llrs(geo_decoder):
    # an infinite LLR is a certain channel decision; the clamp bounds it
    llrs = np.full(648, np.inf)
    llrs[::5] = 7.0
    hard, iters, ok = geo_decoder.decode(llrs, 20)
    assert ok and iters == 1 and not hard.any()
    llrs[3] = -np.inf
    hard, _, ok = geo_decoder.decode(llrs, 20)
    assert hard[3] == 1 and not ok


def test_syndrome_ok_is_exact(geo_code, geo_decoder):
    # every convergent output must satisfy H c^T = 0 in integer arithmetic
    converged = 0
    h = dense(geo_code.h).astype(np.int64)
    for frame in range(60):
        rng = np.random.default_rng([42, frame])
        llrs = awgn_llrs(np.zeros(geo_code.n, dtype=np.uint8), 3.5, geo_code.rate, rng)
        hard, _, ok = geo_decoder.decode(llrs, 40)
        if ok:
            converged += 1
            assert not (h @ hard % 2).any()
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


@pytest.mark.parametrize("ebn0,rate", [(4000.0, 0.875), (-4000.0, 0.875), (-3100.0, 0.875),
                                       (3080.0, 1.0)])
def test_noise_sigma_refuses_points_without_finite_noise(ebn0, rate):
    # 10^(x/10) overflows at 4000 dB and underflows to 0 at -4000 dB; at
    # -3100 dB it is subnormal and 1/(2 R 10^(x/10)) overflows to inf; at
    # 3080 dB and rate 1, 2 R 10^(x/10) overflows and sigma would be 0
    with pytest.raises(ValueError, match=f"Eb/N0 {ebn0:g} dB gives no finite positive noise sigma"):
        noise_sigma(ebn0, rate)
    assert 0.0 < noise_sigma(3000.0, 0.875) < noise_sigma(-3000.0, 0.875) < math.inf


@pytest.mark.parametrize("rate", [0, -0.5])
def test_noise_sigma_refuses_rates_that_are_not_positive(rate):
    with pytest.raises(ValueError, match="^rate must be positive$"):
        noise_sigma(3, rate)


def test_noise_sigma_refuses_points_whose_llr_scale_overflows():
    # sigma = 8.5e-155 is finite and positive, but 2/sigma^2 overflows; the
    # points accepted just below give finite LLRs, with no overflow warning
    with pytest.raises(ValueError, match=r"Eb/N0 3079 dB gives noise sigma 8.48166e-155, "
                                         r"whose LLR scale 2/sigma\^2 overflows at rate 0.875"):
        noise_sigma(3079.0, 0.875)
    bits = np.zeros(100, dtype=np.uint8)
    with np.errstate(over="raise"):
        assert np.isfinite(awgn_llrs(bits, 3077.0, 0.875, np.random.default_rng(0))).all()


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
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        random_regular_h(81, 648, 3, 24, seed=-1)


def test_channel_config_rejects_negative_seed():
    with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
        ChannelConfig(ebn0_db_list=(3.0,), seed=-3)


def _columns_share_two_rows(h):
    d = dense(h).astype(np.int64)
    shared = d.T @ d
    np.fill_diagonal(shared, 0)
    return bool((shared >= 2).any())


def test_random_regular_four_cycle_flag_small():
    # small enough that rejection sampling finds a clean matrix
    code = random_regular_h(6, 9, 2, 3, seed=1)
    assert code.four_cycle_free
    assert not _columns_share_two_rows(code.h)


def test_random_regular_one_column_per_row_skips_the_band_test():
    # with one column per row no two columns share a row, so no band is
    # tested against the earlier ones: 20,000 bands of one row, not 2 * 10^8 tests
    code = random_regular_h(20000, 1, 20000, 1, seed=0)
    assert code.four_cycle_free
    assert np.array_equal(dense(code.h), np.ones((20000, 1), dtype=np.uint8))


def test_random_regular_four_cycle_test_forms_no_rows_per_band_squared_array():
    # 10,000 rows per band: counting the keys of each band pair in an rpb^2
    # array peaked at 801 MB; sorting the 30,000 keys peaks at 58 MB, most
    # of it the elimination that takes the rank
    tracemalloc.start()
    try:
        code = random_regular_h(20000, 30000, 2, 3, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.four_cycle_free and code.dimension == 10001
    assert peak < 100 * 2**20


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


def test_from_parity_refused_before_any_pivot(monkeypatch):
    # a 300,000 x 300,000 identity, on an 8 GiB host: its elimination keeps up
    # to 300,000 pivots of 300,000 bits, about 11 GiB, refused before rank2
    calls = []
    monkeypatch.setattr(geomcode.sim, "rank2", calls.append)
    monkeypatch.setattr(geomcode.constructions.os, "sysconf",
                        lambda name: 2 ** 21 if name == "SC_PHYS_PAGES" else 4096)
    eye = np.arange(300_000)
    with pytest.raises(ValueError, match="^eliminating the 300,000 x 300,000 parity-check "
                                         "matrix needs about 11.2 GiB, more than the 8.0 GiB"):
        LdpcCode.from_parity(BinaryMatrix(eye, eye, (300_000, 300_000)))
    assert not calls


def test_simulate_point_refuses_trivial_code():
    # the refusal comes from the code alone: full column rank (dimension 0)
    # and rank 0 (dimension n)
    cfg = ChannelConfig(ebn0_db_list=(2.0,))
    eye = LdpcCode.from_parity(matrix(np.eye(4, dtype=np.uint8)))
    assert eye.dimension == 0
    with pytest.raises(ValueError, match=r"full column rank \(rank 4 = n = 4\)"):
        simulate_point(eye, cfg, 0)
    zero = LdpcCode.from_parity(matrix(np.zeros((2, 3), dtype=np.uint8)))
    assert zero.dimension == zero.n == 3
    with pytest.raises(ValueError, match=r"rank 0, the code is all of GF\(2\)\^3"):
        simulate_point(zero, cfg, 0)


def test_ber_deep_noise_matches_channel_decisions(geo_code):
    # far below the waterfall the check messages vanish (tanh products over
    # 23 edges), so decoded BER equals the raw decision probability Q(1/sigma)
    cfg = ChannelConfig(ebn0_db_list=(-10.0,),
                        max_iterations=20, min_frame_errors=100, max_frames=60, seed=2)
    pt = simulate_point(geo_code, cfg, 0)
    sigma = noise_sigma(-10.0, geo_code.rate)
    analytic = 0.5 * math.erfc(1 / sigma / math.sqrt(2))
    assert abs(pt.ber - analytic) < 0.01
    assert pt.fer == 1.0


def test_ber_sweep_deterministic(geo_code):
    cfg = ChannelConfig(ebn0_db_list=(3.0, 4.0),
                        max_iterations=15, min_frame_errors=5, max_frames=40, seed=11)
    for i in range(len(cfg.ebn0_db_list)):
        assert simulate_point(geo_code, cfg, i) == simulate_point(geo_code, cfg, i)


def test_point_stats_independent_of_grid_position(geo_code):
    # the RNG stream is keyed by (seed, point index, frame), so a point's
    # result does not depend on what other points are in the grid
    cfg1 = ChannelConfig(ebn0_db_list=(3.0,),
                         max_iterations=15, min_frame_errors=5, max_frames=30, seed=4)
    cfg2 = ChannelConfig(ebn0_db_list=(3.0, 5.0),
                         max_iterations=15, min_frame_errors=5, max_frames=30, seed=4)
    assert simulate_point(geo_code, cfg1, 0) == simulate_point(geo_code, cfg2, 0)


def test_high_snr_no_errors(geo_code):
    cfg = ChannelConfig(ebn0_db_list=(8.0,),
                        max_iterations=30, min_frame_errors=100, max_frames=300, seed=3)
    pt = simulate_point(geo_code, cfg, 0)
    assert pt.bit_errors == 0 and pt.frames == 300


class _RowMajorDecoder:
    """Frozen oracle: the row-major sum-product decoder the slab kernel must
    match bit for bit (per-check cumprods, gather/scatter, bincount sums).
    `posterior` keeps the last iteration's posteriors."""

    def __init__(self, code):
        n, m = code.n, code.m
        self.edge_check, self.edge_var = code.h.nonzero()
        e = len(self.edge_var)
        self.n, self.m, self.n_edges = n, m, e
        degrees = np.bincount(self.edge_check, minlength=m)
        md = int(degrees.max())
        table = np.full((m, md), e, dtype=np.int64)
        first_edge = np.cumsum(degrees) - degrees
        table[self.edge_check, np.arange(e) - first_edge[self.edge_check]] = np.arange(e)
        self.check_edges = table

    def decode(self, llrs, max_iter):
        clamp = 30.0
        llrs = np.asarray(llrs, dtype=np.float64)
        ev, ec = self.edge_var, self.edge_check
        m_vc = np.clip(llrs[ev], -clamp, clamp)
        padded = np.empty(self.n_edges + 1)
        hard = (llrs < 0).astype(np.uint8)
        for it in range(1, max_iter + 1):
            padded[:-1] = np.tanh(0.5 * m_vc)
            padded[-1] = 1.0
            t = padded[self.check_edges]
            fwd = np.ones_like(t)
            fwd[:, 1:] = np.cumprod(t, axis=1)[:, :-1]
            bwd = np.ones_like(t)
            bwd[:, :-1] = np.cumprod(t[:, ::-1], axis=1)[:, ::-1][:, 1:]
            loo = np.clip(fwd * bwd, -1.0 + 1e-15, 1.0 - 1e-15)
            scattered = np.empty(self.n_edges + 1)
            scattered[self.check_edges.ravel()] = (2.0 * np.arctanh(loo)).ravel()
            m_cv = np.clip(scattered[:-1], -clamp, clamp)
            totals = np.bincount(ev, weights=m_cv, minlength=self.n)
            posterior = llrs + totals
            hard = (posterior < 0).astype(np.uint8)
            syndrome = np.bincount(ec, weights=hard[ev].astype(np.float64),
                                   minlength=self.m).astype(np.int64) & 1
            self.posterior = posterior
            if not syndrome.any() and (posterior != 0.0).all():
                return hard, it, True
            m_vc = np.clip(posterior[ev] - m_cv, -clamp, clamp)
        return hard, max_iter, False


def _irregular_code():
    # an empty row (2), an empty column (7), a degree-1 check (4) and
    # row degrees from 0 to 5, so the slab has pads in several slots
    rows = [
        [1, 1, 0, 1, 0, 0, 1, 0, 1, 0],
        [0, 1, 1, 0, 1, 0, 0, 0, 0, 1],
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        [1, 0, 1, 1, 0, 1, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, 1, 0, 1, 0, 0, 1],
    ]
    return LdpcCode.from_parity(matrix(rows))


def _frame_corpus(code, seed):
    """(llrs, max_iter) pairs: AWGN from 0 to 6 dB, all-zero and exact-zero
    entries, magnitudes far past the clamp, and frames that run out of
    iterations."""
    n, rate = code.n, code.rate if code.dimension else 0.5
    zeros = np.zeros(n, dtype=np.uint8)
    frames = []
    for db in range(7):
        for k in range(3):
            rng = np.random.default_rng([seed, db, k])
            frames.append((awgn_llrs(zeros, float(db), rate, rng), 40))
    rng = np.random.default_rng([seed, 99])
    frames.append((np.zeros(n), 7))
    for k in range(3):
        llrs = awgn_llrs(zeros, 2.0, rate, rng)
        llrs[rng.choice(n, size=max(n // 8, 1), replace=False)] = 0.0
        frames.append((llrs, 30))
        frames.append((100.0 * awgn_llrs(zeros, 1.0, rate, rng), 30))
        frames.append((awgn_llrs(zeros, 0.0, rate, rng), 3))
    return frames


@pytest.fixture(scope="module")
def wide_code(hyp5):
    """Hyperbolic q=5: a 120 x 625 slab, 15,000 variables."""
    return LdpcCode.from_parity(hyp5.matrix)


@pytest.fixture(scope="module")
def oracle_codes(geo_code, conic7, wide_code):
    return {
        "hyperbolic q=3": geo_code,
        "gallager (3,24) seed 1": random_regular_h(81, 648, 3, 24, seed=1),
        "conic q=7": LdpcCode.from_parity(conic7.matrix),
        "irregular": _irregular_code(),
        "hyperbolic q=5": wide_code,
    }


def test_oracle_codes_straddle_the_sweep_width(oracle_codes):
    # both product paths, accumulate and row sweep, meet the oracle
    assert oracle_codes["hyperbolic q=3"].m < SWEEP_MIN_CHECKS <= oracle_codes["hyperbolic q=5"].m


@pytest.mark.parametrize("name", ["hyperbolic q=3", "gallager (3,24) seed 1", "conic q=7",
                                  "irregular", "hyperbolic q=5"])
def test_decode_matches_row_major_oracle(oracle_codes, name):
    code = oracle_codes[name]
    decoder, oracle = SumProductDecoder(code), _RowMajorDecoder(code)
    corpus = _frame_corpus(code, seed=len(name))
    if code.n > 10_000:
        corpus = corpus[::3]        # the wide code: every third frame keeps the suite quick
    outcomes = set()
    for i, (llrs, max_iter) in enumerate(corpus):
        # an empty leave-one-out product (the irregular code's degree-1
        # check) must reach the clamp without a floating-point warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hard, iters, ok = decoder.decode(llrs, max_iter)
        want_hard, want_iters, want_ok = oracle.decode(llrs, max_iter)
        assert hard.dtype == np.uint8
        assert np.array_equal(hard, want_hard), f"{name}: frame {i} hard decisions differ"
        assert (iters, ok) == (want_iters, want_ok), f"{name}: frame {i}"
        # the same sums in the same order: the last posteriors agree bit for bit
        assert decoder._post[:code.n].tobytes() == oracle.posterior.tobytes(), \
            f"{name}: frame {i} posteriors differ"
        outcomes.add(ok)
    # the corpus exercises both exits
    assert outcomes == {True, False}


def test_decoder_reuse_matches_fresh_decoders(geo_code):
    _check_decoder_reuse(geo_code)


def test_wide_decoder_reuse_matches_fresh_decoders(wide_code):
    _check_decoder_reuse(wide_code)


def _check_decoder_reuse(code):
    # A, B, A on one decoder equals fresh decoders, so the row views of the
    # sweep stay tied to each decoder's own buffers
    zeros = np.zeros(code.n, dtype=np.uint8)
    a = awgn_llrs(zeros, 2.5, code.rate, np.random.default_rng(1))
    b = awgn_llrs(zeros, 4.0, code.rate, np.random.default_rng(2))
    decoder = SumProductDecoder(code)
    first = decoder.decode(a, 60)
    kept = first[0].copy()
    second = decoder.decode(b, 60)
    third = decoder.decode(a, 60)
    for got, llrs in ((first, a), (second, b), (third, a)):
        want = SumProductDecoder(code).decode(llrs, 60)
        assert np.array_equal(got[0], want[0]) and got[1:] == want[1:]
    # a returned array is the caller's: later calls never write into it
    assert np.array_equal(first[0], kept)
    assert first[0] is not third[0] and not np.shares_memory(first[0], third[0])
