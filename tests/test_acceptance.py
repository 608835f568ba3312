"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`)."""

import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import geomcode

from geomcode.cli import main as cli_main
from geomcode.constructions import build_conic_structure, build_hyperbolic_structure
from geomcode.fields import Field
from geomcode.gf2 import brouwer_predict, rank2
from geomcode.metrics import six_cycles, tanner_bounds, tanner_girth
from geomcode.sim import ChannelConfig, LdpcCode, SumProductDecoder, random_regular_h, simulate_point
from geomcode.srpg import check_gpg_axioms, check_strongly_regular, spectrum
from oracles import gram_counts, packbits, scalar

CONIC_FIELDS = {5: (5, 1), 7: (7, 1), 9: (3, 2)}


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def geo_code(hyp3):
    return LdpcCode.from_parity(hyp3.matrix)


def _verified(ic):
    """The axioms' parameters, lambda and mu."""
    _, _, lam, mu = check_strongly_regular(ic)
    return check_gpg_axioms(ic), lam, mu


def test_criterion_01_conic_structure_shape():
    details = []
    for q, (p, k) in CONIC_FIELDS.items():
        t0 = time.perf_counter()
        ic = build_conic_structure(Field(p, k))
        elapsed = time.perf_counter() - t0
        ok = (
            ic.v == ic.n == (q - 1) ** 2
            and set(ic.matrix.row_weights()) == {q - 2}
            and set(ic.matrix.column_weights()) == {q - 2}
            and elapsed < 1.0
        )
        details.append(f"q={q}: {ic.v}x{ic.n}, weights {q - 2}, {elapsed:.3f}s")
        assert ok, details[-1]
    _report("1", True, "; ".join(details))


def test_criterion_02_conic_srg_identity():
    details = []
    for q, (p, k) in CONIC_FIELDS.items():
        ic = build_conic_structure(Field(p, k))
        t0 = time.perf_counter()
        v, kk, lam, mu = check_strongly_regular(ic)
        expected = ((q - 1) ** 2, (q - 2) * (q - 3), (q - 4) ** 2 + 1, (q - 3) * (q - 4))
        # independent entrywise check of A^2 = kI + lambda A + mu (J - I - A)
        a = ic.adjacency.astype(np.int64)
        lhs = a @ a
        j = np.ones((v, v), dtype=np.int64)
        eye = np.eye(v, dtype=np.int64)
        rhs = kk * eye + lam * a + mu * (j - eye - a)
        elapsed = time.perf_counter() - t0
        assert (v, kk, lam, mu) == expected, f"q={q}: got {(v, kk, lam, mu)}"
        assert np.array_equal(lhs, rhs), f"q={q}: A^2 identity fails"
        assert elapsed < 5.0
        details.append(f"q={q}: {expected}, {elapsed:.2f}s")
    _report("2", True, "; ".join(details))


def test_criterion_03_conic_alpha_sets():
    details = []
    for q, (p, k) in CONIC_FIELDS.items():
        params = check_gpg_axioms(build_conic_structure(Field(p, k)))
        expected = (q - 5, q - 4, q - 3)
        assert params.alphas == expected, f"q={q}: got {params.alphas}"
        details.append(f"q={q}: alphas={params.alphas}")
    _report("3", True, "; ".join(details))


def test_criterion_04_hyperbolic_structure(hyp3, hyp3_labels, hyp5):
    t0 = time.perf_counter()
    ic5 = build_hyperbolic_structure(Field(5))
    elapsed5 = time.perf_counter() - t0
    for ic, q in ((hyp3, 3), (ic5, 5)):
        assert ic.v == q ** 4 and ic.n == q ** 4 * (q ** 2 - 1)
        assert set(ic.matrix.column_weights()) == {q}
        assert set(ic.matrix.row_weights()) == {q * (q ** 2 - 1)}
    assert elapsed5 < 30.0
    # adjacency iff rank(N2 - N1) = 2, exhaustively at q = 3
    f = scalar(hyp3.field)
    gram = gram_counts(hyp3.matrix)
    points = hyp3_labels[0]
    for i1 in range(hyp3.v):
        n1 = points[i1]
        for i2 in range(i1):
            n2 = points[i2]
            d = [f.sub(a, b) for a, b in zip(n2, n1)]
            det = f.sub(f.mul(d[0], d[3]), f.mul(d[1], d[2]))
            assert (gram[i1, i2] > 0) == (det != 0), (i1, i2)
    _report("4", True,
            f"q=3: 81x648 weights (3,24); q=5: 625x15000 weights (5,120) in {elapsed5:.2f}s; "
            "adjacency == rank-2 criterion on all 3240 pairs")


def test_criterion_05_hyperbolic_srg(hyp3):
    v, k, lam, mu = check_strongly_regular(hyp3)
    params = check_gpg_axioms(hyp3)
    assert (v, k, lam, mu) == (81, 48, 27, 30)
    assert params.alphas == (1, 2, 3)
    _report("5", True, f"srg=(81,48,27,30), alphas={params.alphas}")


def test_criterion_06_ranks(hyp3, hyp5):
    details = []
    for q, (p, k) in CONIC_FIELDS.items():
        r = rank2(packbits(build_conic_structure(Field(p, k)).matrix))
        assert r == (q - 1) ** 2, f"conic q={q}: rank {r}"
        details.append(f"rank2(M1,q={q})={r}")
    t0 = time.perf_counter()
    r3, r5 = rank2(packbits(hyp3.matrix)), rank2(packbits(hyp5.matrix))
    elapsed = time.perf_counter() - t0
    assert (r3, r5) == (81, 625)
    assert elapsed < 60.0
    for r, q in ((r3, 3), (r5, 5)):
        assert r >= q ** 4 - q ** 3 - q ** 2 + q
    details.append(f"rank2(M2,q=3)={r3}, rank2(M2,q=5)={r5} in {elapsed:.2f}s, lower bounds hold")
    _report("6", True, "; ".join(details))


def test_criterion_07_rank_prediction_cross_check(hyp3, hyp5):
    details = []
    cases = [(build_conic_structure(Field(p, k)), q) for q, (p, k) in CONIC_FIELDS.items()]
    cases += [(hyp3, 3), (hyp5, 5)]
    for ic, q in cases:
        params, lam, mu = _verified(ic)
        spec = spectrum(params.v, params.s * (params.t + 1), lam, mu, params.s, params.t)
        pred = brouwer_predict(spec)
        eliminated = rank2(np.packbits(gram_counts(ic.matrix) & 1, axis=1))
        assert pred.kind == "exact", f"{ic.family} q={q}: prediction not exact"
        assert pred.value == eliminated, f"{ic.family} q={q}: {pred.value} != {eliminated}"
        details.append(f"{ic.family} q={q}: {pred.value}")
    assert details[-2].endswith("48")  # hyperbolic q=3 equals f1
    _report("7", True, "; ".join(details))


def test_criterion_08_spectrum_identities_and_annihilation(conic5, hyp3):
    for ic, (s, t) in ((hyp3, (2, 23)), (conic5, (2, 2))):
        v, k, lam, mu = check_strongly_regular(ic)
        spec = spectrum(v, k, lam, mu, s, t)
        assert spec.u1 + spec.u2 == lam - mu
        assert spec.u1 * spec.u2 == mu - k
        assert spec.f1 + spec.f2 == v - 1
        assert k + spec.f1 * spec.u1 + spec.f2 * spec.u2 == 0
        assert spec.theta0 == (s + 1) * (t + 1)
        assert spec.theta1 == spec.u1 + t + 1 and spec.theta2 == spec.u2 + t + 1
        a = ic.adjacency.astype(np.int64)
        eye = np.eye(v, dtype=np.int64)
        zero = (a - spec.u1 * eye) @ (a - spec.u2 * eye) @ (a - k * eye)
        assert not zero.any(), f"{ic.family}: annihilation fails"
    _report("8", True, "quadratic/trace identities and integer annihilation at "
                       "hyperbolic q=3 and conic q=5")


def test_criterion_09_six_cycles(conic5, hyp3):
    t0 = time.perf_counter()
    rep_h = six_cycles(hyp3, *_verified(hyp3)[:2])
    rep_c = six_cycles(conic5, *_verified(conic5)[:2])
    elapsed = time.perf_counter() - t0
    assert rep_h.six_cycle_enumerated == rep_h.six_cycle_formula == 16848
    assert rep_c.six_cycle_enumerated == rep_c.six_cycle_formula == 16
    assert elapsed < 60.0
    _report("9", True, f"hyperbolic q=3: 16848; conic q=5: 16; {elapsed:.2f}s")


def test_criterion_10_girth(conic5, conic7, conic9, hyp3):
    details = []
    for ic in (conic5, conic7, conic9, hyp3):
        params = check_gpg_axioms(ic)
        g = tanner_girth(ic)
        assert g == 6, f"{ic.family} q={ic.field.q}: girth {g}"
        assert max(params.alphas) >= 2
        details.append(f"{ic.family} q={ic.field.q}: girth 6, max alpha {max(params.alphas)}")
    _report("10", True, "; ".join(details))


def test_criterion_11_code_rate(hyp3):
    dim = hyp3.n - rank2(packbits(hyp3.matrix))
    assert hyp3.n == 648 and dim == 567 and dim / hyp3.n == 0.875
    _report("11", True, "length 648, dimension 567, rate 0.875")


def test_criterion_12_tanner_bounds_regression(hyp3):
    params, lam, mu = _verified(hyp3)
    spec = spectrum(params.v, params.s * (params.t + 1), lam, mu, params.s, params.t)
    b = tanner_bounds(params.n, params.s + 1, params.t + 1, spec.theta0, spec.theta1)
    assert b.bit_oriented == Fraction(-1512, 5) and b.bit_oriented < 0
    assert b.parity_oriented == Fraction(6, 5)
    assert b.effective == 2
    _report("12", True, "bit bound -1512/5 (negative), parity bound 6/5, both exact rationals")


def test_criterion_13a_single_flip_correction(geo_code):
    t0 = time.perf_counter()
    decoder = SumProductDecoder(geo_code)
    for pos in range(geo_code.n):
        llrs = np.full(geo_code.n, 9.0)
        llrs[pos] = -9.0
        hard, _, ok = decoder.decode(llrs, 50)
        assert ok and not hard.any(), f"flip at {pos} not corrected"
    _report("13a", True, f"all 648 single-bit flips corrected, {time.perf_counter() - t0:.2f}s")


def test_criterion_13b_deep_noise_coin_flip(geo_code):
    # In deep noise the decoder adds nothing, so the measured BER is the coin
    # the channel tosses.  With the documented convention
    # sigma^2 = 1/(2 R 10^(EbN0/10)) and bit 0 sent as +1, a hard decision on
    # the channel errs with probability Q(1/sigma) = erfc(1/(sigma sqrt 2))/2:
    # 0.338 at -10 dB (sigma = 2.39) for R = 0.875.  Check messages are
    # products of 23 tanh factors and vanish, so no frame converges and the
    # decoded decisions are the channel's.  The coin is fair (0.5) only as
    # EbN0 -> -infinity (Q(1/sigma) is 0.447 at -20 dB).
    cfg = ChannelConfig(ebn0_db_list=(-10.0,),
                        max_iterations=20, min_frame_errors=1000, max_frames=100, seed=13)
    pt = simulate_point(geo_code, cfg, 0)
    sigma = math.sqrt(1.0 / (2.0 * geo_code.rate * 10.0 ** (cfg.ebn0_db_list[0] / 10.0)))
    analytic = 0.5 * math.erfc(1.0 / (sigma * math.sqrt(2.0)))
    assert pt.fer == 1.0, f"{pt.frame_errors} of {pt.frames} frames had errors"
    assert pt.mean_iterations == cfg.max_iterations, \
        f"mean iterations {pt.mean_iterations} below the limit {cfg.max_iterations}"
    ok = pt.ci_low <= analytic <= pt.ci_high
    _report("13b", ok,
            f"measured BER {pt.ber:.4f} (CI [{pt.ci_low:.4f}, {pt.ci_high:.4f}]) vs "
            f"channel decision probability Q(1/sigma) = {analytic:.4f} at "
            f"{cfg.ebn0_db_list[0]:g} dB")


def test_criterion_13c_waterfall_monotone(geo_code):
    t0 = time.perf_counter()
    cfg = ChannelConfig(ebn0_db_list=(1.0, 2.0, 3.0, 4.0, 5.0),
                        max_iterations=30, min_frame_errors=40, max_frames=4000, seed=21)
    points = [simulate_point(geo_code, cfg, i) for i in range(5)]
    for lo, hi in zip(points, points[1:]):
        # fail only on an increase with disjoint 95% intervals
        assert hi.ber <= lo.ber or hi.ci_low <= lo.ci_high, \
            f"BER rose from {lo.ber:.3g}@{lo.ebn0_db} to {hi.ber:.3g}@{hi.ebn0_db}"
    bers = ", ".join(f"{p.ber:.2e}@{p.ebn0_db:g}dB" for p in points)
    _report("13c", True, f"non-increasing within intervals: {bers} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_13d_geometry_vs_random(geo_code):
    t0 = time.perf_counter()
    rnd_code = random_regular_h(81, 648, 3, 24, seed=20260810)
    grid = (4.0, 4.5, 5.0)
    geo_pts, rnd_pts = [], []
    for i in range(len(grid)):
        cfg_g = ChannelConfig(ebn0_db_list=grid, max_iterations=40,
                              min_frame_errors=100, max_frames=40000, seed=77)
        cfg_r = ChannelConfig(ebn0_db_list=grid, max_iterations=40,
                              min_frame_errors=100, max_frames=40000, seed=78)
        geo_pts.append(simulate_point(geo_code, cfg_g, i))
        rnd_pts.append(simulate_point(rnd_code, cfg_r, i))
    qualified = [i for i, p in enumerate(rnd_pts) if p.frame_errors >= 100]
    assert qualified, "no point accumulated 100 random-code frame errors"
    i = qualified[-1]
    g, r = geo_pts[i], rnd_pts[i]
    elapsed = time.perf_counter() - t0
    if g.ci_high < r.ci_low:
        _report("13d", True,
                f"at {grid[i]} dB geometry BER {g.ber:.3e} < random BER {r.ber:.3e} "
                f"with separated 95% intervals ({elapsed:.1f}s)")
    elif g.ci_low > r.ci_high:
        _report("13d", False,
                f"at {grid[i]} dB geometry BER {g.ber:.3e} exceeds random BER {r.ber:.3e} "
                "with separated intervals")
    else:
        _report("13d", True,
                f"inconclusive at {grid[i]} dB: intervals overlap "
                f"(geometry {g.ber:.3e}, random {r.ber:.3e}) ({elapsed:.1f}s)")


def test_criterion_14_determinism(tmp_path):
    outputs = []
    for run_dir in ("one", "two"):
        d = tmp_path / run_dir
        d.mkdir()
        assert cli_main(["construct", "--family", "hyperbolic", "--field", "3",
                         "--out", str(d / "h.alist")]) == 0
        assert cli_main(["analyze", "--family", "conic", "--field", "5",
                         "--out", str(d / "c.json")]) == 0
        assert cli_main(["simulate", "--in", str(d / "h.alist"), "--ebno", "3:1:4",
                         "--seed", "5", "--max-iters", "10", "--min-frame-errors", "5",
                         "--max-frames", "30", "--threads", "1",
                         "--out", str(d / "b.csv")]) == 0
        outputs.append({name: (d / name).read_bytes()
                        for name in ("h.alist", "c.json", "b.csv")})
    assert outputs[0] == outputs[1]
    _report("14", True, "alist, JSON and CSV outputs byte-identical across two runs")


# Runs `analyze` in a fresh interpreter, so that ru_maxrss is this analysis's
# own peak; prints the wall time, the peak RSS in MB and the report.
_ANALYZE_SCRIPT = """
import json, resource, sys, time
from geomcode.cli import main
t0 = time.perf_counter()
status = main(["analyze", "--family", sys.argv[1], "--field", sys.argv[2], "--out", sys.argv[3],
               *sys.argv[4:]])
elapsed = time.perf_counter() - t0
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"status": status, "elapsed": elapsed, "rss_mb": rss_mb}))
"""


def _analyze_in_subprocess(tmp_path, family, field, extra=()):
    """Status, seconds and peak RSS of `analyze --family family --field
    field`, with the further arguments `extra`, and its report."""
    out = tmp_path / "report.json"
    env = {**os.environ, "PYTHONPATH": str(Path(geomcode.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _ANALYZE_SCRIPT, family, field, str(out), *extra],
                          env=env, capture_output=True, text=True, check=True)
    run = json.loads(proc.stdout.splitlines()[-1])
    assert run["status"] == 0
    return run, json.loads(out.read_text(encoding="utf-8"))


def test_criterion_15a_hyperbolic_q7_analysis(tmp_path):
    run, rep = _analyze_in_subprocess(tmp_path, "hyperbolic", "7")
    assert rep["checks_passed"] and rep["failures"] == []
    assert (rep["v"], rep["srg"]) == (2401, {"k": 2016, "lambda": 1687, "mu": 1722})
    assert rep["alphas"] == [5, 6, 7]
    assert rep["rank2_MMT"] == rep["rank_prediction"]["value"] == 2016
    assert rep["rank_prediction"]["kind"] == "exact"
    assert rep["girth"] == 6
    assert rep["six_cycles"] == {"formula": 1356929952, "enumerated": 1356929952}
    assert run["elapsed"] < 60.0 and run["rss_mb"] < 1024
    _report("15a", True, f"hyperbolic q=7: srg(2401, 2016, 1687, 1722), alphas (5, 6, 7), "
                         f"rank2(MM^T) = 2016 exact, girth 6, 1356929952 6-cycles; "
                         f"{run['elapsed']:.1f}s, peak RSS {run['rss_mb']:.0f} MB")


def test_criterion_15b_conic_q49_analysis(tmp_path):
    run, rep = _analyze_in_subprocess(tmp_path, "conic", "7^2")
    assert rep["checks_passed"] and rep["failures"] == []
    assert (rep["v"], rep["srg"]) == (2304, {"k": 2162, "lambda": 2026, "mu": 2070})
    assert rep["rank2_MMT"] == rep["rank_prediction"]["value"] == 2304
    assert rep["rank2_M"] == rep["rank2_MMT"]  # the full-rank Gram settles rank_2(M)
    assert rep["rank_prediction"]["case"] == "all-theta-odd"
    assert rep["six_cycles"] == {"formula": 1644642048, "enumerated": 1644642048}
    assert run["elapsed"] < 20.0 and run["rss_mb"] < 600
    _report("15b", True, f"conic q=49: srg(2304, 2162, 2026, 2070), rank2(MM^T) = 2304 "
                         f"(all-theta-odd), 1644642048 6-cycles; "
                         f"{run['elapsed']:.1f}s, peak RSS {run['rss_mb']:.0f} MB")


def test_criterion_15c_conic_q81_analysis(tmp_path):
    run, rep = _analyze_in_subprocess(tmp_path, "conic", "3^4")
    assert rep["checks_passed"] and rep["failures"] == []
    assert (rep["v"], rep["srg"]) == (6400, {"k": 6162, "lambda": 5930, "mu": 6006})
    assert rep["alphas"] == [76, 77, 78]
    assert rep["rank2_M"] == rep["rank2_MMT"] == 6400
    assert run["elapsed"] < 40.0 and run["rss_mb"] < 500
    _report("15c", True, f"conic q=81: srg(6400, 6162, 5930, 6006), alphas (76, 77, 78); "
                         f"{run['elapsed']:.1f}s, peak RSS {run['rss_mb']:.0f} MB")


def test_criterion_15d_hyperbolic_q9_analysis(tmp_path):
    # a translation structure: its counts are read from point 0 and its ranks
    # from a character count, with no point graph
    run, rep = _analyze_in_subprocess(tmp_path, "hyperbolic", "3^2")
    assert rep["checks_passed"] and rep["failures"] == []
    assert (rep["v"], rep["srg"]) == (6561, {"k": 5760, "lambda": 5049, "mu": 5112})
    assert rep["alphas"] == [7, 8, 9]
    assert rep["rank2_MMT"] == rep["rank_prediction"]["value"] == 5760
    assert rep["rank_prediction"]["kind"] == "exact"
    assert rep["rank2_M"] == 6561
    assert rep["girth"] == 6
    assert rep["six_cycles"] == {"formula": 31757339520, "enumerated": 31757339520}
    assert run["elapsed"] < 15.0 and run["rss_mb"] < 500
    _report("15d", True, f"hyperbolic GF(9): srg(6561, 5760, 5049, 5112), alphas (7, 8, 9), "
                         f"rank2(MM^T) = 5760 exact, rank2(M) = 6561, girth 6, "
                         f"31757339520 6-cycles; "
                         f"{run['elapsed']:.1f}s, peak RSS {run['rss_mb']:.0f} MB")


def test_criterion_15e_conic_q121_analysis(tmp_path):
    # 14,400 points: the scalings certified, the counts read from point 0 and
    # both ranks from the characters of the Gram parity on (Z_15)^2, 15 x 15
    run, rep = _analyze_in_subprocess(tmp_path, "conic", "11^2", ["--modulus", "1,0,1"])
    assert rep["checks_passed"] and rep["failures"] == []
    assert (rep["v"], rep["srg"]) == (14400, {"k": 14042, "lambda": 13690, "mu": 13806})
    assert rep["alphas"] == [116, 117, 118]
    assert rep["rank2_MMT"] == rep["rank_prediction"]["value"] == 14400
    assert rep["rank_prediction"]["kind"] == "exact"
    assert rep["rank2_M"] == 14400
    assert rep["girth"] == 6
    assert rep["six_cycles"] == {"formula": 457420958400, "enumerated": 457420958400}
    assert run["elapsed"] < 4.0 and run["rss_mb"] < 1024
    _report("15e", True, f"conic q=121: srg(14400, 14042, 13690, 13806), alphas (116, 117, 118), "
                         f"rank2(MM^T) = rank2(M) = 14400 exact, girth 6, "
                         f"457420958400 6-cycles; "
                         f"{run['elapsed']:.1f}s, peak RSS {run['rss_mb']:.0f} MB")


def test_criterion_15f_hyperbolic_q11_analysis(tmp_path):
    # 14,641 points and 1,756,920 blocks, end to end: the build from N's two
    # rows, then counts from point 0 and ranks from a character count
    run, rep = _analyze_in_subprocess(tmp_path, "hyperbolic", "11")
    assert rep["checks_passed"] and rep["failures"] == []
    assert (rep["v"], rep["srg"]) == (14641, {"k": 13200, "lambda": 11891, "mu": 11990})
    assert rep["alphas"] == [9, 10, 11]
    assert rep["rank2_MMT"] == rep["rank_prediction"]["value"] == 13200
    assert rep["rank_prediction"]["kind"] == "exact"
    assert rep["rank2_M"] == 14641
    assert rep["girth"] == 6
    assert rep["six_cycles"] == {"formula": 382721596400, "enumerated": 382721596400}
    assert run["elapsed"] < 60.0 and run["rss_mb"] < 2560
    _report("15f", True, f"hyperbolic q=11: srg(14641, 13200, 11891, 11990), alphas (9, 10, 11), "
                         f"rank2(MM^T) = 13200 exact, rank2(M) = 14641, girth 6, "
                         f"382721596400 6-cycles; "
                         f"{run['elapsed']:.1f}s, peak RSS {run['rss_mb']:.0f} MB")


def test_criterion_15g_hyperbolic_q13_analysis(tmp_path):
    # 28,561 points and 4,798,248 blocks, the largest certified size pinned:
    # rank_2(M M^T) from the character count is the exact prediction
    run, rep = _analyze_in_subprocess(tmp_path, "hyperbolic", "13")
    assert rep["checks_passed"] and rep["failures"] == []
    assert (rep["v"], rep["srg"]) == (28561, {"k": 26208, "lambda": 24037, "mu": 24180})
    assert rep["alphas"] == [11, 12, 13]
    assert rep["rank2_MMT"] == rep["rank_prediction"]["value"] == 26208
    assert rep["rank_prediction"]["kind"] == "exact"
    assert rep["rank2_M"] == 28561
    assert rep["girth"] == 6
    assert rep["six_cycles"] == {"formula": 2997350367648, "enumerated": 2997350367648}
    assert run["elapsed"] < 30.0 and run["rss_mb"] < 3400
    _report("15g", True, f"hyperbolic q=13: srg(28561, 26208, 24037, 24180), alphas (11, 12, 13), "
                         f"rank2(MM^T) = 26208 exact, rank2(M) = 28561, girth 6, "
                         f"2997350367648 6-cycles; "
                         f"{run['elapsed']:.1f}s, peak RSS {run['rss_mb']:.0f} MB")


def test_criterion_15h_conic_q243_analysis(tmp_path):
    # 58,564 points, with no v x v array: the build sets the peak, and both
    # ranks come from the characters of the Gram parity on (Z_121)^2, 121 x 121
    run, rep = _analyze_in_subprocess(tmp_path, "conic", "3^5", ["--modulus", "1,2,0,0,0,1"])
    assert rep["checks_passed"] and rep["failures"] == []
    assert (rep["v"], rep["srg"]) == (58564, {"k": 57840, "lambda": 57122, "mu": 57360})
    assert rep["alphas"] == [238, 239, 240]
    assert rep["rank2_MMT"] == rep["rank_prediction"]["value"] == 58564
    assert rep["rank_prediction"]["kind"] == "exact"
    assert rep["rank2_M"] == 58564
    assert rep["girth"] == 6
    assert rep["six_cycles"] == {"formula": 32113693555680, "enumerated": 32113693555680}
    assert run["elapsed"] < 20.0 and run["rss_mb"] < 1536
    _report("15h", True, f"conic q=243: srg(58564, 57840, 57122, 57360), alphas (238, 239, 240), "
                         f"rank2(MM^T) = rank2(M) = 58564 exact, girth 6, "
                         f"32113693555680 6-cycles; "
                         f"{run['elapsed']:.1f}s, peak RSS {run['rss_mb']:.0f} MB")
