import dataclasses
import hashlib
import json
import os
import time
import tracemalloc

import numpy as np
import pytest

import geomcode.gf2
import geomcode.metrics
import geomcode.sim
from geomcode import constructions
from geomcode.alist import read_alist, write_alist
from geomcode.cli import MAX_EBNO_POINTS, main, parse_ebno_grid
from geomcode.gf2 import BinaryMatrix, rank2
from oracles import matrix, rooks_graph


def run(args):
    return main([str(a) for a in args])


def test_ebno_grid_parsing():
    assert parse_ebno_grid("1:0.5:2") == (1.0, 1.5, 2.0)
    assert parse_ebno_grid("3") == (3.0,)
    assert parse_ebno_grid("1:1:5") == (1.0, 2.0, 3.0, 4.0, 5.0)
    assert parse_ebno_grid("0:0.3:1") == (0.0, 0.3, 0.6, 0.9)  # 1.2 > 1 + 0.15
    with pytest.raises(ValueError):
        parse_ebno_grid("1:2")
    with pytest.raises(ValueError):
        parse_ebno_grid("1:-1:5")


def test_ebno_grid_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError, match="empty"):
        parse_ebno_grid("5:1:3")
    for text in ("nan", "inf", "1:nan:3", "-inf:1:3", "1:1:nan"):
        with pytest.raises(ValueError, match="finite"):
            parse_ebno_grid(text)
    for text in ("3:x:5", "x", "1::3"):
        with pytest.raises(ValueError, match=f"bad Eb/N0 grid '{text}'"):
            parse_ebno_grid(text)
    # each point keys its own RNG stream, so a repeated point is refused, at
    # the first repeat: 0:1e-10:1 would otherwise list 10^10 points first
    for text in ("0:1e-10:2e-10", "0:1e-10:1"):
        with pytest.raises(ValueError) as exc:
            parse_ebno_grid(text)
        assert str(exc.value) == f"bad Eb/N0 grid '{text}'; points repeat after rounding to 9 decimals"
    # a grid is listed up to the cap and refused past it, so 0:1e-9:1000,
    # 10^12 distinct points, is refused at once
    assert len(parse_ebno_grid(f"0:1:{MAX_EBNO_POINTS - 1}")) == MAX_EBNO_POINTS
    for text in ("0:1e-9:1000", f"0:1:{MAX_EBNO_POINTS}"):
        with pytest.raises(ValueError) as exc:
            parse_ebno_grid(text)
        assert str(exc.value) == f"bad Eb/N0 grid '{text}'; more than 10,000 points"


def test_simulate_rejects_bad_ebno_grid(tmp_path, capsys):
    h = tmp_path / "h3.alist"
    assert run(["construct", "--family", "hyperbolic", "--field", "3", "--out", h]) == 0
    for grid in ("5:1:3", "nan", "0:1e-10:2e-10"):
        out = tmp_path / "ber.csv"
        assert run(["simulate", "--in", h, "--ebno", grid, "--max-frames", "1",
                    "--threads", "1", "--out", out]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "ber.csv.manifest.json").exists()
    assert run(["simulate", "--in", h, "--ebno", "0:1e-10:2e-10", "--out", out]) == 2
    assert capsys.readouterr().err == ("error: bad Eb/N0 grid '0:1e-10:2e-10'; "
                                       "points repeat after rounding to 9 decimals\n")
    # the grid is refused before the alist is read, so a missing file is not named
    t0 = time.perf_counter()
    assert run(["simulate", "--in", tmp_path / "missing.alist", "--ebno", "0:1e-9:1000",
                "--out", out]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == "error: bad Eb/N0 grid '0:1e-9:1000'; more than 10,000 points\n"
    assert not out.exists() and not (tmp_path / "ber.csv.manifest.json").exists()


def test_construct_writes_alist_and_manifest(tmp_path, hyp3):
    out = tmp_path / "H.alist"
    assert run(["construct", "--family", "hyperbolic", "--field", "3", "--out", out]) == 0
    assert read_alist(out) == hyp3.matrix
    manifest = json.loads((tmp_path / "H.alist.manifest.json").read_text())
    assert manifest["command"] == "construct" and manifest["params"]["labels"] is None
    assert manifest["outputs"] == {"H.alist": hashlib.sha256(out.read_bytes()).hexdigest()}


def test_construct_rejects_even_field(tmp_path):
    assert run(["construct", "--family", "conic", "--field", "4",
                "--out", tmp_path / "x.alist"]) == 2


def test_construct_names_bad_field_and_modulus(tmp_path, capsys):
    out = tmp_path / "x.alist"
    for args, err in [
        (["--field", "3^x"], "error: bad field '3^x'; expected p or p^k\n"),
        (["--field", "x"], "error: bad field 'x'; expected p or p^k\n"),
        (["--field", "3^0"], "error: extension degree k = 0 must be a positive integer\n"),
        (["--field", "3^2", "--modulus", "1,,1"],
         "error: bad modulus '1,,1'; expected comma-separated integers\n"),
    ]:
        assert run(["construct", "--family", "conic", *args, "--out", out]) == 2
        assert capsys.readouterr().err == err
        assert not out.exists()


@pytest.mark.parametrize("family,field", [("conic", "4093"), ("hyperbolic", "31")])
def test_construct_refuses_builds_past_physical_memory(tmp_path, capsys, family, field):
    # the closed-form peak is compared with physical memory before any large
    # array is allocated; no host holds these (conic q=4093 asks for TiBs)
    out = tmp_path / "x.alist"
    t0 = time.perf_counter()
    assert run(["construct", "--family", family, "--field", field, "--out", out]) == 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    assert elapsed < 0.5  # also before the field tables: those of GF(4093) alone take longer
    err = capsys.readouterr().err
    assert err.startswith(f"error: the {family} build over GF({field}) needs about ")
    assert err.endswith(" GiB of physical memory\n")
    assert not out.exists() and not (tmp_path / "x.alist.manifest.json").exists()


@pytest.mark.parametrize("field,q", [("1000000000000000003", "1000000000000000003"),
                                     ("3^1000000000", "3^1000000000")])
def test_construct_refuses_huge_fields_at_once(tmp_path, capsys, field, q):
    # the 4096 bound comes before the trial division of p and without forming
    # p^k: each of these used to run past a 20-s timeout
    out = tmp_path / "x.alist"
    t0 = time.perf_counter()
    assert run(["construct", "--family", "conic", "--field", field, "--out", out]) == 2
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().err == (f"error: q = {q} exceeds the table-based "
                                       "arithmetic limit (4096)\n")
    assert not out.exists() and not (tmp_path / "x.alist.manifest.json").exists()


def test_random_code_refuses_sizes_past_physical_memory(tmp_path, capsys):
    # refused from rows, columns and column weight before any array: it used
    # to die with a MemoryError traceback under a 1.5 GB address-space cap
    out = tmp_path / "r.alist"
    status, elapsed, peak = _traced_run(["random-code", "--rows", "300000000", "--cols",
                                         "300000000", "--wcol", "1", "--wrow", "1", "--out", out])
    assert status == 2 and elapsed < 0.5 and peak < 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: the random 300,000,000 x 300,000,000 code needs about ")
    assert err.endswith(" GiB of physical memory\n")
    assert not out.exists() and not (tmp_path / "r.alist.manifest.json").exists()


def _traced_run(args):
    """Exit status, wall seconds and tracemalloc peak in bytes of one command."""
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        status = run(args)
        return status, time.perf_counter() - t0, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analyze_refuses_inputs_past_physical_memory(tmp_path, capsys):
    # a 1.6 MB file, v = n = 60,000 with blocks of 2 (a 60,000-cycle): its
    # dense analysis needs 11 v^2 bytes, about 37 GiB, refused from the shape
    v = 60_000
    b = np.arange(v)
    alist, out = tmp_path / "ring.alist", tmp_path / "ring.json"
    write_alist(BinaryMatrix(np.r_[b, (b + 1) % v], np.r_[b, b], (v, v)), alist)
    status, elapsed, peak = _traced_run(["analyze", "--in", alist, "--out", out])
    assert status == 2 and elapsed < 1.0 and peak < 48 * 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: the analysis of 60,000 points needs about ")
    assert err.endswith(" GiB of physical memory\n")
    assert not out.exists() and not (tmp_path / "ring.json.manifest.json").exists()


def test_simulate_refuses_decoders_past_physical_memory(tmp_path, capsys):
    # 40,000 x 40,000, one check of degree 40,000 and the rest of degree 2:
    # the padded slab alone is 40,000^2 cells, refused before the elimination
    n = 40_000
    c = np.arange(1, n)
    alist, out = tmp_path / "heavy.alist", tmp_path / "heavy.csv"
    write_alist(BinaryMatrix(np.r_[np.zeros(n, int), c, c], np.r_[np.arange(n), c - 1, c],
                             (n, n)), alist)
    status, elapsed, peak = _traced_run(["simulate", "--in", alist, "--ebno", "3",
                                         "--threads", 1, "--out", out])
    assert status == 2 and elapsed < 1.0 and peak < 48 * 2**20
    err = capsys.readouterr().err
    assert err.startswith("error: decoding the 40,000 x 40,000 code in 1 worker(s) needs about ")
    assert err.endswith(" GiB of physical memory\n")
    assert not out.exists() and not (tmp_path / "heavy.csv.manifest.json").exists()


def _physical_memory_8gib(monkeypatch):
    monkeypatch.setattr(constructions.os, "sysconf",
                        lambda name: 2 ** 21 if name == "SC_PHYS_PAGES" else 4096)


class _Built(Exception):
    pass


def _build_raises(field):
    raise _Built(field.q)


def test_analyze_builds_conic_structures_whose_dense_analysis_would_not_fit(
        tmp_path, monkeypatch):
    # on an 8 GiB host: conic q=173, whose dense analysis would need about 9.0
    # GiB, and q=331, about 121 GiB, both reach the builder.  A conic build
    # certifies its scaling group, and its Gram parity is decided by the
    # characters of the odd part (Z_m)^2, m = 43 and 165, in m x m circulants
    _physical_memory_8gib(monkeypatch)
    monkeypatch.setattr(constructions, "build_conic_structure", _build_raises)
    for q in (173, 331):
        with pytest.raises(_Built, match=f"^{q}$"):
            run(["analyze", "--family", "conic", "--field", q, "--out", tmp_path / "c.json"])


def test_analyze_refuses_conic_builds_past_physical_memory(tmp_path, monkeypatch, capsys):
    # on an 8 GiB host conic q=479 is refused by its build's closed-form peak,
    # 81 x 478^3 bytes, about 8.2 GiB, before any field table
    _physical_memory_8gib(monkeypatch)
    out = tmp_path / "c479.json"
    t0 = time.perf_counter()
    assert run(["analyze", "--family", "conic", "--field", 479, "--out", out]) == 2
    assert time.perf_counter() - t0 < 0.5
    assert capsys.readouterr().err == ("error: the conic build over GF(479) needs about "
                                       "8.2 GiB, more than the 8.0 GiB of physical memory\n")
    assert not out.exists() and not (tmp_path / "c479.json.manifest.json").exists()


def test_analyze_builds_hyperbolic_structures_whose_dense_analysis_would_not_fit(
        tmp_path, monkeypatch):
    # hyperbolic q=13 on an 8 GiB host: its dense analysis would need about
    # 8.4 GiB, but a hyperbolic build is a translation structure, analyzed from
    # point 0, so neither its build nor its analysis is refused before the build
    _physical_memory_8gib(monkeypatch)
    monkeypatch.setattr(constructions, "build_hyperbolic_structure", _build_raises)
    with pytest.raises(_Built, match="^13$"):
        run(["analyze", "--family", "hyperbolic", "--field", 13, "--out", tmp_path / "h.json"])


def test_analyze_hyperbolic_q3(tmp_path):
    out = tmp_path / "report.json"
    assert run(["analyze", "--family", "hyperbolic", "--field", "3", "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["srg"] == {"k": 48, "lambda": 27, "mu": 30}
    assert rep["alphas"] == [1, 2, 3]
    assert rep["rank2_M"] == 81
    assert rep["rank2_MMT"] == 48
    assert rep["rank_prediction"]["value"] == 48 and rep["rank_prediction"]["kind"] == "exact"
    assert rep["girth"] == 6
    assert rep["six_cycles"] == {"formula": 16848, "enumerated": 16848}
    assert rep["dimension"] == 567 and rep["rate"] == 0.875
    assert rep["distance_bounds"]["parity_oriented"] == "6/5"
    assert rep["checks_passed"]


def _six_cycles_off_by_one(*args):
    cyc = geomcode.metrics.six_cycles(*args)
    return dataclasses.replace(cyc, six_cycle_enumerated=cyc.six_cycle_enumerated + 1)


def _prediction_off_by_one(spec):
    pred = geomcode.gf2.brouwer_predict(spec)
    return dataclasses.replace(pred, value=pred.value + 1)


@pytest.mark.parametrize("name,fake,failure", [
    ("six_cycles", _six_cycles_off_by_one, "six-cycle formula disagrees with enumeration"),
    ("brouwer_predict", _prediction_off_by_one, "rank prediction 49 != eliminated rank 48")],
    ids=["six-cycles", "rank-prediction"])
def test_analyze_files_a_failed_claim_and_the_later_sections(tmp_path, monkeypatch, capsys,
                                                            name, fake, failure):
    # a disagreement with the paper's claims fails the analysis, exit 1, and
    # the sections after it are still filed
    monkeypatch.setattr(f"geomcode.cli.{name}", fake)
    out = tmp_path / "r.json"
    assert run(["analyze", "--family", "hyperbolic", "--field", "3", "--out", out]) == 1
    rep = json.loads(out.read_text())
    assert not rep["checks_passed"] and rep["failures"] == [failure]
    assert capsys.readouterr().err == json.dumps([failure]) + "\n"
    assert {"feasibility", "spectrum", "distance_bounds"} <= set(rep)
    assert all(c["pass"] for c in rep["feasibility"])


def test_analyze_conic_q5_not_simulable(tmp_path):
    out = tmp_path / "c5.json"
    assert run(["analyze", "--family", "conic", "--field", "5", "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["rank2_M"] == 16 and rep["dimension"] == 0
    assert rep["simulable"] is False


def _counted_rank2(monkeypatch) -> list:
    """The rows of each elimination: every call of rank2 from constructions,
    sim and gf2."""
    calls = []

    def counted(packed):
        chunks = [packed] if isinstance(packed, np.ndarray) else list(packed)
        calls.append(sum(map(len, chunks)))
        return rank2(chunks)

    for module in (constructions, geomcode.sim, geomcode.gf2):
        monkeypatch.setattr(module, "rank2", counted)
    return calls


@pytest.mark.parametrize("family,field,rank_m,rank_gram,rows", [
    ("conic", "5", 16, 16, {1}), ("conic", "5^2", 576, 576, {3}),
    ("hyperbolic", "3", 81, 48, set())],
    ids=["conic-5-16-16-1", "conic-5^2-576-576-1", "hyperbolic-3-81-48-0"])
def test_analyze_takes_both_ranks_from_the_certified_group(tmp_path, monkeypatch, family,
                                                          field, rank_m, rank_gram, rows):
    # every case certifies a group, which gives (rank_2 M, rank_2 M M^T): the
    # conics eliminate only the m x m circulants of the Gram parity's
    # characters, q - 1 = 2^a m (1 x 1 at q=5, 3 x 3 at GF(25)); hyperbolic
    # q=3 is a translation structure, whose two ranks come from a character
    # count with no elimination (its dense path eliminates both:
    # test_report.test_translation_report_matches_dense)
    calls = _counted_rank2(monkeypatch)
    out = tmp_path / "r.json"
    assert run(["analyze", "--family", family, "--field", field, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert (rep["rank2_M"], rep["rank2_MMT"], set(calls)) == (rank_m, rank_gram, rows)


def test_analyze_conic_q3_degenerate_notice(tmp_path):
    out = tmp_path / "c3.json"
    assert run(["analyze", "--family", "conic", "--field", "3", "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["degenerate"] is True
    assert "notice" in rep and "srg" not in rep


def test_analyze_degenerate_alist_file(tmp_path):
    # the same 4 x 4 identity as conic q=3, read from a file: the edgeless
    # point graph is read off the matrix, so it gets the notice, not a failure
    alist, out = tmp_path / "c3.alist", tmp_path / "c3.json"
    run(["construct", "--family", "conic", "--field", "3", "--out", alist])
    assert run(["analyze", "--in", alist, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["family"] == "file" and rep["degenerate"] is True
    assert "notice" in rep and "srg" not in rep and rep["checks_passed"]


def test_analyze_from_alist_file(tmp_path):
    alist = tmp_path / "h.alist"
    run(["construct", "--family", "hyperbolic", "--field", "3", "--out", alist])
    out = tmp_path / "file.json"
    assert run(["analyze", "--in", alist, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["family"] == "file" and rep["q"] is None
    assert rep["srg"] == {"k": 48, "lambda": 27, "mu": 30}


def test_analyze_random_code_fails_srg(tmp_path):
    alist = tmp_path / "r.alist"
    run(["random-code", "--rows", 81, "--cols", 648, "--wcol", 3, "--wrow", 24,
         "--seed", 3, "--out", alist])
    out = tmp_path / "r.json"
    assert run(["analyze", "--in", alist, "--out", out]) == 1
    rep = json.loads(out.read_text())
    assert not rep["checks_passed"] and rep["failures"]


# two strongly regular graphs whose parameters fail feasibility: the pentagon
# srg(5, 2, 0, 1), a conference graph, and two disjoint triangles srg(6, 2, 1, 0);
# the blocks are the edges
SRG_INFEASIBLE = {
    "pentagon": ([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 5,
                 {"k": 2, "lambda": 0, "mu": 1}, ["multiplicities-integral"], 4, 0),
    "two-triangles": ([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6,
                      {"k": 2, "lambda": 1, "mu": 0}, ["mu-positive", "multiplicities-integral"],
                      4, 2),
}


@pytest.mark.parametrize("name", SRG_INFEASIBLE)
def test_analyze_infeasible_srg_keeps_parameters(tmp_path, capsys, name):
    # the srg stage files k, lambda and mu; only the feasibility stage fails
    edges, v, srg, failed, rank, hexagons = SRG_INFEASIBLE[name]
    alist, out = tmp_path / "g.alist", tmp_path / "g.json"
    write_alist(matrix([[int(p in e) for e in edges] for p in range(v)]), alist)
    assert run(["analyze", "--in", alist, "--out", out]) == 1
    rep = json.loads(out.read_text())
    assert rep["srg"] == srg
    assert [c["condition"] for c in rep["feasibility"]] == [
        "mu-positive" if srg["mu"] == 0 else "mu-divides-k(k-lambda-1)",
        "s+1-divides-v(t+1)", "multiplicities-integral"]
    assert [c["condition"] for c in rep["feasibility"] if not c["pass"]] == failed
    assert rep["rank2_MMT"] == rank
    assert rep["six_cycles"] == {"formula": hexagons, "enumerated": hexagons}
    assert not {"spectrum", "rank_prediction", "distance_bounds"} & rep.keys()
    message = f"feasibility conditions failed: {', '.join(failed)}"
    assert rep["failures"] == [message] and not rep["checks_passed"]
    assert capsys.readouterr().err == json.dumps([message]) + "\n"


def test_analyze_requires_input(tmp_path, capsys):
    with pytest.raises(SystemExit):
        run(["analyze", "--out", tmp_path / "x.json"])


@pytest.mark.parametrize("extra", [["--family", "conic", "--field", "5"], ["--family", "conic"],
                                   ["--field", "5"], ["--modulus", "1,0,1"]])
def test_analyze_rejects_file_with_family(tmp_path, capsys, extra):
    alist = tmp_path / "c5.alist"
    assert run(["construct", "--family", "conic", "--field", 5, "--out", alist]) == 0
    out = tmp_path / "x.json"
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--in", alist, *extra, "--out", out])
    assert exc.value.code == 2
    assert "not both" in capsys.readouterr().err
    assert not out.exists()


def test_random_code_manifest_and_weights(tmp_path):
    out = tmp_path / "R.alist"
    assert run(["random-code", "--rows", 81, "--cols", 648, "--wcol", 3, "--wrow", 24,
                "--seed", 7, "--out", out]) == 0
    h = read_alist(out)
    assert set(h.column_weights()) == {3} and set(h.row_weights()) == {24}


def test_random_code_infeasible(tmp_path):
    assert run(["random-code", "--rows", 81, "--cols", 648, "--wcol", 3, "--wrow", 25,
                "--seed", 1, "--out", tmp_path / "x.alist"]) == 2


@pytest.mark.parametrize("rows,cols,wcol,wrow", [(4, 8, 0, 0), (0, 0, 3, 24), (-4, -8, 1, 2)])
def test_random_code_rejects_nonpositive_sizes(tmp_path, capsys, rows, cols, wcol, wrow):
    assert run(["random-code", "--rows", rows, "--cols", cols, "--wcol", wcol, "--wrow", wrow,
                "--out", tmp_path / "x.alist"]) == 2
    assert "error: rows, columns and weights must be positive" in capsys.readouterr().err
    assert not (tmp_path / "x.alist").exists()


def test_random_code_rejects_negative_seed(tmp_path, capsys):
    assert run(["random-code", "--rows", 81, "--cols", 648, "--wcol", 3, "--wrow", 24,
                "--seed", -1, "--out", tmp_path / "x.alist"]) == 2
    assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
    assert not (tmp_path / "x.alist").exists()


@pytest.mark.parametrize("grid,threads,point", [("4000", 1, "4000"), ("-4000", 1, "-4000"),
                                                ("3000:1000:4000", 2, "4000"),
                                                ("-3100", 1, "-3100")])
def test_simulate_refuses_points_without_finite_noise(tmp_path, monkeypatch, capsys, hyp3,
                                                      grid, threads, point):
    # every point is checked against the code's rate before any frame or pool
    def never(*args, **kwargs):
        raise AssertionError("a frame or a pool was started")

    monkeypatch.setattr("geomcode.cli.simulate_point", never)
    monkeypatch.setattr("geomcode.cli.ProcessPoolExecutor", never)
    alist, out = tmp_path / "h3.alist", tmp_path / "ber.csv"
    write_alist(hyp3.matrix, alist)
    assert run(["simulate", "--in", alist, "--ebno", grid, "--threads", threads,
                "--out", out]) == 2
    assert capsys.readouterr().err == (f"error: Eb/N0 {point} dB gives no finite positive "
                                       f"noise sigma at rate 0.875\n")
    assert not out.exists() and not (tmp_path / "ber.csv.manifest.json").exists()


def test_simulate_refuses_points_whose_llr_scale_overflows(tmp_path, monkeypatch, capsys, hyp3):
    # at 3079 dB and rate 0.875 sigma is finite and positive, but 2/sigma^2 is not
    def never(*args, **kwargs):
        raise AssertionError("a frame was started")

    monkeypatch.setattr("geomcode.cli.simulate_point", never)
    alist, out = tmp_path / "h3.alist", tmp_path / "ber.csv"
    write_alist(hyp3.matrix, alist)
    assert run(["simulate", "--in", alist, "--ebno", 3079, "--threads", 1, "--out", out]) == 2
    assert capsys.readouterr().err == ("error: Eb/N0 3079 dB gives noise sigma 8.48166e-155, "
                                       "whose LLR scale 2/sigma^2 overflows at rate 0.875\n")
    assert not out.exists() and not (tmp_path / "ber.csv.manifest.json").exists()


def test_simulate_writes_csv(tmp_path):
    alist = tmp_path / "h.alist"
    run(["construct", "--family", "hyperbolic", "--field", "3", "--out", alist])
    out = tmp_path / "ber.csv"
    assert run(["simulate", "--in", alist, "--ebno", "3:1:4", "--seed", 1,
                "--max-iters", 15, "--min-frame-errors", 5, "--max-frames", 40,
                "--threads", 1, "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "ebn0_db,frames,bit_errors,frame_errors,ber,fer,mean_iters,ci_low,ci_high"
    assert len(lines) == 3
    manifest = json.loads((tmp_path / "ber.csv.manifest.json").read_text())
    assert manifest["outputs"]["ber.csv"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_simulate_refuses_trivial_code(tmp_path):
    alist = tmp_path / "c5.alist"
    run(["construct", "--family", "conic", "--field", "5", "--out", alist])
    assert run(["simulate", "--in", alist, "--ebno", "2", "--out", tmp_path / "x.csv"]) == 2


# a 2 x 3 parity-check matrix with no ones: alist header, weights, five empty index lines
ZERO_ALIST = "3 2\n0 0\n0 0 0\n0 0\n" + "0\n" * 5


def test_analyze_refuses_zero_matrix(tmp_path, capsys):
    alist, out = tmp_path / "z.alist", tmp_path / "z.json"
    alist.write_text(ZERO_ALIST)
    assert run(["analyze", "--in", alist, "--out", out]) == 1
    rep = json.loads(out.read_text())
    assert rep["axioms"] == {"pass": False, "violated": "ii", "witness": [0]}
    assert rep["rank2_M"] == 0 and rep["dimension"] == 3
    assert rep["simulable"] is False and not rep["checks_passed"]
    assert "axiom (ii) violated: the blocks hold no points" in capsys.readouterr().err


def test_simulate_refuses_zero_matrix(tmp_path, capsys):
    alist, out = tmp_path / "z.alist", tmp_path / "z.csv"
    alist.write_text(ZERO_ALIST)
    assert run(["simulate", "--in", alist, "--ebno", "2", "--out", out]) == 2
    assert "refusing to simulate: parity-check matrix has rank 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["hyperbolic-3", "conic-5", "zero"])
def test_simulable_iff_simulate_runs(tmp_path, source):
    # one decision on the code: the report's "simulable" and simulate's refusal agree
    alist = tmp_path / "h.alist"
    if source == "zero":
        alist.write_text(ZERO_ALIST)
    else:
        family, field = source.split("-")
        assert run(["construct", "--family", family, "--field", field, "--out", alist]) == 0
    run(["analyze", "--in", alist, "--out", tmp_path / "r.json"])
    simulable = json.loads((tmp_path / "r.json").read_text())["simulable"]
    out = tmp_path / "ber.csv"
    status = run(["simulate", "--in", alist, "--ebno", "3", "--max-iters", 5,
                  "--max-frames", 2, "--threads", 1, "--out", out])
    assert (status == 0) == simulable and status in (0, 2)
    assert out.exists() == simulable
    assert (tmp_path / "ber.csv.manifest.json").exists() == simulable
    assert simulable == (source == "hyperbolic-3")


CONIC_REFUSAL = ("refusing to simulate: parity-check matrix has full column rank "
                 "(rank {0} = n = {0}), the code is {{0}}\n")


@pytest.mark.parametrize("source,status,eliminations,stderr", [
    ("hyperbolic-3", 0, [], ""),                              # the character count
    ("conic-5^2", 2, [3] * 5, CONIC_REFUSAL.format(576)),     # a unit: every cyclic
    ("conic-3^3", 2, [13] * 15, CONIC_REFUSAL.format(676)),   # subgroup's circulant
    ("rook", 0, [5, 100], ""),  # a singular circulant, so no group, then H: L2(10)
    ("random", 0, [81], ""),    # certifies no group
    ("zero", 2, [2], "refusing to simulate: parity-check matrix has rank 0, "
                     "the code is all of GF(2)^3\n"),
], ids=["hyperbolic-3", "conic-5^2", "conic-3^3", "rook", "random", "zero"])
def test_simulate_takes_rank_from_the_certified_group(tmp_path, monkeypatch, capsys, source,
                                                      status, eliminations, stderr):
    # simulate asks LdpcCode.from_structure, as analyze does: H is eliminated
    # (from_parity) only when no certified group settles its rank, and with the
    # certificates patched off every input is eliminated once, to the same
    # bytes; `eliminations` lists the rows of each elimination unpatched: a
    # conic's are m x m, q - 1 = 2^a m
    alist = tmp_path / "h.alist"
    if source == "zero":
        alist.write_text(ZERO_ALIST)
    elif source == "rook":
        write_alist(rooks_graph(11), alist)
    elif source == "random":
        assert run(["random-code", "--rows", 81, "--cols", 648, "--wcol", 3, "--wrow", 24,
                    "--seed", 7, "--out", alist]) == 0
    else:
        family, field = source.split("-")
        assert run(["construct", "--family", family, "--field", field, "--out", alist]) == 0
    capsys.readouterr()
    calls, parities = _counted_rank2(monkeypatch), []
    from_parity = geomcode.sim.LdpcCode.from_parity
    monkeypatch.setattr(geomcode.sim.LdpcCode, "from_parity",
                        staticmethod(lambda h: parities.append(h) or from_parity(h)))
    outputs = []
    for patched in (False, True):
        if patched:
            for name in ("translation", "scaling"):
                monkeypatch.setattr(constructions.IncidenceStructure, name, None)
        calls.clear()
        parities.clear()
        out = tmp_path / str(patched) / "ber.csv"
        out.parent.mkdir()
        assert run(["simulate", "--in", alist, "--ebno", "3", "--max-iters", 5,
                    "--max-frames", 4, "--threads", 1, "--out", out]) == status
        assert capsys.readouterr().err == stderr
        assert len(calls) == 1 if patched else calls == eliminations
        assert len(parities) == (patched or source in ("rook", "random", "zero"))
        outputs.append([p.read_bytes() if p.exists() else None
                        for p in (out, tmp_path / str(patched) / "ber.csv.manifest.json")])
    assert outputs[0] == outputs[1] and (outputs[0][0] is not None) == (status == 0)


@pytest.mark.parametrize("field,modulus", [("3^2", "2,2,1"), ("5^2", "3,0,1"), ("7^2", "3,1,1"),
                                           ("3^4", "2,0,0,1,1"), ("11^2", "1,0,1")])
def test_conic_alist_over_any_modulus_reads_back_certified(tmp_path, monkeypatch, capsys,
                                                           field, modulus):
    # an alist names its modulus (x -> Xx is its companion map on the codes'
    # digits), so whatever the modulus, and whatever the order of its columns,
    # analyze --in files the family's report, and simulate --in eliminates
    # only the m x m circulants of the Gram parity's characters, q - 1 = 2^a m
    spec = ["--family", "conic", "--field", field, "--modulus", modulus]
    alist, shuffled = tmp_path / "c.alist", tmp_path / "shuffled.alist"
    assert run(["construct", *spec, "--out", alist]) == 0
    m = read_alist(alist)
    rows, cols, q1 = *m.nonzero(), round(m.nrows ** 0.5)
    write_alist(BinaryMatrix(rows, np.random.default_rng(0).permutation(m.cols)[cols],
                             (m.nrows, m.cols)), shuffled)
    reports = []
    for source in (spec, ["--in", alist], ["--in", shuffled]):
        out = tmp_path / f"{len(reports)}.json"
        assert run(["analyze", *source, "--out", out]) == 0
        reports.append(json.loads(out.read_text()))
    family, *files = reports
    assert family["checks_passed"] and family["q"] == q1 + 1
    for rep in files:
        assert sorted(rep) == sorted(family)
        assert {key: rep[key] for key in rep if rep[key] != family[key]} == {"family": "file",
                                                                             "q": None}
    capsys.readouterr()
    calls = _counted_rank2(monkeypatch)
    assert run(["simulate", "--in", alist, "--ebno", "3", "--out", tmp_path / "ber.csv"]) == 2
    assert capsys.readouterr().err == CONIC_REFUSAL.format(m.nrows)
    assert calls and max(calls) <= q1 // (q1 & -q1)


@pytest.mark.parametrize("bad", [["--max-iters", 0], ["--max-frames", 0],
                                 ["--min-frame-errors", 0], ["--ebno", "5:1:3"],
                                 ["--threads", 0], ["--seed", -1]],
                         ids=lambda bad: bad[0].lstrip("-"))
def test_simulate_validates_before_reading(tmp_path, monkeypatch, capsys, bad):
    # the grid, the channel config and the thread count need no code, so they
    # are checked before the alist is read and its rank taken
    def unread(path):
        raise AssertionError(f"read_alist({path}) called")

    monkeypatch.setattr("geomcode.cli.read_alist", unread)
    # argparse keeps the last of a repeated option, so `bad` overrides --ebno 3
    assert run(["simulate", "--in", tmp_path / "h.alist", "--ebno", "3",
                "--out", tmp_path / "ber.csv", *bad]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "ber.csv").exists()


def test_simulate_threads_do_not_change_output(tmp_path):
    alist = tmp_path / "h.alist"
    run(["construct", "--family", "hyperbolic", "--field", "3", "--out", alist])
    args = ["simulate", "--in", alist, "--ebno", "3:1:4", "--seed", 9,
            "--max-iters", 10, "--min-frame-errors", 3, "--max-frames", 20]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--threads", 1, "--out", out1]) == 0
    assert run(args + ["--threads", 2, "--out", out2]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_construct_label_export(tmp_path):
    out = tmp_path / "c.alist"
    labels = tmp_path / "c.labels.json"
    assert run(["construct", "--family", "conic", "--field", "5", "--out", out,
                "--labels", labels]) == 0
    data = json.loads(labels.read_text())
    assert data["points"][0] == [1, 1, 1] and len(data["points"]) == 16
    assert data["blocks"][0] == [1, 1] and len(data["blocks"]) == 16
    # one manifest, beside the alist, lists both outputs and the --labels path
    manifest = json.loads((tmp_path / "c.alist.manifest.json").read_text())
    assert manifest["outputs"] == {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                                   for p in (out, labels)}
    assert manifest["params"]["labels"] == str(labels)
    assert not (tmp_path / "c.labels.json.manifest.json").exists()


def test_construct_extension_field(tmp_path):
    out = tmp_path / "c9.alist"
    assert run(["construct", "--family", "conic", "--field", "3^2", "--out", out]) == 0
    h = read_alist(out)
    assert h.nrows == 64 and h.cols == 64
    # same field given by an explicit modulus
    out2 = tmp_path / "c9b.alist"
    assert run(["construct", "--family", "conic", "--field", "3^2",
                "--modulus", "1,0,1", "--out", out2]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_threads_env_fallback(tmp_path, monkeypatch, capsys):
    # --threads is the one source of the count: GEOMCODE_THREADS is not read
    from geomcode.cli import _resolve_threads

    monkeypatch.setenv("GEOMCODE_THREADS", "0")
    assert _resolve_threads(2) == 2
    assert _resolve_threads(None) == (os.cpu_count() or 1)
    with pytest.raises(ValueError, match="^thread count must be at least 1, got -5$"):
        _resolve_threads(-5)
    alist = tmp_path / "h.alist"
    run(["construct", "--family", "hyperbolic", "--field", "3", "--out", alist])
    capsys.readouterr()
    assert run(["simulate", "--in", alist, "--ebno", "3", "--threads", -5,
                "--out", tmp_path / "ber.csv"]) == 2
    assert capsys.readouterr().err == "error: thread count must be at least 1, got -5\n"
    assert not (tmp_path / "ber.csv").exists()


def test_outputs_are_deterministic(tmp_path):
    a1, a2 = tmp_path / "a1", tmp_path / "a2"
    a1.mkdir(), a2.mkdir()
    for d in (a1, a2):
        run(["construct", "--family", "conic", "--field", "7", "--out", d / "m.alist"])
        run(["analyze", "--family", "conic", "--field", "7", "--out", d / "m.json"])
        run(["random-code", "--rows", 12, "--cols", 24, "--wcol", 2, "--wrow", 4,
             "--seed", 5, "--out", d / "r.alist"])
    for name in ("m.alist", "m.json", "r.alist",
                 "m.alist.manifest.json", "m.json.manifest.json", "r.alist.manifest.json"):
        assert (a1 / name).read_bytes() == (a2 / name).read_bytes(), name
