"""The analysis report against the dense integer oracle, key for key."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomcode.cli
import geomcode.constructions
import geomcode.gf2
import geomcode.sim
import oracles
from geomcode.alist import read_alist, write_alist
from geomcode.cli import build_analysis_report
from geomcode.cli import main as cli_main
from geomcode.constructions import IncidenceStructure, build_conic_structure
from geomcode.fields import Field
from geomcode.gf2 import BinaryMatrix, rank2
from geomcode.sim import random_regular_h
from oracles import matrix


def _blocks(blocks, v) -> BinaryMatrix:
    """The structure on points 0..v-1 with the given blocks, in order."""
    return matrix([[int(p in b) for b in blocks] for p in range(v)])


def _petersen() -> BinaryMatrix:
    # vertices the 2-subsets of {0..4}, joined when disjoint
    duads = list(itertools.combinations(range(5), 2))
    return _blocks([(i, j) for (i, a), (j, b) in itertools.combinations(enumerate(duads), 2)
                    if not set(a) & set(b)], 10)


def _gq22() -> BinaryMatrix:
    # the 15 duads of {1..6} on the 15 synthemes (three disjoint duads)
    duads = list(itertools.combinations(range(1, 7), 2))
    synthemes = sorted({frozenset(t) for t in itertools.combinations(duads, 3)
                        if len(set().union(*t)) == 6}, key=sorted)
    return matrix([[int(d in syn) for syn in synthemes] for d in duads])


def _pg2(q: int) -> BinaryMatrix:
    """PG(2,q) from the scalar geometry: the points in lex order, and for
    each pair of points the line of every point collinear with both."""
    f = Field(q)
    points = oracles.enumerate_points(f, 2)
    lines = {tuple(r for r, x in enumerate(points) if oracles.collinear(f, p, p2, x))
             for p, p2 in itertools.combinations(points, 2)}
    return _blocks(sorted(lines), len(points))


def _moved(m: BinaryMatrix) -> BinaryMatrix:
    """m with its first one moved, within its column, to the first row off
    that column."""
    rows, cols = (a.copy() for a in m.nonzero())
    on = set(rows[cols == cols[0]].tolist())
    rows[0] = next(p for p in range(m.nrows) if p not in on)
    return BinaryMatrix(rows, cols, (m.nrows, m.cols))


# name -> (matrix, the stage that files the first failure, or None if none fails)
SMALL = {
    "pentagon": (lambda: _blocks([(i, (i + 1) % 5) for i in range(5)], 5), "feasibility"),
    "two-triangles": (lambda: _blocks([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6),
                      "feasibility"),
    "petersen": (_petersen, None),
    "k33": (lambda: _blocks([(i, j) for i in range(3) for j in range(3, 6)], 6), None),
    "gq22": (_gq22, None),
    "fano": (lambda: _blocks([(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
                              (2, 3, 6), (2, 4, 5)], 7), "srg"),
    # every two points are collinear: the point graph is complete
    "pg2-3": (lambda: _pg2(3), "srg"),
    "pg2-5": (lambda: _pg2(5), "srg"),
}


def _assert_same(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for key in want:
        assert got[key] == want[key], key
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def _failed_stage(rep: dict) -> str | None:
    if rep["checks_passed"]:
        return None
    if not rep["axioms"]["pass"]:
        return "axioms"
    return "srg" if "error" in rep["srg"] else "feasibility"


@pytest.mark.parametrize("name", SMALL)
def test_report_matches_oracle(name):
    build, stage = SMALL[name]
    m = build()
    rep = build_analysis_report(IncidenceStructure("file", None, m))
    _assert_same(rep, oracles.report(m))
    assert _failed_stage(rep) == stage


@pytest.mark.parametrize("fixture", ["hyp3", "conic5", "conic7", "conic9", "conic25"])
def test_family_report_matches_oracle(request, fixture):
    ic = request.getfixturevalue(fixture)
    rep = build_analysis_report(ic)
    _assert_same(rep, {**oracles.report(ic.matrix), "family": ic.family, "q": ic.field.q})
    assert rep["checks_passed"]


@pytest.mark.parametrize("source,axiom", [("hyp3", "i"), ("conic5", "iii"),
                                          ("fano", "i"), ("gq22", "i")])
def test_moved_incidence_report_matches_oracle(request, source, axiom):
    # a family build is a fixture, a small structure an entry of SMALL
    m = _moved(SMALL[source][0]() if source in SMALL else request.getfixturevalue(source).matrix)
    rep = build_analysis_report(IncidenceStructure("file", None, m))
    _assert_same(rep, oracles.report(m))
    assert rep["axioms"]["violated"] == axiom


@pytest.mark.parametrize("read_back", [False, True], ids=["build", "alist"])
@pytest.mark.parametrize("fixture", ["hyp3", "hyp5"])
def test_translation_report_matches_dense(request, tmp_path, monkeypatch, fixture, read_back):
    # the dense path is the oracle: with points 1 and 2 swapped the structure
    # is refused certification, and its report must be byte-identical
    built = request.getfixturevalue(fixture)
    family, field, m = built.family, built.field, built.matrix
    if read_back:
        write_alist(m, tmp_path / "h.alist")
        family, field, m = "file", None, read_alist(tmp_path / "h.alist")
    ic = IncidenceStructure(family, field, m)
    swapped = IncidenceStructure(family, field, oracles.swapped(m))
    assert ic.translation is not None and swapped.translation is None
    calls = []

    def counted(packed):
        calls.append(packed)
        return rank2(packed)

    monkeypatch.setattr(geomcode.cli, "rank2", counted)
    monkeypatch.setattr(geomcode.sim, "rank2", counted)
    rep = build_analysis_report(ic)
    assert "adjacency" not in ic.__dict__ and not calls  # no v x v array, no elimination
    dense = build_analysis_report(swapped)
    assert len(calls) == 2  # the Gram parity, then M, whose rank the Gram's does not settle
    assert rep["checks_passed"]
    assert (json.dumps(rep, indent=2, sort_keys=True)
            == json.dumps(dense, indent=2, sort_keys=True))


@pytest.mark.parametrize("name", ["hyp5-moved", "random-81x648", "conic5"])
def test_translation_refused(request, name):
    # one incidence moved; blocks through point 0 that are not subgroups; v = 16 = 2^4
    m = {"hyp5-moved": lambda: _moved(request.getfixturevalue("hyp5").matrix),
         "random-81x648": lambda: random_regular_h(81, 648, 3, 24, 7).h,
         "conic5": lambda: request.getfixturevalue("conic5").matrix}[name]()
    assert IncidenceStructure("file", None, m).translation is None


def test_translation_lambda_failure_matches_oracle(hyp3):
    # without the 27 cosets of its first subgroup, hyperbolic q=3 is still a
    # translation structure, but lambda is not constant: point 0's row files
    # the witness
    rows, cols = hyp3.matrix.nonzero()
    keep = cols >= 27
    m = BinaryMatrix(rows[keep], cols[keep] - 27, (81, 621))
    ic = IncidenceStructure("file", None, m)
    assert ic.translation is not None
    rep = build_analysis_report(ic)
    assert "adjacency" not in ic.__dict__
    _assert_same(rep, oracles.report(m))
    assert rep["failures"] == ["lambda not constant: pair (0, 13) has 25, expected 23"]


def _two_parallel_classes() -> BinaryMatrix:
    """GF(3)^10, v = 59,049, with the cosets of <e0> and of <e1> as blocks:
    the lines {x, x + 1, x + 2} and {x, x + 3, x + 6} of point indices."""
    v = 3 ** 10
    x = np.arange(v)
    starts = (x[x % 3 == 0], x[x // 3 % 3 == 0])
    blocks = np.concatenate([s[:, None] + step * np.arange(3) for s, step in zip(starts, (1, 3))])
    return BinaryMatrix(blocks.ravel(), np.repeat(np.arange(len(blocks)), 3), (v, len(blocks)))


# Run in a child capped at 2 GiB of address space, so that a dense check, which
# would ask for about 11 v^2 bytes (36 GiB), fails fast there instead of
# loading the host.  Prints one JSON line: the exit status of `analyze --in`,
# and the report's failures, tracemalloc peak and the v x v arrays it formed.
_CAPPED_ANALYSIS = """
import json, resource, sys, tracemalloc
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
from geomcode.alist import read_alist
from geomcode.cli import build_analysis_report, main
from geomcode.constructions import IncidenceStructure
status = main(["analyze", "--in", sys.argv[1], "--out", sys.argv[2]])
ic = IncidenceStructure("file", None, read_alist(sys.argv[1]))
tracemalloc.start()
rep = build_analysis_report(ic)
peak = tracemalloc.get_traced_memory()[1]
print(json.dumps({"status": status, "failures": rep["failures"], "peak": peak,
                  "certified": ic.translation is not None,
                  "formed": sorted({"adjacency"} & ic.__dict__.keys())}))
"""


def test_certified_mu_failure_forms_no_point_graph(tmp_path):
    # two parallel classes of lines of GF(3)^10: a translation structure whose
    # mu fails, read from point 0's row with no v x v array
    write_alist(_two_parallel_classes(), tmp_path / "lines.alist")
    env = {**os.environ, "PYTHONPATH": str(Path(geomcode.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", _CAPPED_ANALYSIS, str(tmp_path / "lines.alist"),
                           str(tmp_path / "lines.json")],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    run = json.loads(proc.stdout.splitlines()[-1])
    failure = "mu not constant: pair (0, 9) has 0, expected 2"
    assert proc.stderr == json.dumps([failure]) + "\n"
    assert run.pop("peak") < 100 * 2**20
    assert run == {"status": 1, "failures": [failure], "certified": True, "formed": []}


def test_scaling_certified_failure_matches_oracle():
    # over GF(11), g = 2: the base block {(0, 0), (0, 1), (1, 0)} in discrete-log
    # coordinates, scaled by the whole group, on the conic points (1, x, y); the
    # scalings permute its blocks and its Gram parity folds to a unit, so it is
    # certified, and point 0's row files the mu witness with no point graph
    def point(i, j):
        return (pow(2, i, 11) - 1) * 10 + pow(2, j, 11) - 1

    m = _blocks([sorted(point(i + di, j + dj) for di, dj in ((0, 0), (0, 1), (1, 0)))
                 for i in range(10) for j in range(10)], 100)
    ic = IncidenceStructure("file", None, m)
    assert ic.scaling is not None and ic.translation is None
    assert ic.base_point.ranks == (100, 100)
    rep = build_analysis_report(ic)
    assert "adjacency" not in ic.__dict__
    _assert_same(rep, oracles.report(m))
    assert rep["failures"] == ["mu not constant: pair (0, 4) has 0, expected 1"]


CONICS = {"conic5": (5, 1), "conic7": (7, 1), "conic9": (3, 2), "conic25": (5, 2),
          "conic27": (3, 3)}


@pytest.mark.parametrize("read_back", [False, True], ids=["build", "alist"])
@pytest.mark.parametrize("name", CONICS)
def test_scaling_report_matches_dense(tmp_path, monkeypatch, name, read_back):
    # the dense path is the oracle: with points 1 and 2 swapped the scalings
    # no longer map blocks to blocks, and the report must be byte-identical
    built = build_conic_structure(Field(*CONICS[name]))
    family, field, m = built.family, built.field, built.matrix
    if read_back:  # certified over the field that its blocks name
        write_alist(m, tmp_path / "c.alist")
        family, field, m = "file", None, read_alist(tmp_path / "c.alist")
    calls = []

    def counted(packed):
        calls.append(packed)
        return rank2(packed)

    for module in (geomcode.cli, geomcode.sim, geomcode.gf2):
        monkeypatch.setattr(module, "rank2", counted)
    ic = IncidenceStructure(family, field, m)
    swapped = IncidenceStructure(family, field, oracles.swapped(m))
    assert ic.scaling is not None and ic.translation is None
    assert swapped.base_point is None
    rep = build_analysis_report(ic)
    assert "adjacency" not in ic.__dict__
    q1 = math.isqrt(m.nrows)  # q - 1 = 2^a odd: the Gram parity's characters, of full rank,
    assert calls and {len(c) for c in calls} == {q1 // (q1 & -q1)}  # odd x odd circulants
    gram = oracles.gram_counts(m)
    np.fill_diagonal(gram, 0)
    assert np.array_equal(ic.adjacency, gram > 0)
    dense = build_analysis_report(swapped)
    assert "adjacency" in swapped.__dict__
    assert rep["checks_passed"]
    assert (json.dumps(rep, indent=2, sort_keys=True)
            == json.dumps(dense, indent=2, sort_keys=True))


def test_scaling_patched_off_gives_the_same_report():
    # the same matrix with the certificate patched off takes the dense path
    ic = build_conic_structure(Field(5, 2))
    dense = IncidenceStructure("conic", ic.field, ic.matrix)
    dense.__dict__["scaling"] = None
    assert ic.scaling is not None and dense.base_point is None
    assert (json.dumps(build_analysis_report(dense), sort_keys=True)
            == json.dumps(build_analysis_report(ic), sort_keys=True))


@pytest.mark.parametrize("q", [4, 5, 7, 9, 11, 15, 16])
def test_deficient_fold_falls_back_to_the_point_graph(q):
    # the scalings permute the rook's graph's blocks, but its Gram parity folds
    # to 0: no group answers its ranks, so it is not certified and runs dense;
    # at q = 4 and 16 (characteristic 2) and 15 (no prime power) no field is tried
    m = oracles.rooks_graph(q)
    ic = IncidenceStructure("file", None, m)
    assert ic.base_point is None and ic.scaling is None and ic.translation is None
    rep = build_analysis_report(ic)
    assert "adjacency" in ic.__dict__
    _assert_same(rep, oracles.report(m))
    assert rep["checks_passed"] and rep["rank2_MMT"] == 2 * (q - 2)
    assert rep["srg"] == {"k": 2 * (q - 2), "lambda": q - 3, "mu": 2}


def test_deficient_fold_refused_before_the_point_graph(monkeypatch):
    # 4 KiB of physical memory: the fold, charged nothing, is singular, so
    # the dense path's 11 v^2 = 110,000 bytes are charged before A
    monkeypatch.setattr(geomcode.constructions.os, "sysconf",
                        lambda name: 1 if name == "SC_PHYS_PAGES" else 4096)
    ic = IncidenceStructure("file", None, oracles.rooks_graph(11))
    assert ic.base_point is None
    with pytest.raises(ValueError, match="^the analysis of 100 points needs about "):
        build_analysis_report(ic)
    assert "adjacency" not in ic.__dict__


def test_report_refuses_the_dense_analysis_before_the_point_graph(monkeypatch):
    # the 60,000-point cycle certifies no group: on an 8 GiB host the report
    # itself charges the dense 11 v^2 bytes, about 37 GiB, before A is formed
    monkeypatch.setattr(geomcode.constructions.os, "sysconf",
                        lambda name: 2 ** 21 if name == "SC_PHYS_PAGES" else 4096)
    v = 60_000
    b = np.arange(v)
    ic = IncidenceStructure("file", None, BinaryMatrix(np.r_[b, (b + 1) % v], np.r_[b, b], (v, v)))
    with pytest.raises(ValueError, match="^the analysis of 60,000 points needs about ") as exc:
        build_analysis_report(ic)
    assert str(exc.value).endswith(", more than the 8.0 GiB of physical memory")
    assert ic.base_point is None and "adjacency" not in ic.__dict__


FOLDED = {**CONICS, "conic49": (7, 2)}


@pytest.mark.parametrize("read_back", [False, True], ids=["build", "alist"])
@pytest.mark.parametrize("name", FOLDED)
def test_gram_fold_matches_dense_elimination(tmp_path, name, read_back):
    built = build_conic_structure(Field(*FOLDED[name]))
    family, field, m = built.family, built.field, built.matrix
    if read_back:
        write_alist(m, tmp_path / "c.alist")
        family, field, m = "file", None, read_alist(tmp_path / "c.alist")
    # invertible, as on every conic tried, so every conic certifies
    assert IncidenceStructure(family, field, m).base_point.ranks == (m.nrows, m.nrows)
    assert rank2(np.packbits(oracles.gram_counts(m) % 2, axis=1)) == m.nrows


def test_scaling_certifies_without_memory_for_the_fold(tmp_path, monkeypatch):
    # 2 KiB of physical memory, below the (13^2)^2 / 8 = 3,570 bytes of pivots
    # that eliminating GF(27)'s fold onto (Z_13)^2 whole would need: its
    # characters, in 13 x 13 circulants, are charged nothing
    built = build_conic_structure(Field(3, 3))
    write_alist(built.matrix, tmp_path / "c.alist")
    structures = (IncidenceStructure("conic", built.field, built.matrix),
                  IncidenceStructure("file", None, read_alist(tmp_path / "c.alist")))
    monkeypatch.setattr(geomcode.constructions.os, "sysconf",
                        lambda name: 1 if name == "SC_PHYS_PAGES" else 2048)
    for ic in structures:
        assert ic.scaling is not None and ic.scaling.ranks == (676, 676)


@pytest.mark.parametrize("name", ["conic7", "conic27"])
def test_scaling_refused_with_one_incidence_moved(name):
    built = build_conic_structure(Field(*CONICS[name]))
    for family, field in ((built.family, built.field), ("file", None)):
        assert IncidenceStructure(family, field, _moved(built.matrix)).base_point is None


def test_conic_over_another_modulus_read_back_matches_oracle(tmp_path):
    # GF(25) over x^2 + 3, not the built-in x^2 + 2: the file certifies over
    # the modulus that its blocks name, as the build does, and forms no A
    assert cli_main(["construct", "--family", "conic", "--field", "5^2", "--modulus", "3,0,1",
                     "--out", str(tmp_path / "c.alist")]) == 0
    m = read_alist(tmp_path / "c.alist")
    assert IncidenceStructure("conic", Field(5, 2, (3, 0, 1)), m).scaling is not None
    ic = IncidenceStructure("file", None, m)
    assert ic.base_point.ranks == (576, 576)
    rep = build_analysis_report(ic)
    assert "adjacency" not in ic.__dict__
    assert cli_main(["analyze", "--in", str(tmp_path / "c.alist"),
                     "--out", str(tmp_path / "c.json")]) == 0
    want = oracles.report(m)
    _assert_same(rep, want)
    _assert_same(json.loads((tmp_path / "c.json").read_text()), want)
    assert want["checks_passed"] and want["srg"] == {"k": 506, "lambda": 442, "mu": 462}


@st.composite
def incidence_matrices(draw):
    """0/1 matrices up to 8 x 13 whose columns are drawn, with repeats, from
    a random set: empty rows and columns, irregular weights and repeated
    blocks all occur."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 13)))
    values = draw(st.sampled_from([(0,), (0, 0, 1), (0, 1), (1,)]))
    base = draw(hnp.arrays(np.uint8, shape, elements=st.sampled_from(values)))
    return base[:, draw(st.lists(st.integers(0, shape[1] - 1), min_size=1, max_size=13))]


@settings(max_examples=200, deadline=None)
@given(incidence_matrices())
def test_property_report_matches_oracle(d):
    m = matrix(d)
    _assert_same(build_analysis_report(IncidenceStructure("file", None, m)), oracles.report(m))


def test_oracle_counts_hexagons_by_brute_force():
    # every 6-cycle is three points and three distinct blocks, one on each pair
    for name, count in (("two-triangles", 2), ("fano", 28), ("k33", 0)):
        d = oracles.dense(SMALL[name][0]())
        brute = sum(1 for a, b, c in itertools.combinations(range(d.shape[0]), 3)
                    for x, y, z in itertools.permutations(range(d.shape[1]), 3)
                    if d[a, x] & d[b, x] & d[b, y] & d[c, y] & d[c, z] & d[a, z])
        assert oracles.hexagons(d) == brute == count


def test_oracle_girth_of_known_graphs():
    assert oracles.tanner_girth_bfs(oracles.dense(_petersen())) == 10
    assert oracles.tanner_girth_bfs(oracles.dense(_gq22())) == 8
    assert oracles.tanner_girth_bfs(np.eye(3, dtype=np.uint8)) == float("inf")
