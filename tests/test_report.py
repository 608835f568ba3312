"""The analysis report against the dense integer oracle, key for key."""

import itertools
import json

import numpy as np
import pytest

import oracles
from geomcode.cli import build_analysis_report
from geomcode.constructions import IncidenceStructure
from geomcode.gf2 import BinaryMatrix
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


@pytest.mark.parametrize("fixture", ["hyp3", "conic5", "conic7", "conic9"])
def test_family_report_matches_oracle(request, fixture):
    ic = request.getfixturevalue(fixture)
    rep = build_analysis_report(ic)
    _assert_same(rep, {**oracles.report(ic.matrix), "family": ic.family, "q": ic.field.q})
    assert rep["checks_passed"]


@pytest.mark.parametrize("fixture,axiom", [("hyp3", "i"), ("conic5", "iii")])
def test_moved_incidence_report_matches_oracle(request, fixture, axiom):
    m = _moved(request.getfixturevalue(fixture).matrix)
    rep = build_analysis_report(IncidenceStructure("file", None, m))
    _assert_same(rep, oracles.report(m))
    assert rep["axioms"]["violated"] == axiom


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
