import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from geomcode.constructions import (
    IncidenceStructure,
    build_conic_structure,
    build_hyperbolic_structure,
)
from geomcode.fields import Field
from geomcode.gf2 import BinaryMatrix
from geomcode.metrics import _pair_completions, six_cycles, tanner_bounds, tanner_girth
from geomcode.srpg import check_gpg_axioms, check_strongly_regular
from oracles import gram_counts, matrix


def _girth(h: BinaryMatrix) -> float:
    """Girth of a bare parity-check matrix, wrapped as a structure."""
    return tanner_girth(IncidenceStructure("file", None, h))


def test_bounds_hyperbolic_q3():
    b = tanner_bounds(n=648, w_col=3, w_row=24, a1=72, a2=27)
    assert b.bit_oriented == Fraction(-1512, 5)
    assert b.parity_oriented == Fraction(6, 5)
    assert b.effective == 2
    assert not b.vacuous


def test_bounds_conic_q5():
    b = tanner_bounds(n=16, w_col=3, w_row=3, a1=9, a2=5)
    assert b.bit_oriented == Fraction(4)
    assert b.parity_oriented == Fraction(16, 3)
    assert b.effective == 6


def test_bounds_are_exact_rationals():
    b = tanner_bounds(n=7, w_col=3, w_row=7, a1=11, a2=4)
    assert isinstance(b.bit_oriented, Fraction)
    assert isinstance(b.parity_oriented, Fraction)


def test_bounds_vacuous_flag():
    b = tanner_bounds(n=4, w_col=1, w_row=2, a1=10, a2=1)
    assert b.vacuous and b.effective == 1


def test_bounds_degenerate_error():
    with pytest.raises(ValueError, match="a1 > a2"):
        tanner_bounds(n=10, w_col=3, w_row=5, a1=7, a2=7)


def test_girth_forest():
    eye = matrix([[1, 0], [0, 1]])
    assert _girth(eye) == math.inf


def test_girth_four_cycle():
    h = matrix([[1, 1], [1, 1]])
    assert _girth(h) == 4
    # variable 0 lies only on a 6-cycle; the sweep must go on to the 4-cycle
    h = matrix([
        [1, 1, 0, 0, 0],
        [0, 1, 1, 0, 0],
        [1, 0, 1, 0, 0],
        [0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1],
    ])
    assert _girth(h) == 4


def test_girth_six_cycle():
    h = matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert _girth(h) == 6


def test_girth_eight_cycle():
    h = matrix([
        [1, 1, 0, 0],
        [0, 1, 1, 0],
        [0, 0, 1, 1],
        [1, 0, 0, 1],
    ])
    assert _girth(h) == 8


def test_girth_triangle_inside_one_block():
    # three points on one block: a point-graph triangle, but no Tanner cycle
    assert _girth(matrix([[1], [1], [1]])) == math.inf


def _fano() -> BinaryMatrix:
    lines = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    return matrix([[int(p in line) for line in lines] for p in range(7)])


def _gq22() -> BinaryMatrix:
    # GQ(2,2): the 15 duads of {1..6} on the 15 synthemes (three disjoint
    # duads); its point graph has only the triangles inside lines
    duads = list(itertools.combinations(range(1, 7), 2))
    synthemes = {frozenset(t) for t in itertools.combinations(duads, 3)
                 if len(set().union(*t)) == 6}
    assert len(synthemes) == 15
    return matrix([[int(d in syn) for syn in sorted(synthemes, key=sorted)]
                                   for d in duads])


def test_girth_fano_plane():
    assert _girth(_fano()) == 6


def test_girth_generalized_quadrangle():
    # no hexagon, so the girth comes from the search
    assert _girth(_gq22()) == 8


@pytest.mark.parametrize("build,girth", [(_fano, 6), (_gq22, 8)])
def test_girth_blocks_of_unequal_size(build, girth):
    # one incidence removed: the blocks differ in size, so the census cannot
    # run and the search alone finds the girth, stopping at a 6-cycle
    full = build()
    rows, cols = full.nonzero()
    h = BinaryMatrix(rows[1:], cols[1:], (full.nrows, full.cols))
    ic = IncidenceStructure("file", None, h)
    assert tanner_girth(ic) == girth
    assert "census" not in vars(ic)


def _conic_less_a_block(field: Field) -> IncidenceStructure:
    # every block keeps q - 2 points, but the points of the dropped block lose
    # a block: axiom (iii) fails, axiom (i) still holds
    m = build_conic_structure(field).matrix
    rows, cols = m.nonzero()
    keep = cols < m.cols - 1
    h = BinaryMatrix(rows[keep], cols[keep], (m.nrows, m.cols - 1))
    assert len(set(h.column_weights())) == 1 < len(set(h.row_weights()))
    return IncidenceStructure("file", None, h)


@pytest.mark.parametrize("build,field", [
    (build_hyperbolic_structure, (3, 1)), (build_conic_structure, (5, 1)),
    (build_conic_structure, (7, 1)), (build_conic_structure, (3, 2)),
    (build_conic_structure, (11, 1)), (_conic_less_a_block, (7, 1)),
])
def test_pair_completions_match_adjacency_square(build, field):
    ic = build(Field(*field))
    assert ic.four_cycle is None
    # reference: (sum of A^2 over the adjacent pairs) / 2 counts each pair of
    # each block once with all its common neighbours, less the w - 2 on the block
    a = ic.adjacency.astype(np.int64)
    w = np.array(ic.matrix.column_weights(), dtype=np.int64)
    reference = int((a @ a)[ic.adjacency].sum()) // 2 - int((w * (w - 1) // 2 * (w - 2)).sum())
    assert _pair_completions(ic) == reference > 0


def test_girth_constructions(conic5, hyp3):
    assert tanner_girth(conic5) == 6
    assert tanner_girth(hyp3) == 6


def test_no_four_cycles_in_verified_structures(conic5, conic7, hyp3):
    # a 4-cycle is two points sharing two blocks: an off-diagonal M M^T entry >= 2
    for ic in (conic5, conic7, hyp3):
        off = gram_counts(ic.matrix)
        np.fill_diagonal(off, 0)
        assert off.max() <= 1


def _verified_params(ic):
    """The axioms' parameters and lambda, the arguments of six_cycles."""
    _, _, lam, _ = check_strongly_regular(ic)
    return check_gpg_axioms(ic), lam


def test_six_cycles_conic_q5(conic5):
    rep = six_cycles(conic5, *_verified_params(conic5))
    assert rep.six_cycle_formula == rep.six_cycle_enumerated == 16


def test_six_cycles_conic_q7(conic7):
    rep = six_cycles(conic7, *_verified_params(conic7))
    assert rep.six_cycle_formula == rep.six_cycle_enumerated == 840


def test_six_cycles_hyperbolic_q3(hyp3):
    rep = six_cycles(hyp3, *_verified_params(hyp3))
    assert rep.six_cycle_formula == rep.six_cycle_enumerated == 16848
