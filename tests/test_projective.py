import itertools
import random

import pytest

from geomcode.fields import Field
from oracles import (
    LineMatrix,
    Quadric,
    collinear,
    enumerate_points,
    line_in_quadric,
    lines_skew,
    normalize_point,
    quadric_contains,
    rref,
    scalar,
)


def test_normalize_examples():
    f = Field(5)
    assert normalize_point(f, (2, 4, 2)) == (1, 2, 1)
    assert normalize_point(f, (0, 3, 3)) == (0, 1, 1)
    with pytest.raises(ValueError):
        normalize_point(f, (0, 0, 0))


def test_point_counts():
    assert len(enumerate_points(Field(5), 2)) == 31
    assert len(enumerate_points(Field(3), 3)) == 40
    assert len(enumerate_points(Field(3), 2)) == 13
    with pytest.raises(ValueError):
        enumerate_points(Field(3), 4)


def test_points_pairwise_nonproportional():
    f = Field(3)
    mul = scalar(f).mul
    pts = enumerate_points(f, 2)
    for p1, p2 in itertools.combinations(pts, 2):
        for s in f.elements(nonzero_only=True):
            assert tuple(mul(s, c) for c in p1) != p2


def test_points_sorted_and_normalized():
    f = Field(5)
    pts = enumerate_points(f, 2)
    assert pts == sorted(pts)
    for p in pts:
        lead = next(c for c in p if c != 0)
        assert lead == f.one


def test_quadric_contains_examples():
    f = Field(5)
    a = Quadric(f, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    assert quadric_contains(a, (1, 1, 2))
    assert not quadric_contains(a, (1, 1, 1))
    e1 = (1, 0, 0)
    assert quadric_contains(a, e1)  # top-left entry is zero


def test_quadric_validation_and_scaling():
    f = Field(5)
    with pytest.raises(ValueError, match="symmetric"):
        Quadric(f, [[0, 1, 0], [2, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="zero matrix"):
        Quadric(f, [[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    a = Quadric(f, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    doubled = Quadric(f, [[0, 2, 4], [2, 0, 2], [4, 2, 0]])
    assert a == doubled


def test_quadric_dimension_mismatch():
    f = Field(5)
    a = Quadric(f, [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    with pytest.raises(ValueError, match="mismatch"):
        quadric_contains(a, (1, 0, 0, 0))


def test_collinear_examples():
    f = Field(5)
    e1 = (1, 0, 0)
    e2 = (0, 1, 0)
    e3 = (0, 0, 1)
    assert not collinear(f, e1, e2, e3)
    assert collinear(f, e1, e2, (1, 1, 0))
    # cofactor oracle: det of [[1,1,1],[1,2,3],[1,3,0]] is -5 = 0 mod 5
    assert (1 * (2 * 0 - 3 * 3) - 1 * (1 * 0 - 3 * 1) + 1 * (1 * 3 - 2 * 1)) % 5 == 0
    assert collinear(f, (1, 1, 1), (1, 2, 3), (1, 3, 0))


def test_collinear_permutation_invariant():
    f = Field(5)
    pts = enumerate_points(f, 2)
    rng = random.Random(0)
    for _ in range(50):
        p1, p2, p3 = rng.sample(pts, 3)
        base = collinear(f, p1, p2, p3)
        for a, b, c in itertools.permutations((p1, p2, p3)):
            assert collinear(f, a, b, c) == base


def _line(f, rows):
    return LineMatrix(f, rows)


def test_lines_skew_examples():
    f = Field(3)
    fixed = _line(f, [[1, 0, 0, 0], [0, 1, 0, 0]])   # (I2 0)
    l0 = _line(f, [[0, 0, 1, 0], [0, 0, 0, 1]])       # (0 I2)
    assert lines_skew(fixed, l0)
    assert not lines_skew(fixed, fixed)
    # every line (N I2) is skew to (I2 0)
    for n in itertools.product(range(3), repeat=4):
        ln = _line(f, [[n[0], n[1], 1, 0], [n[2], n[3], 0, 1]])
        assert lines_skew(fixed, ln)


def test_line_rank_validation():
    f = Field(3)
    with pytest.raises(ValueError, match="rank 2"):
        _line(f, [[1, 0, 0, 0], [2, 0, 0, 0]])


def test_line_points_count_and_membership():
    f = Field(5)
    ln = _line(f, [[1, 0, 2, 3], [0, 1, 4, 1]])
    pts = ln.points()
    assert len(pts) == f.q + 1
    assert len(set(pts)) == f.q + 1


def test_line_in_quadric_examples():
    f = Field(3)
    s = scalar(f)
    fixed = _line(f, [[1, 0, 0, 0], [0, 1, 0, 0]])
    # block form with zero top-left block and invertible B contains (I2 0)
    h = Quadric(f, [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ])
    assert line_in_quadric(fixed, h)
    # (N I2) lies in that quadric iff N^T + N = 0
    for n in itertools.product(range(3), repeat=4):
        ln = _line(f, [[n[0], n[1], 1, 0], [n[2], n[3], 0, 1]])
        nt_plus_n_zero = (
            s.add(n[0], n[0]) == 0 and s.add(n[3], n[3]) == 0 and s.add(n[1], n[2]) == 0
        )
        assert line_in_quadric(ln, h) == nt_plus_n_zero
    # (0 I2) is not in a block with C != 0
    h_c = Quadric(f, [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 0],
    ])
    l0 = _line(f, [[0, 0, 1, 0], [0, 0, 0, 1]])
    assert not line_in_quadric(l0, h_c)


def test_line_in_quadric_matches_pointwise_oracle():
    f = Field(3)
    rng = random.Random(1)
    quadrics = []
    while len(quadrics) < 8:
        entries = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                entries[i][j] = entries[j][i] = rng.randrange(3)
        if any(any(row) for row in entries):
            quadrics.append(Quadric(f, entries))
    lines = [_line(f, [[n[0], n[1], 1, 0], [n[2], n[3], 0, 1]])
             for n in itertools.product(range(3), repeat=4)]
    lines.append(_line(f, [[1, 0, 0, 0], [0, 1, 0, 0]]))
    for h in quadrics:
        for ln in lines:
            pointwise = all(quadric_contains(h, p) for p in ln.points())
            assert line_in_quadric(ln, h) == pointwise


def test_rref_idempotent_and_rowspace_invariant():
    f = Field(5)
    rng = random.Random(2)
    for _ in range(100):
        rows = [[rng.randrange(5) for _ in range(4)] for _ in range(2)]
        reduced, rank = rref(f, rows)
        if rank != 2:
            continue
        base = LineMatrix(f, rows)
        assert LineMatrix(f, base.rows) == base  # idempotent
        # random invertible row operation preserves the canonical form
        while True:
            a, b, c, d = (rng.randrange(5) for _ in range(4))
            if (a * d - b * c) % 5 != 0:
                break
        s = scalar(f)
        transformed = [
            [s.add(s.mul(a, x), s.mul(b, y)) for x, y in zip(rows[0], rows[1])],
            [s.add(s.mul(c, x), s.mul(d, y)) for x, y in zip(rows[0], rows[1])],
        ]
        assert LineMatrix(f, transformed) == base
