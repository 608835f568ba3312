import itertools
import random

import numpy as np
import pytest

from geomcode import constructions
from geomcode.constructions import (
    ConicLabel,
    HyperbolicLabel,
    IncidenceStructure,
    build_conic_structure,
    build_hyperbolic_structure,
    conic_labels,
    hyperbolic_labels,
)
from geomcode.fields import Field
from geomcode.gf2 import BinaryMatrix
from geomcode.sim import random_regular_h
from oracles import (
    LineMatrix,
    Quadric,
    collinear,
    conic_quadric,
    dense,
    gram_counts,
    hyperbolic_incidence_holds,
    hyperbolic_by_gathers,
    hyperbolic_quadric,
    line_in_quadric,
    mat_mul,
    matrix,
    quadric_contains,
    rref,
    scalar,
)


def test_conic_q5_shape_and_weights(conic5):
    assert conic5.v == 16 and conic5.n == 16
    assert set(conic5.matrix.row_weights()) == {3}
    assert set(conic5.matrix.column_weights()) == {3}
    assert not conic5.degenerate


def test_conic_q3_degenerate():
    ic = build_conic_structure(Field(3))
    assert ic.v == 4 and ic.n == 4
    assert set(ic.matrix.column_weights()) == {1}
    assert ic.degenerate


def test_conic_block_11_point_set(conic5):
    # the conic (a,b) = (1,1) over GF(5) passes through exactly these points
    points, blocks = conic_labels(conic5.field)
    j = blocks.index(ConicLabel(1, 1))
    d = dense(conic5.matrix)
    incident = {points[i] for i in range(conic5.v) if d[i, j]}
    assert incident == {(1, 1, 2), (1, 2, 1), (1, 3, 3)}


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (3, 2)])
def test_conic_structure_invariants(p, k):
    f = Field(p, k)
    q = f.q
    ic = build_conic_structure(f)
    assert ic.v == ic.n == (q - 1) ** 2
    assert set(ic.matrix.row_weights()) == {q - 2}
    assert set(ic.matrix.column_weights()) == {q - 2}
    shared = gram_counts(ic.matrix)
    np.fill_diagonal(shared, 0)
    assert shared.max() <= 1


def test_conic_incidence_matches_quadric_evaluation():
    # build_conic_structure solves each conic in closed form; evaluate every quadric instead
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2)):
        f = Field(p, k)
        ic = build_conic_structure(f)
        d = dense(ic.matrix)
        points, blocks = conic_labels(f)
        assert (len(points), len(blocks)) == (ic.v, ic.n)
        for j, (a, b) in enumerate(blocks):
            conic = conic_quadric(f, a, b)
            for i, pt in enumerate(points):
                assert d[i, j] == int(quadric_contains(conic, pt)), (f.q, i, j)


@pytest.mark.parametrize("qname", ["conic5", "conic7"])
def test_conic_adjacency_noncollinearity_oracle(qname, request):
    # two type-I points share a conic iff no three of e1,e2,e3,P,Q are collinear
    ic = request.getfixturevalue(qname)
    f = ic.field
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    gram = gram_counts(ic.matrix)
    points = conic_labels(f)[0]
    for i1, i2 in itertools.combinations(range(ic.v), 2):
        p, q = points[i1], points[i2]
        five = e + [p, q]
        oracle = all(
            not collinear(f, *triple) for triple in itertools.combinations(five, 3)
        )
        assert (gram[i1, i2] > 0) == oracle


def test_hyperbolic_q3_shape_and_weights(hyp3):
    assert hyp3.v == 81 and hyp3.n == 648
    assert set(hyp3.matrix.column_weights()) == {3}
    assert set(hyp3.matrix.row_weights()) == {24}


def test_hyperbolic_identity_block_lines(hyp3, hyp3_labels):
    # H_{I2,0}: incident lines are exactly the antisymmetric N
    points, blocks = hyp3_labels
    j = blocks.index(HyperbolicLabel((1, 0, 0, 1), (0, 0, 0, 0)))
    d = dense(hyp3.matrix)
    incident = {points[i] for i in range(hyp3.v) if d[i, j]}
    assert incident == {(0, 0, 0, 0), (0, 1, 2, 0), (0, 2, 1, 0)}


def test_block_label_counts():
    f3 = Field(3)
    points3, labels3 = hyperbolic_labels(f3)
    assert len(labels3) == 648  # 48 * 27 / 2
    assert labels3 == sorted(labels3)
    assert len(points3) == 81 and points3 == sorted(points3)
    f5 = Field(5)
    points5, labels5 = hyperbolic_labels(f5)
    assert len(labels5) == 15000  # 480 * 125 / 4
    assert len(points5) == 625


def _label(quadric):
    """The block label of a normalized hyperbolic quadric [[0,B],[B^T,C]]."""
    e = quadric.entries
    return HyperbolicLabel((e[0][2], e[0][3], e[1][2], e[1][3]),
                           (e[2][2], e[2][3], e[3][2], e[3][3]))


def test_scalar_class_dedup():
    # the blocks are every quadric [[0,B],[B^T,C]] with B invertible and C
    # symmetric, one per scalar class as Quadric normalizes it, sorted
    for q in (3, 5):
        f = Field(q)
        s = scalar(f)
        classes = set()
        for b in itertools.product(range(q), repeat=4):
            if s.sub(s.mul(b[0], b[3]), s.mul(b[1], b[2])) != 0:
                for c00, c01, c11 in itertools.product(range(q), repeat=3):
                    label = HyperbolicLabel(b, (c00, c01, c01, c11))
                    classes.add(_label(hyperbolic_quadric(f, label)))
        assert hyperbolic_labels(f)[1] == sorted(classes)


def test_hyperbolic_incidence_matches_criterion_exhaustively(hyp3, hyp3_labels):
    # solver-built matrix == direct evaluation of B^T N^T + N B + C = 0
    f, d = hyp3.field, dense(hyp3.matrix)
    points, blocks = hyp3_labels
    assert (len(points), len(blocks)) == (hyp3.v, hyp3.n)
    for j, label in enumerate(blocks):
        for i, n in enumerate(points):
            assert d[i, j] == int(hyperbolic_incidence_holds(f, n, label))


def test_hyperbolic_incidence_matches_criterion_q5_sampled():
    ic = build_hyperbolic_structure(Field(5))
    points, blocks = hyperbolic_labels(ic.field)
    rng = random.Random(5)
    d = dense(ic.matrix)
    for j in rng.sample(range(ic.n), 40):
        for i, n in enumerate(points):
            assert d[i, j] == int(hyperbolic_incidence_holds(ic.field, n, blocks[j]))


def test_hyperbolic_incidence_matches_pointwise_containment(hyp3, hyp3_labels):
    # sampled blocks: bit set iff every point of the line is on the quadric
    f, d = hyp3.field, dense(hyp3.matrix)
    points, blocks = hyp3_labels
    rng = random.Random(7)
    for j in rng.sample(range(hyp3.n), 25):
        h = hyperbolic_quadric(f, blocks[j])
        for i, n in enumerate(points):
            ln = LineMatrix(f, [[n[0], n[1], 1, 0], [n[2], n[3], 0, 1]])
            pointwise = all(quadric_contains(h, p) for p in ln.points())
            assert d[i, j] == int(pointwise)
            assert d[i, j] == int(line_in_quadric(ln, h))


def test_hyperbolic_adjacency_rank_oracle(hyp3, hyp3_labels):
    # lines share a block iff rank(N2 - N1) = 2, exhaustively at q=3
    f = scalar(hyp3.field)
    gram = gram_counts(hyp3.matrix)
    points = hyp3_labels[0]
    for i1, i2 in itertools.combinations(range(hyp3.v), 2):
        n1, n2 = points[i1], points[i2]
        diff = [
            [f.sub(n2[0], n1[0]), f.sub(n2[1], n1[1])],
            [f.sub(n2[2], n1[2]), f.sub(n2[3], n1[3])],
        ]
        det = f.sub(f.mul(diff[0][0], diff[1][1]), f.mul(diff[0][1], diff[1][0]))
        assert (gram[i1, i2] > 0) == (det != 0)


def _mat_inverse(f, m):
    size = len(m)
    aug = [list(row) + [f.one if i == j else 0 for j in range(size)] for i, row in enumerate(m)]
    reduced, rank = rref(f, aug)
    assert rank == size
    return [row[size:] for row in reduced]


def test_isomorphism_action_preserves_incidence(hyp3, hyp3_labels):
    # a projectivity fixing the base line permutes points and blocks and
    # maps the incidence matrix onto itself
    f = hyp3.field
    s = scalar(f)
    q = f.q
    rng = random.Random(11)
    points, blocks = hyp3_labels
    point_index = {n: i for i, n in enumerate(points)}
    block_index = {lbl: j for j, lbl in enumerate(blocks)}

    def rand_gl2():
        while True:
            m = [rng.randrange(q) for _ in range(4)]
            if s.sub(s.mul(m[0], m[3]), s.mul(m[1], m[2])) != 0:
                return m

    for _ in range(3):
        q11, q22 = rand_gl2(), rand_gl2()
        q21 = [rng.randrange(q) for _ in range(4)]
        big = [
            [q11[0], q11[1], 0, 0],
            [q11[2], q11[3], 0, 0],
            [q21[0], q21[1], q22[0], q22[1]],
            [q21[2], q21[3], q22[2], q22[3]],
        ]
        big_inv = _mat_inverse(f, big)
        big_inv_t = [[big_inv[j][i] for j in range(4)] for i in range(4)]

        # induced point permutation: N -> Q22^{-1} (N Q11 + Q21)
        q22_inv = _mat_inverse(f, [[q22[0], q22[1]], [q22[2], q22[3]]])
        point_map = {}
        for i, n in enumerate(points):
            nm = mat_mul(f, [[n[0], n[1]], [n[2], n[3]]], [[q11[0], q11[1]], [q11[2], q11[3]]])
            shifted = [
                [s.add(nm[0][0], q21[0]), s.add(nm[0][1], q21[1])],
                [s.add(nm[1][0], q21[2]), s.add(nm[1][1], q21[3])],
            ]
            res = mat_mul(f, q22_inv, shifted)
            point_map[i] = point_index[(res[0][0], res[0][1], res[1][0], res[1][1])]
        assert sorted(point_map.values()) == list(range(hyp3.v))

        # induced block permutation: H -> Q^{-1} H Q^{-T}
        block_map = {}
        for j, lbl in enumerate(blocks):
            h = [list(r) for r in hyperbolic_quadric(f, lbl).entries]
            h2 = mat_mul(f, mat_mul(f, big_inv, h), big_inv_t)
            assert all(h2[i][jj] == 0 for i in range(2) for jj in range(2))
            block_map[j] = block_index[_label(Quadric(f, h2))]
        assert sorted(block_map.values()) == list(range(hyp3.n))

        d = dense(hyp3.matrix)
        for i in range(hyp3.v):
            for j_old, j_new in block_map.items():
                assert d[i, j_old] == d[point_map[i], j_new]


def test_hyperbolic_q5_shape_and_pairwise_rows():
    ic = build_hyperbolic_structure(Field(5))
    assert ic.v == 625 and ic.n == 15000
    assert set(ic.matrix.column_weights()) == {5}
    assert set(ic.matrix.row_weights()) == {120}
    shared = gram_counts(ic.matrix)
    np.fill_diagonal(shared, 0)
    assert shared.max() <= 1


@pytest.mark.parametrize("p,k,modulus", [(3, 1, None), (5, 1, None), (7, 1, None),
                                          (3, 2, None), (3, 2, [2, 1, 1])])
def test_hyperbolic_build_matches_per_pair_gathers(p, k, modulus):
    # the build from N's two rows against every entry of NB and C gathered
    # per (N, B) pair; GF(9) both over the built-in modulus and over x^2+x+2
    f = Field(p, k, modulus)
    assert build_hyperbolic_structure(f).matrix == hyperbolic_by_gathers(f)


def test_construction_determinism():
    f = Field(3)
    a, b = build_hyperbolic_structure(f), build_hyperbolic_structure(f)
    assert a.matrix == b.matrix and hyperbolic_labels(f) == hyperbolic_labels(f)
    g = Field(5)
    c, d = build_conic_structure(g), build_conic_structure(g)
    assert c.matrix == d.matrix


def test_builders_refuse_past_physical_memory(monkeypatch, f3):
    # library callers meet the command line's refusal too: here on a host
    # that reports no physical memory, past which every build peaks
    monkeypatch.setattr(constructions.os, "sysconf",
                        lambda name: 0 if name == "SC_PHYS_PAGES" else 4096)
    for family, build in (("conic", build_conic_structure),
                          ("hyperbolic", build_hyperbolic_structure)):
        with pytest.raises(ValueError) as exc:
            build(f3)
        assert str(exc.value).startswith(f"the {family} build over GF(3) needs about ")
        assert str(exc.value).endswith(", more than the 0.0 GiB of physical memory")


def _assert_point_graph_matches_gram(m: BinaryMatrix):
    """The point graph is the off-diagonal M M^T > 0, and the 4-cycle
    witness its first row-major entry > 1, with that entry."""
    ic = IncidenceStructure("file", None, m)
    gram = gram_counts(m)
    np.fill_diagonal(gram, 0)
    bad = np.argwhere(gram > 1)
    expected = (tuple(bad[0].tolist()), int(gram[tuple(bad[0])])) if len(bad) else None
    assert ic.adjacency.dtype == bool
    assert np.array_equal(ic.adjacency, gram > 0)
    assert ic.four_cycle == expected
    return expected


def test_point_graph_matches_gram_on_random_matrices():
    rng = np.random.default_rng(11)
    witnesses = 0
    for _ in range(300):
        d = rng.random((rng.integers(1, 12), rng.integers(1, 14))) < rng.random()
        d[:, rng.integers(0, d.shape[1])] = False  # an empty column
        col = rng.integers(0, d.shape[1])
        d[:, col] = False
        d[rng.integers(0, d.shape[0]), col] = True  # a weight-1 column
        witnesses += _assert_point_graph_matches_gram(matrix(d)) is not None
    assert 50 < witnesses < 300  # both outcomes are exercised


def test_point_graph_matches_gram_on_random_codes():
    assert _assert_point_graph_matches_gram(random_regular_h(81, 648, 3, 24, 7).h) == ((0, 27), 3)
    assert _assert_point_graph_matches_gram(random_regular_h(300, 2400, 3, 24, 5).h) is not None


@pytest.mark.parametrize("rows,witness", [
    # points 0 and 2 share three blocks
    ([[1, 1, 1, 0], [0, 0, 1, 1], [1, 1, 1, 1]], ((0, 2), 3)),
    # the first bad row, 1, is joined to the lower point 0 by one block;
    # its partner 2 shares two blocks with it and two with the later point 3
    ([[1, 0, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 1]], ((1, 2), 2)),
])
def test_point_graph_witness_handmade(rows, witness):
    assert _assert_point_graph_matches_gram(matrix(rows)) == witness


def test_conic_labels_require_nonzero():
    f = Field(5)
    with pytest.raises(ValueError):
        conic_quadric(f, 0, 1)
