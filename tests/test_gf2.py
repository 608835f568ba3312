import random
import tempfile
import time
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomcode import gf2
from geomcode.alist import read_alist, write_alist
from geomcode.constructions import IncidenceStructure
from geomcode.gf2 import (
    BinaryMatrix,
    RankPrediction,
    brouwer_predict,
    character_ranks,
    folds_to_unit,
    rank2,
)
from geomcode.srpg import SrgSpectrum
from oracles import dense, dense_rank_mod2, folds_to_unit_by_power, gram_counts, matrix, packbits


def gram_mod2(m):
    """M M^T mod 2, as the analysis report forms it."""
    return matrix(gram_counts(m) & 1)


def random_matrix(rng, nrows, ncols, density=0.4):
    return matrix(
        [[1 if rng.random() < density else 0 for _ in range(ncols)] for _ in range(nrows)]
    )


def test_matrix_basics():
    m = matrix([[1, 0, 1], [0, 1, 1]])
    assert m.nrows == 2 and m.cols == 3
    assert dense(m)[0, 0] == 1 and dense(m)[0, 1] == 0
    assert m.row_weights().tolist() == [2, 2]
    assert m.column_weights().tolist() == [1, 1, 2]
    # the weights are cached, and read-only so that no caller can change them
    assert m.column_weights() is m.column_weights()
    assert not m.row_weights().flags.writeable and not m.column_weights().flags.writeable
    assert [a.tolist() for a in m.by_column()] == [[0, 1, 0, 1], [0, 1, 2, 2]]


def test_matrix_validation():
    with pytest.raises(ValueError):
        BinaryMatrix([0, 1], [0], (2, 2))  # one column index for two row indices
    with pytest.raises(ValueError):
        BinaryMatrix([], [], (0, 3))


@pytest.mark.parametrize("row,col,shape", [(0, 8, (1, 8)), (0, -1, (1, 8)), (-1, 0, (2, 8)),
                                           (2, 0, (2, 8))])
def test_out_of_range_indices_rejected(row, col, shape):
    # index -1 would wrap to the last column or row
    with pytest.raises(ValueError, match="outside"):
        BinaryMatrix([row], [col], shape)


def test_presorted_repeated_and_shuffled_input_give_the_same_ones():
    # strictly ascending row-major input is kept without a sort; an adjacent
    # repeat or any other order is sorted and deduplicated, to the same arrays
    rows, cols = np.array([0, 0, 1, 3, 3, 3]), np.array([1, 4, 0, 0, 2, 5])
    repeat = np.array([0, 1, 2, 3, 3, 4, 5])  # (3, 0) twice, side by side
    rng = np.random.default_rng(5)
    inputs = [(rows, cols), (rows[repeat], cols[repeat])]
    inputs += [(r[::-1], c[::-1]) for r, c in inputs]
    inputs += [(r[order], c[order]) for r, c in inputs[:2] for order in [rng.permutation(len(r))]]
    for r, c in inputs:
        m = BinaryMatrix(r.copy(), c.copy(), (4, 6))
        assert [a.tolist() for a in m.nonzero()] == [rows.tolist(), cols.tolist()]
        assert not any(a.flags.writeable for a in m.nonzero())


def test_rank_identity():
    eye = matrix([[1 if i == j else 0 for j in range(10)] for i in range(10)])
    assert rank2(packbits(eye)) == 10


def test_rank_against_dense_oracle():
    rng = random.Random(3)
    for _ in range(20):
        m = random_matrix(rng, rng.randrange(1, 30), rng.randrange(1, 40))
        assert rank2(packbits(m)) == dense_rank_mod2(dense(m))


def test_rank_invariances():
    rng = random.Random(4)
    for _ in range(10):
        packed = packbits(random_matrix(rng, 15, 20))
        before = packed.copy()
        r = rank2(packed)
        perm = list(range(15))
        rng.shuffle(perm)
        assert rank2(packed[perm]) == r
        assert rank2(np.vstack([packed, np.zeros((2, packed.shape[1]), np.uint8)])) == r
        # input is not modified
        assert np.array_equal(packed, before) and rank2(packed) == r


def test_streamed_rank_matches_whole_array(monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(20):
        d = (rng.random((rng.integers(1, 30), rng.integers(1, 70))) < 0.3).astype(np.uint8)
        d[rng.random(len(d)) < 0.3] = 0  # empty rows, first and last ones among them
        d[0] = d[-1] = 0
        m, width = matrix(d), (d.shape[1] + 7) // 8
        r = rank2(packbits(m))
        assert r == dense_rank_mod2(d)
        # blocks of 1 row (also below one row's bytes), of 3 rows (a final
        # partial block unless 3 divides the rows), and all rows in one block
        for chunk_bytes, rows in ((1, 1), (width, 1), (3 * width, 3), (10 ** 9, len(d))):
            monkeypatch.setattr(gf2, "PACK_CHUNK_BYTES", chunk_bytes)
            chunks = list(m.packed_chunks())
            assert [len(c) for c in chunks[:-1]] == [rows] * (len(chunks) - 1)
            assert 1 <= len(chunks[-1]) <= rows
            assert np.array_equal(np.vstack(chunks), packbits(m))
            assert rank2(m.packed_chunks()) == rank2(iter(chunks)) == r


def test_gram2_single_row():
    m = matrix([[1, 1, 0]])
    g = gram_mod2(m)
    assert g.nrows == 1 and g.cols == 1 and dense(g)[0, 0] == 0  # weight 2 mod 2


def test_gram_against_numpy():
    rng = random.Random(5)
    for _ in range(10):
        m = random_matrix(rng, rng.randrange(1, 15), rng.randrange(1, 25))
        d = dense(m).astype(np.int64)
        assert np.array_equal(gram_counts(m), d @ d.T)
        assert np.array_equal(dense(gram_mod2(m)), (d @ d.T) % 2)


def test_gram_diagonal_parity(conic5, hyp3):
    # diagonal of M M^T mod 2 is the row-weight parity: 3 is odd, 24 is even
    assert (np.diagonal(dense(gram_mod2(conic5.matrix))) == 1).all()
    assert (np.diagonal(dense(gram_mod2(hyp3.matrix))) == 0).all()


def test_gram_rank_bounded_by_rank():
    rng = random.Random(6)
    for _ in range(15):
        m = random_matrix(rng, rng.randrange(1, 20), rng.randrange(1, 30))
        assert rank2(packbits(gram_mod2(m))) <= rank2(packbits(m))


def test_gram_rank_bound_on_constructed_matrices(conic5, hyp3):
    for ic in (conic5, hyp3):
        assert rank2(packbits(gram_mod2(ic.matrix))) <= rank2(packbits(ic.matrix))


def _spec(v, f1, f2, mu, theta0, theta1, theta2):
    # only the fields brouwer_predict reads need to be meaningful
    return SrgSpectrum(v=v, k=0, lambda_=0, mu=mu, delta=0, sqrt_delta=0,
                       u1=0, u2=0, f1=f1, f2=f2,
                       theta0=theta0, theta1=theta1, theta2=theta2)


@pytest.mark.parametrize("drop", [0, 1, 5, 23])
def test_character_ranks_match_elimination(hyp3, drop):
    # without the cosets of its first `drop` subgroups (27 columns each),
    # hyperbolic q=3 is still a translation structure, of 24 - drop subgroups
    rows, cols = hyp3.matrix.nonzero()
    keep = cols >= 27 * drop
    m = BinaryMatrix(rows[keep], cols[keep] - 27 * drop, (81, 648 - 27 * drop))
    tr = IncidenceStructure("file", None, m).translation
    assert len(tr.through) == 24 - drop
    assert tr.ranks == character_ranks(3, 4, tr.through) == (rank2(packbits(m)),
                                                             rank2(packbits(gram_mod2(m))))


def group_matrix(f):
    """The group matrix F[x, y] = f[y - x] over (Z_n)^2 of the n x n array f,
    x = (x1, x2) at index x1 n + x2."""
    n = f.shape[0]
    x1, x2 = np.divmod(np.arange(n * n), n)
    return f[(x1 - x1[:, None]) % n, (x2 - x2[:, None]) % n]


@pytest.mark.parametrize("n", [2, 4, 6, 10, 12, 18, 20])
def test_fold_has_full_rank_exactly_when_the_group_matrix_does(n):
    # q - 1 = n = 2^a m: the fold onto (Z_m)^2 decides whether F is invertible
    rng = np.random.default_rng(n)
    full = []
    for _ in range(20):
        f = rng.random((n, n)) < rng.random()
        full.append(dense_rank_mod2(group_matrix(f)) == n * n)
        assert folds_to_unit(f) == full[-1]
    assert any(full) and not all(full)


@pytest.mark.parametrize("n", [1, 3, 6, 9, 10, 15, 18])
def test_power_oracle_matches_the_group_matrix(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        f = rng.random((n, n)) < rng.random()
        assert folds_to_unit_by_power(f) == (dense_rank_mod2(group_matrix(f)) == n * n)


@pytest.mark.parametrize("n,seeds", [(242, (0, 1)), (330, (0, 209))])
def test_dense_fold_rows_decided_by_characters(n, seeds):
    # dense random rows, such as a scaling-invariant file can present: whole
    # eliminations of their m^2 x m^2 folds took 16-19 s (m = 121) and 118 s
    # (m = 165); each seed pair gives one unit and one non-unit.  Measured on
    # a 2-core host: units 0.08 s (n = 242) and 0.37 s (n = 330), others 3 ms
    answers = []
    for seed in seeds:
        f = np.random.default_rng(seed).random((n, n)) < 0.5
        t0 = time.perf_counter()
        answers.append(folds_to_unit(f))
        assert time.perf_counter() - t0 < 3.0
        assert answers[-1] == folds_to_unit_by_power(f)
    assert sorted(answers) == [False, True]


def test_brouwer_cases():
    # all thetas odd -> full rank
    assert brouwer_predict(_spec(16, 6, 9, 2, 9, 5, 1)) == \
        RankPrediction("exact", 16, "all-theta-odd")
    # theta0 even, others odd -> v - 1
    assert brouwer_predict(_spec(10, 4, 5, 2, 8, 3, 1)).value == 9
    # theta2 even, theta0 even, mu even -> f1
    assert brouwer_predict(_spec(81, 48, 32, 30, 72, 27, 18)) == \
        RankPrediction("exact", 48, "theta2-even-theta0-even-mu-even")
    # theta2 even, theta0 even, mu odd -> f1 + 1
    assert brouwer_predict(_spec(81, 48, 32, 29, 72, 27, 18)).value == 49
    # theta1 even, theta0 odd -> v - f1
    assert brouwer_predict(_spec(50, 20, 29, 4, 9, 4, 3)).value == 30
    # theta2 even, theta0 odd -> v - f2
    assert brouwer_predict(_spec(50, 20, 29, 4, 9, 5, 4)).value == 21
    # theta1 even, theta0 even, mu even -> f2
    assert brouwer_predict(_spec(50, 20, 29, 4, 8, 4, 3)).value == 29
    # both theta1, theta2 even -> upper bound
    pred = brouwer_predict(_spec(50, 20, 29, 4, 9, 4, 2))
    assert pred.kind == "upper-bound" and pred.value == 21


def test_dimension_and_rate():
    # dimension n - rank_2(H), as the analysis report and LdpcCode derive it
    eye = matrix([[1 if i == j else 0 for j in range(5)] for i in range(5)])
    assert eye.cols - rank2(packbits(eye)) == 0
    wide = matrix([[1, 0, 1, 1], [0, 1, 1, 0]])
    dim = wide.cols - rank2(packbits(wide))
    assert dim == 2 and dim / wide.cols == 0.5


# -- property tests: every derived view against a dense numpy oracle --------

@st.composite
def dense_matrices(draw):
    """0/1 arrays of random shape and density, so empty rows and columns
    and irregular weights all occur; widths cross byte boundaries."""
    shape = (draw(st.integers(1, 12)), draw(st.integers(1, 70)))
    values = draw(st.sampled_from([(0,), (0, 0, 0, 0, 1), (0, 1), (1,)]))
    return draw(hnp.arrays(np.uint8, shape, elements=st.sampled_from(values)))


def _entrywise(d):
    """The matrix of d's ones, gathered one entry at a time, independently of numpy."""
    ones = [(i, j) for i in range(d.shape[0]) for j in range(d.shape[1]) if d[i, j]]
    return BinaryMatrix([i for i, _ in ones], [j for _, j in ones], d.shape)


@settings(max_examples=150, deadline=None)
@given(dense_matrices())
def test_property_views_match_dense(d):
    m = _entrywise(d)
    assert matrix(d) == m
    rows, cols = m.nonzero()
    expected = np.nonzero(d)
    assert np.array_equal(rows, expected[0]) and np.array_equal(cols, expected[1])
    assert not rows.flags.writeable and not cols.flags.writeable
    # shuffled, with the first half of the ones given twice: repeats are ORed
    both = np.concatenate([np.arange(len(rows)), np.arange(len(rows) // 2)])
    order = np.random.default_rng(len(rows)).permutation(both)
    assert BinaryMatrix(rows[order], cols[order], d.shape) == m
    by_col = np.argsort(cols, kind="stable")
    assert all(np.array_equal(a, b[by_col]) for a, b in zip(m.by_column(), (rows, cols)))
    assert np.array_equal(dense(m), d)
    assert np.array_equal(np.vstack(list(m.packed_chunks())),
                          np.packbits(d, axis=1, bitorder="little"))
    assert m.column_weights().tolist() == d.sum(axis=0).tolist()
    assert m.row_weights().tolist() == d.sum(axis=1).tolist()
    # the transpose, its ones given in column-major order
    assert BinaryMatrix(cols, rows, d.shape[::-1]) == _entrywise(d.T)
    di = d.astype(np.int64)
    assert np.array_equal(gram_counts(m), di @ di.T)
    assert np.array_equal(dense(gram_mod2(m)), (di @ di.T) % 2)
    # the rank does not depend on the bit order of the packing
    assert rank2(m.packed_chunks()) == rank2(np.packbits(d, axis=1)) == dense_rank_mod2(d)


@settings(max_examples=100, deadline=None)
@given(dense_matrices())
def test_property_alist_round_trip(d):
    m = _entrywise(d)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.alist"
        write_alist(m, path)
        assert read_alist(path) == m
