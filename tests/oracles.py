"""Scalar reference geometry of PG(2,q) and PG(3,q) over odd fields, which
the closed-form builds in geomcode.constructions are checked against, and
the dense views of a BinaryMatrix (its packed rows among them) and its
integer Gram matrix, which the point graph and the other derived views are
checked against.  From the dense Gram by float64 BLAS, never from the
package's adjacency or census, come the histogram of the block census,
which IncidenceStructure.census is checked against, and the pair-profile
census (:func:`alpha_profiles`): for every ordered pair of points, the
blocks on the first avoiding the second, binned by the number of their
points joined to the second.  Also here: the dense integer analysis report
(:func:`report`), which the CLI's analysis report is checked against key
for key, the per-line alist writer and reader, which the whole-array ones
in geomcode.alist are checked against, and the hyperbolic incidence matrix
by per-pair table gathers, which the row-factorised build is checked
against.

Coordinates are field element codes (see geomcode.fields) and points are
plain coordinate tuples, normalized so the first nonzero coordinate is
the field's one; lines of PG(3,q) are stored as 2x4 matrices in reduced
row echelon form, the unique representative of their row space; quadrics
are symmetric matrices scaled so the first nonzero entry in row-major
order is one.  All arithmetic is one element at a time through
:class:`Scalar`, independently of the whole-array formulas of the builds.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from geomcode.constructions import HyperbolicLabel, IncidenceStructure, _canonical_b
from geomcode.fields import Field
from geomcode.gf2 import BinaryMatrix, brouwer_predict
from geomcode.metrics import tanner_bounds
from geomcode.srpg import DegenerateStructure, SrpgParams, feasibility_check, spectrum

Point = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


class Scalar:
    """Arithmetic on single codes of one field, read from Python-list
    copies of its numpy tables (indexing a list is much faster than
    indexing an array one element at a time)."""

    def __init__(self, field: Field):
        self.one = field.one
        self._add, self._mul, self._neg, self._inv = (
            t.tolist() for t in (field.add_table, field.mul_table, field.neg_table,
                                 field.inv_table))

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._inv[a]


@functools.lru_cache(maxsize=None)
def scalar(field: Field) -> Scalar:
    """The :class:`Scalar` of a field, built once per field."""
    return Scalar(field)


def rref(field: Field, rows: list[list[int]]) -> tuple[list[list[int]], int]:
    """Reduced row echelon form over `field`; returns (rref_rows, rank)."""
    f = scalar(field)
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = f.inv(rows[rank][col])
        rows[rank] = [f.mul(inv, x) for x in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == nrows:
            break
    return rows, rank


def mat_mul(field: Field, a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    f = scalar(field)
    out = []
    for row in a:
        new = []
        for j in range(len(b[0])):
            acc = 0
            for x, brow in zip(row, b):
                if x:
                    acc = f.add(acc, f.mul(x, brow[j]))
            new.append(acc)
        out.append(new)
    return out


def det3(field: Field, m: list[list[int]]) -> int:
    """Determinant of a 3x3 matrix by cofactor expansion."""
    f = scalar(field)
    a, b, c = m[0]
    d, e, g = m[1]
    h, i, j = m[2]
    t1 = f.mul(a, f.sub(f.mul(e, j), f.mul(g, i)))
    t2 = f.mul(b, f.sub(f.mul(d, j), f.mul(g, h)))
    t3 = f.mul(c, f.sub(f.mul(d, i), f.mul(e, h)))
    return f.add(f.sub(t1, t2), t3)


def normalize_point(field: Field, raw: tuple[int, ...] | list[int]) -> Point:
    """Scale a nonzero coordinate vector so its first nonzero entry is one."""
    f = scalar(field)
    coords = tuple(raw)
    lead = next((c for c in coords if c != 0), None)
    if lead is None:
        raise ValueError("zero vector does not define a projective point")
    if lead != f.one:
        s = f.inv(lead)
        coords = tuple(f.mul(s, c) for c in coords)
    return coords


def enumerate_points(field: Field, m: int) -> list[Point]:
    """All (q^{m+1}-1)/(q-1) points of PG(m,q) in lexicographic order."""
    if m not in (2, 3):
        raise ValueError(f"unsupported projective dimension m = {m}")
    return [coords for coords in itertools.product(range(field.q), repeat=m + 1)
            if next((c for c in coords if c != 0), None) == field.one]


class Quadric:
    """Quadric of PG(m,q) as a symmetric matrix, scaled so the first
    nonzero entry (row-major) is one; proportional matrices identify."""

    __slots__ = ("field", "entries")

    def __init__(self, field: Field, entries: list[list[int]] | Matrix):
        f = scalar(field)
        rows = [tuple(r) for r in entries]
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("quadric matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError("quadric matrix must be symmetric")
        lead = next((x for r in rows for x in r if x != 0), None)
        if lead is None:
            raise ValueError("zero matrix does not define a quadric")
        if lead != f.one:
            s = f.inv(lead)
            rows = [tuple(f.mul(s, x) for x in r) for r in rows]
        self.field = field
        self.entries = tuple(rows)

    @property
    def m(self) -> int:
        return len(self.entries) - 1

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Quadric)
            and other.field == self.field
            and other.entries == self.entries
        )

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Quadric{self.entries}"


def quadric_contains(quadric: Quadric, point: Point) -> bool:
    """True iff X A X^T = 0 for the point's coordinate vector X."""
    if len(point) - 1 != quadric.m:
        raise ValueError(f"dimension mismatch: point in PG({len(point) - 1}), "
                         f"quadric in PG({quadric.m})")
    f = scalar(quadric.field)
    acc = 0
    for xi, row in zip(point, quadric.entries):
        if xi == 0:
            continue
        s = 0
        for xj, aij in zip(point, row):
            if xj and aij:
                s = f.add(s, f.mul(aij, xj))
        acc = f.add(acc, f.mul(xi, s))
    return acc == 0


def collinear(field: Field, p1: Point, p2: Point, p3: Point) -> bool:
    """True iff three points of PG(2,q) lie on a common line."""
    if len(p1) != 3 or len(p2) != 3 or len(p3) != 3:
        raise ValueError("collinearity is defined for points of PG(2,q)")
    return det3(field, [list(p1), list(p2), list(p3)]) == 0


class LineMatrix:
    """Line of PG(3,q), stored as the unique RREF basis of its row space."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows: list[list[int]] | Matrix):
        rows = [list(r) for r in rows]
        if len(rows) != 2 or any(len(r) != 4 for r in rows):
            raise ValueError("a line of PG(3,q) needs a 2x4 matrix")
        reduced, rank = rref(field, rows)
        if rank != 2:
            raise ValueError("line matrix must have rank 2")
        self.field = field
        self.rows = tuple(tuple(r) for r in reduced)

    def points(self) -> list[Point]:
        """The q+1 points on the line."""
        f = scalar(self.field)
        r1, r2 = self.rows
        pts = [normalize_point(self.field, r1)]
        for u in range(self.field.q):
            pts.append(normalize_point(self.field,
                                       tuple(f.add(f.mul(u, a), b) for a, b in zip(r1, r2))))
        return pts

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LineMatrix)
            and other.field == self.field
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Line{self.rows}"


def lines_skew(l1: LineMatrix, l2: LineMatrix) -> bool:
    """True iff the two lines span PG(3,q), i.e. the 4x4 stack has rank 4."""
    return rref(l1.field, [list(r) for r in l1.rows + l2.rows])[1] == 4


def line_in_quadric(line: LineMatrix, quadric: Quadric) -> bool:
    """True iff every point of the line lies on the quadric.

    In odd characteristic this is equivalent to L H L^T being the 2x2 zero
    matrix, which is what gets evaluated here.
    """
    if quadric.m != 3:
        raise ValueError("line containment is defined against quadrics of PG(3,q)")
    f = line.field
    h = [list(r) for r in quadric.entries]
    l = [list(r) for r in line.rows]
    lh = mat_mul(f, l, h)
    lhlt = mat_mul(f, lh, [[r[i] for r in l] for i in range(4)])
    return all(x == 0 for row in lhlt for x in row)


def conic_quadric(field: Field, a: int, b: int) -> Quadric:
    """The conic through e1,e2,e3 with parameters (a,b), a,b nonzero.

    build_conic_structure solves this conic in closed form; the quadric is
    the independent check.
    """
    if a == 0 or b == 0:
        raise ValueError("conic parameters must be nonzero")
    one = field.one
    return Quadric(field, [[0, a, b], [a, 0, one], [b, one, 0]])


def hyperbolic_quadric(field: Field, label: HyperbolicLabel) -> Quadric:
    """The 4x4 quadric matrix [[0,B],[B^T,C]] of a block label."""
    b, c = label
    return Quadric(field, [
        [0, 0, b[0], b[1]],
        [0, 0, b[2], b[3]],
        [b[0], b[2], c[0], c[1]],
        [b[1], b[3], c[2], c[3]],
    ])


def _mul2(f: Scalar, a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    return (
        f.add(f.mul(a[0], b[0]), f.mul(a[1], b[2])),
        f.add(f.mul(a[0], b[1]), f.mul(a[1], b[3])),
        f.add(f.mul(a[2], b[0]), f.mul(a[3], b[2])),
        f.add(f.mul(a[2], b[1]), f.mul(a[3], b[3])),
    )


def hyperbolic_incidence_holds(field: Field, n: tuple[int, int, int, int],
                               label: HyperbolicLabel) -> bool:
    """Direct test of the containment criterion B^T N^T + N B + C = 0."""
    f = scalar(field)
    b, c = label
    bt = (b[0], b[2], b[1], b[3])
    nt = (n[0], n[2], n[1], n[3])
    lhs = _mul2(f, bt, nt)
    rhs = _mul2(f, n, b)
    return all(f.add(f.add(x, y), z) == 0 for x, y, z in zip(lhs, rhs, c))


def hyperbolic_by_gathers(field: Field) -> BinaryMatrix:
    """The hyperbolic incidence matrix by the table gathers of the formula
    C = -(NB + (NB)^T) over every (N, B) pair, each entry of NB and C one
    v x q(q^2-1) gather: build_hyperbolic_structure must equal it."""
    f, q = field, field.q
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    b = _canonical_b(f)[:, None, :]
    n = np.indices((q,) * 4).reshape(4, -1, 1)  # the lines N in lex order
    nb00, nb01, nb10, nb11 = (add[mul[n[r], b[c]], mul[n[r + 1], b[c + 2]]]
                              for r in (0, 2) for c in (0, 1))
    c00, c01, c11 = neg[add[nb00, nb00]], neg[add[nb01, nb10]], neg[add[nb11, nb11]]
    cols = (np.arange(b.shape[2]) * q ** 3 + (c00 * q + c01) * q + c11).ravel()
    return BinaryMatrix(np.repeat(np.arange(q ** 4), b.shape[2]), cols,
                        (q ** 4, b.shape[2] * q ** 3))


def matrix(rows) -> BinaryMatrix:
    """The matrix of a 2-D 0/1 array or a list of 0/1 rows; nonzero
    entries are ones."""
    d = np.array(rows)
    return BinaryMatrix(*np.nonzero(d), d.shape)


def dense(m: BinaryMatrix) -> np.ndarray:
    """The matrix as a dense uint8 array."""
    out = np.zeros((m.nrows, m.cols), dtype=np.uint8)
    out[m.nonzero()] = 1
    return out


def packbits(m: BinaryMatrix) -> np.ndarray:
    """The rows packed into uint8 bytes, bit j % 8 of byte j // 8 holding
    column j: the packing of BinaryMatrix.packed_chunks, from the dense array."""
    return np.packbits(dense(m), axis=1, bitorder="little")


def swapped(m: BinaryMatrix) -> BinaryMatrix:
    """m with points 1 and 2 swapped: the same structure, but no longer one
    whose blocks are cosets under the digit addition of the point indices."""
    rows, cols = m.nonzero()
    perm = np.arange(m.nrows)
    perm[[1, 2]] = 2, 1
    return BinaryMatrix(perm[rows], cols, (m.nrows, m.cols))


def rooks_graph(q: int) -> BinaryMatrix:
    """The rook's graph L2(q - 1) as blocks of 2 on the conic points (1, x, y),
    point (x-1)(q-1) + (y-1): (x, y) and (x', y') are a block iff they share
    x or y.  The scalings permute its blocks, t + 1 = 2(q - 2) is even, and
    its Gram parity, the bool A, folds to 0: rank_2 A = 2(q - 2) < v."""
    n = q - 1
    pts = np.arange(n * n).reshape(n, n)
    i, j = np.triu_indices(n, 1)
    pairs = np.concatenate([np.stack([pts[i], pts[j]], -1).reshape(-1, 2),        # one y
                            np.stack([pts[:, i], pts[:, j]], -1).reshape(-1, 2)])  # one x
    return BinaryMatrix(pairs.ravel(), np.repeat(np.arange(len(pairs)), 2), (n * n, len(pairs)))


def _dense_census(ic: IncidenceStructure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d, adj, counts): the incidence as a float64 array, the bool point
    graph and counts[p, b], the number of points of block b joined to point p,
    or -1 where p lies on b.  All come from the dense Gram d d^T by float64
    BLAS, exact here (no entry exceeds v), not from the package's views."""
    d = dense(ic.matrix).astype(np.float64)
    adj = d @ d.T > 0
    np.fill_diagonal(adj, False)
    return d, adj, np.where(d == 1, -1.0, adj.astype(np.float64) @ d)


def census_by_bincount(ic: IncidenceStructure) -> np.ndarray:
    """The histogram of the block census off the blocks by one bincount of
    the dense counts: IncidenceStructure.census must equal it."""
    counts = _dense_census(ic)[2]
    return np.bincount(counts[counts >= 0].astype(np.intp),
                       minlength=int(ic.matrix.column_weights()[0]) + 1)


@dataclass
class AlphaProfile:
    """Block-type census over ordered point pairs.

    For a pair (P,Q) the profile bins the blocks on P avoiding Q by the
    number of their points joined to Q.  Two things are reported
    separately: the per-pair counting identities (these hold for every
    pair of a verified structure and reconstruct lambda and mu), and
    whether the profile vector itself is the same for all pairs -- a
    strictly stronger property that some structures do not have.
    """

    alphas: tuple[int, ...]
    p_counts: tuple[int, ...]      # profile of the first adjacent pair
    l_counts: tuple[int, ...]      # profile of the first non-adjacent pair
    p_constant: bool
    l_constant: bool
    p_witness: tuple | None        # (first pair, other pair, other profile) if non-constant
    l_witness: tuple | None
    lambda_: int
    mu: int


def alpha_profiles(ic: IncidenceStructure, params: SrpgParams, lambda_: int, mu: int) -> AlphaProfile:
    """Census the block-type profile of every ordered point pair.

    The counting identities are enforced per pair: an adjacent pair must
    satisfy sum(p_i) = t and sum((alpha_i - 1) p_i) + s - 1 = lambda, a
    non-adjacent one sum(l_i) = t + 1 and sum(alpha_i l_i) = mu; a failure
    here raises with the witnessing pair.  Constancy of the profile
    vectors across pairs is reported, not required.  The profiles of all
    pairs at once are products of the dense block census with M.
    """
    alphas, s, t = params.alphas, params.s, params.t
    d, adj, counts = _dense_census(ic)
    # prof[i, P, Q]: blocks on P avoiding Q with alphas[i] points joined to Q
    prof = np.stack([d @ (counts == al).T.astype(np.float64)
                     for al in alphas]).astype(np.float32)
    size = prof.sum(axis=0)
    weighted = np.tensordot(np.array(alphas, dtype=np.float32), prof, axes=1)
    bad = np.where(adj, (size != t) | (weighted - size + (s - 1) != lambda_),
                   (size != t + 1) | (weighted != mu))
    np.fill_diagonal(bad, False)

    def pair(flat: int) -> tuple[tuple[int, int], tuple[int, ...]]:
        p, q = np.unravel_index(flat, adj.shape)
        return (int(p), int(q)), tuple(int(x) for x in prof[:, p, q])

    if bad.any():
        (p, q), vec = pair(np.argmax(bad))
        if adj[p, q]:
            size_name, size_want = "t", t
            name, rec, want = "lambda", sum((al - 1) * x for al, x in zip(alphas, vec)) + s - 1, lambda_
        else:
            size_name, size_want = "t+1", t + 1
            name, rec, want = "mu", sum(al * x for al, x in zip(alphas, vec)), mu
        if sum(vec) != size_want:
            raise ValueError(f"pair {(p, q)}: {sum(vec)} blocks on P avoid Q, "
                             f"expected {size_name} = {size_want}")
        raise ValueError(f"pair {(p, q)}: profile {vec} reconstructs {name} = {rec}, "
                         f"expected {want}")

    nonadj = ~adj
    np.fill_diagonal(nonadj, False)
    if not adj.any() or not nonadj.any():
        raise DegenerateStructure("point graph lacks adjacent or non-adjacent pairs")

    def census(mask: np.ndarray) -> tuple[tuple[int, ...], tuple | None]:
        """The profile of the first pair of mask, and the witness
        (first pair, first pair with another profile, its profile)."""
        first, vec = pair(np.argmax(mask))
        differs = mask & (prof != np.array(vec, dtype=np.float32)[:, None, None]).any(axis=0)
        return vec, (first, *pair(np.argmax(differs))) if differs.any() else None

    p_vec, p_witness = census(adj)
    l_vec, l_witness = census(nonadj)
    return AlphaProfile(
        alphas=alphas, p_counts=p_vec, l_counts=l_vec,
        p_constant=p_witness is None, l_constant=l_witness is None,
        p_witness=p_witness, l_witness=l_witness,
        lambda_=lambda_, mu=mu,
    )


def gram_counts(m: BinaryMatrix) -> np.ndarray:
    """M M^T over the integers, as a v x v numpy array.

    Entry (i, j) counts the columns holding both i and j.  Pairing each one
    with the one d places later in its column, for every offset d, lists
    each row pair i < j of each column once, with temporaries the size of
    the ones; the counts are mirrored, with the row weights on the diagonal.
    """
    v = m.nrows
    pts, cols = m.by_column()  # the rows of column 0, then of column 1, ...; ascending in each
    out = np.zeros(v * v, dtype=np.int64)
    for d in range(1, max(m.column_weights())):
        same = cols[d:] == cols[:-d]
        np.add.at(out, pts[:-d][same] * v + pts[d:][same], 1)
    out = out.reshape(v, v)
    # mirror in row blocks of 2^20 entries: out += out.T would copy all of out.T
    step = max(1, (1 << 20) // v)
    for lo in range(0, v, step):
        out[lo:lo + step] += out[:, lo:lo + step].T
    out[np.diag_indices(v)] = m.row_weights()
    return out


def dense_rank_mod2(a: np.ndarray) -> int:
    """Independent column-sweep elimination oracle."""
    a = a.copy().astype(np.uint8) % 2
    r = 0
    for c in range(a.shape[1]):
        piv = np.nonzero(a[r:, c])[0]
        if piv.size == 0:
            continue
        p = piv[0] + r
        a[[r, p]] = a[[p, r]]
        rows = np.nonzero(a[:, c])[0]
        rows = rows[rows != r]
        a[rows] ^= a[r]
        r += 1
        if r == a.shape[0]:
            break
    return r


def folds_to_unit_by_power(f: np.ndarray) -> bool:
    """Independent oracle for gf2.folds_to_unit: f summed onto H = (Z_m)^2
    (n = 2^a m, m odd) is a unit of GF(2)[H], a product of fields GF(2^t) with
    t dividing s = ord_m(2), iff its (2^s - 1)-th power, the product of its
    2^t-th powers for t < s, is 1.  Squaring doubles the indices (the ring is
    commutative of characteristic 2); products are cyclic convolutions by
    FFT, exact after rint since no entry exceeds m^2."""
    n = len(f)
    m = n // (n & -n)
    fold = f.reshape(n // m, m, -1, m).sum(axis=(0, 2)) % 2
    s = next(s for s in range(1, m + 1) if pow(2, s, m) == 1 % m)
    one, twice = np.zeros((m, m), dtype=np.int64), 2 * np.arange(m) % m
    one[0, 0] = 1
    power, square = one, fold
    for _ in range(s):
        product = np.fft.ifft2(np.fft.fft2(power) * np.fft.fft2(square)).real
        power = np.rint(product).astype(np.int64) % 2
        doubled = np.zeros_like(square)
        doubled[np.ix_(twice, twice)] = square
        square = doubled
    return np.array_equal(power, one)

def tanner_girth_bfs(d: np.ndarray) -> float:
    """Shortest cycle of the Tanner graph of the 0/1 array d (math.inf for a
    forest), by a breadth-first search from every row node: every cycle runs
    through one, and the search from a node on a shortest cycle closes it."""
    v, n = d.shape
    # nodes: rows 0..v-1, columns v..v+n-1
    nbrs = [(np.flatnonzero(d[i]) + v).tolist() for i in range(v)]
    nbrs += [np.flatnonzero(d[:, j]).tolist() for j in range(n)]
    best = math.inf
    for root in range(v):
        dist, parent = {root: 0}, {root: -1}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in nbrs[u]:
                if w not in dist:
                    dist[w], parent[w] = dist[u] + 1, u
                    queue.append(w)
                elif w != parent[u]:
                    best = min(best, dist[u] + dist[w] + 1)
    return best


def hexagons(d: np.ndarray, g: np.ndarray | None = None) -> int:
    """Number of 6-cycles of the Tanner graph of the 0/1 array d.

    A 6-cycle is three points a, b, c with three distinct blocks, one on
    each pair.  With G = M M^T less its diagonal (`g`, if the caller has
    formed it), trace(G^3) / 6 counts the block choices over the point
    triples; inclusion-exclusion takes out the choices that repeat a block,
    all of which lie on blocks holding the whole triple: a block of w points
    holds w - 2 triples through each of its pairs."""
    d = d.astype(np.int64)
    if g is None:
        g = d @ d.T
        np.fill_diagonal(g, 0)
    w = d.sum(axis=0)
    pair_sums = np.einsum("px,pq,qx->x", d, g, d) // 2  # per block, G summed over its pairs
    repeats = int(((w - 2) * pair_sums).sum()) - 2 * int((w * (w - 1) * (w - 2) // 6).sum())
    return int(np.trace(g @ g @ g)) // 6 - repeats


def _first(mask: np.ndarray) -> tuple[int, int]:
    """The first True entry of a 2-D mask in row-major order."""
    return tuple(int(x) for x in np.unravel_index(np.argmax(mask), mask.shape))


def report(m: BinaryMatrix) -> dict:
    """The analysis report of `m` read as a structure from a file, from a
    dense integer analysis: the axioms off the integer M M^T and the weights,
    the alpha census over all (point, block) pairs, k, lambda and mu off the
    integer A^2, the ranks by Gaussian elimination, the 6-cycles by a
    trace, and the girth: 4 if two points share two blocks, else 6 if there
    is a 6-cycle, else by breadth-first search.  The closed-form
    sections come from the package's feasibility_check, spectrum,
    brouwer_predict and tanner_bounds."""
    d = dense(m).astype(np.int64)
    v, n = d.shape
    gram = d @ d.T
    off = gram - np.diag(np.diag(gram))
    rank_m = dense_rank_mod2(d)
    cycles = hexagons(d, off)
    girth = 4 if (off > 1).any() else 6 if cycles else tanner_girth_bfs(d)
    col_w, row_w = d.sum(axis=0), d.sum(axis=1)
    rep = {
        "family": "file", "q": None, "v": v, "n": n, "degenerate": bool(col_w.max() <= 1),
        "rank2_M": rank_m, "dimension": n - rank_m, "rate": (n - rank_m) / n,
        "simulable": 0 < rank_m < n, "girth": None if math.isinf(girth) else girth,
    }

    def failed(*failures: str) -> dict:
        rep["failures"] = list(failures)
        rep["checks_passed"] = not failures
        return rep

    def violated(axiom: str, witness: tuple, message: str) -> dict:
        rep["axioms"] = {"pass": False, "violated": axiom, "witness": list(witness)}
        return failed(f"axiom ({axiom}) violated: {message} (witness {witness})")

    if (off > 1).any():
        i, j = _first(off > 1)
        return violated("i", (i, j), f"points share {off[i, j]} blocks")
    if (col_w != col_w[0]).any():
        j = int(np.argmax(col_w != col_w[0]))
        return violated("ii", (j,), f"block sizes differ: {col_w[0]} vs {col_w[j]}")
    if col_w[0] == 0:
        return violated("ii", (0,), "the blocks hold no points")
    if (row_w != row_w[0]).any():
        i = int(np.argmax(row_w != row_w[0]))
        return violated("iii", (i,), f"point degrees differ: {row_w[0]} vs {row_w[i]}")
    a = (off > 0).astype(np.int64)
    s, t = int(col_w[0]) - 1, int(row_w[0]) - 1
    alphas = sorted(set((a @ d)[d == 0].tolist()))
    rep.update(axioms={"pass": True}, s=s, t=t, alphas=alphas, grade=len(alphas))
    if rep["degenerate"]:
        rep["notice"] = ("structure is degenerate (edgeless point graph); "
                         "strong-regularity analysis skipped")
        return failed()

    a2 = a @ a
    k = int(a2[0, 0])
    assert (np.diag(a2) == k).all()  # axioms (i)-(iii) make the graph s(t+1)-regular
    if k == v - 1:
        rep["srg"] = {"error": "point graph is complete"}
        return failed("point graph is complete")
    nonadj = (a == 0) & ~np.eye(v, dtype=bool)
    values = {}
    for name, mask in (("lambda", a == 1), ("mu", nonadj)):
        first = a2[_first(mask)]
        if (bad := mask & (a2 != first)).any():
            i, j = _first(bad)
            error = f"{name} not constant: pair {(i, j)} has {a2[i, j]}, expected {first}"
            rep["srg"] = {"error": error}
            return failed(error)
        values[name] = int(first)
    lam, mu = values["lambda"], values["mu"]
    rep["srg"] = {"k": k, "lambda": lam, "mu": mu}
    failures = []

    rep["rank2_MMT"] = dense_rank_mod2(gram)
    rep["six_cycles"] = {"formula": n * s * (s + 1) * (lam - s + 1) // 6, "enumerated": cycles}
    if rep["six_cycles"]["formula"] != cycles:
        failures.append("six-cycle formula disagrees with enumeration")
    feas = feasibility_check(v, k, lam, mu, s, t)
    rep["feasibility"] = [{"condition": name, "pass": ok, "detail": detail}
                          for name, ok, detail in feas.conditions]
    if not feas.all_ok:
        names = ", ".join(name for name, ok, _ in feas.conditions if not ok)
        return failed(*failures, f"feasibility conditions failed: {names}")

    spec = spectrum(v, k, lam, mu, s, t)
    rep["spectrum"] = {key: getattr(spec, key) for key in
                       ("delta", "u1", "u2", "f1", "f2", "theta0", "theta1", "theta2")}
    pred = brouwer_predict(spec)
    rep["rank_prediction"] = {"kind": pred.kind, "value": pred.value, "case": pred.case_tag}
    if pred.kind == "exact" and pred.value != rep["rank2_MMT"]:
        failures.append(f"rank prediction {pred.value} != eliminated rank {rep['rank2_MMT']}")
    bounds = tanner_bounds(n, s + 1, t + 1, spec.theta0, spec.theta1)
    rep["distance_bounds"] = {
        "bit_oriented": str(bounds.bit_oriented), "parity_oriented": str(bounds.parity_oriented),
        "effective": bounds.effective, "vacuous": bounds.vacuous,
    }
    return failed(*failures)


def _index_lines(index: np.ndarray, weights: list[int]) -> list[str]:
    """Consecutive runs of `weights` entries of `index`, 1-based, one line each."""
    parts = np.split(index + 1, np.cumsum(weights)[:-1])
    return [" ".join(map(str, part.tolist())) or "0" for part in parts]


def write_alist(h: BinaryMatrix, path: str | Path) -> None:
    """Serialize a binary matrix (rows = checks, columns = variables)."""
    m, n = h.nrows, h.cols
    rows, cols = h.nonzero()
    col_w = np.bincount(cols, minlength=n).tolist()
    row_w = np.bincount(rows, minlength=m).tolist()
    lines = [
        f"{n} {m}",
        f"{max(col_w)} {max(row_w)}",
        " ".join(map(str, col_w)),
        " ".join(map(str, row_w)),
    ]
    lines += _index_lines(h.by_column()[0], col_w)
    lines += _index_lines(cols, row_w)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _index_list(path: str | Path, kind: str, k: int, tokens: list[int], declared: int,
                limit: int) -> list[int]:
    """The sorted 1-based indices of one column or row line, validated."""
    entries = [x for x in tokens if x != 0]
    if len(entries) != declared:
        raise ValueError(f"{path}: {kind} {k} lists {len(entries)} indices, declared {declared}")
    if len(set(entries)) != declared:
        raise ValueError(f"{path}: {kind} {k} lists an index more than once")
    for x in entries:
        if not 1 <= x <= limit:
            raise ValueError(f"{path}: index {x} out of range in {kind} {k}")
    return sorted(entries)


def read_alist(path: str | Path) -> BinaryMatrix:
    """Parse an alist file into a binary matrix; checks the header against
    both index sections, cross-checks the sections and ignores zero padding."""
    tokens_by_line = []
    for number, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        try:
            tokens = [int(x) for x in line.split()]
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
        if tokens:
            tokens_by_line.append(tokens)
    if len(tokens_by_line) < 4:
        raise ValueError(f"{path}: truncated alist header")
    if len(tokens_by_line[0]) != 2:
        raise ValueError(f"{path}: the first line must hold n and m, "
                         f"got {len(tokens_by_line[0])} values")
    n, m = tokens_by_line[0]
    col_w = tokens_by_line[2]
    row_w = tokens_by_line[3]
    if len(col_w) != n or len(row_w) != m:
        raise ValueError(f"{path}: weight lines do not match declared dimensions")
    maxima = [max(col_w, default=0), max(row_w, default=0)]
    if tokens_by_line[1] != maxima:
        raise ValueError(f"{path}: line 2 declares maximum weights {tokens_by_line[1]}, "
                         f"the weight lines give {maxima}")
    if len(tokens_by_line) != 4 + n + m:
        raise ValueError(f"{path}: expected {4 + n + m} lines, got {len(tokens_by_line)}")

    col_lists = [_index_list(path, "column", j, tokens_by_line[4 + j], col_w[j], m)
                 for j in range(n)]
    row_lists = [_index_list(path, "row", i, tokens_by_line[4 + n + i], row_w[i], n)
                 for i in range(m)]
    h = BinaryMatrix(np.fromiter(chain.from_iterable(col_lists), dtype=np.int64) - 1,
                     np.repeat(np.arange(n), col_w), (m, n))
    _, cols = h.nonzero()
    for i, (got, listed) in enumerate(zip(np.split(cols + 1, np.cumsum(h.row_weights())[:-1]),
                                          row_lists)):
        if got.tolist() != listed:
            raise ValueError(f"{path}: row section for row {i} disagrees with column section")
    return h
