"""The two incidence structures built from quadrics.  Each matrix is
filled in closed form: one formula, evaluated over whole arrays of field
codes, gives the index arrays of its ones.

Construction 1 ("conic"): points are the (q-1)^2 points (1,x,y) of PG(2,q)
with x,y nonzero; blocks are the conics through the three fundamental
points e1,e2,e3, parametrized by nonzero pairs (a,b) via the symmetric
matrix [[0,a,b],[a,0,1],[b,1,0]].  (1,x,y) lies on conic (a,b) iff
ax + by + xy = 0, so block (a,b) holds the point y = -ax/(b+x) for each
nonzero x other than -b.  Both row and column weights equal q-2, so at
q=3 the point graph is edgeless and the structure is tagged degenerate.

Construction 2 ("hyperbolic"): points are the q^4 lines (N I2) of PG(3,q)
skew to the fixed line (I2 0), indexed by the 2x2 matrix N; blocks are the
hyperbolic quadrics [[0,B],[B^T,C]] through the fixed line, with B
invertible and C symmetric, taken up to scalar: the first nonzero entry of
B is 1, which picks one matrix per class.  A line (N I2) lies in a
block iff B^T N^T + N B + C = 0, i.e. iff C = -(NB + (NB)^T).  So each
point lies on exactly one block per canonical B, and its row of the
matrix is that C for each of the q(q^2-1) canonical B.  Row x of N gives
row x B of NB, so c00 = -2 (NB)_00 depends on N's first row alone, c11 =
-2 (NB)_11 on its second, and c01 = -((NB)_01 + (NB)_10) on one entry
from each: the build tables x B for the q^2 rows x and then reads every
(first row, second row, B) once, already in row-major order.

All orderings are lexicographic on the label code tuples, so the emitted
matrices are bit-for-bit reproducible.  The builds emit index arrays only;
`conic_labels` and `hyperbolic_labels` form the labels, when asked.

A group acts regularly on each structure's points, mapping blocks to
blocks: the scalings (x, y) -> (αx, βy), taking conic (a, b) to (aβ, bα),
and the translations of N's digits, whose cosets are the hyperbolic blocks.
`IncidenceStructure.translation` and `scaling` certify either exactly from
the matrix (`scaling` reads the modulus off the blocks), so a build and its
alist take one path, and only when the group gives both GF(2) ranks too.
`base_point` then answers every count of the analysis from point 0 and
carries the ranks, from which `gram_rank` and `sim.LdpcCode.from_structure`
take theirs for `analyze` and `simulate` alike, eliminating no matrix;
without it `census`, `gram_rank` and `point_rows` read the dense A.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fields import MAX_Q, Field, field_name, prime_power
from .gf2 import BinaryMatrix, character_ranks, folds_to_unit, rank2


class ConicLabel(NamedTuple):
    a: int
    b: int


class HyperbolicLabel(NamedTuple):
    B: tuple[int, int, int, int]  # row-major 2x2, invertible
    C: tuple[int, int, int, int]  # row-major 2x2, symmetric


_CENSUS_CELLS = 1 << 19  # (block, point) cells per census chunk
_CERTIFY_CELLS = 1 << 20  # (block, point) cells per certification chunk


class BasePoint(NamedTuple):
    """A certified group that acts regularly on the points and maps blocks
    to blocks: every count of the analysis is v times that of point 0."""

    ranks: tuple[int, int]   # (rank_2 M, rank_2 M M^T), from the group
    through: np.ndarray      # r x w: the blocks through point 0, ascending
    joined: np.ndarray       # bool, per point: joined to point 0
    base_counts: np.ndarray  # per block B, |B ∩ N(0)|: its points joined to point 0


def _digit_sub(p: int, e: int):
    """x - y digit by digit mod p, on indices of e >= 2 base-p digits: one
    table of differences for each half of the digits."""
    low, tables = p ** (e // 2), []
    for h in (e // 2, e - e // 2):
        place = p ** np.arange(h)
        digits = np.arange(p ** h)[:, None] // place % p
        tables.append((digits[:, None] - digits[None, :]) % p @ place)
    lo, hi = tables
    return lambda x, y: hi[x // low, y // low] * low + lo[x % low, y % low]


@dataclass
class IncidenceStructure:
    """Point-block incidence structure: its binary incidence matrix (rows
    are points, columns blocks), what built it, and the point graph and
    block census derived from the matrix, each formed once."""

    family: str
    field: Field | None
    matrix: BinaryMatrix

    @property
    def v(self) -> int:
        return self.matrix.nrows

    @property
    def n(self) -> int:
        return self.matrix.cols

    @property
    def degenerate(self) -> bool:
        """No block holds two points, i.e. the point graph is edgeless."""
        return bool(self.matrix.column_weights().max() <= 1)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """The bool point graph, joining two points iff they share a block:
        each point of a block is paired with the one d places later, for every
        offset d, in both orientations.  Formed only when no group is
        certified, and charged first 11 v^2 bytes for the dense analysis (A,
        the float32 A and A^2, two masks)."""
        v, m = self.v, self.matrix
        refuse_peak(11 * v * v, f"the analysis of {v:,} points")
        pts, cols = m.by_column()  # the points of block 0, then of block 1, ...; ascending in each
        adj = np.zeros((v, v), dtype=bool)
        for d in range(1, int(m.column_weights().max())):
            same = cols[d:] == cols[:-d]
            i, j = pts[:-d][same], pts[d:][same]
            adj[i, j] = adj[j, i] = True
        return adj

    @cached_property
    def four_cycle(self) -> tuple[tuple[int, int], int] | None:
        """The first pair of points (row-major) sharing two or more blocks,
        with how many, or None (under a certified group, always): a Tanner
        4-cycle.  A point's blocks list sum(|b| - 1) neighbours with repeats,
        more than its row of A holds iff some point shares two of them."""
        if self.base_point is not None:
            return None
        m = self.matrix
        rows, on = m.nonzero()
        listed = np.bincount(rows, weights=m.column_weights()[on] - 1, minlength=self.v)
        excess = np.flatnonzero(listed > self.adjacency.sum(axis=1))
        if excess.size == 0:
            return None
        p = int(excess[0])
        pts, cols = m.by_column()
        shared = np.bincount(pts[np.isin(cols, on[rows == p])], minlength=self.v)
        shared[p] = 0
        q = int(np.argmax(shared > 1))
        return (p, q), int(shared[q])

    @cached_property
    def gram_rank(self) -> int:
        """rank_2 M M^T: the certified group's, else eliminated from A with a
        one on the diagonal of each point of odd degree, which is M M^T mod 2
        when no two points share two blocks (axiom (i))."""
        if (bp := self.base_point) is not None:
            return bp.ranks[1]
        parity = np.packbits(self.adjacency, axis=1)
        i = np.flatnonzero(self.matrix.row_weights() % 2)
        parity[i, i >> 3] |= (0x80 >> (i & 7)).astype(np.uint8)
        return rank2(parity)

    def point_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows of A (bool) and of A^2: under a certified group point 0's
        alone, which the group maps to every other row, else all of them, A^2
        in float32 (exact: no entry exceeds v, far below 2^24 on the dense
        path).  Not cached, so A^2 is freed once it has been read."""
        if (bp := self.base_point) is not None:
            # the |B ∩ N(0)| of the r blocks B on y sum to A^2[0, y], plus r if
            # y itself is in N(0)
            r, a = len(bp.through), bp.joined[None]
            return a, bp.base_counts[self.matrix.nonzero()[1]].reshape(self.v, r).sum(axis=1) - r * a
        a = self.adjacency.astype(np.float32)
        return self.adjacency, a @ a

    @property
    def base_point(self) -> BasePoint | None:
        """The certified translations, else the certified scalings, or None.
        Its blocks through point 0 meet only there: no 4-cycle."""
        return tr if (tr := self.translation) is not None else self.scaling

    @cached_property
    def _base(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """(blocks, then BasePoint's through, joined and base_counts) if the
        blocks all have one size w >= 2 and those through point 0 meet only
        in 0, else None; blocks[b] holds block b's points, ascending."""
        m, (rows, cols) = self.matrix, self.matrix.nonzero()
        w = int(m.column_weights()[0])
        if w < 2 or (m.column_weights() != w).any():
            return None
        blocks = m.by_column()[0].reshape(self.n, w)
        through = blocks[cols[:np.searchsorted(rows, 1)]]
        if not len(through) or np.bincount(through[:, 1:].ravel()).max() > 1:
            return None
        joined = np.zeros(self.v, dtype=bool)
        joined[through[:, 1:]] = True
        return blocks, through, joined, np.count_nonzero(joined[blocks], axis=1)

    @cached_property
    def translation(self) -> BasePoint | None:
        """The structure as a translation structure, or None.  It is one when
        v = p^e for an odd prime p and e >= 2, and the blocks are the cosets
        of subgroups W_1..W_r under the digit-by-digit addition mod p of the
        point indices (e base-p digits), each listed once.  The tests are
        exact, in O(n w), streamed over chunks of blocks: the blocks through
        point 0, the W_i, meet only in 0 and are closed under subtraction;
        every block P, ascending, has P - P[0] in the W_i holding P[1] - P[0];
        the pairs (i, P[0]) are distinct and number n = r v / w.  Both ranks
        are then a character count (`gf2.character_ranks`)."""
        v, (p, e) = self.v, prime_power(self.v)
        if p == 2 or e < 2 or self._base is None:
            return None
        blocks, subgroups = self._base[:2]
        r, w = subgroups.shape
        if self.n * w != r * v:
            return None
        owner, cls = np.full(v, -1), np.arange(r)[:, None]
        owner[subgroups[:, 1:]] = cls
        sub = _digit_sub(p, e)
        for d in range(1, w):  # x - y for every ordered pair of distinct points of each W_i
            if (owner[sub(subgroups, np.roll(subgroups, d, axis=1))] != cls).any():
                return None
        first, step = [], max(1, _CERTIFY_CELLS // w)
        for lo in range(0, self.n, step):  # the int64 temporaries a chunk at a time
            chunk = blocks[lo:lo + step]
            cls = owner[sub(chunk[:, 1:], chunk[:, :1])]
            if ((cls != cls[:, :1]) | (cls < 0)).any():
                return None
            first.append(cls[:, 0])
        keys = np.sort(np.concatenate(first) * v + blocks[:, 0])
        if (keys[1:] == keys[:-1]).any():
            return None
        return BasePoint(character_ranks(p, e, subgroups), *self._base[1:])

    @cached_property
    def scaling(self) -> BasePoint | None:
        """The structure as one on the conic points (1, x, y) of GF(q), q =
        sqrt(v) + 1 = p^k (p odd), point (x-1)(q-1) + (y-1) by nonzero codes,
        whose blocks the scalings (x, y) -> (ax, by) permute, or None.  GF(q) is
        read off the blocks: on codes, x -> Xx is x // p - x_(k-1) mu for the
        monic modulus mu, and the first mu (mu_0 != 0, lex order) whose (x, y)
        -> (Xx, y) maps the first block through point 0 to a block is taken, if
        irreducible.  Then, exactly: the blocks have one size w >= 2; no two
        start with the same two points, which so name each block; (x, y) -> (gx,
        y) and (x, y) -> (x, gy), g of order q - 1, map each block, sorted, to
        the block its first two points name; the blocks through point 0 meet
        only in 0.  So the scalings act regularly; the Gram parity A + rI, a
        group matrix, must be a unit (`gf2.folds_to_unit`); both ranks are v."""
        v, q1 = self.v, math.isqrt(self.v)
        p, k = prime_power(q1 + 1)  # q = p^k, p odd, in `fields.check_field`'s range
        if q1 * q1 != v or p == 2 or not k or q1 >= MAX_Q or self._base is None:
            return None
        blocks, through, joined = self._base[:3]
        keys, order = np.unique(blocks[:, 0] * v + blocks[:, 1], return_index=True)
        if len(keys) < self.n:
            return None
        def named(image: np.ndarray) -> np.ndarray:  # per sorted image (last axis): a block?
            at = np.minimum(np.searchsorted(keys, image[..., 0] * v + image[..., 1]), len(keys) - 1)
            return (blocks[order[at]] == image).all(axis=-1)
        place = p ** np.arange(k - 1, -1, -1)
        x = np.arange(1, q1 + 1)[:, None]  # the nonzero codes, digits x // place % p
        mus = x[place[0] - 1:] // place % p  # the candidates' low coefficients, mu_0 != 0
        times = (x // p // place - x % p * mus[:, None]) % p @ place - 1  # the index of Xx
        first = through[0]
        kept = np.flatnonzero(named(np.sort(times[:, first // q1] * q1 + first % q1, axis=1)))
        try:
            f = Field(p, k, [*mus[kept[0]], 1])
        except (IndexError, ValueError):  # no candidate kept, or a reducible one
            return None
        mul = f.mul_table.tolist()  # g has order q - 1 iff g^1..g^(q-1) are distinct
        g = next(g for g in range(1, q1 + 1) if len(set(itertools.accumulate(
            [g] * q1, lambda x, _: mul[x][g]))) == q1)
        g = f.mul_table[g, 1:] - 1  # the index of g x, by the index of x
        points = np.arange(v).reshape(q1, q1)
        for perm in (points[g].ravel(), points[:, g].ravel()):  # (gx, y) and (x, gy)
            if not named(np.sort(perm[blocks], axis=1)).all():
                return None
        logs = np.fromiter(itertools.accumulate(range(q1 - 1), lambda c, _: g[c], initial=0), int)
        row = joined[logs[:, None] * q1 + logs]
        row[0, 0] = len(through) % 2
        return BasePoint((v, v), *self._base[1:]) if folds_to_unit(row) else None

    @cached_property
    def census(self) -> np.ndarray:
        """Histogram of the block census off the blocks: bin c counts the
        (point, block) pairs, the point off the block, with c of the block's
        points joined to the point, for c = 0..w.  Without a certified group,
        counts[b, p] sums the adjacency rows of block b's points, a chunk of
        blocks at a time in the narrowest unsigned dtype that holds w, and
        each chunk is read in its own dtype, no widened copy: once for its
        minimum, then once per count c from there up (`counts == c`) until
        the bins hold all its cells, at most w + 1 passes.  A point on a
        block counts the block's other w - 1 points: those n w pairs are
        taken out at the end."""
        weights = self.matrix.column_weights()
        w = int(weights[0])
        if (weights != w).any():
            raise ValueError("the block census needs blocks of one size")
        if (bp := self.base_point) is not None:
            hist = self.v * np.bincount(bp.base_counts, minlength=w + 1)
        else:
            hist = np.zeros(w + 1, dtype=np.intp)
            blocks = self.matrix.by_column()[0].reshape(self.n, w)
            a = self.adjacency.view(np.uint8)
            step = max(1, _CENSUS_CELLS // self.v)
            for lo in range(0, self.n, step):
                chunk = blocks[lo:lo + step]
                counts = np.zeros((len(chunk), self.v), dtype=np.min_scalar_type(w))
                for j in range(w):
                    counts += a[chunk[:, j]]
                left, c = counts.size, int(counts.min())
                while left:
                    found = np.count_nonzero(counts == c)
                    hist[c] += found
                    left -= found
                    c += 1
        hist[w - 1] -= self.n * w
        return hist

    def __repr__(self) -> str:
        return f"IncidenceStructure({self.family}, {self.v}x{self.n})"


def refuse_peak(peak: int, what: str) -> None:
    """Raise ValueError if `what` would peak at `peak` bytes, a closed form
    known before its first large array, above the host's physical memory."""
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if peak > physical:
        raise ValueError(f"{what} needs about {peak / 2**30:,.1f} GiB, more than the "
                         f"{physical / 2**30:,.1f} GiB of physical memory")


def refuse_oversize(family: str, p: int, k: int) -> None:
    """Raise ValueError if the build of `family` over GF(p^k) would peak
    above the host's physical memory.  The peak is closed form in q alone,
    about 81 B per (a, b, x) cell of the conic build and 26 B per (N, B)
    pair of the hyperbolic build, so it is known before any field table."""
    q = p ** k
    refuse_peak(81 * (q - 1) ** 3 if family == "conic" else 26 * q ** 5 * (q * q - 1),
                f"the {family} build over {field_name(p, k)}")


def build_conic_structure(field: Field) -> IncidenceStructure:
    """Incidence of type-I points with the conics through e1,e2,e3.

    Nonzero element codes are 1..q-1, so (1,x,y) is row (x-1)(q-1) + (y-1)
    and conic (a,b) is column (a-1)(q-1) + (b-1).
    """
    f = field
    q1 = f.q - 1
    refuse_oversize("conic", f.p, f.k)
    a, b, x = np.indices((q1, q1, q1)) + 1
    s = f.add_table[b, x]
    on = s != 0
    y = f.neg_table[f.mul_table[f.mul_table[a, x], f.inv_table[s]]]
    m = BinaryMatrix((x[on] - 1) * q1 + y[on] - 1, (a[on] - 1) * q1 + b[on] - 1,
                     (q1 * q1, q1 * q1))
    return IncidenceStructure("conic", field, m)


def conic_labels(field: Field) -> tuple[list[tuple[int, int, int]], list[ConicLabel]]:
    """The points (1,x,y) and the conics (a,b) of the conic structure, in
    row and column order."""
    nonzero = field.elements(nonzero_only=True)
    return ([(field.one, x, y) for x in nonzero for y in nonzero],
            [ConicLabel(a, b) for a in nonzero for b in nonzero])


def _canonical_b(field: Field) -> np.ndarray:
    """The q(q^2-1) invertible B whose first nonzero entry is 1, in lex
    order, as the columns of a 4 x q(q^2-1) array of row-major entries."""
    f, q = field, field.q
    b = np.indices((q, q, q, q)).reshape(4, -1)
    lead = b[(b != 0).argmax(axis=0), np.arange(b.shape[1])]  # first nonzero entry, 0 for B = 0
    det = f.add_table[f.mul_table[b[0], b[3]], f.neg_table[f.mul_table[b[1], b[2]]]]
    return b[:, (lead == f.one) & (det != 0)]


def hyperbolic_labels(field: Field) -> tuple[list[tuple[int, ...]], list[HyperbolicLabel]]:
    """The lines N and the q^4(q^2-1) scalar classes of blocks (B, C) of the
    hyperbolic structure, in row and column order: N in lex order; each
    canonical B in lex order times each (c00, c01, c11) in lex order."""
    q = field.q
    canonical = map(tuple, _canonical_b(field).T.tolist())
    cs = [(c00, c01, c01, c11) for c00, c01, c11 in itertools.product(range(q), repeat=3)]
    return (list(itertools.product(range(q), repeat=4)),
            list(map(HyperbolicLabel._make, itertools.product(canonical, cs))))


def build_hyperbolic_structure(field: Field) -> IncidenceStructure:
    """Incidence of the lines skew to (I2 0) with the blocks through it.

    Line N lies on the block (B, -(NB + (NB)^T)) of every canonical B: with
    B of rank r among the canonical B, that is column r q^3 + (c00 q + c01) q
    + c11.  With x.B0 and x.B1 (B's columns) tabled for the q^2 rows x and
    every B, c01 is one gather of -(a + b) over (first row, second row, B),
    c00 and c11 two broadcast adds.  The rows ascend with N and, within a
    row, the columns with r, so the ones come out in row-major order.
    """
    f = field
    q = f.q
    refuse_oversize("hyperbolic", f.p, f.k)
    add, mul, neg = f.add_table, f.mul_table, f.neg_table
    b = _canonical_b(f)
    r = b.shape[1]
    x = np.indices((q, q)).reshape(2, -1, 1)  # the q^2 rows (x0, x1) in lex order
    xb0, xb1 = (add[mul[x[0], b[c]], mul[x[1], b[c + 2]]] for c in (0, 1))
    cols = (neg[add] * q)[xb1[:, None], xb0[None]]  # c01 q: (NB)_01 from row 0, (NB)_10 from row 1
    cols += (np.arange(r) * q ** 3 + neg[add[xb0, xb0]] * q * q)[:, None]  # r q^3 + c00 q^2
    cols += neg[add[xb1, xb1]]  # + c11
    rows = np.repeat(np.arange(q ** 4), r)
    m = BinaryMatrix(rows, cols.ravel(), (q ** 4, r * q ** 3))
    return IncidenceStructure("hyperbolic", f, m)
