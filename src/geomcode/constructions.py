"""The two incidence structures built from quadrics.

Construction 1 ("conic"): points are the (q-1)^2 points (1,x,y) of PG(2,q)
with x,y nonzero; blocks are the conics through the three fundamental
points e1,e2,e3, parametrized by nonzero pairs (a,b) via the symmetric
matrix [[0,a,b],[a,0,1],[b,1,0]].  Incidence is point-on-conic.  Both row
and column weights equal q-2, so at q=3 the point graph is edgeless and
the structure is tagged degenerate.

Construction 2 ("hyperbolic"): points are the q^4 lines (N I2) of PG(3,q)
skew to the fixed line (I2 0), indexed by the 2x2 matrix N; blocks are the
hyperbolic quadrics [[0,B],[B^T,C]] through the fixed line, with B
invertible and C symmetric, taken up to scalar.  A line (N I2) lies in a
block iff B^T N^T + N B + C = 0; per block the incident lines are exactly
N = (W - C/2) B^{-1} with W ranging over the q alternating matrices, which
is how the matrix is filled in.  The conic matrix is filled the same way,
one solved point per x on each block.

All orderings are lexicographic on the label code tuples, so the emitted
matrices are bit-for-bit reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .fields import Field
from .gf2 import BinaryMatrix, gram_counts
from .projective import ProjectivePoint, Quadric


class ConicLabel(NamedTuple):
    a: int
    b: int


class HyperbolicLabel(NamedTuple):
    B: tuple[int, int, int, int]  # row-major 2x2, invertible
    C: tuple[int, int, int, int]  # row-major 2x2, symmetric


@dataclass
class IncidenceStructure:
    """Point-block incidence structure with its binary incidence matrix."""

    family: str
    field: Field | None
    points: list
    blocks: list
    matrix: BinaryMatrix
    degenerate: bool = False
    params: object | None = None  # SrpgParams once verified

    @property
    def v(self) -> int:
        return len(self.points)

    @property
    def n(self) -> int:
        return len(self.blocks)

    @cached_property
    def gram(self) -> np.ndarray:
        """Integer M M^T (v x v), formed once per structure."""
        return gram_counts(self.matrix)

    @cached_property
    def adjacency(self) -> np.ndarray:
        """0/1 point graph: the off-diagonal clamp of M M^T."""
        a = (self.gram > 0).astype(np.int8)
        np.fill_diagonal(a, 0)
        return a

    def __repr__(self) -> str:
        return f"IncidenceStructure({self.family}, {self.v}x{self.n})"


def conic_quadric(field: Field, a: int, b: int) -> Quadric:
    """The conic through e1,e2,e3 with parameters (a,b), a,b nonzero.

    build_conic_structure solves this conic in closed form; the quadric is
    the independent check the tests compare against.
    """
    if a == 0 or b == 0:
        raise ValueError("conic parameters must be nonzero")
    one = field.one
    return Quadric(field, [[0, a, b], [a, 0, one], [b, one, 0]])


def build_conic_structure(field: Field) -> IncidenceStructure:
    """Incidence of type-I points with the conics through e1,e2,e3.

    (1,x,y) lies on conic (a,b) iff ax + by + xy = 0, so each block holds
    one point y = -ax/(b+x) for every nonzero x other than -b.  Nonzero
    element codes are 1..q-1, so (1,x,y) is row (x-1)(q-1) + (y-1).
    """
    f = field
    one = f.one
    nonzero = f.elements(nonzero_only=True)
    points = [ProjectivePoint(f, (one, x, y)) for x in nonzero for y in nonzero]
    blocks = [ConicLabel(a, b) for a in nonzero for b in nonzero]
    dense = np.zeros((len(points), len(blocks)), dtype=np.uint8)
    for j, (a, b) in enumerate(blocks):
        for x in nonzero:
            if x != f.neg(b):
                y = f.neg(f.mul(f.mul(a, x), f.inv(f.add(b, x))))
                dense[(x - 1) * (f.q - 1) + (y - 1), j] = 1
    m = BinaryMatrix.from_numpy(dense)
    degenerate = max(m.column_weights()) <= 1
    return IncidenceStructure("conic", field, points, blocks, m, degenerate=degenerate)


def _det2(f: Field, b: tuple[int, int, int, int]) -> int:
    return f.sub(f.mul(b[0], b[3]), f.mul(b[1], b[2]))


def _scale4(f: Field, s: int, m: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    return (f.mul(s, m[0]), f.mul(s, m[1]), f.mul(s, m[2]), f.mul(s, m[3]))


def _mul2(f: Field, a: tuple[int, int, int, int], b: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    return (
        f.add(f.mul(a[0], b[0]), f.mul(a[1], b[2])),
        f.add(f.mul(a[0], b[1]), f.mul(a[1], b[3])),
        f.add(f.mul(a[2], b[0]), f.mul(a[3], b[2])),
        f.add(f.mul(a[2], b[1]), f.mul(a[3], b[3])),
    )


def _inv2(f: Field, b: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    di = f.inv(_det2(f, b))
    return (f.mul(di, b[3]), f.mul(di, f.neg(b[1])), f.mul(di, f.neg(b[2])), f.mul(di, b[0]))


def canonical_hyperbolic_label(field: Field, b: tuple[int, int, int, int],
                               c: tuple[int, int, int, int]) -> HyperbolicLabel:
    """Representative of the scalar class of (B,C): first nonzero of B is 1."""
    lead = next(x for x in b if x != 0)
    if lead != field.one:
        s = field.inv(lead)
        b, c = _scale4(field, s, b), _scale4(field, s, c)
    return HyperbolicLabel(b, c)


def block_label_dedup(field: Field,
                      raw: Iterable[tuple[tuple[int, int, int, int], tuple[int, int, int, int]]]
                      ) -> list[HyperbolicLabel]:
    """One representative per scalar class, sorted lexicographically."""
    seen = set()
    for b, c in raw:
        if _det2(field, b) == 0:
            raise ValueError(f"B = {b} is singular")
        if c[1] != c[2]:
            raise ValueError(f"C = {c} is not symmetric")
        seen.add(canonical_hyperbolic_label(field, b, c))
    return sorted(seen)


def enumerate_hyperbolic_labels(field: Field) -> list[HyperbolicLabel]:
    """All q^4(q^2-1) scalar classes of blocks (B invertible, C symmetric)."""
    q = field.q
    gl2 = []
    for b00 in range(q):
        for b01 in range(q):
            for b10 in range(q):
                for b11 in range(q):
                    b = (b00, b01, b10, b11)
                    if _det2(field, b) != 0:
                        gl2.append(b)
    raw = []
    for b in gl2:
        for c00 in range(q):
            for c01 in range(q):
                for c11 in range(q):
                    raw.append((b, (c00, c01, c01, c11)))
    return block_label_dedup(field, raw)


def hyperbolic_quadric(field: Field, label: HyperbolicLabel) -> Quadric:
    """The 4x4 quadric matrix [[0,B],[B^T,C]] of a block label."""
    b, c = label
    return Quadric(field, [
        [0, 0, b[0], b[1]],
        [0, 0, b[2], b[3]],
        [b[0], b[2], c[0], c[1]],
        [b[1], b[3], c[2], c[3]],
    ])


def hyperbolic_incidence_holds(field: Field, n: tuple[int, int, int, int],
                               label: HyperbolicLabel) -> bool:
    """Direct test of the containment criterion B^T N^T + N B + C = 0."""
    f = field
    b, c = label
    bt = (b[0], b[2], b[1], b[3])
    nt = (n[0], n[2], n[1], n[3])
    lhs = _mul2(f, bt, nt)
    rhs = _mul2(f, n, b)
    return all(f.add(f.add(x, y), z) == 0 for x, y, z in zip(lhs, rhs, c))


def build_hyperbolic_structure(field: Field) -> IncidenceStructure:
    """Incidence of the lines skew to (I2 0) with the blocks through it."""
    f = field
    q = f.q
    points = [
        (n00, n01, n10, n11)
        for n00 in range(q) for n01 in range(q)
        for n10 in range(q) for n11 in range(q)
    ]
    blocks = enumerate_hyperbolic_labels(f)
    m = BinaryMatrix.zeros(len(points), len(blocks))

    # Incident lines of block (B,C) solve (NB)^T + NB = -C, so NB is
    # -C/2 plus an alternating matrix; q solutions per block.
    neg_half = f.neg(f.inv(f.add(f.one, f.one)))
    for j, (b, c) in enumerate(blocks):
        binv = _inv2(f, b)
        s0 = _scale4(f, neg_half, c)
        for w in range(q):
            s = (s0[0], f.add(s0[1], w), f.sub(s0[2], w), s0[3])
            n = _mul2(f, s, binv)
            idx = ((n[0] * q + n[1]) * q + n[2]) * q + n[3]
            m.set(idx, j)
    return IncidenceStructure("hyperbolic", f, points, blocks, m)
