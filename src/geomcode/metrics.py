"""Tanner-graph code metrics: eigenvalue distance bounds, girth, and the
6-cycle census (closed form cross-checked by enumeration)."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import IncidenceStructure
from .srpg import SrpgParams


@dataclass(frozen=True)
class DistanceBounds:
    bit_oriented: Fraction
    parity_oriented: Fraction
    effective: int
    vacuous: bool


@dataclass(frozen=True)
class CycleReport:
    six_cycle_formula: int
    six_cycle_enumerated: int


def tanner_bounds(n: int, w_col: int, w_row: int, a1: int, a2: int) -> DistanceBounds:
    """Bit- and parity-oriented minimum-distance bounds, as exact rationals.

    a1 is the largest eigenvalue of H H^T (assumed simple), a2 the second
    largest distinct one.  Negative raw values are reported, not hidden:
    the effective bound is max(ceil(bit), ceil(parity), 1) and the vacuous
    flag is set when both raw bounds are <= 1.
    """
    if a1 <= a2:
        raise ValueError(f"need a1 > a2, got a1 = {a1}, a2 = {a2}")
    bit = Fraction(n * (2 * w_col - a2), a1 - a2)
    parity = Fraction(2 * n * (2 * w_col + w_row - 2 - a2), w_row * (a1 - a2))
    effective = max(math.ceil(bit), math.ceil(parity), 1)
    return DistanceBounds(bit, parity, effective, vacuous=bit <= 1 and parity <= 1)


def tanner_girth(ic: IncidenceStructure) -> float:
    """Length of the shortest cycle in the Tanner graph of ic.matrix
    (math.inf for a forest).

    A 4-cycle exists iff two rows share two columns (ic.four_cycle), and
    then the girth is 4.  With columns of one weight it is 6 iff
    the pair-completion count, read off the block census, is positive.  The
    remaining inputs have girth 6 or more if their column weights differ,
    8 or more otherwise; a breadth-first search from every variable node,
    exact because every cycle alternates between the two sides, stops at
    the first cycle of that length.
    """
    if ic.four_cycle is not None:
        return 4
    weights = ic.matrix.column_weights()
    floor = 8 if (weights == weights[0]).all() else 6
    if floor == 8 and _pair_completions(ic) > 0:
        return 6
    h = ic.matrix
    n, m = h.cols, h.nrows
    # node ids: variables 0..n-1, checks n..n+m-1
    adj: list[list[int]] = [[] for _ in range(n + m)]
    for i, j in zip(*(x.tolist() for x in h.nonzero())):
        adj[j].append(n + i)
        adj[n + i].append(j)

    best = math.inf
    parent = [-1] * (n + m)
    for src in range(n):
        if not adj[src]:
            continue
        dist = [-1] * (n + m)
        dist[src] = 0
        parent[src] = -1
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] + 1 >= best:
                continue
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif w != parent[u]:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
        if best == floor:
            return best
    return best


def _pair_completions(ic: IncidenceStructure) -> int:
    """The common neighbours outside B of every point pair {P1,P2} of every
    block B, summed.  With no two points on two common blocks (axiom (i))
    each completion closes a unique hexagon through two further blocks, and
    a hexagon holds three point pairs, so the sum is three times the number
    of 6-cycles.  A point off B joined to c points of B completes C(c, 2)
    of its pairs: the sum is C(c, 2) over the bins of ic.census."""
    hist = ic.census
    c = np.arange(hist.size)
    return int(hist @ (c * (c - 1) // 2))


def six_cycles(ic: IncidenceStructure, params: SrpgParams, lambda_: int) -> CycleReport:
    """6-cycle count: n*s*(s+1)*(lambda-s+1)/6 against direct enumeration,
    the pair-completion count of the block census divided by 3, which does
    not read the A^2 that gave lambda.  `params` comes from
    check_gpg_axioms, so axioms (i)-(iii) hold."""
    s, n = params.s, params.n
    formula_num = n * s * (s + 1) * (lambda_ - s + 1)
    if formula_num % 6 != 0:
        raise ValueError(f"formula value {formula_num}/6 is not an integer")
    formula = formula_num // 6

    total = _pair_completions(ic)
    if total % 3 != 0:
        raise ValueError(f"pair-completion total {total} is not divisible by 3")
    return CycleReport(six_cycle_formula=formula, six_cycle_enumerated=total // 3)
