"""Axiom checking, strong-regularity verification and closed-form spectra
for point-block incidence structures.

The point graph joins two points iff they share a block; for a structure
satisfying the pairwise axiom, M M^T = A + (t+1)I.  Strong regularity is
scanned on the rows of A and A^2 that ``IncidenceStructure.point_rows``
gives: point 0's alone under a certified group, else all of them, pass or
fail.  The tests cross-check both paths against the dense oracle.

The alpha set comes from one histogram (``IncidenceStructure.census``):
bin c counts the (point, block) pairs, the point off the block, with c of
the block's points joined to the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import IncidenceStructure


class AxiomViolation(ValueError):
    """An incidence-structure axiom failed; carries the smallest witness."""

    def __init__(self, axiom: str, witness: tuple, message: str):
        super().__init__(f"axiom ({axiom}) violated: {message} (witness {witness})")
        self.axiom = axiom
        self.witness = witness


class DegenerateStructure(ValueError):
    """Structure has no usable point graph (edgeless, complete, or mu = 0)."""


@dataclass(frozen=True)
class SrpgParams:
    """What the axioms determine: s, t, the alpha set, v and n.  Strong
    regularity adds lambda and mu, passed to the functions that use them."""

    s: int
    t: int
    alphas: tuple[int, ...]
    v: int
    n: int

    @property
    def grade(self) -> int:
        return len(self.alphas)


@dataclass(frozen=True)
class SrgSpectrum:
    v: int
    k: int
    lambda_: int
    mu: int
    delta: int
    sqrt_delta: int
    u1: int
    u2: int
    f1: int
    f2: int
    theta0: int
    theta1: int
    theta2: int


def check_gpg_axioms(ic: IncidenceStructure) -> SrpgParams:
    """Verify axioms (i)-(iii) and compute the realized alpha-set.

    Raises :class:`AxiomViolation` with the smallest-index witness on the
    first failed axiom.  The alpha scan realizes axioms (iv)-(v): the block
    census, run once axiom (ii) holds, admits every observed count, and
    every member of the returned set has a witnessing (point, block) pair.
    """
    m = ic.matrix
    v, n = m.nrows, m.cols

    if (pair := ic.four_cycle) is not None:
        raise AxiomViolation("i", pair[0], f"points share {pair[1]} blocks")

    col_w = m.column_weights()
    if (differ := col_w != col_w[0]).any():
        j = int(np.argmax(differ))
        raise AxiomViolation("ii", (j,),
                             f"block sizes differ: {int(col_w[0])} vs {int(col_w[j])}")
    if col_w[0] == 0:
        raise AxiomViolation("ii", (0,), "the blocks hold no points")
    s = int(col_w[0]) - 1

    row_w = m.row_weights()
    if (differ := row_w != row_w[0]).any():
        i = int(np.argmax(differ))
        raise AxiomViolation("iii", (i,),
                             f"point degrees differ: {int(row_w[0])} vs {int(row_w[i])}")
    t = int(row_w[0]) - 1

    alphas = tuple(np.flatnonzero(ic.census).tolist())
    return SrpgParams(s=s, t=t, alphas=alphas, v=v, n=n)


def check_strongly_regular(ic: IncidenceStructure) -> tuple[int, int, int, int]:
    """Verify A^2 = kI + lambda A + mu (J - I - A) entrywise.

    Returns (v, k, lambda, mu); raises :class:`DegenerateStructure` for
    edgeless or complete graphs and :class:`AxiomViolation`-style
    ValueError with a witness pair when lambda or mu is not constant.
    The scan runs on ``ic.point_rows()``: under a certified group point 0's
    rows alone.  The group maps every pair to one in row 0, which comes
    first in row-major order, so both give the same message and witness.
    """
    a, a2 = ic.point_rows()
    v = a.shape[1]
    degrees = a.sum(axis=1)
    k = int(degrees[0])
    if not (degrees == k).all():
        i = int(np.argwhere(degrees != k)[0][0])
        raise ValueError(f"point graph is not regular: deg(0)={k}, deg({i})={int(degrees[i])}")
    if k == 0:
        raise DegenerateStructure("point graph has no edges")
    if k == v - 1:
        raise DegenerateStructure("point graph is complete")

    nonadj_mask = ~a
    np.fill_diagonal(nonadj_mask, False)  # pair (i, i) of each row i: (0, 0) in point 0's row
    return v, k, _constant_on(a2, a, "lambda"), _constant_on(a2, nonadj_mask, "mu")


def _constant_on(a2: np.ndarray, mask: np.ndarray, name: str) -> int:
    """The value of a2 on the pairs of mask; raises with the first pair, in
    row-major order, that differs from the first pair's value."""
    value = int(a2.flat[np.argmax(mask)])
    bad = (a2 != value) & mask
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise ValueError(f"{name} not constant: pair {(int(i), int(j))} "
                         f"has {int(a2[i, j])}, expected {value}")
    return value


def spectrum(v: int, k: int, lambda_: int, mu: int, s: int, t: int) -> SrgSpectrum:
    """Closed-form eigenvalues/multiplicities of A and the shifted Gram
    eigenvalues theta_i = u_i + (t+1), theta_0 = (s+1)(t+1)."""
    if mu <= 0:
        raise DegenerateStructure("mu = 0: the point graph is a disjoint union of cliques, "
                                  "its complement connected; the closed form needs mu > 0")
    delta = (lambda_ - mu) ** 2 + 4 * (k - mu)
    r = math.isqrt(delta)
    if r * r != delta:
        raise ValueError(f"delta = {delta} is not a perfect square (conference-graph case; "
                         "multiplicities would be irrational)")
    u1 = (lambda_ - mu + r) // 2
    u2 = (lambda_ - mu - r) // 2
    num = (v - 1) * (mu - lambda_) - 2 * k
    if r == 0 or num % r != 0 or ((v - 1) + num // r) % 2 != 0:
        raise ValueError("multiplicities are not integral for these parameters")
    f1 = ((v - 1) + num // r) // 2
    f2 = ((v - 1) - num // r) // 2
    if f1 < 0 or f2 < 0:
        raise ValueError(f"negative multiplicity: f1={f1}, f2={f2}")
    spec = SrgSpectrum(
        v=v, k=k, lambda_=lambda_, mu=mu, delta=delta, sqrt_delta=r,
        u1=u1, u2=u2, f1=f1, f2=f2,
        theta0=(s + 1) * (t + 1), theta1=u1 + t + 1, theta2=u2 + t + 1,
    )
    assert spec.u1 + spec.u2 == lambda_ - mu
    assert spec.u1 * spec.u2 == mu - k
    assert spec.f1 + spec.f2 == v - 1
    assert k + spec.f1 * spec.u1 + spec.f2 * spec.u2 == 0
    return spec


@dataclass(frozen=True)
class FeasibilityReport:
    conditions: tuple[tuple[str, bool, str], ...]

    @property
    def all_ok(self) -> bool:
        return all(ok for _, ok, _ in self.conditions)


def feasibility_check(v: int, k: int, lambda_: int, mu: int, s: int, t: int) -> FeasibilityReport:
    """Divisibility and multiplicity-integrality conditions on parameters."""
    conds = []
    if mu <= 0:
        conds.append(("mu-positive", False, "mu = 0"))
    else:
        div1 = k * (k - lambda_ - 1) % mu == 0
        conds.append(("mu-divides-k(k-lambda-1)", div1,
                      f"{mu} | {k * (k - lambda_ - 1)}"))
    div2 = v * (t + 1) % (s + 1) == 0
    conds.append(("s+1-divides-v(t+1)", div2, f"{s + 1} | {v * (t + 1)}"))
    try:
        spec = spectrum(v, k, lambda_, mu, s, t)
        conds.append(("multiplicities-integral", True, f"f1={spec.f1}, f2={spec.f2}"))
    except (ValueError, DegenerateStructure) as exc:
        conds.append(("multiplicities-integral", False, str(exc)))
    return FeasibilityReport(tuple(conds))
