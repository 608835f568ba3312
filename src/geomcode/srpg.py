"""Axiom checking, strong-regularity verification and closed-form spectra
for point-block incidence structures.

The point graph joins two points iff they share a block.  For a structure
satisfying the pairwise axiom the integer Gram matrix M M^T equals
A + (t+1)I.  Each structure forms M M^T once (``IncidenceStructure.gram``)
and clamps its off-diagonal part to the adjacency matrix
(``IncidenceStructure.adjacency``); the tests cross-check that against the
direct definition.
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


@dataclass
class SrpgParams:
    s: int
    t: int
    alphas: tuple[int, ...]
    v: int
    n: int
    lambda_: int | None = None
    mu: int | None = None

    @property
    def k(self) -> int:
        return self.s * (self.t + 1)

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


def _alpha_count_matrix(a: np.ndarray, m_dense: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """counts[p, b] = number of points of block b adjacent to point p."""
    v, n = m_dense.shape
    a_f = a.astype(np.float64)
    out = np.empty((v, n), dtype=np.int64)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        out[:, lo:hi] = np.rint(a_f @ m_dense[:, lo:hi].astype(np.float64)).astype(np.int64)
    return out


def check_gpg_axioms(ic: IncidenceStructure) -> SrpgParams:
    """Verify axioms (i)-(iii) and compute the realized alpha-set.

    Raises :class:`AxiomViolation` with the smallest-index witness on the
    first failed axiom.  The alpha scan realizes axioms (iv)-(v): every
    observed count is admitted, and every member of the returned set has a
    witnessing (point, block) pair by construction.
    """
    m = ic.matrix
    v, n = m.nrows, m.cols

    off = ic.gram.copy()
    np.fill_diagonal(off, 0)
    if off.max(initial=0) > 1:
        i, j = np.argwhere(off > 1)[0]
        raise AxiomViolation("i", (int(i), int(j)),
                             f"points share {int(off[i, j])} blocks")

    col_w = m.column_weights()
    if min(col_w) != max(col_w):
        j = next(j for j, w in enumerate(col_w) if w != col_w[0])
        raise AxiomViolation("ii", (j,), f"block sizes differ: {col_w[0]} vs {col_w[j]}")
    s = col_w[0] - 1

    row_w = m.row_weights()
    if min(row_w) != max(row_w):
        i = next(i for i, w in enumerate(row_w) if w != row_w[0])
        raise AxiomViolation("iii", (i,), f"point degrees differ: {row_w[0]} vs {row_w[i]}")
    t = row_w[0] - 1

    a = ic.adjacency
    m_dense = m.to_numpy()
    counts = _alpha_count_matrix(a, m_dense)
    alphas = tuple(sorted(int(x) for x in np.unique(counts[m_dense == 0])))
    return SrpgParams(s=s, t=t, alphas=alphas, v=v, n=n)


def check_strongly_regular(ic: IncidenceStructure) -> tuple[int, int, int, int]:
    """Verify A^2 = kI + lambda A + mu (J - I - A) entrywise.

    Returns (v, k, lambda, mu); raises :class:`DegenerateStructure` for
    edgeless or complete graphs and :class:`AxiomViolation`-style
    ValueError with a witness pair when lambda or mu is not constant.
    """
    a = ic.adjacency
    v = a.shape[0]
    degrees = a.sum(axis=1)
    k = int(degrees[0])
    if not (degrees == k).all():
        i = int(np.argwhere(degrees != k)[0][0])
        raise ValueError(f"point graph is not regular: deg(0)={k}, deg({i})={int(degrees[i])}")
    if k == 0:
        raise DegenerateStructure("point graph has no edges")
    if k == v - 1:
        raise DegenerateStructure("point graph is complete")

    a_f = a.astype(np.float64)
    a2 = np.rint(a_f @ a_f).astype(np.int64)

    adj_mask = a == 1
    nonadj_mask = ~adj_mask
    np.fill_diagonal(nonadj_mask, False)

    lam_vals = a2[adj_mask]
    lam = int(lam_vals[0])
    if not (lam_vals == lam).all():
        pairs = np.argwhere(adj_mask)
        bad = pairs[np.argwhere(lam_vals != lam)[0][0]]
        raise ValueError(f"lambda not constant: pair {tuple(int(x) for x in bad)} "
                         f"has {int(a2[bad[0], bad[1]])}, expected {lam}")
    mu_vals = a2[nonadj_mask]
    mu = int(mu_vals[0])
    if not (mu_vals == mu).all():
        pairs = np.argwhere(nonadj_mask)
        bad = pairs[np.argwhere(mu_vals != mu)[0][0]]
        raise ValueError(f"mu not constant: pair {tuple(int(x) for x in bad)} "
                         f"has {int(a2[bad[0], bad[1]])}, expected {mu}")
    if not (np.diagonal(a2) == k).all():
        raise ValueError("diagonal of A^2 does not equal the degree")
    return v, k, lam, mu


def is_connected(a: np.ndarray) -> bool:
    """Breadth-first reachability of the whole point graph from vertex 0."""
    v = a.shape[0]
    seen = np.zeros(v, dtype=bool)
    seen[0] = True
    frontier = np.zeros(v, dtype=bool)
    frontier[0] = True
    while frontier.any():
        reach = (a[frontier].sum(axis=0) > 0) & ~seen
        seen |= reach
        frontier = reach
    return bool(seen.all())


def spectrum(v: int, k: int, lambda_: int, mu: int, s: int, t: int) -> SrgSpectrum:
    """Closed-form eigenvalues/multiplicities of A and the shifted Gram
    eigenvalues theta_i = u_i + (t+1), theta_0 = (s+1)(t+1)."""
    if mu <= 0:
        raise DegenerateStructure("mu = 0: spectrum undefined for a disconnected-complement case")
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


def feasibility_check(params: SrpgParams) -> FeasibilityReport:
    """Divisibility and multiplicity-integrality conditions on parameters."""
    if params.lambda_ is None or params.mu is None:
        raise ValueError("feasibility check needs lambda and mu")
    k, v, lam, mu = params.k, params.v, params.lambda_, params.mu
    s, t = params.s, params.t
    conds = []
    if mu <= 0:
        conds.append(("mu-positive", False, "mu = 0"))
    else:
        div1 = k * (k - lam - 1) % mu == 0
        conds.append(("mu-divides-k(k-lambda-1)", div1,
                      f"{mu} | {k * (k - lam - 1)}"))
    div2 = v * (t + 1) % (s + 1) == 0
    conds.append(("s+1-divides-v(t+1)", div2, f"{s + 1} | {v * (t + 1)}"))
    try:
        spec = spectrum(v, k, lam, mu, s, t)
        conds.append(("multiplicities-integral", True, f"f1={spec.f1}, f2={spec.f2}"))
    except (ValueError, DegenerateStructure) as exc:
        conds.append(("multiplicities-integral", False, str(exc)))
    return FeasibilityReport(tuple(conds))


def alpha_profiles(ic: IncidenceStructure, params: SrpgParams) -> AlphaProfile:
    """Census the block-type profile of every ordered point pair.

    The counting identities are enforced per pair: an adjacent pair must
    satisfy sum(p_i) = t and sum((alpha_i - 1) p_i) + s - 1 = lambda, a
    non-adjacent one sum(l_i) = t + 1 and sum(alpha_i l_i) = mu; a failure
    here raises with the witnessing pair.  Constancy of the profile
    vectors across pairs is reported, not required.
    """
    if params.lambda_ is None or params.mu is None:
        raise ValueError("profile census needs verified lambda and mu")
    m_dense = ic.matrix.to_numpy()
    a = ic.adjacency
    counts = _alpha_count_matrix(a, m_dense)
    alphas = params.alphas
    alpha_index = {al: i for i, al in enumerate(alphas)}
    s, t, lam, mu = params.s, params.t, params.lambda_, params.mu
    v = ic.v
    cols_on = [np.flatnonzero(m_dense[p]) for p in range(v)]

    p_vec: tuple[int, ...] | None = None
    l_vec: tuple[int, ...] | None = None
    p_first = l_first = None
    p_witness = l_witness = None
    for p in range(v):
        blocks_p = cols_on[p]
        for qq in range(v):
            if p == qq:
                continue
            avoid_q = blocks_p[m_dense[qq, blocks_p] == 0]
            hist = [0] * len(alphas)
            for bj in avoid_q:
                hist[alpha_index[int(counts[qq, bj])]] += 1
            vec = tuple(hist)
            if a[p, qq]:
                if sum(vec) != t:
                    raise ValueError(f"pair {(p, qq)}: {sum(vec)} blocks on P avoid Q, expected t = {t}")
                rec = sum((al - 1) * x for al, x in zip(alphas, vec)) + (s - 1)
                if rec != lam:
                    raise ValueError(f"pair {(p, qq)}: profile {vec} reconstructs lambda = {rec}, "
                                     f"expected {lam}")
                if p_vec is None:
                    p_vec, p_first = vec, (p, qq)
                elif vec != p_vec and p_witness is None:
                    p_witness = (p_first, (p, qq), vec)
            else:
                if sum(vec) != t + 1:
                    raise ValueError(f"pair {(p, qq)}: {sum(vec)} blocks on P avoid Q, "
                                     f"expected t+1 = {t + 1}")
                rec = sum(al * x for al, x in zip(alphas, vec))
                if rec != mu:
                    raise ValueError(f"pair {(p, qq)}: profile {vec} reconstructs mu = {rec}, "
                                     f"expected {mu}")
                if l_vec is None:
                    l_vec, l_first = vec, (p, qq)
                elif vec != l_vec and l_witness is None:
                    l_witness = (l_first, (p, qq), vec)
    if p_vec is None or l_vec is None:
        raise DegenerateStructure("point graph lacks adjacent or non-adjacent pairs")
    return AlphaProfile(
        alphas=alphas, p_counts=p_vec, l_counts=l_vec,
        p_constant=p_witness is None, l_constant=l_witness is None,
        p_witness=p_witness, l_witness=l_witness,
        lambda_=lam, mu=mu,
    )
