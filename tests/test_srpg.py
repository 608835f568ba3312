import dataclasses
import random

import numpy as np
import pytest

from geomcode import constructions
from geomcode.constructions import (
    IncidenceStructure,
    build_conic_structure,
    build_hyperbolic_structure,
)
from geomcode.fields import Field
from geomcode.gf2 import BinaryMatrix, rank2
from geomcode.srpg import (
    AxiomViolation,
    DegenerateStructure,
    check_gpg_axioms,
    check_strongly_regular,
    feasibility_check,
    spectrum,
)
from oracles import (
    AlphaProfile,
    alpha_profiles,
    census_by_bincount,
    dense,
    gram_counts,
    matrix,
    rooks_graph,
    swapped,
)


def _structure(bit_rows):
    m = matrix(bit_rows)
    return IncidenceStructure("test", None, m)


def test_axioms_conic_q5(conic5):
    params = check_gpg_axioms(conic5)
    assert (params.s, params.t) == (2, 2)
    assert params.alphas == (0, 1, 2)
    assert params.grade == 3
    assert params.v == params.n == 16


def test_axioms_hyperbolic_q3(hyp3):
    params = check_gpg_axioms(hyp3)
    assert (params.s, params.t) == (2, 23)
    assert params.alphas == (1, 2, 3)
    assert params.v * (params.t + 1) == params.n * (params.s + 1)


@pytest.mark.parametrize("w", [255, 256])
def test_alphas_of_blocks_past_uint8(w):
    # counts of blocks of w points are held in min_scalar_type(w): uint8 at
    # 255, uint16 at 256.  Two disjoint blocks: the only count off a block is 0
    pts = np.arange(2 * w)
    ic = IncidenceStructure("test", None, BinaryMatrix(pts, pts // w, (2 * w, 2)))
    params = check_gpg_axioms(ic)
    assert (params.s, params.t, params.alphas) == (w - 1, 0, (0,))
    # block 0 and, for each of its points p, a block of p and the w - 1
    # points past block 0: in each of the w^2 - 1 (point, block) pairs off the
    # blocks the point is joined to all w, a count a narrower dtype would wrap
    fan = np.concatenate([np.arange(w)] + [[p, *range(w, 2 * w - 1)] for p in range(w)])
    fan = IncidenceStructure("test", None, BinaryMatrix(fan, np.arange(w + 1).repeat(w),
                                                        (2 * w - 1, w + 1)))
    assert np.flatnonzero(fan.census).tolist() == [w] and fan.census[w] == w * w - 1
    for each in (ic, fan):
        assert each.base_point is None
        assert np.array_equal(each.census, census_by_bincount(each))


SMALL_FAMILIES = pytest.mark.parametrize("family,field", [
    ("hyperbolic", (3, 1)), ("conic", (7, 1)), ("conic", (3, 2)), ("conic", (11, 1)),
])


def _certified_and_swapped(family, field):
    """The family build, certified, and a copy with points 1 and 2 swapped,
    which is not: the census of the first is read from point 0, of the
    second from the adjacency a chunk of blocks at a time."""
    build = build_conic_structure if family == "conic" else build_hyperbolic_structure
    ic = build(Field(*field))
    other = IncidenceStructure(ic.family, ic.field, swapped(ic.matrix))
    assert ic.base_point is not None and other.base_point is None
    return ic, other


@SMALL_FAMILIES
def test_block_census_matches_direct_definition(family, field):
    for ic in _certified_and_swapped(family, field):
        m = dense(ic.matrix).astype(np.int64)
        w = int(m[:, 0].sum())
        joined = (m @ m.T > 0) & ~np.eye(ic.v, dtype=bool)
        # direct[p, b] = |b ∩ N(p)| where p lies off b
        direct = (joined.astype(np.int64) @ m)[m == 0]
        hist = np.bincount(direct, minlength=w + 1)
        assert np.array_equal(ic.census, hist)
        assert check_gpg_axioms(ic).alphas == tuple(np.flatnonzero(hist).tolist())


@SMALL_FAMILIES
def test_census_of_one_block_chunks_matches_bincount_oracle(monkeypatch, family, field):
    monkeypatch.setattr(constructions, "_CENSUS_CELLS", 1)
    for ic in _certified_and_swapped(family, field):
        assert np.array_equal(ic.census, census_by_bincount(ic))


def test_census_matches_bincount_oracle(hyp5):
    # hyperbolic q=5 swapped streams 18 chunks; in the cyclic blocks
    # {b, ..., b+3, b+5} mod 40, point b+4 is joined to all 5 points of
    # block b, a far one to none
    b = np.arange(40)
    rows = (b[:, None] + [0, 1, 2, 3, 5]).ravel() % 40
    spread = IncidenceStructure("test", None, BinaryMatrix(rows, np.repeat(b, 5), (40, 40)))
    assert np.flatnonzero(census_by_bincount(spread)).tolist() == [0, 1, 2, 3, 4, 5]
    hyp5_swapped = IncidenceStructure("test", None, swapped(hyp5.matrix))
    assert hyp5.base_point is not None and hyp5_swapped.base_point is None
    for ic in (hyp5, hyp5_swapped, spread):
        assert np.array_equal(ic.census, census_by_bincount(ic))


def test_block_census_refuses_blocks_of_unequal_size():
    # sizes 1 and 3 fill a 2 x 2 array: a reshape alone would not notice
    ic = _structure([[1, 1], [0, 1], [0, 1]])
    with pytest.raises(ValueError, match="one size"):
        ic.census


def test_axiom_ii_refuses_empty_blocks():
    # blocks of one size, 0: no point lies on any block, so no s = -1
    with pytest.raises(AxiomViolation) as exc:
        check_gpg_axioms(_structure([[0, 0, 0], [0, 0, 0]]))
    assert (exc.value.axiom, exc.value.witness) == ("ii", (0,))
    assert "the blocks hold no points" in str(exc.value)


def test_axiom_i_violation_with_witness():
    ic = _structure([[1, 1], [1, 1]])
    with pytest.raises(AxiomViolation) as exc:
        check_gpg_axioms(ic)
    assert exc.value.axiom == "i"
    assert exc.value.witness == (0, 1)
    assert "points share 2 blocks" in str(exc.value)


def test_axiom_ii_violation():
    ic = _structure([[1, 1], [1, 0]])
    with pytest.raises(AxiomViolation) as exc:
        check_gpg_axioms(ic)
    assert exc.value.axiom == "ii"


def test_axiom_iii_violation():
    ic = _structure([[1, 0], [0, 1], [1, 1], [0, 0]])
    with pytest.raises(AxiomViolation) as exc:
        check_gpg_axioms(ic)
    assert exc.value.axiom == "iii"


def test_srg_parameters(conic5, conic7, hyp3):
    assert check_strongly_regular(conic5) == (16, 6, 2, 2)
    assert check_strongly_regular(conic7) == (36, 20, 10, 12)
    assert check_strongly_regular(hyp3) == (81, 48, 27, 30)


def test_srg_spot_check_common_neighbors(conic7):
    # direct neighbor-set intersections on random pairs
    a = conic7.adjacency
    v, k, lam, mu = check_strongly_regular(conic7)
    rng = random.Random(8)
    neighbors = [set(np.flatnonzero(a[i])) for i in range(v)]
    for _ in range(100):
        i, j = rng.sample(range(v), 2)
        common = len(neighbors[i] & neighbors[j])
        assert common == (lam if a[i, j] else mu)


def test_degenerate_edgeless():
    ic = build_conic_structure(Field(3))
    assert ic.degenerate
    with pytest.raises(DegenerateStructure, match="no edges"):
        check_strongly_regular(ic)


def test_degenerate_conic_axioms_still_measurable():
    # the q=3 conic structure is four isolated points: s = t = 0, alpha = {0}
    params = check_gpg_axioms(build_conic_structure(Field(3)))
    assert (params.s, params.t, params.alphas) == (0, 0, (0,))


def test_degenerate_complete():
    ic = _structure([[1], [1], [1]])
    with pytest.raises(DegenerateStructure, match="complete"):
        check_strongly_regular(ic)


def _graph(edges, v):
    """Structure whose blocks are the edges: its point graph is the graph."""
    return _structure([[1 if i in e else 0 for e in edges] for i in range(v)])


def test_irregular_point_graph_witness():
    # the path 0-1-2: the first point whose degree differs from point 0's
    with pytest.raises(ValueError, match=r"^point graph is not regular: deg\(0\)=1, deg\(1\)=2$"):
        check_strongly_regular(_graph([(0, 1), (1, 2)], 3))


def test_non_srg_witness():
    # 6-cycle point graph: mu is not constant (opposite vs distance-2 pairs)
    ic = _graph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)], 6)
    with pytest.raises(ValueError, match=r"^mu not constant: pair \(0, 3\) has 0, expected 1$"):
        check_strongly_regular(ic)


def test_non_srg_lambda_witness():
    # triangular prism: triangle edges have one common neighbour, rungs none
    ic = _graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)], 6)
    with pytest.raises(ValueError,
                       match=r"^lambda not constant: pair \(0, 3\) has 0, expected 1$"):
        check_strongly_regular(ic)


def test_adjacency_matches_direct_definition(conic5, hyp3):
    for ic in (conic5, hyp3):
        m = dense(ic.matrix).astype(np.int64)
        direct = (m @ m.T > 0).astype(np.int8)
        np.fill_diagonal(direct, 0)
        assert np.array_equal(ic.adjacency, direct)


def test_gram_identity(conic5, hyp3):
    # M M^T = A + (t+1) I as integer matrices
    for ic, t in ((conic5, 2), (hyp3, 23)):
        mmt = gram_counts(ic.matrix)
        a = ic.adjacency
        assert np.array_equal(mmt, a.astype(np.int64) + (t + 1) * np.eye(ic.v, dtype=np.int64))
        off = mmt > 0
        np.fill_diagonal(off, False)
        assert a.dtype == bool and np.array_equal(a, off)



def _point_graph(m: BinaryMatrix) -> np.ndarray:
    """The oracle's A: the off-diagonal support of M M^T."""
    a = gram_counts(m) > 0
    np.fill_diagonal(a, False)
    return a


@pytest.mark.parametrize("fixture", ["hyp3", "conic25"])
def test_gram_rank_matches_the_gram_parity(request, fixture):
    # row weight 24 (hyperbolic q=3: no diagonal bit) and 23 (conic 5^2): the
    # build's certificate answers with no A; with points 1 and 2 swapped, A does
    built = request.getfixturevalue(fixture)
    for m, certified in ((built.matrix, True), (swapped(built.matrix), False)):
        ic = IncidenceStructure(built.family, built.field, m)
        assert ic.gram_rank == rank2(np.packbits(gram_counts(m) % 2, axis=1))
        assert (ic.base_point is not None) == certified == ("adjacency" not in ic.__dict__)


def test_gram_rank_of_a_singular_fold_is_eliminated():
    # the scalings permute the rook's graph's blocks, but its fold is singular
    m = rooks_graph(11)
    ic = IncidenceStructure("file", None, m)
    assert ic.gram_rank == rank2(np.packbits(gram_counts(m) % 2, axis=1)) == 18
    assert ic.base_point is None and "adjacency" in ic.__dict__


@pytest.mark.parametrize("fixture", ["hyp3", "conic25"])
def test_point_rows_match_the_dense_point_graph(request, fixture):
    # certified: point 0's rows of A and A^2; swapped, so not: all of them
    built = request.getfixturevalue(fixture)
    for m, rows in ((built.matrix, slice(0, 1)), (swapped(built.matrix), slice(None))):
        ic = IncidenceStructure(built.family, built.field, m)
        a = _point_graph(m)
        got, got2 = ic.point_rows()
        assert got.dtype == bool and np.array_equal(got, a[rows])
        assert np.array_equal(got2, (a.astype(np.int64) @ a)[rows])
        assert ("adjacency" not in ic.__dict__) == (rows.stop == 1)

def test_spectrum_hyperbolic_q3():
    spec = spectrum(81, 48, 27, 30, 2, 23)
    assert (spec.delta, spec.u1, spec.u2) == (81, 3, -6)
    assert (spec.f1, spec.f2) == (48, 32)
    assert (spec.theta0, spec.theta1, spec.theta2) == (72, 27, 18)


def test_spectrum_conic_q5():
    spec = spectrum(16, 6, 2, 2, 2, 2)
    assert (spec.delta, spec.u1, spec.u2, spec.f1, spec.f2) == (16, 2, -2, 6, 9)
    assert (spec.theta0, spec.theta1, spec.theta2) == (9, 5, 1)


def test_spectrum_trace_identity():
    for args in [(81, 48, 27, 30, 2, 23), (16, 6, 2, 2, 2, 2), (36, 20, 10, 12, 4, 4)]:
        spec = spectrum(*args)
        assert spec.k + spec.f1 * spec.u1 + spec.f2 * spec.u2 == 0


def test_spectrum_matches_float_eigensolver(conic5, hyp3):
    for ic, (s, t) in ((conic5, (2, 2)), (hyp3, (2, 23))):
        v, k, lam, mu = check_strongly_regular(ic)
        spec = spectrum(v, k, lam, mu, s, t)
        eig = np.linalg.eigvalsh(ic.adjacency.astype(np.float64))
        rounded = np.rint(eig).astype(int)
        assert np.allclose(eig, rounded, atol=1e-8)
        values, counts = np.unique(rounded, return_counts=True)
        got = dict(zip(values.tolist(), counts.tolist()))
        assert got == {k: 1, spec.u1: spec.f1, spec.u2: spec.f2}


def test_spectrum_conference_case_rejected():
    # pentagon: delta = 5 is not a perfect square
    with pytest.raises(ValueError, match="perfect square"):
        spectrum(5, 2, 0, 1, 1, 1)


def test_spectrum_multiplicities_not_integral():
    # delta = 4, but (v - 1 + ((v - 1)(mu - lambda) - 2k) / 2) / 2 = 1/2
    with pytest.raises(ValueError, match="^multiplicities are not integral for these parameters$"):
        spectrum(4, 2, 1, 1, 1, 1)


def test_spectrum_mu_zero_rejected():
    with pytest.raises(DegenerateStructure):
        spectrum(4, 0, 0, 0, 0, 0)


def test_spectrum_mu_zero_names_disjoint_cliques():
    # two disjoint triangles: srg(6, 2, 1, 0), whose complement K_{3,3} is connected
    ic = _graph([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6)
    assert check_strongly_regular(ic) == (6, 2, 1, 0)
    with pytest.raises(DegenerateStructure,
                       match=r"^mu = 0: the point graph is a disjoint union of cliques, "
                             r"its complement connected; the closed form needs mu > 0$"):
        spectrum(6, 2, 1, 0, 1, 1)


def test_feasibility_passes():
    # conic q=5: srg(16, 6, 2, 2), s = t = 2
    assert feasibility_check(v=16, k=6, lambda_=2, mu=2, s=2, t=2).all_ok
    # hyperbolic q=3: srg(81, 48, 27, 30), s = 2, t = 23
    assert feasibility_check(v=81, k=48, lambda_=27, mu=30, s=2, t=23).all_ok


def test_feasibility_fabricated_failure():
    rep = feasibility_check(v=10, k=2, lambda_=0, mu=1, s=1, t=1)
    assert not rep.all_ok
    failed = {name for name, ok, _ in rep.conditions if not ok}
    assert "multiplicities-integral" in failed


def test_alpha_profiles_hyperbolic_q3(hyp3):
    v, k, lam, mu = check_strongly_regular(hyp3)
    params = check_gpg_axioms(hyp3)
    prof = alpha_profiles(hyp3, params, lam, mu)
    assert prof.p_constant and prof.l_constant
    assert sum(prof.p_counts) == 23
    assert sum((al - 1) * p for al, p in zip(prof.alphas, prof.p_counts)) == lam - (params.s - 1) == 26
    assert sum(prof.l_counts) == 24
    assert sum(al * l for al, l in zip(prof.alphas, prof.l_counts)) == mu == 30


def test_alpha_profiles_conic_q5(conic5):
    v, k, lam, mu = check_strongly_regular(conic5)
    prof = alpha_profiles(conic5, check_gpg_axioms(conic5), lam, mu)
    # the per-pair identities hold (mu = 2 over t+1 = 3 blocks), but the
    # non-adjacent profile vector varies from pair to pair here
    assert sum(al * l for al, l in zip(prof.alphas, prof.l_counts)) == 2
    assert sum(prof.l_counts) == 3
    assert not prof.l_constant
    assert prof.l_witness is not None


def _verified_params(ic):
    """The axioms' parameters, lambda and mu: the arguments of alpha_profiles."""
    _, _, lam, mu = check_strongly_regular(ic)
    return check_gpg_axioms(ic), lam, mu


# the full census, witnesses included, as the per-pair loop over all v^2
# ordered pairs computed it
PROFILES = [
    ("hyperbolic", (5, 1), AlphaProfile(
        alphas=(3, 4, 5), p_counts=(45, 24, 50), l_counts=(100, 20, 0),
        p_constant=True, l_constant=True, p_witness=None, l_witness=None,
        lambda_=365, mu=380)),
    ("conic", (7, 1), AlphaProfile(
        alphas=(2, 3, 4), p_counts=(2, 1, 1), l_counts=(4, 0, 1),
        p_constant=False, l_constant=False,
        p_witness=((0, 8), (0, 9), (1, 3, 0)), l_witness=((0, 1), (0, 2), (3, 2, 0)),
        lambda_=10, mu=12)),
    ("conic", (3, 2), AlphaProfile(
        alphas=(4, 5, 6), p_counts=(3, 3, 0), l_counts=(6, 0, 1),
        p_constant=False, l_constant=False,
        p_witness=((0, 10), (0, 19), (4, 1, 1)), l_witness=((0, 1), (0, 2), (5, 2, 0)),
        lambda_=26, mu=30)),
    ("conic", (11, 1), AlphaProfile(
        alphas=(6, 7, 8), p_counts=(6, 1, 1), l_counts=(8, 0, 1),
        p_constant=False, l_constant=False,
        p_witness=((0, 12), (0, 13), (5, 3, 0)), l_witness=((0, 1), (0, 2), (7, 2, 0)),
        lambda_=50, mu=56)),
    ("conic", (13, 1), AlphaProfile(
        alphas=(8, 9, 10), p_counts=(8, 1, 1), l_counts=(10, 0, 1),
        p_constant=False, l_constant=False,
        p_witness=((0, 14), (0, 15), (7, 3, 0)), l_witness=((0, 1), (0, 2), (9, 2, 0)),
        lambda_=82, mu=90)),
]


@pytest.mark.parametrize("family,field,expected", PROFILES,
                         ids=[f"{f}-{p}^{k}" for f, (p, k), _ in PROFILES])
def test_alpha_profiles_pinned(family, field, expected):
    build = build_conic_structure if family == "conic" else build_hyperbolic_structure
    ic = build(Field(*field))
    assert alpha_profiles(ic, *_verified_params(ic)) == expected


@pytest.mark.parametrize("change,message", [
    ({"lambda_": 3}, "pair (0, 6): profile (0, 1, 1) reconstructs lambda = 2, expected 3"),
    ({"mu": 3}, "pair (0, 1): profile (2, 0, 1) reconstructs mu = 2, expected 3"),
    ({"t": 3}, "pair (0, 1): 3 blocks on P avoid Q, expected t+1 = 4"),
    ({"s": 3}, "pair (0, 6): profile (0, 1, 1) reconstructs lambda = 3, expected 2"),
])
def test_alpha_profiles_identity_failure(conic5, change, message):
    # wrong parameters: the first failing pair in row-major order is the
    # witness; a wrong lambda or mu is an argument, a wrong s or t is in params
    params, lam, mu = _verified_params(conic5)
    numbers = {"lambda_": lam, "mu": mu} | change
    fields = {key: numbers.pop(key) for key in ("s", "t") if key in numbers}
    with pytest.raises(ValueError) as exc:
        alpha_profiles(conic5, dataclasses.replace(params, **fields), **numbers)
    assert str(exc.value) == message


def test_alpha_profiles_adjacent_size_failure():
    # 3x3 grid, blocks are its rows and columns: srg(9, 4, 1, 2), s = 2, t = 1;
    # the first pair (0, 1) is adjacent
    lines = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)]
    ic = _structure([[int(i in line) for line in lines] for i in range(9)])
    params, lam, mu = _verified_params(ic)
    assert alpha_profiles(ic, params, lam, mu) == AlphaProfile(
        alphas=(1,), p_counts=(1,), l_counts=(2,), p_constant=True, l_constant=True,
        p_witness=None, l_witness=None, lambda_=1, mu=2)
    with pytest.raises(ValueError) as exc:
        alpha_profiles(ic, dataclasses.replace(params, t=2), lam, mu)
    assert str(exc.value) == "pair (0, 1): 1 blocks on P avoid Q, expected t = 2"
