import itertools

import numpy as np
import pytest

from geomcode.fields import Field, field_from_string
from oracles import scalar


def coeffs(f, code):
    """Coefficient vector (constant term first) of an element code."""
    return tuple(code // f.p ** i % f.p for i in range(f.k - 1, -1, -1))


def element(f, cs):
    """Code of the element with the given coefficient vector."""
    code = 0
    for c in cs:
        code = code * f.p + c % f.p
    return code


def test_prime_field_examples():
    f = Field(5)
    assert f.mul_table[2, 3] == 1
    assert f.add_table[4, 1] == 0
    assert f.q == 5 and f.p == 5 and f.k == 1


def test_gf9_reduction():
    # X * X reduces to -1 = 2 under the modulus X^2 + 1
    f = Field(3, 2, [1, 0, 1])
    x = element(f, [0, 1])
    minus_one = element(f, [2, 0])
    assert f.mul_table[x, x] == minus_one


def test_gf9_modulus_has_no_root():
    # independent check that X^2 + 1 is irreducible over GF(3)
    assert all((c * c + 1) % 3 != 0 for c in range(3))


def test_even_characteristic_rejected():
    with pytest.raises(ValueError):
        Field(2)


def test_nonprime_rejected():
    with pytest.raises(ValueError):
        Field(9)
    with pytest.raises(ValueError):
        Field(15)


def test_reducible_modulus_rejected():
    # X^2 - 1 = (X-1)(X+1) over GF(3)
    with pytest.raises(ValueError, match="reducible"):
        Field(3, 2, [2, 0, 1])


def test_missing_modulus_rejected():
    with pytest.raises(ValueError, match="no built-in modulus"):
        Field(11, 2)


def test_non_monic_modulus_rejected():
    with pytest.raises(ValueError, match="monic"):
        Field(3, 2, [1, 0, 2])


def test_inverse_examples():
    f5 = Field(5)
    assert f5.inv_table[2] == 3
    assert f5.inv_table[4] == 4
    f7 = Field(7)
    # exhaustive oracle for inv(3) in GF(7)
    expected = next(x for x in range(1, 7) if (3 * x) % 7 == 1)
    assert expected == 5
    assert f7.inv_table[3] == 5


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        scalar(Field(5)).inv(0)


def test_enumeration():
    assert Field(3).elements() == [0, 1, 2]
    assert Field(5).elements(nonzero_only=True) == [1, 2, 3, 4]
    els = Field(3, 2).elements()
    assert len(els) == 9 and els[0] == 0


def test_enumeration_is_lexicographic_on_coeffs():
    for f in [Field(5), Field(3, 2), Field(3, 3)]:
        coeff_vectors = [coeffs(f, c) for c in f.elements()]
        assert coeff_vectors == sorted(coeff_vectors)
        assert len(set(coeff_vectors)) == f.q
        # round trip
        assert all(element(f, coeffs(f, c)) == c for c in f.elements())


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    field = Field(p, k)
    f = scalar(field)
    els = field.elements()
    for a, b in itertools.product(els, els):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(a, b) == f.add(a, f.neg(b))
    for a, b, c in itertools.product(els, els, els):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in els:
        assert f.add(a, f.neg(a)) == 0
    for a in els[1:]:
        assert f.mul(a, f.inv(a)) == f.one


def _schoolbook_mul(f, a, b):
    """Product of two codes: multiply their coefficient vectors as
    polynomials, then reduce by the monic modulus, one term at a time."""
    k = f.k
    prod = [0] * (2 * k - 1)
    for i, x in enumerate(coeffs(f, a)):
        for j, y in enumerate(coeffs(f, b)):
            prod[i + j] += x * y
    for i in range(2 * k - 2, k - 1, -1):
        for j in range(k):
            prod[i - k + j] -= prod[i] * f.modulus[j]
    return element(f, prod[:k])


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_tables_match_coefficient_arithmetic(p, k):
    f = Field(p, k)
    for a, b in itertools.product(f.elements(), f.elements()):
        ca, cb = coeffs(f, a), coeffs(f, b)
        assert f.add_table[a, b] == element(f, (x + y for x, y in zip(ca, cb)))
        assert f.mul_table[a, b] == _schoolbook_mul(f, a, b), (a, b)
    assert f.neg_table.tolist() == [element(f, (-x for x in coeffs(f, a))) for a in f.elements()]
    assert f.one == element(f, [1] + [0] * (k - 1))


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_characteristic_is_odd(p, k):
    f = Field(p, k)
    assert f.add_table[f.one, f.one] != 0


def test_determinism_across_instances():
    a, b = Field(3, 2), Field(3, 2)
    assert (a.p, a.k, a.modulus) == (b.p, b.k, b.modulus)
    assert np.array_equal(a.mul_table, b.mul_table) and np.array_equal(a.add_table, b.add_table)


def test_field_from_string():
    assert field_from_string("5").q == 5
    assert field_from_string("3^2").q == 9
    with pytest.raises(ValueError):
        field_from_string("4")


def test_builtin_moduli_are_monic_and_validated():
    for q, (p, k) in [(9, (3, 2)), (25, (5, 2)), (27, (3, 3)), (49, (7, 2)), (81, (3, 4))]:
        f = Field(p, k)
        assert f.q == q
        assert f.modulus[-1] == 1 and len(f.modulus) == k + 1
