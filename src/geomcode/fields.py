"""Exact arithmetic in GF(q) for odd prime powers q = p^k.

Elements are integer codes in ``range(q)``.  The code of an element with
coefficient vector (c0, c1, ..., c_{k-1}) -- constant term first -- is
``sum(c_i * p**(k-1-i))``, so ascending codes enumerate the field in
lexicographic order of coefficient vectors.  All arithmetic goes through
tables built once per field; the tables are tiny (q <= a few hundred for
every construction this package targets).  The :class:`Field` methods
work on single codes; the same tables as numpy arrays (``add_table``,
``mul_table``, ``neg_table``, ``inv_table``) evaluate a formula over whole
arrays of codes at once.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

# Irreducible moduli (coefficient lists, constant term first, monic) for the
# extension fields small enough to be exercised by the constructions.
_BUILTIN_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (3, 2): (1, 0, 1),       # x^2 + 1
    (5, 2): (2, 0, 1),       # x^2 + 2
    (3, 3): (1, 2, 0, 1),    # x^3 + 2x + 1
    (7, 2): (1, 0, 1),       # x^2 + 1
    (3, 4): (2, 1, 0, 0, 1),  # x^4 + x + 2
}


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (fine at desk scale)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_mod(coeffs: Sequence[int], p: int) -> list[int]:
    out = [c % p for c in coeffs]
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _poly_divmod(num: Sequence[int], den: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of polynomials over GF(p), constant term first."""
    num = list(num)
    dn = len(den) - 1
    lead_inv = pow(den[-1], p - 2, p)
    quot = [0] * max(len(num) - dn, 1)
    for i in range(len(num) - 1, dn - 1, -1):
        f = (num[i] * lead_inv) % p
        quot[i - dn] = f
        if f:
            for j, c in enumerate(den):
                num[i - dn + j] = (num[i - dn + j] - f * c) % p
    return _poly_mod(quot, p), _poly_mod(num[:dn] or [0], p)


def _is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= k/2."""
    k = len(modulus) - 1
    if k < 1:
        return False
    for deg in range(1, k // 2 + 1):
        # All monic candidates of this degree.
        for idx in range(p ** deg):
            cand = []
            x = idx
            for _ in range(deg):
                cand.append(x % p)
                x //= p
            cand.append(1)
            _, rem = _poly_divmod(modulus, cand, p)
            if rem == [0]:
                return False
    return True


class Field:
    """GF(p^k) for odd prime p, with table-driven arithmetic on int codes."""

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if p == 2:
            raise ValueError("characteristic 2 is not supported (odd prime power required)")
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"extension degree k = {k} must be a positive integer")
        self.p = p
        self.k = k
        self.q = p ** k
        if self.q > 4096:
            raise ValueError(f"q = {self.q} exceeds the table-based arithmetic limit (4096)")

        if modulus is None:
            if k == 1:
                modulus = (0, 1)  # unused; prime-field arithmetic is plain mod p
            elif (p, k) in _BUILTIN_MODULI:
                modulus = _BUILTIN_MODULI[(p, k)]
            else:
                raise ValueError(
                    f"no built-in modulus for GF({p}^{k}); supply one "
                    f"(coefficients constant term first, monic, length {k + 1})"
                )
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError(f"modulus must be monic of degree {k}, got {modulus}")
        if k > 1 and not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus

        self._build_tables()

    # -- code <-> coefficient vector ------------------------------------

    def coeffs(self, code: int) -> tuple[int, ...]:
        """Coefficient vector (constant term first) of an element code."""
        out = []
        for i in range(self.k - 1, -1, -1):
            out.append((code // self.p ** i) % self.p)
        return tuple(out)

    def element(self, coeffs: Iterable[int]) -> int:
        """Code of the element with the given coefficient vector."""
        cs = [c % self.p for c in coeffs]
        if len(cs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(cs)}")
        code = 0
        for c in cs:
            code = code * self.p + c
        return code

    # -- table construction ----------------------------------------------

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        if k == 1:
            self._add = [[(a + b) % p for b in range(p)] for a in range(p)]
            self._mul = [[(a * b) % p for b in range(p)] for a in range(p)]
            self._neg = [(-a) % p for a in range(p)]
            self.one = 1
        else:
            coeff_of = [self.coeffs(c) for c in range(q)]
            mod = self.modulus
            self._add = [
                [self.element((x + y) % p for x, y in zip(ca, cb)) for cb in coeff_of]
                for ca in coeff_of
            ]
            self._neg = [self.element((-x) % p for x in ca) for ca in coeff_of]
            mul = [[0] * q for _ in range(q)]
            for a in range(q):
                ca = coeff_of[a]
                for b in range(a, q):
                    cb = coeff_of[b]
                    prod = [0] * (2 * k - 1)
                    for i, x in enumerate(ca):
                        if x:
                            for j, y in enumerate(cb):
                                prod[i + j] = (prod[i + j] + x * y) % p
                    # reduce modulo the field polynomial
                    for i in range(len(prod) - 1, k - 1, -1):
                        c = prod[i]
                        if c:
                            prod[i] = 0
                            for j in range(k):
                                prod[i - k + j] = (prod[i - k + j] - c * mod[j]) % p
                    code = self.element(prod[:k])
                    mul[a][b] = code
                    mul[b][a] = code
            self._mul = mul
            self.one = self.element([1] + [0] * (k - 1))
        self.zero = 0
        self._inv = [0] * q
        for a in range(1, q):
            row = self._mul[a]
            self._inv[a] = row.index(self.one)
        # inv_table[0] is 0, a placeholder: callers mask the zero divisor
        self.add_table, self.mul_table, self.neg_table, self.inv_table = (
            np.array(t, dtype=np.intp) for t in (self._add, self._mul, self._neg, self._inv))

    # -- arithmetic on codes ----------------------------------------------

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

    def elements(self, nonzero_only: bool = False) -> list[int]:
        """All element codes in lexicographic coefficient order (zero first)."""
        return list(range(1, self.q)) if nonzero_only else list(range(self.q))

    # -- misc ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and self.p == other.p
            and self.k == other.k
            and (self.k == 1 or self.modulus == other.modulus)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.k, self.modulus if self.k > 1 else None))

    def __repr__(self) -> str:
        return f"GF({self.p})" if self.k == 1 else f"GF({self.p}^{self.k})"


def make_field(p: int, k: int = 1, modulus: Sequence[int] | None = None) -> Field:
    """Validated GF(p^k) constructor (see :class:`Field`)."""
    return Field(p, k, modulus)


def field_from_string(spec: str, modulus: Sequence[int] | None = None) -> Field:
    """Parse a field specification string like ``"5"`` or ``"3^2"``."""
    spec = spec.strip()
    if "^" in spec:
        p_str, k_str = spec.split("^", 1)
        return Field(int(p_str), int(k_str), modulus)
    return Field(int(spec), 1, modulus)
