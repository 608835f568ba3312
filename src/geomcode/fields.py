"""Exact arithmetic in GF(q) for odd prime powers q = p^k.

Elements are integer codes in ``range(q)``.  The code of an element with
coefficient vector (c0, c1, ..., c_{k-1}) -- constant term first -- is
``sum(c_i * p**(k-1-i))``, so ascending codes enumerate the field in
lexicographic order of coefficient vectors.  All arithmetic goes through
numpy tables built once per field (``add_table``, ``mul_table``,
``neg_table``, ``inv_table``), which evaluate a formula over whole arrays
of codes at once; the tables are tiny (q <= a few hundred for every
construction this package targets).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

MAX_Q = 4096  # the largest q whose q x q tables are built

# Irreducible moduli (coefficient lists, constant term first, monic) for the
# extension fields small enough to be exercised by the constructions.
_BUILTIN_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (3, 2): (1, 0, 1),       # x^2 + 1
    (5, 2): (2, 0, 1),       # x^2 + 2
    (3, 3): (1, 2, 0, 1),    # x^3 + 2x + 1
    (7, 2): (1, 0, 1),       # x^2 + 1
    (3, 4): (2, 1, 0, 0, 1),  # x^4 + x + 2
}


def prime_power(n: int) -> tuple[int, int]:
    """n's least prime factor p, by trial division, and e with n = p^e, or e = 0."""
    p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
    e = round(math.log(n, p)) if p > 1 else 0
    return p, e if p ** e == n else 0


def check_field(p: int, k: int = 1, modulus: Sequence[int] | None = None) -> tuple[int, ...]:
    """Check that GF(p^k) is supported and return its monic modulus reduced
    mod p (constant term first), building no table: `Field` checks that the
    modulus is irreducible once its tables exist."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"extension degree k = {k} must be a positive integer")
    # the bound before the primality test, forming no p^k past 3^7 and printing none past 64 bits
    if isinstance(p, int) and p > 2 and (k > 7 or p ** k > MAX_Q):
        q = p ** k if k * p.bit_length() <= 64 else f"{p}^{k}"
        raise ValueError(f"q = {q} exceeds the table-based arithmetic limit ({MAX_Q})")
    if not isinstance(p, int) or p < 2 or prime_power(p)[1] != 1:
        raise ValueError(f"p = {p} is not prime")
    if p == 2:
        raise ValueError("characteristic 2 is not supported (odd prime power required)")

    if modulus is None:  # unused for k = 1: prime-field arithmetic is plain mod p
        modulus = (0, 1) if k == 1 else _BUILTIN_MODULI.get((p, k))
    if modulus is None:
        raise ValueError(f"no built-in modulus for GF({p}^{k}); supply one "
                         f"(coefficients constant term first, monic, length {k + 1})")
    modulus = tuple(c % p for c in modulus)
    if len(modulus) != k + 1 or modulus[-1] != 1:
        raise ValueError(f"modulus must be monic of degree {k}, got {modulus}")
    return modulus


def field_name(p: int, k: int) -> str:
    return f"GF({p})" if k == 1 else f"GF({p}^{k})"


class Field:
    """GF(p^k) for odd prime p, with numpy-table arithmetic on int codes."""

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        self.modulus = check_field(p, k, modulus)
        self.p, self.k, self.q = p, k, p ** k
        self._build_tables()
        # GF(p)[x]/(modulus) is a field iff it has no zero divisors, and a
        # factorization modulus = g h gives g h = 0 with g, h nonzero
        if (self.mul_table[1:, 1:] == 0).any():
            raise ValueError(f"modulus {self.modulus} is reducible over GF({p})")

    # -- table construction ----------------------------------------------

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        place = p ** np.arange(k - 1, -1, -1)  # code = coefficient vector . place
        vec = np.arange(q)[:, None] // place % p  # (q, k), constant term first
        self.add_table = (vec[:, None, :] + vec[None, :, :]) % p @ place
        self.neg_table = -vec % p @ place
        # schoolbook product of every pair, then reduction by the monic modulus
        # (for k = 1 there is nothing to reduce: the product is plain mod p)
        prod = np.zeros((q, q, 2 * k - 1), dtype=np.intp)
        for i in range(k):
            prod[:, :, i:i + k] += vec[:, None, i, None] * vec[None, :, :]
        low = np.array(self.modulus[:k])
        for i in range(2 * k - 2, k - 1, -1):
            prod[:, :, i - k:i] -= prod[:, :, i, None] % p * low
        self.mul_table = prod[:, :, :k] % p @ place
        self.one = p ** (k - 1)
        # inv_table[0] is 0 (the argmax of row 0, which holds no one), a
        # placeholder: callers mask the zero divisor
        self.inv_table = np.argmax(self.mul_table == self.one, axis=1)

    def elements(self, nonzero_only: bool = False) -> list[int]:
        """All element codes in lexicographic coefficient order (zero first)."""
        return list(range(1, self.q)) if nonzero_only else list(range(self.q))

    def __repr__(self) -> str:
        return field_name(self.p, self.k)


def parse_field_spec(spec: str) -> tuple[int, int]:
    """(p, k) of a field specification string like ``"5"`` or ``"3^2"``."""
    p, caret, k = spec.strip().partition("^")
    try:
        return int(p), int(k) if caret else 1
    except ValueError:
        raise ValueError(f"bad field {spec!r}; expected p or p^k") from None


def field_from_string(spec: str, modulus: Sequence[int] | None = None) -> Field:
    """Parse a field specification string like ``"5"`` or ``"3^2"``."""
    return Field(*parse_field_spec(spec), modulus)
