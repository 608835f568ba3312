"""Sparse GF(2) matrices stored as the index arrays of their ones,
elimination rank of packed rows, and closed-form rank prediction for the
Gram matrices M M^T of strongly regular point graphs."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .srpg import SrgSpectrum


PACK_CHUNK_BYTES = 1 << 22  # bytes of packed rows per block streamed to rank2


class BinaryMatrix:
    """GF(2) matrix stored as the row and column indices of its ones.

    ``BinaryMatrix(rows, cols, (nrows, ncols))`` has ones at (rows[k], cols[k]),
    given in any order, repeats ORed; the shape is needed because trailing rows
    or columns may be empty.  It keeps the indices as two read-only int64 arrays
    in row-major order (rows ascending, columns ascending within a row):
    :meth:`nonzero` returns them and every other view derives from them.
    Indices given strictly ascending in that order are kept as they are, made
    read-only, with no sort.  :meth:`by_column` gives the same ones in
    column-major order, sorted once and cached, as are the weights.
    """

    __slots__ = ("nrows", "cols", "_ones", "_by_column", "_weights")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]):
        nrows, ncols = shape
        if nrows < 1 or ncols < 1:
            raise ValueError("matrix must have at least one row and one column")
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("row and column indices must be 1-D arrays of one length")
        if rows.size and (rows.min() < 0 or rows.max() >= nrows
                          or cols.min() < 0 or cols.max() >= ncols):
            raise ValueError(f"index outside the {nrows} x {ncols} matrix")
        linear = rows * ncols + cols
        if (linear[1:] > linear[:-1]).all():  # row-major already, no repeat
            self._ones = rows, cols
        else:
            linear.sort()
            linear = linear[np.diff(linear, prepend=-1) != 0]  # drop repeats
            self._ones = np.divmod(linear, ncols)
        for a in self._ones:
            a.flags.writeable = False
        self.nrows, self.cols = nrows, ncols
        self._by_column = None
        self._weights = [None, None]

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the ones, in row-major order."""
        return self._ones

    def by_column(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the ones, in column-major order."""
        if self._by_column is None:
            rows, cols = self._ones
            # one sort of distinct keys, several times faster than a stable argsort
            self._by_column = np.divmod(np.sort(cols * self.nrows + rows), self.nrows)[::-1]
            for a in self._by_column:
                a.flags.writeable = False
        return self._by_column

    def row_weights(self) -> np.ndarray:
        """The number of ones in each row: a read-only int64 array, cached."""
        return self._weight(0, self.nrows)

    def column_weights(self) -> np.ndarray:
        """The number of ones in each column: a read-only int64 array, cached."""
        return self._weight(1, self.cols)

    def _weight(self, axis: int, size: int) -> np.ndarray:
        if self._weights[axis] is None:
            self._weights[axis] = np.bincount(self._ones[axis], minlength=size)
            self._weights[axis].flags.writeable = False
        return self._weights[axis]

    def packed_chunks(self):
        """Yield the rows packed into uint8 bytes (bit j % 8 of byte j // 8 is
        column j), straight from the ones, in blocks of consecutive rows, each
        of about `PACK_CHUNK_BYTES` bytes and at least one row, so that no
        whole packed copy is ever formed."""
        rows, cols = self._ones
        width = (self.cols + 7) // 8
        step = max(1, PACK_CHUNK_BYTES // width)
        for lo in range(0, self.nrows, step):
            hi = min(lo + step, self.nrows)
            start, stop = np.searchsorted(rows, (lo, hi))
            on = cols[start:stop]
            packed = np.zeros((hi - lo, width), dtype=np.uint8)
            np.bitwise_or.at(packed, (rows[start:stop] - lo, on >> 3),
                             (1 << (on & 7)).astype(np.uint8))
            yield packed

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, BinaryMatrix)
                and (other.nrows, other.cols) == (self.nrows, self.cols)
                and all(np.array_equal(a, b) for a, b in zip(other._ones, self._ones)))

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.nrows}x{self.cols})"


def rank2(packed: np.ndarray | Iterable[np.ndarray]) -> int:
    """GF(2) rank of rows of packed bits, by forward elimination on the
    highest set bit.  `packed` is a 2-D uint8 array, such as
    ``np.packbits(a, axis=1)`` gives (the bit order does not matter), or an
    iterable of such arrays holding the rows a block at a time, as
    :meth:`BinaryMatrix.packed_chunks` yields them: then only the pivot rows
    outlive their block."""
    pivots: dict[int, int] = {}
    for chunk in (packed,) if isinstance(packed, np.ndarray) else packed:
        for row in chunk:
            cur = int.from_bytes(row.tobytes(), "little")
            while cur:
                h = cur.bit_length() - 1
                piv = pivots.get(h)
                if piv is None:
                    pivots[h] = cur
                    break
                cur ^= piv
    return len(pivots)


def folds_to_unit(f: np.ndarray) -> bool:
    """Whether the group matrix F[x, y] = f[y - x] over G = (Z_n)^2 of the n x n
    0/1 array f is invertible over GF(2).  With n = 2^a m, m odd, G = P x H for
    P = (Z_{2^a})^2 and H = (Z_m)^2; the augmentation ideal of the 2-group P is
    nilpotent in GF(2)[G] = GF(2)[H][P], so F is invertible iff f read mod m is
    a unit of GF(2)[H] (Passman 1977), which is semisimple: iff no character of
    H vanishes on it.  Those of k(i, j), k in Z_m, are c(z^k), z^m = 1, for c[d]
    = |{f[a, b] = 1 : ia + jb = d mod m}| mod 2: all nonzero iff c's circulant
    has rank m, since x^m - 1 has m distinct roots (Imai 1977)."""
    m = len(f) // (len(f) & -len(f))
    a, b = np.nonzero(f.reshape(-1, m, len(f) // m, m).sum(axis=(0, 2)) % 2)  # f read mod m
    k, seen = np.arange(m), np.zeros((m, m), dtype=bool)
    d = (k - k[:, None]) % m  # the circulant of c is c[d]
    for i, j in np.ndindex(m, m):  # one (i, j) per cyclic subgroup not yet seen
        if not seen[i, j]:
            seen[k * i % m, k * j % m] = True
            c = np.bincount((i * a + j * b) % m, minlength=m) % 2
            if rank2(np.packbits(c[d], axis=1)) < m:
                return False
    return True


def character_ranks(p: int, e: int, subgroups: np.ndarray) -> tuple[int, int]:
    """(rank_2 M, rank_2 M M^T) of the structure whose blocks are the cosets,
    each once, of the subgroups W_i of GF(p)^e (row i of `subgroups`: W_i's
    point indices of e base-p digits, ascending).  G = GF(p)^e has odd order,
    so a G-invariant matrix has the GF(2) rank of the characters Y on which
    its symbol is nonzero; that of the cosets of W is |W| = 1 mod 2 if Y is
    trivial on W (Y . g = 0 mod p on W), else 0.  So rank_2 M counts the Y
    trivial on some W_i, rank_2 M M^T those trivial on an odd number.  W_i,
    ascending, lists its coordinates in its reduced echelon basis in lex
    order, so its entries 1, p, p^2, ... below |W_i| are that basis."""
    r, w = subgroups.shape
    d = round(math.log(w, p))
    place = p ** np.arange(e - 1, -1, -1)
    basis = subgroups[:, p ** np.arange(d)].T.ravel()  # basis vector j of every W_i, j-major
    g = (basis // place[:, None] % p).astype(np.float64)  # its digits: e x (d r)
    zero = np.arange(e * (p - 1) ** 2 + 1) % p == 0  # over every possible dot product
    rank_m = rank_mmt = 0
    step = max(1, PACK_CHUNK_BYTES // (8 * d * r))
    for lo in range(0, p ** e, step):
        y = np.arange(lo, min(lo + step, p ** e))[:, None] // place % p
        dots = (y @ g).astype(np.intp)  # exact: each is a sum of e products below p^2
        trivial = np.logical_and.reduce(zero[dots].reshape(len(y), d, r), axis=1)
        hits = np.count_nonzero(trivial, axis=1)
        rank_m += int(np.count_nonzero(hits))
        rank_mmt += int(np.count_nonzero(hits & 1))
    return rank_m, rank_mmt


@dataclass(frozen=True)
class RankPrediction:
    kind: str        # "exact" | "upper-bound"
    value: int
    case_tag: str


def brouwer_predict(spectrum: "SrgSpectrum") -> RankPrediction:
    """Predict rank_2(M M^T) from the theta eigenvalue parities.

    Uses Brouwer's p-rank classification for N = A + cI at p = 2 with
    c = t + 1, where e = mu because the J coefficient is zero.
    """
    t0, t1, t2 = spectrum.theta0 & 1, spectrum.theta1 & 1, spectrum.theta2 & 1
    v, f1, f2, mu = spectrum.v, spectrum.f1, spectrum.f2, spectrum.mu
    if t1 == 1 and t2 == 1:
        if t0 == 1:
            return RankPrediction("exact", v, "all-theta-odd")
        return RankPrediction("exact", v - 1, "theta0-even-theta12-odd")
    if t1 == 0 and t2 == 0:
        return RankPrediction("upper-bound", min(f1, f2) + 1, "theta1-theta2-even")
    # exactly one of theta1, theta2 is even
    f_even, f_odd, tag = (f1, f2, "theta1") if t1 == 0 else (f2, f1, "theta2")
    if t0 == 1:
        return RankPrediction("exact", v - f_even, f"{tag}-even-theta0-odd")
    if mu % 2 == 0:
        return RankPrediction("exact", f_odd, f"{tag}-even-theta0-even-mu-even")
    return RankPrediction("exact", f_odd + 1, f"{tag}-even-theta0-even-mu-odd")
