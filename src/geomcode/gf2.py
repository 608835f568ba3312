"""Bit-packed GF(2) matrices, their integer Gram matrix M M^T,
elimination rank, and closed-form rank prediction for Gram matrices of
strongly regular point graphs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .srpg import SrgSpectrum


class BinaryMatrix:
    """GF(2) matrix stored as one Python int bitset per row (bit j = column j).

    Every other view is derived from the index arrays of the ones:
    :meth:`nonzero` gives them and :meth:`from_nonzero` packs them back;
    :meth:`from_numpy` packs a dense 0/1 array.
    """

    __slots__ = ("rows", "cols")

    def __init__(self, rows: list[int], cols: int):
        if cols < 1 or not rows:
            raise ValueError("matrix must have at least one row and one column")
        limit = 1 << cols
        for r in rows:
            if not 0 <= r < limit:
                raise ValueError("row has bits set beyond the declared column count")
        self.rows = list(rows)
        self.cols = cols

    @classmethod
    def from_bits(cls, bit_rows: Iterable[Iterable[int]]) -> "BinaryMatrix":
        rows = [list(bits) for bits in bit_rows]
        if not rows:
            raise ValueError("empty matrix")
        if len({len(bits) for bits in rows}) > 1:
            raise ValueError("ragged rows")
        return cls.from_numpy(np.array(rows) != 0)

    @classmethod
    def from_numpy(cls, dense: np.ndarray) -> "BinaryMatrix":
        """Bitset matrix of a 2-D array; nonzero entries are ones."""
        if dense.ndim != 2:
            raise ValueError("expected a 2-D array")
        return cls._from_packed(np.packbits(dense != 0, axis=1, bitorder="little"),
                                dense.shape[1])

    @classmethod
    def from_nonzero(cls, rows: np.ndarray, cols: np.ndarray,
                     shape: tuple[int, int]) -> "BinaryMatrix":
        """The inverse of :meth:`nonzero`: ones at (rows[k], cols[k]), in any
        order, packed straight into row bytes (no dense rows x cols array)."""
        nrows, ncols = shape
        packed = np.zeros((nrows, (ncols + 7) // 8), dtype=np.uint8)
        np.bitwise_or.at(packed, (rows, cols >> 3), (1 << (cols & 7)).astype(np.uint8))
        return cls._from_packed(packed, ncols)

    @classmethod
    def _from_packed(cls, packed: np.ndarray, ncols: int) -> "BinaryMatrix":
        return cls([int.from_bytes(row.tobytes(), "little") for row in packed], ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def get(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the ones, in row-major order.

        Only the nonzero bytes of the packed rows are unpacked, so the
        temporaries scale with the number of ones, not with rows x cols.
        """
        nbytes = (self.cols + 7) // 8
        packed = np.frombuffer(b"".join(r.to_bytes(nbytes, "little") for r in self.rows),
                               dtype=np.uint8)
        nz = np.flatnonzero(packed)
        bits = np.flatnonzero(np.unpackbits(packed[nz], bitorder="little"))
        rows, byte = np.divmod(nz[bits >> 3], nbytes)
        return rows, byte * 8 + (bits & 7)

    def row_weights(self) -> list[int]:
        return [r.bit_count() for r in self.rows]

    def column_weights(self) -> list[int]:
        return np.bincount(self.nonzero()[1], minlength=self.cols).tolist()

    def transpose(self) -> "BinaryMatrix":
        rows, cols = self.nonzero()
        return BinaryMatrix.from_nonzero(cols, rows, (self.cols, self.nrows))

    def to_numpy(self) -> np.ndarray:
        out = np.zeros((self.nrows, self.cols), dtype=np.uint8)
        out[self.nonzero()] = 1
        return out

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BinaryMatrix)
            and other.cols == self.cols
            and other.rows == self.rows
        )

    def __repr__(self) -> str:
        return f"BinaryMatrix({self.nrows}x{self.cols})"


def rank2(m: BinaryMatrix) -> int:
    """GF(2) rank by forward elimination; pivots on the highest set bit."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in m.rows:
        cur = row
        while cur:
            h = cur.bit_length() - 1
            piv = pivots.get(h)
            if piv is None:
                pivots[h] = cur
                rank += 1
                break
            cur ^= piv
    return rank


def gram_counts(m: BinaryMatrix) -> np.ndarray:
    """M M^T over the integers, as a v x v numpy array.

    Entry (i, j) counts the columns holding both i and j: one bincount over
    the row pairs i < j of every column, mirrored, with the row weights on
    the diagonal.  Column weights may differ.
    """
    v = m.nrows
    rows, cols = m.nonzero()
    order = np.argsort(cols, kind="stable")
    pts = rows[order]  # the rows of column 0, then of column 1, ...; ascending in each
    col_end = np.cumsum(np.bincount(cols, minlength=m.cols))[cols[order]]
    # pair entry e with e+1, ..., col_end[e]-1, the later entries of its column
    later = col_end - np.arange(len(pts)) - 1
    first = np.repeat(np.arange(len(pts)), later)
    rank = np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
    out = np.bincount(pts[first] * v + pts[first + 1 + rank], minlength=v * v).reshape(v, v)
    out += out.T
    out[np.diag_indices(v)] = m.row_weights()
    return out


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
