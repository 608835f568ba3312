"""Reader/writer for the alist sparse parity-check interchange format.

Layout written here: line 1 is "n m" (columns then rows), line 2 the
maximum column and row weights, line 3 the n column weights, line 4 the m
row weights, then n lines of 1-based row indices per column and m lines of
1-based column indices per row.  Written files carry no zero padding,
except that an empty column or row is written as a single 0; the reader
tolerates zero-padded entries for interoperability.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

from .gf2 import BinaryMatrix


def _index_lines(index: np.ndarray, weights: list[int]) -> list[str]:
    """Consecutive runs of `weights` entries of `index`, 1-based, one line each."""
    parts = np.split(index + 1, np.cumsum(weights)[:-1])
    return [" ".join(map(str, part.tolist())) or "0" for part in parts]


def write_alist(h: BinaryMatrix, path: str | Path) -> None:
    """Serialize a binary matrix (rows = checks, columns = variables)."""
    m, n = h.nrows, h.cols
    rows, cols = h.nonzero()
    col_w = np.bincount(cols, minlength=n).tolist()
    row_w = np.bincount(rows, minlength=m).tolist()
    lines = [
        f"{n} {m}",
        f"{max(col_w)} {max(row_w)}",
        " ".join(map(str, col_w)),
        " ".join(map(str, row_w)),
    ]
    lines += _index_lines(h.by_column()[0], col_w)
    lines += _index_lines(cols, row_w)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _index_list(path: str | Path, kind: str, k: int, tokens: list[int], declared: int,
                limit: int) -> list[int]:
    """The sorted 1-based indices of one column or row line, validated."""
    entries = [x for x in tokens if x != 0]
    if len(entries) != declared:
        raise ValueError(f"{path}: {kind} {k} lists {len(entries)} indices, declared {declared}")
    if len(set(entries)) != declared:
        raise ValueError(f"{path}: {kind} {k} lists an index more than once")
    for x in entries:
        if not 1 <= x <= limit:
            raise ValueError(f"{path}: index {x} out of range in {kind} {k}")
    return sorted(entries)


def read_alist(path: str | Path) -> BinaryMatrix:
    """Parse an alist file into a binary matrix; checks the header against
    both index sections, cross-checks the sections and ignores zero padding."""
    tokens_by_line = []
    for number, line in enumerate(Path(path).read_text(encoding="ascii").splitlines(), 1):
        try:
            tokens = [int(x) for x in line.split()]
        except ValueError as exc:
            raise ValueError(f"{path}: line {number}: {exc}") from None
        if tokens:
            tokens_by_line.append(tokens)
    if len(tokens_by_line) < 4:
        raise ValueError(f"{path}: truncated alist header")
    if len(tokens_by_line[0]) != 2:
        raise ValueError(f"{path}: the first line must hold n and m, "
                         f"got {len(tokens_by_line[0])} values")
    n, m = tokens_by_line[0]
    col_w = tokens_by_line[2]
    row_w = tokens_by_line[3]
    if len(col_w) != n or len(row_w) != m:
        raise ValueError(f"{path}: weight lines do not match declared dimensions")
    maxima = [max(col_w, default=0), max(row_w, default=0)]
    if tokens_by_line[1] != maxima:
        raise ValueError(f"{path}: line 2 declares maximum weights {tokens_by_line[1]}, "
                         f"the weight lines give {maxima}")
    if len(tokens_by_line) != 4 + n + m:
        raise ValueError(f"{path}: expected {4 + n + m} lines, got {len(tokens_by_line)}")

    col_lists = [_index_list(path, "column", j, tokens_by_line[4 + j], col_w[j], m)
                 for j in range(n)]
    row_lists = [_index_list(path, "row", i, tokens_by_line[4 + n + i], row_w[i], n)
                 for i in range(m)]
    h = BinaryMatrix(np.fromiter(chain.from_iterable(col_lists), dtype=np.int64) - 1,
                     np.repeat(np.arange(n), col_w), (m, n))
    _, cols = h.nonzero()
    for i, (got, listed) in enumerate(zip(np.split(cols + 1, np.cumsum(h.row_weights())[:-1]),
                                          row_lists)):
        if got.tolist() != listed:
            raise ValueError(f"{path}: row section for row {i} disagrees with column section")
    return h
