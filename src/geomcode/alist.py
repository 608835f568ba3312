"""Reader/writer for the alist sparse parity-check interchange format.

Layout written here: line 1 is "n m" (columns then rows), line 2 the
maximum column and row weights, line 3 the n column weights, line 4 the m
row weights, then n lines of 1-based row indices per column and m lines of
1-based column indices per row.  Written files carry no zero padding,
except that an empty column or row is written as a single 0; the reader
tolerates zero-padded entries for interoperability.  Both directions work
on whole arrays of tokens: no Python loop runs per line or per index.  The
writer formats each value once and gathers the tokens' bytes from that table.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .constructions import refuse_peak
from .gf2 import BinaryMatrix

# The class of each byte, as str.split and str.splitlines read ASCII.
_OTHER, _DIGIT, _BLANK, _BREAK = range(4)
_CLASS = bytes(_DIGIT if 48 <= b < 58 else _BREAK if len(f"a{chr(b)}b".splitlines()) > 1
               else _BLANK if chr(b).isspace() else _OTHER for b in range(128)) + bytes(128)
# read_alist's tracemalloc peak per byte of its file: 11-14 for written alists,
# 30 at most, for a file of one-digit lines ("0\n" repeated)
READ_PEAK_PER_BYTE = 30


def write_alist(h: BinaryMatrix, path: str | Path) -> None:
    """Serialize a binary matrix (rows = checks, columns = variables): each
    value from 0 to max(n, m) is formatted once, as a right-aligned row of a
    byte table padded with NUL, every token gathers its row, and one
    bytes.translate drops the padding.  Refused before the first array if it
    would not fit: the tokens number at most 2 (n + m + ones) + 4, and each
    is charged 24 bytes plus 3 per digit place, on top of 8 KiB for numpy's
    fixed overheads.  Tracemalloc peaks per charged token, the matrix's
    column order formed inside: 21.7 at hyperbolic q=5 (charged 42), 20.5 at
    conic 3^3 (36), 23.8 for a 300,000-row column (45)."""
    m, n = h.nrows, h.cols
    top = len(str(max(n, m)))  # digit places of the largest value
    refuse_peak(8192 + (24 + 3 * (top + 1)) * (2 * (n + m + h.nonzero()[0].size) + 4),
                f"writing the {m:,} x {n:,} matrix as alist")
    cols, col_w, row_w = h.nonzero()[1], h.column_weights(), h.row_weights()
    lengths = np.concatenate(([2, 2, n, m], col_w, row_w))  # tokens per line
    values = np.concatenate(([n, m, col_w.max(), row_w.max()], col_w, row_w,
                             h.by_column() + 1, cols + 1))
    empty = lengths == 0  # an empty column or row is written as a single 0
    values = np.insert(values, (np.cumsum(lengths) - lengths)[empty], 0)
    lengths[empty] = 1
    r = np.arange(max(n, m) + 1)
    table = np.empty((len(r), top + 1), dtype=np.uint8)  # right-aligned, then a separator
    table[:, top] = ord(" ")
    for j in range(top - 1, -1, -1):
        table[:, j] = np.where(r > 0, r % 10 + ord("0"), 0)  # NUL in the places a value lacks
        r //= 10
    table[0, top - 1] = ord("0")  # the value 0 has one digit
    digits = table.take(values, axis=0)
    del values  # not held through the two copies that follow
    digits[np.cumsum(lengths) - 1, top] = ord("\n")
    Path(path).write_bytes(digits.tobytes().translate(None, b"\0"))


def _tokens(path: str | Path, raw: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The value of each token, and the first token of each nonblank line; a
    word that is not an integer from 0 to 10^18 - 1 raises, naming the line."""
    data, kind = np.frombuffer(raw, dtype=np.uint8), np.frombuffer(raw.translate(_CLASS), np.uint8)
    breaks = np.flatnonzero(kind == _BREAK)
    after = data[np.minimum(breaks + 1, len(data) - 1)]
    breaks = breaks[(data[breaks] != 13) | (after != 10)]  # \r\n breaks once, at the \n
    starts, ends = np.flatnonzero(np.diff(kind == _DIGIT, prepend=False, append=False)
                                  ).reshape(-1, 2).T
    bad = kind == _OTHER
    for k in np.flatnonzero(ends - starts > 18):  # zero padded, or too large
        bad[starts[k]] |= int(raw[starts[k]:ends[k]]) >= 10**18
    if bad.any():
        at, blank = int(bad.argmax()), kind >= _BLANK
        start = at + 1 - int(blank[at::-1].argmax()) if blank[:at].any() else 0
        stop = at + int(blank[at:].argmax()) if blank[at:].any() else len(raw)
        raise ValueError(f"{path}: line {np.searchsorted(breaks, at) + 1}: not an unsigned "
                         f"integer below 10^18: {raw[start:stop].decode('utf-8', 'replace')!r}")
    del kind, bad  # temporaries stay at token size
    lines = np.searchsorted(breaks, starts)  # of each token
    values = np.zeros(len(starts), dtype=np.int64)
    for p in range(min(int((ends - starts).max(initial=0)), 18), 0, -1):  # Horner steps
        at = ends - p  # the digit p places before each token's end, if it has one
        values *= 10
        values += np.where(at >= starts, np.take(data, at, mode="clip") - ord("0"), 0)
    return values, np.flatnonzero(np.concatenate(([True], lines[1:] != lines[:-1])))


def read_alist(path: str | Path) -> BinaryMatrix:
    """Parse an alist file into a binary matrix; checks the header against
    both index sections, cross-checks the sections and ignores zero padding.
    Refused before the file is read if READ_PEAK_PER_BYTE times its size
    would not fit."""
    size = Path(path).stat().st_size
    refuse_peak(READ_PEAK_PER_BYTE * size, f"reading the {size:,}-byte alist {path}")
    values, first = _tokens(path, Path(path).read_bytes())
    if len(first) < 4:
        raise ValueError(f"{path}: truncated alist header")
    head = np.split(values, first[1:5])[:4]
    if len(head[0]) != 2:
        raise ValueError(f"{path}: the first line must hold n and m, got {len(head[0])} values")
    (n, m), line2, col_w, row_w = head[0].tolist(), *head[1:]
    if len(col_w) != n or len(row_w) != m:
        raise ValueError(f"{path}: weight lines do not match declared dimensions")
    maxima = [int(col_w.max()), int(row_w.max())]
    if line2.tolist() != maxima:
        raise ValueError(f"{path}: line 2 declares maximum weights {line2.tolist()}, "
                         f"the weight lines give {maxima}")
    if len(first) != 4 + n + m:
        raise ValueError(f"{path}: expected {4 + n + m} lines, got {len(first)}")

    # the nonzero entries x of the index lines in file order, and their line:
    # n columns, then m rows; xs and ls are sorted by (line, index)
    x, line = values[first[4]:], np.repeat(np.arange(n + m), np.diff(first[4:], append=len(values)))
    x, line = x[x != 0], line[x != 0]
    ascending = not ((line[1:] == line[:-1]) & (x[1:] <= x[:-1])).any()
    order = slice(None) if ascending else np.lexsort((x, line))
    xs, ls = x[order], line[order]
    repeats = ls[1:][(ls[1:] == ls[:-1]) & (xs[1:] == xs[:-1])]
    outside = x > np.where(line < n, m, n)
    declared = np.concatenate((col_w, row_w))
    count = np.bincount(line, minlength=n + m)
    failed = count != declared
    failed[repeats] = failed[line[outside]] = True
    if failed.any():  # the first failing line, and its first failing check
        k = int(failed.argmax())
        kind, j = ("column", k) if k < n else ("row", k - n)
        if count[k] != declared[k]:
            raise ValueError(f"{path}: {kind} {j} lists {count[k]} indices, declared {declared[k]}")
        if k in repeats:
            raise ValueError(f"{path}: {kind} {j} lists an index more than once")
        raise ValueError(f"{path}: index {x[outside & (line == k)][0]} out of range in {kind} {j}")

    c = int(count[:n].sum())
    del values, head, line2, col_w, row_w, x, line, outside  # the matrix outlives the parse
    h = BinaryMatrix(xs[:c] - 1, ls[:c], (m, n))
    rows, cols = h.nonzero()
    got, listed = rows * n + cols, (ls[c:] - n) * n + xs[c:] - 1  # both row-major
    if not np.array_equal(got, listed):
        i = np.setxor1d(got, listed, assume_unique=True)[0] // n
        raise ValueError(f"{path}: row section for row {i} disagrees with column section")
    return h
