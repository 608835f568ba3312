"""A frozen copy of geomcode's BER simulation, for the gate.

It reproduces a `geomcode simulate` CSV byte for byte from the alist
alone and imports nothing from geomcode.  A change to the program that
alters one hard decision, iteration count or stop-rule outcome therefore
fails the gate, however plausible the CSV it writes looks.

Copied from geomcode at the commit that defined this benchmark: the
sum-product decoder, the AWGN channel, the frame-keyed RNG streams, the
stop rule, the Wilson interval and the CSV format.  It is the reference:
do not edit it to follow the program.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

LLR_CLAMP = 30.0
CSV_HEADER = "ebn0_db,frames,bit_errors,frame_errors,ber,fer,mean_iters,ci_low,ci_high"


def read_alist(path: str | Path) -> tuple[int, list[list[int]]]:
    """(columns, 0-based column indices of each row) of an alist file whose
    row and column sections agree."""
    lines = [[int(x) for x in line.split()]
             for line in Path(path).read_text(encoding="ascii").splitlines() if line.strip()]
    n, m = lines[0]
    cols = [[i - 1 for i in line if i] for line in lines[4:4 + n]]
    rows = [sorted(j - 1 for j in line if j) for line in lines[4 + n:4 + n + m]]
    if len(lines) != 4 + n + m or len(cols) != n or len(rows) != m:
        raise ValueError(f"{path}: expected {4 + n + m} lines of an {m}x{n} alist")
    from_cols = [[] for _ in range(m)]
    for j, col in enumerate(cols):
        for i in col:
            from_cols[i].append(j)
    if from_cols != rows:
        raise ValueError(f"{path}: row and column sections disagree")
    return n, rows


def gf2_rank(rows: list[list[int]]) -> int:
    pivots: dict[int, int] = {}
    for cols in rows:
        r = sum(1 << j for j in cols)
        while r:
            lead = r.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = r
                break
            r ^= pivots[lead]
    return len(pivots)


class Decoder:
    """Flooding-schedule log-domain belief propagation, as in geomcode.sim."""

    def __init__(self, n: int, check_neighbors: list[list[int]]):
        m = len(check_neighbors)
        edge_var, edge_check = [], []
        for i, cols in enumerate(check_neighbors):
            for j in cols:
                edge_check.append(i)
                edge_var.append(j)
        e = len(edge_var)
        self.edge_var = np.array(edge_var, dtype=np.int64)
        self.edge_check = np.array(edge_check, dtype=np.int64)
        self.n, self.m, self.n_edges = n, m, e
        degrees = [len(c) for c in check_neighbors]
        table = np.full((m, max(degrees)), e, dtype=np.int64)
        pos = 0
        for i, d in enumerate(degrees):
            table[i, :d] = np.arange(pos, pos + d)
            pos += d
        self.check_edges = table

    def decode(self, llrs: np.ndarray, max_iter: int) -> tuple[np.ndarray, int]:
        ev, ec = self.edge_var, self.edge_check
        m_vc = np.clip(llrs[ev], -LLR_CLAMP, LLR_CLAMP)
        padded = np.empty(self.n_edges + 1)
        hard = (llrs < 0).astype(np.uint8)
        for it in range(1, max_iter + 1):
            padded[:-1] = np.tanh(0.5 * m_vc)
            padded[-1] = 1.0
            t = padded[self.check_edges]
            fwd = np.ones_like(t)
            fwd[:, 1:] = np.cumprod(t, axis=1)[:, :-1]
            bwd = np.ones_like(t)
            bwd[:, :-1] = np.cumprod(t[:, ::-1], axis=1)[:, ::-1][:, 1:]
            loo = np.clip(fwd * bwd, -1.0 + 1e-15, 1.0 - 1e-15)
            scattered = np.empty(self.n_edges + 1)
            scattered[self.check_edges.ravel()] = (2.0 * np.arctanh(loo)).ravel()
            m_cv = np.clip(scattered[:-1], -LLR_CLAMP, LLR_CLAMP)
            posterior = llrs + np.bincount(ev, weights=m_cv, minlength=self.n)
            hard = (posterior < 0).astype(np.uint8)
            syndrome = np.bincount(ec, weights=hard[ev].astype(np.float64),
                                   minlength=self.m).astype(np.int64) & 1
            if not syndrome.any() and (posterior != 0.0).all():
                return hard, it
            m_vc = np.clip(posterior[ev] - m_cv, -LLR_CLAMP, LLR_CLAMP)
        return hard, max_iter


def wilson_interval(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def ber_csv(alist: str | Path, grid: tuple[float, ...], seed: int, max_iters: int,
            min_frame_errors: int, max_frames: int) -> str:
    """The CSV `geomcode simulate` writes for these arguments: the all-zero
    codeword over BPSK/AWGN, one RNG stream per (seed, point, frame)."""
    n, rows = read_alist(alist)
    rate = (n - gf2_rank(rows)) / n
    decoder = Decoder(n, rows)
    x = np.ones(n)                                   # BPSK of the all-zero codeword
    lines = [CSV_HEADER]
    for point, ebn0 in enumerate(grid):
        sigma = math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0 / 10.0)))
        frames = bit_errors = frame_errors = iter_sum = 0
        while frames < max_frames and frame_errors < min_frame_errors:
            rng = np.random.default_rng([seed, point, frames])
            llrs = 2.0 * (x + sigma * rng.standard_normal(x.shape)) / (sigma * sigma)
            hard, iters = decoder.decode(llrs, max_iters)
            errs = int(hard.sum())
            bit_errors += errs
            frame_errors += errs > 0
            iter_sum += iters
            frames += 1
        bits = frames * n
        lo, hi = wilson_interval(bit_errors, bits)
        lines.append(f"{ebn0:.6g},{frames},{bit_errors},{frame_errors},"
                     f"{bit_errors / bits:.6g},{frame_errors / frames:.6g},"
                     f"{iter_sum / frames:.6g},{lo:.6g},{hi:.6g}")
    return "\n".join(lines) + "\n"
