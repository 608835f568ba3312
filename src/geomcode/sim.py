"""Sum-product decoding over BPSK/AWGN and the Monte Carlo BER harness.

Conventions: BPSK maps bit 0 to +1 and bit 1 to -1; the noise variance is
sigma^2 = 1/(2 * rate * 10^(EbN0_dB/10)); channel LLRs are 2y/sigma^2.
The decoder runs a flooding schedule with the exact tanh product rule at
check nodes, message magnitudes clamped at +-30, and exits early on a zero
syndrome.  Every Monte Carlo frame draws its noise from an RNG stream
keyed by (seed, point index, frame index), so results do not depend on
execution order.

Two contracts hold for the decoder's slab layout (see `SumProductDecoder`).
Exactness: every floating-point operation and its order are those of the
row-major tanh-rule decoder (per-check cumulative products left to right
and right to left, per-variable sums in row-major edge order), so every
hard decision, iteration count, posterior and BER CSV is unchanged by the
layout.  The products are formed by a sweep over the slab rows, one
multiply per row (on narrow slabs by `np.multiply.accumulate`), and the
sums by gathering each variable's messages through a variable-major
table and adding its rows in edge order.  The row-major decoder's clamp
to +-(1 - 1e-15) before artanh is left out, as it never changes a
clamped message (see the comment in `decode`).
One decode per frame: `simulate_point` calls `decode` once per frame, in
frame order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .constructions import IncidenceStructure, refuse_peak
from .gf2 import PACK_CHUNK_BYTES, BinaryMatrix, rank2

LLR_CLAMP = 30.0
SWEEP_MIN_CHECKS = 128  # slab width from which the row sweep beats accumulate
MAX_RETRIES = 200     # redraws of a band permutation that makes a 4-cycle
WILSON_Z = 1.959964   # the 97.5% normal quantile, for 95% intervals


@dataclass(frozen=True)
class LdpcCode:
    h: BinaryMatrix
    dimension: int
    four_cycle_free: bool | None = None

    @property
    def n(self) -> int:
        return self.h.cols

    @property
    def m(self) -> int:
        return self.h.nrows

    @property
    def rate(self) -> float:
        return self.dimension / self.n

    def refusal(self) -> str | None:
        """Why the code cannot be simulated, or None when 0 < dimension < n."""
        if self.dimension == 0:
            return (f"parity-check matrix has full column rank "
                    f"(rank {self.n} = n = {self.n}), the code is {{0}}")
        if self.dimension == self.n:
            return f"parity-check matrix has rank 0, the code is all of GF(2)^{self.n}"
        return None

    @classmethod
    def from_structure(cls, ic: IncidenceStructure, gram_rank: int | None = None) -> "LdpcCode":
        """The code of ic's matrix, the one rank decision of `analyze` and
        `simulate`: rank_2 M from the certified group (`base_point.ranks`),
        else `gram_rank`, the eliminated rank_2 M M^T, if it is min(v, n) (over
        any field rank(M M^T) <= rank(M) <= min(v, n)), else by `from_parity`."""
        if (bp := ic.base_point) is not None:
            return cls(ic.matrix, ic.n - bp.ranks[0])
        if gram_rank != min(ic.v, ic.n):
            return cls.from_parity(ic.matrix)
        return cls(ic.matrix, ic.n - gram_rank)

    @classmethod
    def from_parity(cls, h: BinaryMatrix) -> "LdpcCode":
        """The code of h by elimination, where `from_structure` finds no rank
        to take, and for `random_regular_h`.  Refused before the first pivot
        if min(m, n) pivots of n bits (4 bytes per 30, and a dict entry), a
        packed chunk of rows and 32 bytes per one packing it would not fit."""
        m, n = h.nrows, h.cols
        refuse_peak(min(m, n) * (4 * -(-n // 30) + 160) + PACK_CHUNK_BYTES + 32 * h.nonzero()[0].size,
                    f"eliminating the {m:,} x {n:,} parity-check matrix")
        return cls(h=h, dimension=n - rank2(h.packed_chunks()))


class SumProductDecoder:
    """Flooding-schedule log-domain belief propagation on a fixed code.

    Messages live in a check-slot-major slab of shape (max_dc, m): the k-th
    edge of check c (edges in row-major order) is cell k*m + c, so column c
    holds check c's edges in row order.  Cells past a check's degree are
    pads: they read variable n, an extra posterior entry held at 0, and
    their tanh is set to 1.0.

    Check update: forward row k is forward row k-1 times tanh row k-1, and
    backward row k is backward row k+1 times tanh row k+1; forward row 0
    and backward row max_dc-1 hold 1.0 for good.  These are the
    left-to-right and right-to-left running products of each check's tanh
    values, and the leave-one-out product of a cell is forward times
    backward.  A slab at least SWEEP_MIN_CHECKS wide is swept by rows, one
    `np.multiply` per row on row views bound here; a narrower one by
    `np.multiply.accumulate` down axis 0, which walks each column as a
    strided chain, cheaper than a call per row while rows are short.  Both
    form the same products in the same order.

    Variable update, variable-major sums: `table` (max_dv, n) lists each
    variable's slab cells in row-major edge order, and pads point at one
    extra message cell held at 0.0.  A posterior is +0.0 plus the gathered
    rows in table order, then plus the channel LLR: the sums, in the order,
    of a `bincount` over the edges.

    The buffers are allocated once and reused by every `decode`, so a
    decoder is not shared between threads; the hard decisions it returns
    are always a fresh array.
    """

    def __init__(self, code: LdpcCode):
        n, m = code.n, code.m
        # edges in row-major order: the order of the floating-point sums below
        edge_check, edge_var = code.h.nonzero()
        self.n = n

        degrees = code.h.row_weights()
        md = max(int(degrees.max(initial=0)), 1)
        slot = np.arange(len(edge_check)) - (np.cumsum(degrees) - degrees)[edge_check]
        cell = slot * m + edge_check                          # slab cell of each edge
        var_of = np.full(md * m, n, dtype=np.intp)
        var_of[cell] = edge_var
        self.var_of = var_of.reshape(md, m)
        self.pad = np.flatnonzero(var_of == n)

        # each variable's edges in row-major order (a stable sort of 16-bit
        # keys is a radix sort); row v of by_var: v's cells, then the zero cell
        col_degrees = code.h.column_weights()
        dv = max(int(col_degrees.max(initial=0)), 1)
        order = np.argsort(edge_var.astype(np.uint16) if n <= 1 << 16 else edge_var,
                           kind="stable")
        by_var = np.full((n, dv), md * m, dtype=np.intp)
        by_var[np.arange(dv) < col_degrees[:, None]] = cell[order]
        self.table = np.ascontiguousarray(by_var.T)

        self._vc = np.empty((md, m))        # variable-to-check messages, then their tanh
        self._fwd = np.empty((md, m))       # forward products
        self._bwd = np.empty((md, m))       # backward products
        self._fwd[0] = self._bwd[-1] = 1.0
        self._cv_cells = np.zeros(md * m + 1)   # check-to-variable messages, then the zero cell
        self._cv = self._cv_cells[:-1].reshape(md, m)
        self._gathered = np.empty((dv, n))
        self._total = np.empty(n)
        self._bits = np.empty((md, m), dtype=bool)
        self._post = np.zeros(n + 1)        # posteriors; entry n stays 0 for the pads
        vc, fwd, bwd = self._vc, self._fwd, self._bwd
        self._sweep = None if m < SWEEP_MIN_CHECKS else (
            [(fwd[k - 1], vc[k - 1], fwd[k]) for k in range(1, md)]
            + [(bwd[k + 1], vc[k + 1], bwd[k]) for k in range(md - 2, -1, -1)])

    @staticmethod
    def peak_bytes(h: BinaryMatrix) -> int:
        """Bytes `__init__` allocates for h: 50 per cell of the (max check
        degree x m) slab (cell index, pads, four message slabs, bits, a mask)
        and 25 per cell of the (max column degree x n) table (table, its
        transposed copy, gathered messages, a mask)."""
        md, dv = (max(int(w.max(initial=0)), 1) for w in (h.row_weights(), h.column_weights()))
        return 50 * md * h.nrows + 25 * dv * h.cols

    def decode(self, llrs: np.ndarray, max_iter: int) -> tuple[np.ndarray, int, bool]:
        """Returns (hard decisions, iterations used, syndrome-zero flag)."""
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.shape != (self.n,):
            raise ValueError(f"expected {self.n} LLRs, got {llrs.shape}")
        if np.isnan(llrs).any():
            raise ValueError("LLRs contain NaN")
        n, var_of, pad, table, sweep = self.n, self.var_of, self.pad, self.table, self._sweep
        vc, fwd, bwd, cv, bits = self._vc, self._fwd, self._bwd, self._cv, self._bits
        cv_cells, gathered, total, post = self._cv_cells, self._gathered, self._total, self._post
        vc_flat, posterior = vc.reshape(-1), post[:n]
        multiply = np.multiply

        # the clamp commutes with the gather: n clamps per frame, not one per cell
        posterior[:] = llrs
        posterior.clip(-LLR_CLAMP, LLR_CLAMP, out=posterior)
        # every index is in range; mode="clip" spares take a checked copy of out
        post.take(var_of, out=vc, mode="clip")
        with np.errstate(divide="ignore"):
            for it in range(1, max_iter + 1):
                # check update: leave-one-out tanh products down each slab column
                multiply(vc, 0.5, vc)
                np.tanh(vc, out=vc)
                vc_flat[pad] = 1.0                            # the product's identity
                if sweep is None:
                    np.multiply.accumulate(vc[:-1], axis=0, out=fwd[1:])
                    np.multiply.accumulate(vc[:0:-1], axis=0, out=bwd[:-1][::-1])
                else:
                    for a, b, out in sweep:
                        multiply(a, b, out)
                multiply(fwd, bwd, cv)
                # no clamp to +-(1 - 1e-15) first, yet the same messages: every
                # tanh is at most tanh(15) < 1 in magnitude, so |cv| < 1 unless
                # the product is empty (a degree-1 check, or a pad of an empty
                # check), where 2 artanh(1.0) = inf is clamped to 30; and any
                # |cv| > 1 - 1e-15 has 2 artanh(|cv|) > 35.2, clamped to 30 as well
                np.arctanh(cv, out=cv)
                multiply(cv, 2.0, cv)
                cv.clip(-LLR_CLAMP, LLR_CLAMP, out=cv)

                # variable update: sums in row-major edge order, then decisions
                cv_cells.take(table, out=gathered, mode="clip")
                np.add(gathered[0], 0.0, out=total)
                for row in gathered[1:]:
                    np.add(total, row, out=total)
                np.add(llrs, total, out=posterior)
                post.take(var_of, out=vc, mode="clip")
                np.less(vc, 0.0, out=bits)                    # each column XORs to its syndrome bit
                # a zero posterior is a coin toss, not a decision: never declare
                # convergence off the back of one
                if (not np.bitwise_xor.reduce(bits, axis=0).any()
                        and np.count_nonzero(posterior) == n):
                    return np.less(posterior, 0.0).view(np.uint8), it, True
                np.subtract(vc, cv, out=vc)
                vc.clip(-LLR_CLAMP, LLR_CLAMP, out=vc)
        return np.less(posterior, 0.0).view(np.uint8), max_iter, False


def noise_sigma(ebn0_db: float, rate: float) -> float:
    """The noise deviation at one Eb/N0 point; a ValueError unless it is
    finite and positive and the LLR scale 2/sigma^2 of `awgn_llrs` is finite."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    try:
        sigma = math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))
    except (OverflowError, ZeroDivisionError):
        sigma = math.nan
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"Eb/N0 {ebn0_db:g} dB gives no finite positive noise sigma "
                         f"at rate {rate:g}")
    # where this can overflow, sigma < 1e-150 and y = +-1 + sigma z rounds to
    # exactly +-1, so 2y/sigma^2 in awgn_llrs is finite iff 2/sigma^2 is
    if 2.0 / (sigma * sigma) == math.inf:
        raise ValueError(f"Eb/N0 {ebn0_db:g} dB gives noise sigma {sigma:g}, whose LLR scale "
                         f"2/sigma^2 overflows at rate {rate:g}")
    return sigma


def awgn_llrs(bits: np.ndarray, ebn0_db: float, rate: float,
              rng: np.random.Generator) -> np.ndarray:
    """Channel LLRs for BPSK-modulated bits through AWGN at the given Eb/N0."""
    sigma = noise_sigma(ebn0_db, rate)
    x = 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)
    y = x + sigma * rng.standard_normal(x.shape)
    return 2.0 * y / (sigma * sigma)


def random_regular_h(m: int, n: int, w_col: int, w_row: int, seed: int) -> LdpcCode:
    """Gallager-style (w_col, w_row)-regular parity-check construction.

    The first band of m/w_col rows covers w_row consecutive columns each;
    every further band is a seeded random column permutation of the first.
    Permutations that create a 4-cycle are redrawn up to MAX_RETRIES, after
    which the candidate is accepted with four_cycle_free = False.
    """
    if min(m, n, w_col, w_row) < 1:
        raise ValueError(f"rows, columns and weights must be positive, got "
                         f"{m}, {n}, {w_col}, {w_row}")
    if m * w_row != n * w_col:
        raise ValueError(f"weight equation fails: {m}*{w_row} != {n}*{w_col}")
    if m % w_col != 0:
        raise ValueError(f"rows {m} not divisible into {w_col} bands")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    rpb = m // w_col  # rows per band; equals n // w_row
    # the bands, the matrix and the sorted keys of a 4-cycle test: 80 bytes
    # per one (tracemalloc peaks: about 52 per one at 1,000 to 30,000 columns)
    refuse_peak(80 * n * w_col, f"the random {m:,} x {n:,} code")
    rng = np.random.default_rng(seed)

    groups = [np.arange(n) // w_row]  # the row within its band of each column
    # two columns in one row of a band and of an earlier one make a 4-cycle:
    # a repeated key, earlier row * rpb + this row; with one column per row
    # there is no such pair, so no band is tested and no key kept
    key = np.min_scalar_type(rpb * rpb)  # the narrowest type of the keys sorts fastest
    scaled = [(groups[0] * rpb).astype(key)] if w_row > 1 else []  # each band's rows times rpb
    clean = True
    for _ in range(1, w_col):
        for _ in range(MAX_RETRIES + 1):
            g = rng.permutation(n) // w_row
            if all(_distinct(g.astype(key) + s) for s in scaled):
                break
        else:
            clean = False
        groups.append(g)
        if scaled:
            scaled.append((g * rpb).astype(key))

    rows = np.concatenate([band * rpb + g for band, g in enumerate(groups)])
    h = BinaryMatrix(rows, np.tile(np.arange(n), w_col), (m, n))
    return replace(LdpcCode.from_parity(h), four_cycle_free=clean)


def _distinct(keys: np.ndarray) -> bool:
    """Whether no value repeats in keys, which are sorted in place."""
    keys.sort()
    return not (keys[1:] == keys[:-1]).any()


@dataclass(frozen=True)
class ChannelConfig:
    ebn0_db_list: tuple[float, ...]
    max_iterations: int = 1000
    min_frame_errors: int = 100
    max_frames: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1 or self.min_frame_errors < 1 or self.max_frames < 1:
            raise ValueError("iteration and stop-rule parameters must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class PointStats:
    ebn0_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    mean_iterations: float
    ci_low: float
    ci_high: float


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = WILSON_Z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def simulate_point(code: LdpcCode, cfg: ChannelConfig, point_index: int) -> PointStats:
    """Monte Carlo at one Eb/N0 point: all-zero codeword, frame-keyed RNG."""
    reason = code.refusal()
    if reason is not None:
        raise ValueError(f"refusing to simulate: {reason}")
    decoder = SumProductDecoder(code)
    ebn0, rate = cfg.ebn0_db_list[point_index], code.rate
    zeros = np.zeros(code.n, dtype=np.uint8)
    frames = bit_errors = frame_errors = 0
    iter_sum = 0
    while frames < cfg.max_frames and frame_errors < cfg.min_frame_errors:
        rng = np.random.default_rng([cfg.seed, point_index, frames])
        llrs = awgn_llrs(zeros, ebn0, rate, rng)
        hard, iters, _ = decoder.decode(llrs, cfg.max_iterations)
        errs = int(hard.sum())
        bit_errors += errs
        frame_errors += errs > 0
        iter_sum += iters
        frames += 1
    total_bits = frames * code.n
    lo, hi = wilson_interval(bit_errors, total_bits)
    return PointStats(
        ebn0_db=ebn0,
        frames=frames,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        ber=bit_errors / total_bits,
        fer=frame_errors / frames,
        mean_iterations=iter_sum / frames,
        ci_low=lo,
        ci_high=hi,
    )
