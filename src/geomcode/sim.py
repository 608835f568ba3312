"""Sum-product decoding over BPSK/AWGN and the Monte Carlo BER harness.

Conventions: BPSK maps bit 0 to +1 and bit 1 to -1; the noise variance is
sigma^2 = 1/(2 * rate * 10^(EbN0_dB/10)); channel LLRs are 2y/sigma^2.
The decoder runs a flooding schedule with the exact tanh product rule at
check nodes, message magnitudes clamped at +-30, and exits early on a zero
syndrome.  Every Monte Carlo frame draws its noise from an RNG stream
keyed by (seed, point index, frame index), so results do not depend on
execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import BinaryMatrix, rank2

LLR_CLAMP = 30.0


@dataclass
class LdpcCode:
    h: BinaryMatrix
    dimension: int
    w_col: int | None = None          # set when the code is regular
    w_row: int | None = None
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

    @classmethod
    def from_parity(cls, h: BinaryMatrix) -> "LdpcCode":
        col_w = set(h.column_weights())
        row_w = set(h.row_weights())
        return cls(
            h=h,
            dimension=h.cols - rank2(h),
            w_col=col_w.pop() if len(col_w) == 1 else None,
            w_row=row_w.pop() if len(row_w) == 1 else None,
        )


class SumProductDecoder:
    """Flooding-schedule log-domain belief propagation on a fixed code."""

    def __init__(self, code: LdpcCode):
        self.code = code
        n, m = code.n, code.m
        # edges in row-major order: the order of the floating-point sums below
        self.edge_check, self.edge_var = code.h.nonzero()
        e = len(self.edge_var)
        self.n, self.m, self.n_edges = n, m, e

        degrees = np.bincount(self.edge_check, minlength=m)
        md = int(degrees.max())
        # per-check edge index table, padded with a slot that always holds 1.0
        table = np.full((m, md), e, dtype=np.int64)
        first_edge = np.cumsum(degrees) - degrees
        table[self.edge_check, np.arange(e) - first_edge[self.edge_check]] = np.arange(e)
        self.check_edges = table

    def decode(self, llrs: np.ndarray, max_iter: int) -> tuple[np.ndarray, int, bool]:
        """Returns (hard decisions, iterations used, syndrome-zero flag)."""
        llrs = np.asarray(llrs, dtype=np.float64)
        if llrs.shape != (self.n,):
            raise ValueError(f"expected {self.n} LLRs, got {llrs.shape}")
        ev, ec = self.edge_var, self.edge_check
        m_vc = np.clip(llrs[ev], -LLR_CLAMP, LLR_CLAMP)
        padded = np.empty(self.n_edges + 1)
        hard = (llrs < 0).astype(np.uint8)
        for it in range(1, max_iter + 1):
            padded[:-1] = np.tanh(0.5 * m_vc)
            padded[-1] = 1.0
            t = padded[self.check_edges]                      # (m, max_dc)
            fwd = np.ones_like(t)
            fwd[:, 1:] = np.cumprod(t, axis=1)[:, :-1]
            bwd = np.ones_like(t)
            bwd[:, :-1] = np.cumprod(t[:, ::-1], axis=1)[:, ::-1][:, 1:]
            loo = np.clip(fwd * bwd, -1.0 + 1e-15, 1.0 - 1e-15)
            # scatter the leave-one-out results back to flat edge order;
            # padding slots all land in the sacrificial last cell
            scattered = np.empty(self.n_edges + 1)
            scattered[self.check_edges.ravel()] = (2.0 * np.arctanh(loo)).ravel()
            m_cv = np.clip(scattered[:-1], -LLR_CLAMP, LLR_CLAMP)

            totals = np.bincount(ev, weights=m_cv, minlength=self.n)
            posterior = llrs + totals
            hard = (posterior < 0).astype(np.uint8)
            syndrome = np.bincount(ec, weights=hard[ev].astype(np.float64),
                                   minlength=self.m).astype(np.int64) & 1
            # a zero posterior is a coin toss, not a decision: never declare
            # convergence off the back of one
            if not syndrome.any() and (posterior != 0.0).all():
                return hard, it, True
            m_vc = np.clip(posterior[ev] - m_cv, -LLR_CLAMP, LLR_CLAMP)
        return hard, max_iter, False


def noise_sigma(ebn0_db: float, rate: float) -> float:
    if rate <= 0:
        raise ValueError("rate must be positive")
    return math.sqrt(1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0)))


def awgn_llrs(bits: np.ndarray, ebn0_db: float, rate: float,
              rng: np.random.Generator) -> np.ndarray:
    """Channel LLRs for BPSK-modulated bits through AWGN at the given Eb/N0."""
    sigma = noise_sigma(ebn0_db, rate)
    x = 1.0 - 2.0 * np.asarray(bits, dtype=np.float64)
    y = x + sigma * rng.standard_normal(x.shape)
    return 2.0 * y / (sigma * sigma)


def random_regular_h(m: int, n: int, w_col: int, w_row: int, seed: int,
                     max_retries: int = 200) -> LdpcCode:
    """Gallager-style (w_col, w_row)-regular parity-check construction.

    The first band of m/w_col rows covers w_row consecutive columns each;
    every further band is a seeded random column permutation of the first.
    Permutations that create a 4-cycle are redrawn up to max_retries, after
    which the candidate is accepted with four_cycle_free = False.
    """
    if m * w_row != n * w_col:
        raise ValueError(f"weight equation fails: {m}*{w_row} != {n}*{w_col}")
    if m % w_col != 0:
        raise ValueError(f"rows {m} not divisible into {w_col} bands")
    rpb = m // w_col  # rows per band; equals n // w_row
    rng = np.random.default_rng(seed)

    def band_groups(perm: np.ndarray) -> np.ndarray:
        # group index (row within band) of each column under this permutation
        return perm // w_row

    base = np.arange(n)
    groups = [band_groups(base)]
    clean = True
    for _ in range(1, w_col):
        for attempt in range(max_retries + 1):
            perm = rng.permutation(n)
            g = band_groups(perm)
            collision = False
            for prev in groups:
                pairs = prev.astype(np.int64) * rpb + g
                if np.bincount(pairs).max() > 1:
                    collision = True
                    break
            if not collision:
                groups.append(g)
                break
        else:
            groups.append(g)
            clean = False

    rows = np.concatenate([band * rpb + g for band, g in enumerate(groups)])
    code = LdpcCode.from_parity(BinaryMatrix.from_nonzero(rows, np.tile(np.arange(n), w_col),
                                                          (m, n)))
    code.four_cycle_free = clean
    return code


@dataclass(frozen=True)
class ChannelConfig:
    ebn0_db_list: tuple[float, ...]
    rate: float
    max_iterations: int = 1000
    min_frame_errors: int = 100
    max_frames: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rate < 1:
            raise ValueError(f"rate {self.rate} outside (0, 1)")
        if self.max_iterations < 1 or self.min_frame_errors < 1 or self.max_frames < 1:
            raise ValueError("iteration and stop-rule parameters must be positive")


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


@dataclass(frozen=True)
class BerResult:
    config: ChannelConfig
    points: tuple[PointStats, ...]


def wilson_interval(successes: int, trials: int, z: float = 1.959964) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def simulate_point(code: LdpcCode, cfg: ChannelConfig, point_index: int) -> PointStats:
    """Monte Carlo at one Eb/N0 point: all-zero codeword, frame-keyed RNG."""
    if code.dimension < 1:
        raise ValueError("code has dimension 0 (parity-check matrix has full column rank); "
                         "nothing to simulate")
    decoder = SumProductDecoder(code)
    ebn0 = cfg.ebn0_db_list[point_index]
    zeros = np.zeros(code.n, dtype=np.uint8)
    frames = bit_errors = frame_errors = 0
    iter_sum = 0
    while frames < cfg.max_frames and frame_errors < cfg.min_frame_errors:
        rng = np.random.default_rng([cfg.seed, point_index, frames])
        llrs = awgn_llrs(zeros, ebn0, cfg.rate, rng)
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


def ber_sweep(code: LdpcCode, cfg: ChannelConfig) -> BerResult:
    """Sequential sweep over all configured Eb/N0 points."""
    points = tuple(simulate_point(code, cfg, i) for i in range(len(cfg.ebn0_db_list)))
    return BerResult(config=cfg, points=points)
