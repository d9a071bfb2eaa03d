"""Batch experiment harness: average counts, size distributions, consistency.

Trial t of a run seeded with s generates its program from sub-seed
mix_seed(s, t), so results are independent of scheduling.  Each row of a
sweep is cut into chunks of consecutive trials, about four per worker, so a
heavy-tailed row does not leave workers idle behind one slow chunk.  With
workers > 1 every row's chunks are queued at once on one process pool, and
any idle worker takes the next chunk; rows are reduced and reported in row
order as their chunks come in.  One worker, `_count_chunk`, serves all three
experiments; consistency stops each search at its first answer set, so its
summed count is the number of consistent programs.  All accumulators are
integers, which makes the reduction exact and byte-identical for any worker
count.
"""

from __future__ import annotations

import itertools
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from time import perf_counter

from .generate import LinearModelParams, generate_with_stats, mix_seed, require_sampleable
from .programs import require_integer
from .solver import enumerate_answer_sets
from .theory import (
    _require_model,
    chi,
    consistency_probability,
    expected_counts,
    expected_total,
    limit_expected_total,
    theory_params,
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Sweep grid (cross product of n, c1, c2 values) plus run controls."""

    n: tuple[int, ...]
    c1: tuple[float, ...]
    c2: tuple[float, ...]
    trials: int
    seed: int
    gamma: float = 0.5

    def __post_init__(self):
        for name in ("n", "c1", "c2"):
            value = getattr(self, name)
            object.__setattr__(self, name, tuple(value) if isinstance(value, (tuple, list)) else (value,))
        require_integer("trials", self.trials)
        require_integer("seed", self.seed)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        for n, c1, c2 in self.combos():
            params = LinearModelParams(n, c1, c2)  # validates every combination
            if c1 > 0.0:
                _require_model(n, c1, c2)  # what the theory columns will need
            require_sampleable(params)  # what the generator will need

    def combos(self):
        return itertools.product(self.n, self.c1, self.c2)


@dataclass(frozen=True)
class AvgResult:
    n: int
    c1: float
    c2: float
    trials: int
    avg_answer_sets: float
    stderr: float
    theory_finite_n: float
    theory_limit: float
    resamples: int = 0


@dataclass(frozen=True)
class DistResult:
    """Per-size curves for k = 0..n plus the normal-vs-empirical gap."""

    n: int
    c1: float
    c2: float
    trials: int
    totals: tuple[int, ...]  # answer sets of each size observed, all trials
    empirical_avg: tuple[float, ...]
    model_e_nk: tuple[float, ...]
    chi_k: tuple[float, ...]
    difference_rate: float
    resamples: int = 0


@dataclass(frozen=True)
class ConsRow:
    n: int
    c1: float
    c2: float
    trials: int
    empirical_ratio: float
    pred_full: float
    pred_gamma: float
    consistent: int = 0
    resamples: int = 0


@dataclass(frozen=True)
class ConsResult:
    gamma: float
    rows: tuple[ConsRow, ...]


def difference_rate(f, g) -> float:
    """D(f, g) = sum((f-g)^2) / sum(f^2) over a shared index range."""
    f = list(f)
    g = list(g)
    if len(f) != len(g):
        raise ValueError(f"curves must share an index range: {len(f)} vs {len(g)}")
    denom = math.fsum(x * x for x in f)
    if denom <= 0.0:
        raise ValueError("difference rate undefined: sum of squares of f is zero")
    num = math.fsum((x - y) * (x - y) for x, y in zip(f, g))
    return num / denom


# -- chunk workers (module-level: picklable for process pools) ----------------


def _count_chunk(args):
    """(sum, sum of squares, resamples, *size histogram) of up to `limit` sets (None: all) per trial."""
    n, c1, c2, seed, start, stop, limit = args
    params = LinearModelParams(n, c1, c2)
    hist = [0] * (n + 1)
    total = sq = resamples = 0
    for t in range(start, stop):
        prog, attempts = generate_with_stats(params, mix_seed(seed, t))
        masks = enumerate_answer_sets(prog, limit).masks
        total += len(masks)
        sq += len(masks) * len(masks)
        for m in masks:
            hist[m.bit_count()] += 1
        resamples += attempts
    return (total, sq, resamples, *hist)


def _sweep(cfg: ExperimentConfig, workers: int, limit: int | None):
    """Yield (n, c1, c2, column sums of `_count_chunk`, where) for each row, in row order.

    `where` is "[row i/rows, seconds since the sweep started]" for progress
    lines.  A pool is started only for more than one worker and chunk; it is
    shut down, its queued chunks cancelled, when the generator finishes, raises
    or is closed, so close it (`contextlib.closing`) when the loop over it
    can stop early.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    t0 = perf_counter()
    rows = list(cfg.combos())
    # About four chunks per worker and row: enough that idle workers take up
    # a straggler's share, few enough that one chunk's pickling round trip
    # stays small next to its trials (one trial per task slowed a 1000-trial
    # n=50 row at two workers by a third).
    per = -(-cfg.trials // (4 * workers))
    starts = range(0, cfg.trials, per)
    chunks = [(n, c1, c2, cfg.seed, lo, min(lo + per, cfg.trials), limit) for n, c1, c2 in rows for lo in starts]
    pool = None
    if workers > 1 and len(chunks) > 1:
        pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)))
    try:
        if pool is None:
            results = map(_count_chunk, chunks)
        else:
            futures = [pool.submit(_count_chunk, c) for c in chunks]  # every row queued up front
            results = (f.result() for f in futures)
        for i, (n, c1, c2) in enumerate(rows, 1):
            sums = [sum(column) for column in zip(*itertools.islice(results, len(starts)))]
            yield n, c1, c2, sums, f"[row {i}/{len(rows)}, {perf_counter() - t0:.1f} s]"
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _theory_columns(n: int, c1: float, c2: float) -> tuple[float, float]:
    if c1 == 0.0:
        return 0.0, float("nan")  # alpha undefined; expected total is exactly 0
    return expected_total(n, c1, c2), limit_expected_total(c1, c2)


def run_avg_experiment(cfg: ExperimentConfig, workers: int = 1, progress: bool = False) -> list[AvgResult]:
    """Mean answer-set count per (n, c1, c2) combination, with 3-sigma-ready stderr."""
    out = []
    with closing(_sweep(cfg, workers, None)) as rows:
        for n, c1, c2, (total, sq, resamples, *_), where in rows:
            mean = total / cfg.trials
            var = (sq - total * total / cfg.trials) / (cfg.trials - 1) if cfg.trials > 1 else 0.0
            stderr = math.sqrt(max(var, 0.0) / cfg.trials)
            finite_n, limit = _theory_columns(n, c1, c2)
            out.append(
                AvgResult(n, c1, c2, cfg.trials, mean, stderr, finite_n, limit, resamples)
            )
            if progress:
                print(
                    f"avg n={n} c1={c1} c2={c2}: mean={mean:.4f} (theory {finite_n:.4f}) {where}",
                    file=sys.stderr,
                )
    return out


def run_dist_experiment(cfg: ExperimentConfig, workers: int = 1, progress: bool = False) -> DistResult:
    """Empirical per-size averages vs E[N_k] vs the Gaussian curve, single combo."""
    combos = list(cfg.combos())
    if len(combos) != 1:
        raise ValueError("distribution experiment needs exactly one (n, c1, c2) combination")
    n, c1, c2 = combos[0]
    if c1 == 0.0:
        raise ValueError("difference rate undefined: chi_k is all zeros at c1 = 0")
    ((_, _, _, sums, where),) = _sweep(cfg, workers, None)  # unpacking runs the generator to its end
    _, _, resamples, *totals = sums
    empirical = [t / cfg.trials for t in totals]
    model = [0.0, *expected_counts(n, c1, c2).tolist(), 0.0]
    tp = theory_params(n, c1, c2)
    chi_k = [chi(float(k), tp) for k in range(n + 1)]
    drate = difference_rate(chi_k[1:n], empirical[1:n])
    if progress:
        print(
            f"dist n={n} c1={c1} c2={c2}: {sum(totals)} answer sets, D={drate:.5f} {where}",
            file=sys.stderr,
        )
    return DistResult(
        n=n,
        c1=c1,
        c2=c2,
        trials=cfg.trials,
        totals=tuple(totals),
        empirical_avg=tuple(empirical),
        model_e_nk=tuple(model),
        chi_k=tuple(chi_k),
        difference_rate=drate,
        resamples=resamples,
    )


def run_consistency_experiment(cfg: ExperimentConfig, workers: int = 1, progress: bool = False) -> ConsResult:
    """Fraction of consistent programs vs the two closed-form predictions."""
    out = []
    with closing(_sweep(cfg, workers, 1)) as rows:
        for n, c1, c2, (consistent, _, resamples, *_), where in rows:
            ratio = consistent / cfg.trials
            if c1 > 0.0:
                expected = expected_total(n, c1, c2)
                pred_full = consistency_probability(expected, 1.0)
                pred_gamma = consistency_probability(expected, cfg.gamma)
            else:
                pred_full = pred_gamma = 0.0
            out.append(
                ConsRow(n, c1, c2, cfg.trials, ratio, pred_full, pred_gamma, consistent, resamples)
            )
            if progress:
                print(
                    f"consistency n={n} c1={c1} c2={c2}: ratio={ratio:.4f} "
                    f"in [{pred_gamma:.4f}, {pred_full:.4f}]? {where}",
                    file=sys.stderr,
                )
    return ConsResult(gamma=cfg.gamma, rows=tuple(out))
