"""Batch experiment harness: average counts, size distributions, consistency.

Trial t of a run seeded with s generates its program from sub-seed
mix_seed(s, t), so results are independent of scheduling.  Each row of a
sweep is cut into chunks of consecutive trials, about four per worker, so a
heavy-tailed row does not leave workers idle behind one slow chunk; near the
end of the sweep the chunks shrink.  With workers > 1 the calling process is
one of the workers and a process pool holds the rest: every row's chunks are
queued at once on the pool, any idle child takes the next chunk, and while
the caller waits for a chunk it runs the queued chunks no child has started
yet.  Rows are reduced and reported in row order as their chunks come in.
One worker, `_count_chunk`, serves all three experiments; consistency stops
each search at its first answer set, so its summed count is the number of
consistent programs.  All accumulators are integers, which makes the
reduction exact and byte-identical for any worker count.

The row loop is written once, in `_sweep`: each experiment passes a row
function that turns one row's column sums into its result and a progress
note, and `_sweep` collects the results and prints the notes.  The pool lives
exactly as long as the `_sweep` call: when it returns or raises, a failed
trial or a failing row function included, the pool is shut down and its
queued chunks are cancelled.
"""

from __future__ import annotations

import itertools
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import ClassVar

from .generate import LinearModelParams, generate_with_stats, mix_seed, require_sampleable
from .programs import require_integer, require_real
from .solver import enumerate_answer_sets, search_path
from .theory import (
    _require_curve,
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
    gamma: ClassVar[float] = 0.5  # fixed discount of the pred_gamma column, not fitted to data

    def __post_init__(self):
        for name, check in (("n", require_integer), ("c1", require_real), ("c2", require_real)):
            value = getattr(self, name)
            value = value if isinstance(value, (tuple, list)) else (value,)
            if not value:
                raise ValueError(f"{name} needs at least one value")
            object.__setattr__(self, name, tuple(check(name, v) for v in value))
        object.__setattr__(self, "trials", require_integer("trials", self.trials))
        object.__setattr__(self, "seed", require_integer("seed", self.seed))
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        for n, c1, c2 in self.combos():
            params = LinearModelParams(n, c1, c2)  # validates every combination
            if c1 > 0.0:
                _require_curve(n, c1, c2)  # what the theory columns will need
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
    resamples: int


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
    resamples: int


@dataclass(frozen=True)
class ConsRow:
    n: int
    c1: float
    c2: float
    trials: int
    empirical_ratio: float
    pred_full: float
    pred_gamma: float
    consistent: int
    resamples: int


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


def _take_while_waiting(futures, chunks):
    """`_count_chunk` of each chunk, in order; this process runs every chunk no child has started.

    While chunk i is not done, walk forward from it and run each chunk whose
    future `cancel()` still succeeds.  Only the few chunks a child has
    started or has been handed are out of reach.
    """
    mine = {}
    ahead = 0
    for i, f in enumerate(futures):
        ahead = max(ahead, i)
        while not f.done() and ahead < len(futures):
            if futures[ahead].cancel():
                mine[ahead] = _count_chunk(chunks[ahead])
            ahead += 1
        yield mine.pop(i) if f.cancelled() else f.result()


def _sweep(cfg: ExperimentConfig, workers: int, limit: int | None, row, progress: bool) -> list:
    """Results of `row(n, c1, c2, sums)` for each row of the grid, in row order.

    `sums` are the column sums of `_count_chunk` over the row's trials, and
    `row` returns (result, note).  With `progress`, the note goes to stderr
    followed by "[row i/rows, seconds since the sweep started]".  A pool is
    started only for more than one worker and chunk.  This process is one
    of the `workers` and the pool holds the rest: every chunk is submitted
    up front, and while waiting for the next chunk in row order this
    process walks forward through the chunks and runs each one whose
    future it can still cancel, that is, each one no child has started.
    The pool is shut down, its queued chunks cancelled, when the sweep
    returns or raises.
    """
    workers = require_integer("workers", workers)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    t0 = perf_counter()
    rows = list(cfg.combos())
    # About four chunks per worker and row: enough that idle workers take up
    # a straggler's share, few enough that one chunk's pickling round trip
    # stays small next to its trials (one trial per task slowed a 1000-trial
    # n=50 row at two workers by a third).  With a pool, a chunk near the
    # end of the sweep holds at most a (4 * workers)-th of the trials left:
    # a child runs the two or three chunks it has been handed even when this
    # process has none left to take, so those must be short.  (With eight
    # even chunks a 600-trial n=1000 consistency row at two workers ran 11%
    # slower than with two children and an idle caller, on a 2-vCPU box.)
    per = -(-cfg.trials // (4 * workers))
    left = len(rows) * cfg.trials
    row_chunks = []
    for n, c1, c2 in rows:
        row_chunks.append([])
        lo = 0
        while lo < cfg.trials:
            hi = min(cfg.trials, lo + per)
            if workers > 1:
                hi = min(hi, lo + -(-left // (4 * workers)))
            row_chunks[-1].append((n, c1, c2, cfg.seed, lo, hi, limit))
            left -= hi - lo
            lo = hi
    chunks = [c for cs in row_chunks for c in cs]
    pool = None
    if workers > 1 and len(chunks) > 1:
        # Load the compiled kernel here, once, before the pool forks: this
        # process runs chunks too, the children inherit the loaded kernel,
        # and none of them hashes the source or races to compile it.
        search_path(max(cfg.n))
        pool = ProcessPoolExecutor(max_workers=min(workers, len(chunks)) - 1)
    out = []
    try:
        if pool is None:
            results = map(_count_chunk, chunks)
        else:
            futures = [pool.submit(_count_chunk, c) for c in chunks]  # every row queued up front
            results = _take_while_waiting(futures, chunks)
        for i, ((n, c1, c2), cs) in enumerate(zip(rows, row_chunks), 1):
            sums = [sum(column) for column in zip(*itertools.islice(results, len(cs)))]
            result, note = row(n, c1, c2, sums)
            out.append(result)
            if progress:
                print(f"{note} [row {i}/{len(rows)}, {perf_counter() - t0:.1f} s]", file=sys.stderr)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return out


def _theory_columns(n: int, c1: float, c2: float) -> tuple[float, float]:
    if c1 == 0.0:
        return 0.0, float("nan")  # alpha undefined; expected total is exactly 0
    return expected_total(n, c1, c2), limit_expected_total(c1, c2)


def run_avg_experiment(cfg: ExperimentConfig, workers: int = 1, progress: bool = False) -> list[AvgResult]:
    """Mean answer-set count per (n, c1, c2) combination, with 3-sigma-ready stderr."""

    def row(n, c1, c2, sums):
        total, sq, resamples, *_ = sums
        mean = total / cfg.trials
        var = (sq - total * total / cfg.trials) / (cfg.trials - 1) if cfg.trials > 1 else 0.0
        stderr = math.sqrt(max(var, 0.0) / cfg.trials)
        finite_n, limit = _theory_columns(n, c1, c2)
        note = f"avg n={n} c1={c1} c2={c2}: mean={mean:.4f} (theory {finite_n:.4f})"
        return AvgResult(n, c1, c2, cfg.trials, mean, stderr, finite_n, limit, resamples), note

    return _sweep(cfg, workers, None, row, progress)


def run_dist_experiment(cfg: ExperimentConfig, workers: int = 1, progress: bool = False) -> DistResult:
    """Empirical per-size averages vs E[N_k] vs the Gaussian curve, single combo."""
    combos = list(cfg.combos())
    if len(combos) != 1:
        raise ValueError("distribution experiment needs exactly one (n, c1, c2) combination")
    if cfg.c1[0] == 0.0:
        raise ValueError("difference rate undefined: chi_k is all zeros at c1 = 0")
    tp = theory_params(*combos[0])  # raises before the first trial where the theory is undefined

    def row(n, c1, c2, sums):
        _, _, resamples, *totals = sums
        empirical = [t / cfg.trials for t in totals]
        model = [0.0, *expected_counts(n, c1, c2).tolist(), 0.0]
        chi_k = [chi(float(k), tp) for k in range(n + 1)]
        drate = difference_rate(chi_k[1:n], empirical[1:n])
        result = DistResult(
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
        return result, f"dist n={n} c1={c1} c2={c2}: {sum(totals)} answer sets, D={drate:.5f}"

    (result,) = _sweep(cfg, workers, None, row, progress)
    return result


def run_consistency_experiment(cfg: ExperimentConfig, workers: int = 1, progress: bool = False) -> list[ConsRow]:
    """Fraction of consistent programs vs the two closed-form predictions."""

    def row(n, c1, c2, sums):
        consistent, _, resamples, *_ = sums
        ratio = consistent / cfg.trials
        expected, _ = _theory_columns(n, c1, c2)
        pred_full = consistency_probability(expected, 1.0)
        pred_gamma = consistency_probability(expected, cfg.gamma)
        result = ConsRow(n, c1, c2, cfg.trials, ratio, pred_full, pred_gamma, consistent, resamples)
        return result, f"consistency n={n} c1={c1} c2={c2}: ratio={ratio:.4f} in [{pred_gamma:.4f}, {pred_full:.4f}]?"

    return _sweep(cfg, workers, 1, row, progress)
