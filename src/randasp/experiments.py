"""Batch experiment harness: average counts, size distributions, consistency.

Trial t of a run seeded with s generates its program from sub-seed
mix_seed(s, t), so results are independent of scheduling.  Each row of a
sweep is cut into chunks of consecutive trials, about four per worker, so a
heavy-tailed row does not leave workers idle behind one slow chunk; near the
end of the sweep the chunks shrink.  The calling thread is one of the
workers and the rest, if any, are threads started for the sweep: every
thread, the caller included, claims the next chunk from one shared counter,
so no chunk waits behind a thread that has not started it.  Rows are
reduced and reported in row order as their chunks come in.
One worker, `_count_chunk`, serves all three experiments; consistency stops
each search at its first answer set, so its summed count is the number of
consistent programs.  All accumulators are integers, which makes the
reduction exact and byte-identical for any worker count.
Each trial is one C call, set up per chunk by `_kernel.trial`: the
kernel's draw, its search, and one pass that checks every leaf and adds the
trial into the chunk's int64 sums, with no Python per program or per leaf.
The sums are what `generate_with_stats` and `enumerate_answer_sets` give
for the same trial.  The call gives up the GIL, so the threads' trials run
in parallel; an interrupt lands in the calling thread between its own
trials or while it waits.  A sweep needs the compiled kernel: `_sweep`
loads it before any thread starts or any trial runs, and where it cannot be
built the sweep raises that RuntimeError.

The row loop is written once, in `_sweep`: each experiment passes a row
function that turns one row's column sums into its result and a progress
note, and `_sweep` collects the results and prints the notes.  The threads
live exactly as long as the `_sweep` call: before it returns or raises
they have been joined.  When it raises, on a failed trial in any thread, a
failing row function or an interrupt, it first sets the sweep's stop flag,
which ends each kernel trial still running at its next decision.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import ClassVar

import numpy as np

from .generate import LinearModelParams, mix_seed, require_sampleable
from .programs import require_integer, require_real
from .solver import enumerate_answer_sets  # unused here; perfbench's tests patch this name, and perfbench/ is frozen
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


# -- chunk workers ------------------------------------------------------------


def _count_chunk(args, stop=None):
    """(sum, sum of squares, resamples, *size histogram) of up to `limit` sets (None: all) per trial, as Python ints.

    The trials run on `_kernel.trial`, adding into an int64 array (a sum
    past int64 raises OverflowError), and `stop`, a sweep's
    `ctypes.c_int32` flag (None: none), ends a trial at a decision once it
    is set.
    """
    from . import _kernel

    n, c1, c2, seed, start, end, limit = args
    sums = np.zeros(n + 4, dtype=np.int64)
    run = _kernel.trial(LinearModelParams(n, c1, c2), limit, sums, stop)
    for t in range(start, end):
        run(mix_seed(seed, t))
    return tuple(sums.tolist())


def _chunk_plan(cfg: ExperimentConfig, workers: int, limit: int | None) -> list[list[tuple]]:
    """The `_count_chunk` arguments of each row's chunks, row by row, each row's trials in order."""
    # About four chunks per worker and row: enough that idle workers take up
    # a straggler's share, few enough that a chunk's claim and set-up stay
    # small next to its trials (8 and 16 chunks per worker were slower at
    # two workers).  With more than one worker, a chunk near the end of the
    # sweep holds at most a (4 * workers)-th of the trials left, so the
    # threads that claim the last chunks finish close together.
    rows = list(cfg.combos())
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
    return row_chunks


def _threaded_results(chunks, threads: int):
    """`_count_chunk` of each chunk, in order, run by this thread and `threads` more.

    Every thread claims the next chunk from one shared counter.  This thread
    claims only while the chunk it must yield next is missing, and waits for
    the other threads once no chunk is left; with `threads` 0 it runs every
    chunk, in order.  The first error in any thread sets the sweep's stop
    flag, which ends every other thread's kernel trial at its next decision,
    and is raised here as itself.  Before the generator finishes, raises or
    is closed, the flag is set and every thread that started is joined.
    """
    import ctypes
    import threading

    claim = itertools.count().__next__  # atomic under the GIL
    stop = ctypes.c_int32(0)
    done, errors = {}, []
    changed = threading.Condition()

    def work(i):
        """Run chunk i into `done`; on an error, keep it (unless the sweep is stopping already) and set `stop`."""
        try:
            sums = _count_chunk(chunks[i], stop)
        except BaseException as error:  # a trial the flag stopped raises only after the first error
            with changed:
                if not stop.value:
                    errors.append(error)
                    stop.value = 1
                changed.notify()
            return
        with changed:
            done[i] = sums
            changed.notify()

    def worker():
        while not stop.value and (i := claim()) < len(chunks):
            work(i)

    pool = [threading.Thread(target=worker, name=f"randasp-sweep-{k}") for k in range(threads)]
    try:
        for thread in pool:
            thread.start()
        for i in range(len(chunks)):
            while i not in done and not errors:
                if (j := claim()) < len(chunks):
                    work(j)
                else:  # every chunk is claimed: wait for the thread that holds chunk i
                    with changed:
                        changed.wait_for(lambda: i in done or errors)
            if errors:
                raise errors[0]
            yield done.pop(i)
    finally:
        stop.value = 1
        for thread in filter(threading.Thread.is_alive, pool):  # a thread whose start failed cannot be joined
            thread.join()


def _sweep(cfg: ExperimentConfig, workers: int, limit: int | None, row, progress: bool) -> list:
    """Results of `row(n, c1, c2, sums)` for each row of the grid, in row order.

    `sums` are the column sums of `_count_chunk` over the row's trials, and
    `row` returns (result, note).  With `progress`, the note goes to stderr
    followed by "[row i/rows, seconds since the sweep started]".  The
    kernel is loaded first, so no two threads race to build it.  Every
    sweep runs through `_threaded_results`: this thread is one of the
    `workers`, and `min(workers, chunks) - 1` threads started for the call
    are the rest.  Each thread claims the next chunk no thread has started.
    No thread outlives the call: each one is joined before the sweep
    returns or raises.
    """
    from . import _kernel

    workers = require_integer("workers", workers)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    _kernel.load()
    t0 = perf_counter()
    rows = list(cfg.combos())
    row_chunks = _chunk_plan(cfg, workers, limit)
    chunks = [c for cs in row_chunks for c in cs]
    results = _threaded_results(chunks, min(workers, len(chunks)) - 1)
    out = []
    try:
        for i, ((n, c1, c2), cs) in enumerate(zip(rows, row_chunks), 1):
            sums = [sum(column) for column in zip(*itertools.islice(results, len(cs)))]
            result, note = row(n, c1, c2, sums)
            out.append(result)
            if progress:
                print(f"{note} [row {i}/{len(rows)}, {perf_counter() - t0:.1f} s]", file=sys.stderr)
    finally:
        results.close()
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
