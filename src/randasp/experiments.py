"""Batch experiment harness: average counts, size distributions, consistency.

Trial t of a run seeded with s generates its program from sub-seed
mix_seed(s, t), so results are independent of scheduling.  Each row of a
sweep is cut into chunks of consecutive trials, about four per worker, so a
heavy-tailed row does not leave workers idle behind one slow chunk; near the
end of the sweep the chunks shrink.  With workers > 1 the calling process is
one of the workers and the rest are children forked for the sweep: every
process, the caller included, claims the next chunk from one shared counter,
so no chunk waits behind a process that has not started it.  Rows are
reduced and reported in row order as their chunks come in.
One worker, `_count_chunk`, serves all three experiments; consistency stops
each search at its first answer set, so its summed count is the number of
consistent programs.  All accumulators are integers, which makes the
reduction exact and byte-identical for any worker count.
Each trial goes through `_trial`.  Where the compiled kernel searches
(`search_path`), a trial is one C call, `randasp_trial`: it draws the
program, searches it, re-checks every leaf and adds the trial into the
chunk's int64 sums, with no Python per program or per leaf, and an
interrupt lands between trials.  Elsewhere, and while a wrapper on
`_Searcher` must see every search, a trial runs `generate_with_stats` and
`enumerate_answer_sets`, which define what the C call adds.

The row loop is written once, in `_sweep`: each experiment passes a row
function that turns one row's column sums into its result and a progress
note, and `_sweep` collects the results and prints the notes.  The children
live exactly as long as the `_sweep` call: before it returns they have
exited and been reaped, and when it raises, on a failed trial in any
process, a failing row function or an interrupt, every child is killed and
reaped.
"""

from __future__ import annotations

import itertools
import math
import os
import signal
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import ClassVar

import numpy as np

from .generate import _MAX_RESAMPLE, LinearModelParams, _sampler_args, generate_with_stats, mix_seed, require_sampleable
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


# -- chunk workers ------------------------------------------------------------


def _trial(params: LinearModelParams, seed: int, limit: int | None, sums, kernel) -> None:
    """Add trial `seed` into `sums`: up to `limit` answer sets (None: all) of the program it draws.

    `sums` holds the kept count, its square, the resamples and then the
    histogram of kept sets by size, n + 4 integers.  `kernel` is None or
    `_kernel.trial`'s runner for the same params, limit and sums.  With
    None, the trial runs on `generate_with_stats` and
    `enumerate_answer_sets`, which is the definition; with the runner, the
    compiled kernel draws the same program, walks the same tree, re-checks
    each leaf as `enumerate_answer_sets` does and adds the same integers, in
    one C call.  Both executions call this function once per trial, so a
    wrapper on it sees every trial.
    """
    if kernel is not None:
        kernel(seed)
        return
    prog, attempts = generate_with_stats(params, seed)
    masks = enumerate_answer_sets(prog, limit).masks
    sums[0] += len(masks)
    sums[1] += len(masks) * len(masks)
    sums[2] += attempts
    for m in masks:
        sums[3 + m.bit_count()] += 1


def _count_chunk(args):
    """(sum, sum of squares, resamples, *size histogram) of up to `limit` sets (None: all) per trial.

    Where `search_path(n)` is "kernel", each trial is one call of the
    compiled kernel (`randasp_trial`), which adds into an int64 array and
    raises OverflowError where a sum would leave it; elsewhere, and while a
    wrapper on `_Searcher` must see the search, each trial runs in Python.
    Either way the sums come back as Python ints.
    """
    n, c1, c2, seed, start, stop, limit = args
    params = LinearModelParams(n, c1, c2)
    if search_path(n) == "kernel":
        from . import _kernel

        sums = np.zeros(n + 4, dtype=np.int64)
        kernel = _kernel.trial(*_sampler_args(params), _MAX_RESAMPLE, limit, sums)
    else:
        sums, kernel = [0] * (n + 4), None
    for t in range(start, stop):
        _trial(params, mix_seed(seed, t), limit, sums, kernel)
    return tuple(sums if kernel is None else sums.tolist())


def _chunk_plan(cfg: ExperimentConfig, workers: int, limit: int | None) -> list[list[tuple]]:
    """The `_count_chunk` arguments of each row's chunks, row by row, each row's trials in order."""
    # About four chunks per worker and row: enough that idle workers take up
    # a straggler's share, few enough that a chunk's claim and result message
    # stay small next to its trials (one trial per task slowed a 1000-trial
    # n=50 row at two workers by a third).  With more than one worker, a
    # chunk near the end of the sweep holds at most a (4 * workers)-th of
    # the trials left, so the processes that claim the last chunks finish
    # close together.
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


def _claim(counter) -> int:
    """The next chunk index off the shared counter; past the last chunk when none is left."""
    with counter.get_lock():
        i = counter.value
        counter.value = i + 1
    return i


def _child(counter, chunks, writer, mask):
    """A forked child's whole life: send (i, sums) of each chunk it claims, then exit; never returns.

    A failure is sent as (-1, (error, traceback text)).  The child leaves
    through `os._exit`, so it never flushes the caller's buffers or runs its
    `atexit` handlers.
    """
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        while (i := _claim(counter)) < len(chunks):
            writer.send((i, _count_chunk(chunks[i])))
        code = 0
    except BaseException as error:
        import traceback

        tb = "".join(traceback.format_exception(type(error), error, error.__traceback__))
        try:
            writer.send((-1, (error, tb)))
        except Exception:  # pickle cannot carry this error; its traceback text still goes
            writer.send((-1, (RuntimeError(f"sweep worker {os.getpid()} raised an error that cannot be pickled"), tb)))
    finally:
        os._exit(code)


def _forked_results(chunks, children: int):
    """`_count_chunk` of each chunk, in order, run by this process and `children` forked ones.

    Every process claims the next chunk from one shared counter.  A child
    sends each chunk's sums down a pipe of its own and exits once no chunk is
    left.  This process reads every pipe that is ready before each claim,
    and claims only while the chunk it must yield next is still missing;
    once no chunk is left to claim, it waits on the pipes.  A child's error
    is raised here, as is a child that exits with a nonzero status.  Once
    every chunk is in, the children exit on their own and are reaped before
    the last chunk is yielded; if the generator raises or is closed before
    that, every child left is killed and reaped.
    """
    import multiprocessing
    from multiprocessing.connection import Pipe, wait

    counter = multiprocessing.get_context("fork").Value("q", 0)
    done = {}
    running = {}  # pipe -> pid of each child not yet reaped

    def receive(reader):
        try:
            i, sums = reader.recv()
        except EOFError:  # the child has exited
            pid = running.pop(reader)
            reader.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                raise RuntimeError(f"sweep worker {pid} exited with status {code}") from None
            return
        if i < 0:
            error, tb = sums
            raise error from RuntimeError(f"in a sweep worker:\n{tb}")
        done[i] = sums

    def drain(timeout):
        for reader in wait(list(running), timeout):
            receive(reader)

    def claim():
        # A child killed while it holds the counter's lock never releases
        # it; its pipe then reads as closed, and `receive` raises.
        while not counter.get_lock().acquire(timeout=1.0):
            drain(0)
        try:
            return _claim(counter)
        finally:
            counter.get_lock().release()

    # SIGINT waits until each child's pid is recorded and, in the child,
    # until its `try` has begun.
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        try:
            for _ in range(children):
                reader, writer = Pipe(duplex=False)
                pid = os.fork()
                if pid == 0:
                    _child(counter, chunks, writer, mask)
                running[reader] = pid
                writer.close()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        last = 0  # the last chunk this process claimed
        for i in range(len(chunks)):
            while i not in done:
                if last >= len(chunks) and not running:
                    raise RuntimeError(f"every sweep worker has exited with chunk {i} not done")
                drain(0 if last < len(chunks) else None)
                if i not in done and last < len(chunks):
                    last = claim()
                    if last < len(chunks):
                        done[last] = _count_chunk(chunks[last])
            if i + 1 == len(chunks):
                while running:  # every chunk is in, so each child is on its way out
                    drain(None)
            yield done.pop(i)
    finally:
        for pid in running.values():
            os.kill(pid, signal.SIGKILL)
        for reader, pid in running.items():
            os.waitpid(pid, 0)
            reader.close()


def _sweep(cfg: ExperimentConfig, workers: int, limit: int | None, row, progress: bool) -> list:
    """Results of `row(n, c1, c2, sums)` for each row of the grid, in row order.

    `sums` are the column sums of `_count_chunk` over the row's trials, and
    `row` returns (result, note).  With `progress`, the note goes to stderr
    followed by "[row i/rows, seconds since the sweep started]".  Children
    are forked only for more than one worker and chunk: this process is one
    of the `workers`, `min(workers, chunks) - 1` children are the rest, and
    each process claims the next chunk no process has started (see
    `_forked_results`).  No child outlives the call: each one is reaped
    before the sweep returns or raises.
    """
    workers = require_integer("workers", workers)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    t0 = perf_counter()
    rows = list(cfg.combos())
    row_chunks = _chunk_plan(cfg, workers, limit)
    chunks = [c for cs in row_chunks for c in cs]
    children = min(workers, len(chunks)) - 1
    if children:
        # Load the compiled kernel here, once, before the fork: this process
        # runs chunks too, the children inherit the loaded kernel, and none
        # of them hashes the source or races to compile it.
        search_path(max(cfg.n))
        results = _forked_results(chunks, children)
    else:
        results = map(_count_chunk, chunks)
    out = []
    try:
        for i, ((n, c1, c2), cs) in enumerate(zip(rows, row_chunks), 1):
            sums = [sum(column) for column in zip(*itertools.islice(results, len(cs)))]
            result, note = row(n, c1, c2, sums)
            out.append(result)
            if progress:
                print(f"{note} [row {i}/{len(rows)}, {perf_counter() - t0:.1f} s]", file=sys.stderr)
    finally:
        if children:
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
