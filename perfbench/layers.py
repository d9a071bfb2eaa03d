"""Per-trial replay of sweep rounds with spans around the calls into each layer.

A replay recomputes every CSV row of a round from the same calls the sweep
makes for one trial (generate_with_stats, then enumerate_answer_sets) plus
the theory calls of each row.  It times each call from outside, so nothing
under src/ is instrumented.  The layers are named after the modules:
generate, programs, solver, theory and experiments (the process pool).

`programs` is an estimate: generate_with_stats already builds the Program,
so the replay times Program(n, rules) rebuilt from the generated rules.

Every answer set the solver returns is re-checked with the reference
reduct/least-model checker; a failed check fails the trial's row.
"""

from __future__ import annotations

import math
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

from randasp import solver
from randasp.experiments import ExperimentConfig
from randasp.generate import LinearModelParams, generate_with_stats, mix_seed
from randasp.programs import Program, is_answer_set_general
from randasp.solver import enumerate_answer_sets
from randasp.theory import consistency_probability, expected_total, limit_expected_total

# Layers whose spans wrap a call the sweep itself makes; `programs` and
# `verify` are extra work of the replay, not part of a sweep.
SWEEP_LAYERS = ("generate", "solver", "theory")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "avg" (full enumeration) or "consistency" (existence, limit=1)
    ns: tuple[int, ...]
    c1: float
    c2: float
    workers: int
    trials: int  # trials per row in one round
    check_rounds: int  # rounds replayed and compared in an untraced run
    trace_rounds: int  # rounds of the traced run; at least 100 trials
    default_seed: int  # the seed the golden CSVs were made with

    @property
    def limit(self) -> int | None:
        return 1 if self.kind == "consistency" else None

    @property
    def round_trials(self) -> int:
        return self.trials * len(self.ns)

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(n=self.ns, c1=self.c1, c2=self.c2, trials=self.trials, seed=seed)


def round_seed(seed: int, r: int) -> int:
    """Sweep seed of round r of a run seeded with `seed`."""
    return mix_seed(seed, r)


@dataclass
class Replay:
    """Rows recomputed per round, failures found, and the spans recorded."""

    rows: dict = field(default_factory=dict)  # (round, row) -> tuple of CSV values
    resamples: dict = field(default_factory=dict)  # round -> resamples of the round
    bad: set = field(default_factory=set)  # (round, row) keys that failed
    spans: list = field(default_factory=list)  # (layer, trial id, start, end)
    trials: list = field(default_factory=list)  # (trial id, rules, resamples, answer sets)
    wall: float = 0.0

    def timed(self, layer: str, trial, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.spans.append((layer, trial, t0, perf_counter()))
        return out

    def busy(self, layer: str) -> float:
        return math.fsum(end - start for name, _, start, end in self.spans if name == layer)

    def durations(self, layer: str) -> list[float]:
        return [end - start for name, _, start, end in self.spans if name == layer]


def replay_round(rep: Replay, wl: Workload, seed: int, r: int) -> None:
    """Recompute round r of a run trial by trial into `rep`, timing each layer."""
    t_start = perf_counter()
    cfg = wl.config(round_seed(seed, r))
    rep.resamples[r] = 0
    for i, n in enumerate(wl.ns):
        params = LinearModelParams(n, wl.c1, wl.c2)
        counts = []
        for t in range(wl.trials):
            trial = (r, n, t)
            try:
                prog, attempts = rep.timed("generate", trial, generate_with_stats, params, mix_seed(cfg.seed, t))
                rep.timed("programs", trial, Program, prog.n, prog.rules)
                col = rep.timed("solver", trial, enumerate_answer_sets, prog, wl.limit)
                ok = rep.timed("verify", trial, _all_verified, prog, col.sets)
            except Exception:  # a raising trial fails its row; the replay goes on
                traceback.print_exc(file=sys.stderr)
                rep.bad.add((r, i))
                continue
            if not ok:
                print(f"trial {trial}: answer set fails re-verification", file=sys.stderr)
                rep.bad.add((r, i))
            rep.resamples[r] += attempts
            rep.trials.append((trial, len(prog.rules), attempts, col.count))
            counts.append(col.count)
        theory = rep.timed("theory", (r, n, None), _theory_columns, wl, cfg, n)
        rep.rows[(r, i)] = _row(wl, n, counts, theory)
    rep.wall += perf_counter() - t_start


def _all_verified(prog, sets) -> bool:
    return all(is_answer_set_general(prog, s) for s in sets)


def _theory_columns(wl: Workload, cfg: ExperimentConfig, n: int) -> tuple[float, float]:
    expected = expected_total(n, wl.c1, wl.c2)
    if wl.kind == "avg":
        return expected, limit_expected_total(wl.c1, wl.c2)
    return consistency_probability(expected, 1.0), consistency_probability(expected, cfg.gamma)


def _row(wl: Workload, n: int, counts: list[int], theory) -> tuple:
    k = wl.trials
    if wl.kind == "consistency":
        return (n, wl.c1, wl.c2, k, sum(c > 0 for c in counts) / k, *theory)
    total = sum(counts)
    sq = sum(c * c for c in counts)
    var = (sq - total * total / k) / (k - 1) if k > 1 else 0.0
    return (n, wl.c1, wl.c2, k, total / k, math.sqrt(max(var, 0.0) / k), *theory)


def span_cost(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: timed() of a no-op minus the bare call.

    The least of a few repeats, since interruptions only add time.
    """
    costs = []
    for _ in range(repeats):
        rep = Replay()
        t0 = perf_counter()
        for _ in range(calls):
            rep.timed("noop", None, _noop)
        t1 = perf_counter()
        for _ in range(calls):
            _noop()
        t2 = perf_counter()
        costs.append(((t1 - t0) - (t2 - t1)) / calls)
    return max(min(costs), 0.0)


def _noop():
    return None


def count_work(wl: Workload, seed: int, rounds: int) -> tuple[int, int] | None:
    """(decisions, propagations) over the rounds, from wrapped solver internals.

    `_Searcher._propagate` runs once per decision plus once per search, and
    `_Searcher._apply` once per assignment tried.  The wrappers run in a pass
    of their own so they do not inflate the replay's spans.  A trial that
    raises is skipped here; the replay counts it as failed.  Returns None if
    the solver no longer has those names.
    """
    searcher = getattr(solver, "_Searcher", None)
    if searcher is None or not all(hasattr(searcher, m) for m in ("_propagate", "_apply")):
        return None
    calls = {"_propagate": 0, "_apply": 0}
    originals = {m: getattr(searcher, m) for m in calls}

    def wrap(name):
        orig = originals[name]

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return orig(self, *args, **kwargs)

        return counted

    searches = 0
    for m in calls:
        setattr(searcher, m, wrap(m))
    try:
        for r in range(rounds):
            rs = round_seed(seed, r)
            for n in wl.ns:
                params = LinearModelParams(n, wl.c1, wl.c2)
                for t in range(wl.trials):
                    try:
                        prog, _ = generate_with_stats(params, mix_seed(rs, t))
                        enumerate_answer_sets(prog, wl.limit)
                    except Exception:
                        continue
                    searches += 1
    finally:
        for m, orig in originals.items():
            setattr(searcher, m, orig)
    return calls["_propagate"] - searches, calls["_apply"]


def layer_metrics(wl: Workload, rep: Replay, work, pool_wall: float) -> dict:
    """Per-layer metrics of a traced run.

    pool_wall is the untraced wall time of the same rounds at the workload's
    worker count.  A metric with no successful trial to measure is None.
    """
    gen_ms = [d * 1e3 for d in rep.durations("generate")]
    solve_ms = [d * 1e3 for d in rep.durations("solver")]
    counts = {trial: c for trial, _, _, c in rep.trials}
    rules = sum(nr for _, nr, _, _ in rep.trials)
    solver_busy = rep.busy("solver")
    inconsistent_busy = math.fsum(
        end - start for name, trial, start, end in rep.spans if name == "solver" and counts.get(trial) == 0
    )
    busy = math.fsum(rep.busy(layer) for layer in SWEEP_LAYERS)
    # What the spans themselves add: their count times the cost of one.  The
    # replay's wall without the extra work (programs, verify) and without that
    # cost is what the same calls take untraced.
    tracing = sum(1 for span in rep.spans if span[0] in SWEEP_LAYERS) * span_cost()
    untraced_wall = rep.wall - rep.busy("programs") - rep.busy("verify") - tracing
    decisions, propagations = work if work else (None, None)
    return {
        "generate.busy_s": (rep.busy("generate"), "s"),
        "generate.ms_p50": (statistics.median(gen_ms) if gen_ms else None, "ms"),
        "generate.rules": (rules, "count"),
        "generate.resamples": (sum(a for _, _, a, _ in rep.trials), "count"),
        "programs.busy_s": (rep.busy("programs"), "s"),
        "programs.us_per_rule": (_ratio(rep.busy("programs") * 1e6, rules), "us"),
        "solver.busy_s": (solver_busy, "s"),
        "solver.ms_p50": (statistics.median(solve_ms) if solve_ms else None, "ms"),
        "solver.ms_p90": (_p90(solve_ms), "ms"),
        "solver.answer_sets": (sum(counts.values()), "count"),
        "solver.consistent_frac": (_ratio(sum(c > 0 for c in counts.values()), len(counts)), "frac"),
        "solver.inconsistent_busy_frac": (_ratio(inconsistent_busy, solver_busy), "frac"),
        "solver.decisions": (decisions, "count"),
        "solver.propagations": (propagations, "count"),
        "solver.us_per_propagation": (_ratio(solver_busy * 1e6, propagations), "us"),
        "theory.busy_s": (rep.busy("theory"), "s"),
        "experiments.overhead_s": (pool_wall - busy / wl.workers, "s"),
        "experiments.pool_efficiency": (_ratio(busy, wl.workers * pool_wall), "frac"),
        "trace_overhead_frac": (_ratio(tracing, untraced_wall), "frac"),
    }


def _ratio(num: float, den) -> float | None:
    return num / den if den else None


def _p90(values: list[float]) -> float | None:
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=10)[-1]
