#!/usr/bin/env python3
"""Benchmark of randasp's Monte-Carlo sweeps.

Run from the repository root:

    python3 perfbench/run.py --workload enum-n200-c5 --seed 1 --seconds 30 --trace 0

A round is one call into a public sweep entry point (run_avg_experiment or
run_consistency_experiment) followed by the matching csvout writer.  Round r
of a run uses sweep seed mix_seed(seed, r), so the seed fixes every input.

--trace 0 runs rounds for --seconds and prints the end-to-end metrics:
trials_per_s (geometric mean over rounds of trials / round wall time,
call to written CSV), setup_s (least over fresh interpreters, started
between rounds across the run, of start-up to a validated config),
peak_rss_mb (peak RSS of this process plus, when the pool runs, workers x
the largest child's peak).  The first `check_rounds` rounds are then
replayed trial by trial and compared row by row; at the workload's default
seed they are also compared with the golden CSV in perfbench/golden/.

--trace 1 runs a fixed set of rounds, each untraced and then replayed with
spans around each layer call (see layers.py), then counts solver work in a
separate pass, and prints the per-layer metrics.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A trial fails if it raises; a row that
differs from its replay or golden row, or holds an answer set that fails
re-verification, fails all its trials.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = HERE / "_out"
SETUP_PROBES = 10

sys.path.insert(0, str(SRC))
try:
    import randasp
except ImportError as exc:
    sys.exit(f"perfbench: cannot import randasp from {SRC}: {exc}")
if Path(randasp.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: randasp resolved to {randasp.__file__}, not under {SRC}")

from randasp.csvout import (  # noqa: E402
    AVG_HEADER,
    CONSISTENCY_HEADER,
    fmt,
    write_avg_csv,
    write_consistency_csv,
)
from randasp.experiments import run_avg_experiment, run_consistency_experiment  # noqa: E402

from layers import Replay, Workload, count_work, layer_metrics, replay_round, round_seed  # noqa: E402

WORKLOADS = {
    w.name: w
    for w in (
        # Largest row of consistency_sweep.py, existence only (limit=1).
        # Generation plus Program() is about a third of wall time, and
        # inconsistent programs need a full search tree: generator,
        # constructor and conflict-learning changes show here.
        Workload("exist-n1000-c3", "consistency", (1000,), 3.0, 0.0, 1, 20, 2, 6, 20240904),
        # Full enumeration; search is about 95% of wall time with a heavy
        # per-program tail.  Branching changes show here, generator
        # changes should not.
        Workload("enum-n200-c5", "avg", (200,), 5.0, 0.0, 1, 8, 3, 13, 20240901),
        # avg_sweep.py scaled down; the only workload through the process
        # pool, which starts one pool per row and splits trials into
        # contiguous chunks: small rows expose pool start-up, n=200 rows
        # expose stragglers.
        Workload("sweep-w2", "avg", (50, 100, 150, 200), 5.0, 0.0, 2, 16, 1, 2, 20240901),
    )
}


def run_round(wl: Workload, seed: int, r: int, path: Path) -> tuple[str | None, float]:
    """Round r: one sweep through the public entry point, written as CSV.

    Returns the CSV text (None if the round raised) and the wall seconds.
    """
    cfg = wl.config(round_seed(seed, r))
    t0 = perf_counter()
    try:
        if wl.kind == "avg":
            write_avg_csv(path, run_avg_experiment(cfg, workers=wl.workers), cfg.seed)
        else:
            write_consistency_csv(path, run_consistency_experiment(cfg, workers=wl.workers), cfg.seed)
    except Exception:  # a raising round fails all its trials; the run goes on
        traceback.print_exc(file=sys.stderr)
        return None, perf_counter() - t0
    wall = perf_counter() - t0
    return path.read_text(encoding="ascii"), wall


def parse_csv(text: str):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line
        else:
            rows.append(line.split(","))
    return meta, header, rows


def _same(a: str, b: str) -> bool:
    return a == b or math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)


def check_csv(wl: Workload, seed: int, texts, rep=None) -> set:
    """(round, row) keys whose CSV is malformed or differs from the replay."""
    bad = set()
    header = AVG_HEADER if wl.kind == "avg" else CONSISTENCY_HEADER
    for r, text in enumerate(texts):
        all_rows = {(r, i) for i in range(len(wl.ns))}
        if text is None:
            bad |= all_rows
            continue
        meta, head, rows = parse_csv(text)
        keys = [[fmt(n), fmt(wl.c1), fmt(wl.c2), fmt(wl.trials)] for n in wl.ns]
        if head != header or meta.get("seed") != str(round_seed(seed, r)) or [row[:4] for row in rows] != keys:
            print(f"round {r}: CSV does not match the workload's schema", file=sys.stderr)
            bad |= all_rows
            continue
        if rep is None or r not in rep.resamples:
            continue
        if meta.get("resamples") != str(rep.resamples[r]):
            print(f"round {r}: resamples differ from the replay", file=sys.stderr)
            bad |= all_rows
        for i, row in enumerate(rows):
            want = [fmt(v) for v in rep.rows[(r, i)]]
            if len(row) != len(want) or not all(map(_same, row, want)):
                print(f"round {r} row {i}: {row} differs from the replay {want}", file=sys.stderr)
                bad.add((r, i))
    return bad


def check_golden(wl: Workload, texts) -> set:
    """(round, row) keys of rounds whose CSV differs from the golden rounds."""
    golden = (HERE / "golden" / f"{wl.name}.csv").read_text(encoding="ascii")
    chunks = ["# schema=" + c for c in golden.split("# schema=")[1:]]
    bad = set()
    for r, (text, gold) in enumerate(zip(texts, chunks)):
        lines = (text or "").splitlines()
        glines = gold.splitlines()
        n_meta = len(glines) - len(wl.ns)
        if len(lines) != len(glines) or lines[:n_meta] != glines[:n_meta]:
            print(f"round {r}: provenance, header or row count differs from golden", file=sys.stderr)
            bad |= {(r, i) for i in range(len(wl.ns))}
            continue
        for i, (line, gline) in enumerate(zip(lines[n_meta:], glines[n_meta:])):
            if line != gline:
                print(f"round {r} row {i}: {line!r} differs from golden {gline!r}", file=sys.stderr)
                bad.add((r, i))
    return bad


# A set-up probe: a fresh interpreter that imports randasp and validates
# the sweep config, then says so.
PROBE = """\
import sys, json
sys.path.insert(0, sys.argv[1])
import randasp
randasp.ExperimentConfig(**json.loads(sys.argv[2]))
print('ready', flush=True)
"""

# Starts a probe per line read and prints the seconds until it was ready.
# The probes are its children, not the benchmark's: a child started from
# the benchmark would carry the benchmark's own peak RSS into the
# RUSAGE_CHILDREN figure that peak_rss_mb reads for the pool children.
LAUNCHER = """\
import subprocess, sys, time
for _ in sys.stdin:
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, '-c', *sys.argv[1:]], stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline().strip() == 'ready'
        seconds = time.perf_counter() - t0
        proc.stdout.read()
    print(seconds if ready and proc.returncode == 0 else 'failed', flush=True)
"""


class SetupProbes:
    """Seconds from fresh interpreters' start to a validated sweep config."""

    def __init__(self, wl: Workload, seed: int):
        cfg = json.dumps({"n": list(wl.ns), "c1": wl.c1, "c2": wl.c2, "trials": wl.trials, "seed": seed})
        self.times = []
        self.launcher = subprocess.Popen(
            [sys.executable, "-c", LAUNCHER, PROBE, str(SRC), cfg],
            cwd=ROOT,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def probe(self) -> None:
        self.launcher.stdin.write("probe\n")
        self.launcher.stdin.flush()
        line = self.launcher.stdout.readline().strip()
        if line in ("", "failed"):
            raise RuntimeError("set-up probe failed")
        self.times.append(float(line))

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.stdout.read()
        if self.launcher.wait(timeout=120) != 0:
            raise RuntimeError(f"set-up launcher failed (exit {self.launcher.returncode})")


def peak_rss_mb(workers: int) -> float:
    """This process's peak RSS plus workers x the largest reaped child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def untraced(wl: Workload, seed: int, seconds: float, csv_path: Path):
    # Set-up probes run between rounds, spread evenly over the run, and the
    # least is reported: host interruptions only add time, and spreading
    # keeps one slow phase of the host from reaching every probe.
    setup = SetupProbes(wl, seed)
    try:
        done = []
        t_start = perf_counter()
        while len(done) < wl.check_rounds or perf_counter() - t_start < seconds:
            due = len(setup.times) * seconds / SETUP_PROBES
            if len(setup.times) < SETUP_PROBES and perf_counter() - t_start >= due:
                setup.probe()
            done.append(run_round(wl, seed, len(done), csv_path))
        while len(setup.times) < SETUP_PROBES:
            setup.probe()
        rss = peak_rss_mb(wl.workers)  # while the launcher, holding the probes, is not yet reaped
    finally:
        setup.close()
    texts = [text for text, _ in done]
    rates = [wl.round_trials / wall for text, wall in done if text is not None]
    metrics = {
        "trials_per_s": (statistics.geometric_mean(rates) if rates else 0.0, "1/s"),
        "setup_s": (min(setup.times), "s"),
        "peak_rss_mb": (rss, "MiB"),
    }
    rep = Replay()
    for r in range(wl.check_rounds):
        replay_round(rep, wl, seed, r)
    bad = rep.bad | check_csv(wl, seed, texts, rep)
    print(f"rounds {len(done)} of {wl.round_trials} trials; replayed rounds 0..{wl.check_rounds - 1}")
    return metrics, texts, len(done), bad


def traced(wl: Workload, seed: int, csv_path: Path):
    # Each round runs untraced and is then replayed with spans, so the wall
    # and busy times compared in layer_metrics are taken seconds apart, not
    # minutes, and host speed drift between them stays small.
    rep, texts, pool_wall = Replay(), [], 0.0
    for r in range(wl.trace_rounds):
        text, wall = run_round(wl, seed, r, csv_path)
        texts.append(text)
        pool_wall += wall
        replay_round(rep, wl, seed, r)
    bad = rep.bad | check_csv(wl, seed, texts, rep)
    work = count_work(wl, seed, wl.trace_rounds)
    metrics = layer_metrics(wl, rep, work, pool_wall)
    spans_path = OUT / f"spans-{wl.name}-{seed}.jsonl"
    with open(spans_path, "w", encoding="ascii") as fh:
        for layer, trial, start, end in rep.spans:
            rec = {"layer": layer, "round": trial[0], "n": trial[1], "trial": trial[2], "start": start, "end": end}
            fh.write(json.dumps(rec) + "\n")
    print(f"rounds {wl.trace_rounds} of {wl.round_trials} trials; spans in {spans_path.relative_to(ROOT)}")
    print("programs.* is an estimate: Program(n, rules) rebuilt from generated rules, timed from outside")
    return metrics, texts, wl.trace_rounds, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, help="default: the workload's golden seed")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    seed = wl.default_seed if args.seed is None else args.seed
    n_check = wl.check_rounds
    OUT.mkdir(exist_ok=True)
    csv_path = OUT / f"{wl.name}.{os.getpid()}.csv"
    try:
        if args.trace:
            metrics, texts, rounds, bad = traced(wl, seed, csv_path)
        else:
            metrics, texts, rounds, bad = untraced(wl, seed, args.seconds, csv_path)
    finally:
        csv_path.unlink(missing_ok=True)

    checked = texts[:n_check]
    if seed == wl.default_seed:
        bad |= check_golden(wl, checked)
    elif all(t is not None for t in checked):
        digest = hashlib.sha256("".join(checked).encode("ascii")).hexdigest()
        print(f"csv_sha256 {digest} (seed {seed}, rounds 0..{n_check - 1})")

    attempted = rounds * wl.round_trials
    failed = len(bad) * wl.trials
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"failed_frac {failed / attempted} frac")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
