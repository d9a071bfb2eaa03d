#!/usr/bin/env python3
"""Measure every workload over several seeds and append an entry to trajectory.json.

Run from the repository root:

    python3 perfbench/record.py --label <commit> --seeds 1-10 --sets 2

Each set runs the benchmark once per workload and seed with tracing off;
then one traced run per workload at its default seed.  The entry keeps
every run's metrics, and per set and metric the median and the spread
(quartile distance over median, as statistics.quantiles(n=4) gives it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import date
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int | None, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", str(trace)]
    cmd += ["--seconds", str(SPEC["run_seconds"])]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in res.pop("metrics").items()}
    return {"workload": workload, "seed": seed, **res, "metrics": metrics}


def summary(runs: list[dict]) -> dict:
    out = {}
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[m["name"]] = {"median": statistics.median(values), "spread": (q3 - q1) / statistics.median(values)}
    return out


def machine() -> dict:
    import numpy
    import scipy

    model = next(
        (line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="commit or change measured")
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = [w["name"] for w in SPEC["workloads"]]
    sets = []
    for k in range(args.sets):
        runs = {w: [] for w in workloads}
        for w in workloads:
            for s in seeds:
                runs[w].append(bench(w, s, 0))
                print(f"set {k} {w} seed {s}: {runs[w][-1]['metrics']}", file=sys.stderr, flush=True)
        sets.append({w: {"summary": summary(rs), "runs": rs} for w, rs in runs.items()})
    traced = {w: bench(w, None, 1) for w in workloads}
    entry = {
        "label": args.label,
        "date": date.today().isoformat(),
        "machine": machine(),
        "run_seconds": SPEC["run_seconds"],
        "sets": sets,
        "traced": traced,
    }
    path = HERE / "trajectory.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(entries + [entry], indent=1) + "\n")
    for k, s in enumerate(sets):
        for w, v in s.items():
            print(f"set {k} {w}: " + ", ".join(f"{m} {x['median']:.4g} (spread {x['spread']:.3f})"
                                               for m, x in v["summary"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
