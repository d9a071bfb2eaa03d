"""Self-tests of the benchmark, each workload at a tiny size.

Run from the repository root:  python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (first: it puts the checkout's src/ on sys.path)
import layers  # noqa: E402
from randasp import experiments  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CHEAP = "exist-n1000-c3"


@pytest.fixture(autouse=True)
def one_round(monkeypatch):
    """Every workload shrunk to one checked and one traced round."""
    tiny = {name: dataclasses.replace(wl, check_rounds=1, trace_rounds=1) for name, wl in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", tiny)


def bench(capsys, *args):
    assert run.main(["--seconds", "0", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_declared_metrics(capsys, workload, trace):
    lines, res = bench(capsys, "--workload", workload, "--trace", str(trace))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in res["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    assert "failed_frac 0.0 frac" in lines


def test_corrupted_golden_row_counts_as_failed(capsys, monkeypatch, tmp_path):
    shutil.copytree(HERE / "golden", tmp_path / "golden")
    golden = tmp_path / "golden" / f"{CHEAP}.csv"
    lines = golden.read_text().splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line[0].isdigit())
    fields = lines[row].split(",")
    fields[4] = "0.123"  # empirical_ratio
    lines[row] = ",".join(fields)
    golden.write_text("".join(lines))
    monkeypatch.setattr(run, "HERE", tmp_path)
    out, res = bench(capsys, "--workload", CHEAP)
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0  # one round of one row
    assert "failed_frac 1.0 frac" in out


def test_raising_solver_counts_as_failed_in_traced_run(capsys, monkeypatch):
    def broken(prog, limit=None):
        raise RuntimeError("solver broken")

    monkeypatch.setattr(experiments, "enumerate_answer_sets", broken)
    monkeypatch.setattr(layers, "enumerate_answer_sets", broken)
    out, res = bench(capsys, "--workload", CHEAP, "--trace", "1")
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0
    assert "failed_frac 1.0 frac" in out


def test_other_seed_prints_a_stable_digest(capsys):
    digests = []
    for _ in range(2):
        out, res = bench(capsys, "--workload", CHEAP, "--seed", "7")
        assert res["correct"]
        digests += [line for line in out if line.startswith("csv_sha256 ")]
    assert len(digests) == 2 and digests[0] == digests[1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", CHEAP, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
