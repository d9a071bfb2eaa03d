"""Every per-layer metric of a traced benchmark run is a finite number.

A traced run's last stdout line is its JSON result.  A layer whose counters
were never fed (say, a search that no longer runs through the wrapped
`_Searcher` methods) can still exit 0 while printing a null, a NaN or a
negative count there, so the result is parsed as strict JSON and each value
checked.
"""

import dataclasses
import json
import math
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (perfbench/run.py, imported as perfbench/test_perfbench.py imports it)


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_traced_metric_is_a_number(capsys, monkeypatch, tmp_path, workload):
    tiny = {name: dataclasses.replace(wl, check_rounds=1, trace_rounds=1) for name, wl in run.WORKLOADS.items()}
    monkeypatch.setattr(run, "WORKLOADS", tiny)
    monkeypatch.setattr(run, "ROOT", tmp_path)  # the spans file is named relative to ROOT
    monkeypatch.setattr(run, "OUT", tmp_path / "_out")
    assert run.main(["--workload", workload, "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1], parse_constant=_refuse)
    assert result["correct"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name, value in metrics.items():
        assert type(value) in (int, float) and math.isfinite(value), f"{name} is {value!r}"
    assert metrics["solver.propagations"] > 0 and metrics["solver.decisions"] >= 0
