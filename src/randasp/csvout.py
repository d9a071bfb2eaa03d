"""Fixed CSV schemas for experiment and theory outputs.

Every file is ASCII with LF line endings: deterministic `# key=value`
provenance comments (never timestamps), one exact header row, then data rows
with floats in shortest round-trip decimal.
"""

from __future__ import annotations

from .experiments import AvgResult, ConsRow, DistResult, ExperimentConfig
from .theory import chi, size_curves, theory_params

AVG_HEADER = "n,c1,c2,trials,avg_answer_sets,stderr,theory_finite_n,theory_limit"
DIST_HEADER = "k,empirical_avg,model_E_Nk,chi_k"
CONSISTENCY_HEADER = "n,c1,c2,trials,empirical_ratio,pred_full,pred_gamma"
THEORY_CURVE_HEADER = "k,Pr_k,E_Nk,phi_k,chi_k"

def fmt(x) -> str:
    """Shortest round-trip decimal for floats; plain digits for ints."""
    if isinstance(x, bool):
        raise TypeError("no boolean columns in any schema")
    if isinstance(x, int):
        return str(x)
    return repr(float(x))


def write_csv(path, meta: dict, header: str, rows) -> None:
    lines = [f"# {k}={v}" for k, v in meta.items()]
    lines.append(header)
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _provenance(schema: str, seed: int, **more) -> dict:
    """The `# key=value` lines of a sweep CSV: schema, seed and substream first, then `more` in order."""
    return {"schema": schema, "seed": seed, "substream": "trial t uses sub-seed splitmix64_mix(seed, t)", **more}


def write_avg_csv(path, results: list[AvgResult], seed: int) -> None:
    meta = _provenance("avg-v1", seed, resamples=sum(r.resamples for r in results))
    rows = [
        (r.n, r.c1, r.c2, r.trials, r.avg_answer_sets, r.stderr, r.theory_finite_n, r.theory_limit)
        for r in results
    ]
    write_csv(path, meta, AVG_HEADER, rows)


def write_dist_csv(path, result: DistResult, seed: int) -> None:
    meta = _provenance(
        "dist-v1",
        seed,
        n=result.n,
        c1=fmt(result.c1),
        c2=fmt(result.c2),
        trials=result.trials,
        difference_rate=fmt(result.difference_rate),
        resamples=result.resamples,
    )
    rows = [
        (k, result.empirical_avg[k], result.model_e_nk[k], result.chi_k[k])
        for k in range(result.n + 1)
    ]
    write_csv(path, meta, DIST_HEADER, rows)


def write_consistency_csv(path, results: list[ConsRow], seed: int) -> None:
    meta = _provenance(
        "consistency-v1",
        seed,
        gamma=fmt(ExperimentConfig.gamma),
        resamples=sum(r.resamples for r in results),
    )
    rows = [
        (r.n, r.c1, r.c2, r.trials, r.empirical_ratio, r.pred_full, r.pred_gamma)
        for r in results
    ]
    write_csv(path, meta, CONSISTENCY_HEADER, rows)


def write_theory_curve_csv(path, n: int, c1: float, c2: float) -> None:
    tp = theory_params(n, c1, c2)
    n, c1, c2 = tp.n, tp.c1, tp.c2  # the validated int and floats, so an int rate writes as the CLI's float
    columns = (column.tolist() for column in size_curves(n, c1, c2))
    rows = [(k, pr, e_nk, phi, chi(float(k), tp)) for k, pr, e_nk, phi in zip(range(1, n), *columns)]
    meta = {"schema": "theory-curve-v1", "n": n, "c1": fmt(c1), "c2": fmt(c2)}
    write_csv(path, meta, THEORY_CURVE_HEADER, rows)
