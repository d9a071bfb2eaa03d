import dataclasses
import hashlib
import math
import multiprocessing
import time
from concurrent.futures import Future

import numpy as np
import pytest

from randasp import _kernel
from randasp.csvout import write_avg_csv, write_consistency_csv, write_dist_csv

from randasp.experiments import (
    ExperimentConfig,
    difference_rate,
    run_avg_experiment,
    run_consistency_experiment,
    run_dist_experiment,
)
from randasp.generate import LinearModelParams, generate, generate_with_stats, mix_seed
from randasp.solver import enumerate_answer_sets, search_path
from randasp.theory import CURVE_MAX_N, consistency_probability, expected_total

from conftest import needs_kernel


class TestConfig:
    def test_scalars_become_tuples(self):
        cfg = ExperimentConfig(n=50, c1=5.0, c2=0.0, trials=10, seed=1)
        assert cfg.n == (50,) and cfg.c1 == (5.0,) and cfg.c2 == (0.0,)
        cfg = ExperimentConfig(n=[50, 100], c1=5.0, c2=0.0, trials=10, seed=1)
        assert cfg.n == (50, 100) and cfg.c1 == (5.0,) and cfg.c2 == (0.0,)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, 2.0])
    def test_rejects_seed_outside_u64(self, seed):
        with pytest.raises(ValueError, match="seed"):
            ExperimentConfig(n=50, c1=5.0, c2=0.0, trials=10, seed=seed)

    def test_rejects_what_the_theory_columns_reject(self):
        # a valid generator model, but the theory needs n >= 2
        with pytest.raises(ValueError, match="n must be at least 2"):
            ExperimentConfig(n=1, c1=0.5, c2=0.0, trials=30, seed=1)
        with pytest.raises(ValueError, match="n must be at least 2"):
            ExperimentConfig(n=[10, 1], c1=0.5, c2=0.0, trials=30, seed=1)
        # without pure rules there are no theory columns to compute
        ExperimentConfig(n=1, c1=0.0, c2=0.5, trials=30, seed=1)

    def test_rejects_theory_columns_past_the_curve_cap(self):
        with pytest.raises(ValueError, match="limit_expected_total"):
            ExperimentConfig(n=[50, CURVE_MAX_N + 1], c1=3.0, c2=0.0, trials=1, seed=1)

    def test_rejects_near_empty_model_before_first_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("randasp.experiments.generate_with_stats", no_trials)
        with pytest.raises(ValueError, match="resamples would more likely fail"):
            cfg = ExperimentConfig(n=1000, c1=(3.0, 1e-9), c2=0.0, trials=5, seed=1)
            run_avg_experiment(cfg)

    def test_validates_every_combination(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n=[50, 4], c1=5.0, c2=0.0, trials=10, seed=1)
        with pytest.raises(ValueError):
            ExperimentConfig(n=50, c1=5.0, c2=0.0, trials=0, seed=1)
        for trials in (2.5, 3.0):
            with pytest.raises(ValueError, match="trials must be an integer"):
                ExperimentConfig(n=50, c1=5.0, c2=0.0, trials=trials, seed=1)

    @pytest.mark.parametrize("c1, c2", [(5.0, math.nan), (math.nan, 0.0), (5.0, math.inf)])
    def test_rejects_non_finite_rates_before_first_trial(self, monkeypatch, c1, c2):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("randasp.experiments.generate_with_stats", no_trials)
        with pytest.raises(ValueError, match="c1 and c2 must be finite"):
            run_avg_experiment(ExperimentConfig(n=50, c1=(5.0, c1), c2=c2, trials=10, seed=1), workers=2)

    @pytest.mark.parametrize(
        "field, value",
        [("trials", True), ("seed", True), ("n", True), ("n", []), ("c1", ()), ("c2", [])],
    )
    def test_rejects_bools_and_empty_axes_before_first_trial(self, monkeypatch, field, value):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("randasp.experiments._count_chunk", no_trials)
        fields = dict(n=20, c1=3.0, c2=0.0, trials=2, seed=1) | {field: value}
        with pytest.raises(ValueError, match=field):
            run_avg_experiment(ExperimentConfig(**fields))

    def test_numpy_seed_is_kept_as_an_int(self):
        cfg = ExperimentConfig(n=20, c1=3.0, c2=0.0, trials=3, seed=np.uint64(7))
        assert type(cfg.seed) is int
        assert run_avg_experiment(cfg) == run_avg_experiment(dataclasses.replace(cfg, seed=7))

    def test_numpy_integers_write_the_plain_int_csv(self, tmp_path):
        plain = ExperimentConfig(n=(20, 30), c1=3.0, c2=0.0, trials=3, seed=5)
        numpy_ints = ExperimentConfig(n=(np.int64(20), np.int64(30)), c1=3.0, c2=0.0, trials=np.int64(3), seed=5)
        for name, cfg in (("plain", plain), ("numpy", numpy_ints)):
            write_avg_csv(tmp_path / f"{name}.csv", run_avg_experiment(cfg), cfg.seed)
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_int_rates_write_the_float_csv(self, tmp_path):
        floats = ExperimentConfig(n=20, c1=5.0, c2=0.0, trials=3, seed=1)
        ints = ExperimentConfig(n=20, c1=5, c2=0, trials=3, seed=1)
        assert ints == floats and type(ints.c1[0]) is type(ints.c2[0]) is float
        for name, cfg in (("floats", floats), ("ints", ints)):
            write_avg_csv(tmp_path / f"{name}.csv", run_avg_experiment(cfg), cfg.seed)
        assert (tmp_path / "ints.csv").read_bytes() == (tmp_path / "floats.csv").read_bytes()

    @pytest.mark.parametrize("c1, c2", [(True, 0.0), (5.0, False), ("5", 0.0), (5.0, None)])
    def test_rejects_bool_and_non_number_rates_before_first_trial(self, monkeypatch, c1, c2):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("randasp.experiments._count_chunk", no_trials)
        with pytest.raises(ValueError, match="must be a number"):
            run_avg_experiment(ExperimentConfig(n=20, c1=c1, c2=c2, trials=3, seed=1))

    def test_gamma_is_a_constant_not_a_field(self):
        cfg = ExperimentConfig(n=50, c1=5.0, c2=0.0, trials=10, seed=1)
        assert [f.name for f in dataclasses.fields(cfg)] == ["n", "c1", "c2", "trials", "seed"]
        assert cfg.gamma == ExperimentConfig.gamma == 0.5
        with pytest.raises(TypeError):
            ExperimentConfig(n=50, c1=5.0, c2=0.0, trials=10, seed=1, gamma=0.5)


class TestDifferenceRate:
    def test_identical_curves(self):
        assert difference_rate([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_hand_value(self):
        assert difference_rate([1.0, 0.0], [0.0, 1.0]) == 2.0

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            difference_rate([0.0, 0.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            difference_rate([1.0], [1.0, 2.0])


class TestAvgExperiment:
    def test_degenerate_single_trial(self):
        cfg = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=1, seed=99)
        (res,) = run_avg_experiment(cfg)
        direct = enumerate_answer_sets(generate(LinearModelParams(12, 3.0, 0.0), mix_seed(99, 0))).count
        assert res.avg_answer_sets == float(direct)
        assert res.stderr == 0.0

    def test_theory_columns(self):
        cfg = ExperimentConfig(n=20, c1=4.0, c2=1.0, trials=5, seed=3)
        (res,) = run_avg_experiment(cfg)
        assert res.theory_finite_n == expected_total(20, 4.0, 1.0)
        assert res.n == 20 and res.trials == 5

    def test_statistical_sanity_small_n(self):
        cfg = ExperimentConfig(n=10, c1=5.0, c2=0.0, trials=3000, seed=17)
        (res,) = run_avg_experiment(cfg)
        assert abs(res.avg_answer_sets - res.theory_finite_n) <= 3 * res.stderr + 1e-12

    def test_reproducible(self):
        cfg = ExperimentConfig(n=14, c1=3.0, c2=1.0, trials=60, seed=5)
        assert run_avg_experiment(cfg) == run_avg_experiment(cfg)

    def test_workers_do_not_change_results(self):
        cfg = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=40, seed=8)
        assert run_avg_experiment(cfg, workers=1) == run_avg_experiment(cfg, workers=4)

    def test_sweep_produces_row_per_combo(self):
        cfg = ExperimentConfig(n=[10, 12], c1=[2.0, 3.0], c2=0.0, trials=5, seed=4)
        rows = run_avg_experiment(cfg)
        assert [(r.n, r.c1) for r in rows] == [(10, 2.0), (10, 3.0), (12, 2.0), (12, 3.0)]

    @needs_kernel
    def test_python_fallback_writes_the_same_csv(self, monkeypatch, tmp_path):
        cfg = ExperimentConfig(n=[30, 80], c1=5.0, c2=[0.0, 2.0], trials=12, seed=20240901)
        assert search_path(80) == "kernel"
        write_avg_csv(tmp_path / "kernel.csv", run_avg_experiment(cfg), cfg.seed)
        monkeypatch.setattr(_kernel, "load", lambda: None)
        assert search_path(80) == "python"
        write_avg_csv(tmp_path / "python.csv", run_avg_experiment(cfg), cfg.seed)
        assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()


class TestWorkers:
    def test_rejects_fewer_than_one_before_first_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("randasp.experiments.generate_with_stats", no_trials)
        cfg = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=5, seed=1)
        for run in (run_avg_experiment, run_dist_experiment, run_consistency_experiment):
            with pytest.raises(ValueError, match="workers must be at least 1"):
                run(cfg, workers=0)

    @pytest.mark.parametrize("workers", [1.0, 2.5, "2"])
    def test_rejects_non_integer_before_first_trial(self, monkeypatch, workers):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("randasp.experiments.generate_with_stats", no_trials)
        cfg = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=5, seed=1)
        for run in (run_avg_experiment, run_dist_experiment, run_consistency_experiment):
            with pytest.raises(ValueError, match="workers must be an integer"):
                run(cfg, workers=workers)

    def test_one_pool_per_sweep_sized_to_its_chunks(self, monkeypatch):
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr("randasp.experiments.ProcessPoolExecutor", InlinePool)
        three_rows = ExperimentConfig(n=[10, 12, 14], c1=3.0, c2=0.0, trials=6, seed=8)
        for run in (run_avg_experiment, run_consistency_experiment):
            assert run(three_rows, workers=2) == run(three_rows, workers=1)
            assert sizes.pop() == 2 and not sizes  # 3 rows x 6 one-trial chunks
        three_chunks = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=3, seed=8)
        assert run_avg_experiment(three_chunks, workers=8) == run_avg_experiment(three_chunks, workers=1)
        assert sizes == [3]
        one_chunk = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=1, seed=8)
        run_avg_experiment(one_chunk, workers=2)
        run_dist_experiment(one_chunk, workers=2)
        assert sizes == [3]

    # Each trial leaves a marker file; the patch reaches the pool's workers
    # because they are forked from this process.  Without cancelling the
    # queued chunks, the 80 trials behind the failure would all run.
    @pytest.mark.parametrize("run", [run_avg_experiment, run_consistency_experiment])
    @pytest.mark.parametrize("fail_in", ["trial", "caller"])
    def test_error_cancels_queued_chunks(self, monkeypatch, tmp_path, run, fail_in):
        real = generate_with_stats

        def marked(params, seed):
            (tmp_path / f"{params.n}-{seed}").touch()
            if fail_in == "trial" and params.n == 10:
                raise RuntimeError("trial failed")
            time.sleep(0.05)
            return real(params, seed)

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr("randasp.experiments.generate_with_stats", marked)
        if fail_in == "caller":  # the theory columns of row 0, in this process
            monkeypatch.setattr("randasp.experiments.expected_total", interrupted)
        cfg = ExperimentConfig(n=[10, 12, 14, 16, 18, 20], c1=3.0, c2=0.0, trials=16, seed=5)
        with pytest.raises(RuntimeError if fail_in == "trial" else KeyboardInterrupt):
            run(cfg, workers=2)
        assert not multiprocessing.active_children()
        assert len(list(tmp_path.iterdir())) < 48  # of 96 trials


class TestDistExperiment:
    def test_single_known_program(self):
        # seed 1, trial 0 generates the two-cycle on two atoms: answer sets {a0}, {a1}
        cfg = ExperimentConfig(n=2, c1=1.5, c2=0.0, trials=1, seed=1)
        res = run_dist_experiment(cfg)
        assert res.empirical_avg[1] == 2.0
        assert res.empirical_avg[0] == 0.0 and res.empirical_avg[2] == 0.0
        assert res.totals == (0, 2, 0)

    def test_boundary_sizes_empty(self):
        cfg = ExperimentConfig(n=12, c1=3.0, c2=1.0, trials=150, seed=6)
        res = run_dist_experiment(cfg)
        assert res.empirical_avg[0] == 0.0 and res.empirical_avg[12] == 0.0
        assert res.model_e_nk[0] == 0.0 and res.model_e_nk[12] == 0.0

    def test_totals_are_integers_consistent_with_average(self):
        cfg = ExperimentConfig(n=10, c1=4.0, c2=0.0, trials=80, seed=7)
        res = run_dist_experiment(cfg)
        assert all(isinstance(t, int) for t in res.totals)
        for k in range(11):
            assert res.empirical_avg[k] == res.totals[k] / 80

    def test_sum_matches_avg_experiment(self):
        avg_cfg = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=100, seed=21)
        dist_cfg = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=100, seed=21)
        (avg,) = run_avg_experiment(avg_cfg)
        dist = run_dist_experiment(dist_cfg)
        assert math.isclose(sum(dist.empirical_avg), avg.avg_answer_sets)

    @pytest.mark.parametrize("n, c1, c2", [(50, 5.0, 0.0), (60, 10.0, 4.0), (10, 3.0, 0.0), (24, 2.5, 6.0)])
    def test_model_column_sums_to_expected_total(self, n, c1, c2):
        # the E[N_k] column and the avg CSV's theory_finite_n read one array
        res = run_dist_experiment(ExperimentConfig(n=n, c1=c1, c2=c2, trials=2, seed=3))
        assert math.fsum(res.model_e_nk) == expected_total(n, c1, c2)

    def test_requires_single_combo(self):
        cfg = ExperimentConfig(n=[10, 12], c1=3.0, c2=0.0, trials=5, seed=1)
        with pytest.raises(ValueError):
            run_dist_experiment(cfg)

    def test_workers_identical(self):
        cfg = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=60, seed=9)
        assert run_dist_experiment(cfg, workers=1) == run_dist_experiment(cfg, workers=3)

    # sha256 of the dist CSV bytes, recorded before the per-size histogram
    # was computed from answer-set masks instead of a per-set dict
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "n, c1, c2, digest",
        [
            (50, 5.0, 0.0, "c9f6404ae8824d948bc8870fb1e65c314e10e90063653b7f89e3cc9a49f58c69"),
            (60, 10.0, 4.0, "97c52d3c425a98a647ec072fdc485fc03c99a7f32794962d2435a6e5ff4fb32d"),
        ],
    )
    def test_pinned_csv_bytes(self, tmp_path, n, c1, c2, digest, workers):
        cfg = ExperimentConfig(n=n, c1=c1, c2=c2, trials=40, seed=20240902)
        out = tmp_path / "dist.csv"
        write_dist_csv(out, run_dist_experiment(cfg, workers=workers), cfg.seed)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert not multiprocessing.active_children()

    def test_c1_zero_rejected_before_first_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("randasp.experiments.generate_with_stats", no_trials)
        cfg = ExperimentConfig(n=10, c1=0.0, c2=2.0, trials=5, seed=1)
        with pytest.raises(ValueError, match="difference rate undefined"):
            run_dist_experiment(cfg)

    def test_alpha_at_one_rejected_before_first_trial(self, monkeypatch):
        # alpha - 1 rounds to 0 below c1 of about 1e-16, and chi_k divides by it
        def no_chunks(*args):
            raise AssertionError("a chunk ran")

        monkeypatch.setattr("randasp.experiments._count_chunk", no_chunks)
        cfg = ExperimentConfig(n=50, c1=1e-20, c2=1.0, trials=5, seed=1)
        with pytest.raises(ValueError, match="c1=1e-20"):
            run_dist_experiment(cfg)


class TestConsistencyExperiment:
    def test_predictions_match_theory(self):
        cfg = ExperimentConfig(n=30, c1=3.0, c2=0.0, trials=50, seed=10)
        (row,) = run_consistency_experiment(cfg)
        expected = expected_total(30, 3.0, 0.0)
        assert row.pred_full == consistency_probability(expected, 1.0)
        assert row.pred_gamma == consistency_probability(expected, 0.5)
        assert 0.0 <= row.empirical_ratio <= 1.0
        assert row.consistent == round(row.empirical_ratio * 50)

    def test_c1_zero_rows_write_zero_predictions(self, tmp_path):
        cfg = ExperimentConfig(n=10, c1=0.0, c2=[1.0, 5.0], trials=20, seed=7)
        out = tmp_path / "cons.csv"
        write_consistency_csv(out, run_consistency_experiment(cfg), cfg.seed)
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert [r.split(",", 5)[5] for r in rows] == ["0.0,0.0", "0.0,0.0"]

    def test_per_n_rows(self):
        cfg = ExperimentConfig(n=[10, 20, 30], c1=3.0, c2=0.0, trials=30, seed=11)
        rows = run_consistency_experiment(cfg)
        assert [r.n for r in rows] == [10, 20, 30]
        assert all(r.trials == 30 for r in rows)

    def test_workers_identical(self):
        cfg = ExperimentConfig(n=40, c1=3.0, c2=2.0, trials=60, seed=12)
        a = run_consistency_experiment(cfg, workers=1)
        b = run_consistency_experiment(cfg, workers=4)
        assert a == b

    def test_small_n_against_brute_force_rate(self):
        from randasp.solver import enumerate_brute_force

        cfg = ExperimentConfig(n=10, c1=3.0, c2=1.0, trials=120, seed=13)
        (row,) = run_consistency_experiment(cfg)
        params = LinearModelParams(10, 3.0, 1.0)
        expected_ratio = (
            sum(
                enumerate_brute_force(generate(params, mix_seed(13, t))).count > 0
                for t in range(120)
            )
            / 120
        )
        assert row.empirical_ratio == expected_ratio


class TestPinnedSweeps:
    # sha256 of multi-row CSV bytes, recorded while each row still ran on a
    # pool of its own (the c2 > 0 and dist cases: recorded before the searcher
    # kept support as one count per atom); a row-order mix-up between chunks
    # changes them
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "run, write, n, c1, trials, seed, c2, digest",
        [
            (run_avg_experiment, write_avg_csv, [50, 100, 150], 5.0, 40, 20240901, 0.0,
             "6343ff04c5730226811e4a5757155d57ddc0dde3ef910cd5e49db58fa686519f"),
            (run_consistency_experiment, write_consistency_csv, [100, 200, 300], 3.0, 50, 20240904, 0.0,
             "c6163c3c93774c39ed8f7b20b65717ec2f6b36df4ca5a4ee18dbf02a5e652f34"),
            (run_avg_experiment, write_avg_csv, 100, 10.0, 20, 20240903, [0.0, 4.0, 8.0],
             "9c77d2f082015c493d337637b73d6dc08848dc1a65794a06364d33dc0ab992b0"),
            (run_dist_experiment, write_dist_csv, 50, 5.0, 40, 20240902, 0.0,
             "c9f6404ae8824d948bc8870fb1e65c314e10e90063653b7f89e3cc9a49f58c69"),
        ],
    )
    def test_csv_bytes(self, tmp_path, run, write, n, c1, trials, seed, c2, digest, workers):
        cfg = ExperimentConfig(n=n, c1=c1, c2=c2, trials=trials, seed=seed)
        out = tmp_path / "sweep.csv"
        write(out, run(cfg, workers=workers), cfg.seed)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert not multiprocessing.active_children()
