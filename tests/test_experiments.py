import contextlib
import ctypes
import dataclasses
import hashlib
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import randasp
from randasp import _kernel, generate as generate_module
from randasp.csvout import write_avg_csv, write_consistency_csv, write_dist_csv

from randasp.experiments import (
    ExperimentConfig,
    _chunk_plan,
    _count_chunk,
    difference_rate,
    run_avg_experiment,
    run_consistency_experiment,
    run_dist_experiment,
)
from randasp.generate import LinearModelParams, generate, mix_seed
from randasp.solver import enumerate_answer_sets
from randasp.theory import CURVE_MAX_N, consistency_probability, expected_total

from conftest import python_chunk


@contextlib.contextmanager
def deadline(seconds):
    """Raises TimeoutError in the block once it has run for `seconds`."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    handler = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)


def assert_no_children():
    """This process has no child at all: none running, none left unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

        monkeypatch.setattr("randasp.experiments._count_chunk", no_trials)
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

        monkeypatch.setattr("randasp.experiments._count_chunk", no_trials)
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


class TestWorkers:
    def test_rejects_fewer_than_one_before_first_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("randasp.experiments._count_chunk", no_trials)
        cfg = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=5, seed=1)
        for run in (run_avg_experiment, run_dist_experiment, run_consistency_experiment):
            with pytest.raises(ValueError, match="workers must be at least 1"):
                run(cfg, workers=0)

    @pytest.mark.parametrize("workers", [1.0, 2.5, "2"])
    def test_rejects_non_integer_before_first_trial(self, monkeypatch, workers):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("randasp.experiments._count_chunk", no_trials)
        cfg = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=5, seed=1)
        for run in (run_avg_experiment, run_dist_experiment, run_consistency_experiment):
            with pytest.raises(ValueError, match="workers must be an integer"):
                run(cfg, workers=workers)

    def test_chunks_shrink_toward_the_end_of_the_sweep(self):
        cfg = ExperimentConfig(n=[10, 12], c1=3.0, c2=0.0, trials=40, seed=8)
        row_chunks = _chunk_plan(cfg, 2, None)
        for n, chunks in zip((10, 12), row_chunks):  # each row's trials once, in order
            assert {c[:4] + c[6:] for c in chunks} == {(n, 3.0, 0.0, 8, None)}
            assert [c[4] for c in chunks] == [0] + [c[5] for c in chunks[:-1]] and chunks[-1][5] == 40
        sizes = [hi - lo for chunks in row_chunks for *_, lo, hi, _ in chunks]
        assert sizes[:8] == [5] * 8  # an eighth of a row while half the sweep is left
        assert sizes == sorted(sizes, reverse=True) and sizes[-8:] == [1] * 8
        assert [[c[4:6] for c in chunks] for chunks in _chunk_plan(cfg, 1, None)] == [[(0, 10), (10, 20), (20, 30), (30, 40)]] * 2

    # Each trial appends "n seed" to a marker file named after the thread
    # that ran it, then sleeps `pause` seconds.  `fail(params)` runs in each
    # trial and may raise.  The marks wrap the runner `_kernel.trial` sets
    # up for each chunk, which runs once per trial.
    @staticmethod
    def mark_trials(monkeypatch, tmp_path, fail=lambda params: None, pause=0.02):
        real = _kernel.trial

        def trial(params, *args):
            run = real(params, *args)

            def marked(seed):
                with open(tmp_path / str(threading.get_ident()), "a") as marker:
                    marker.write(f"{params.n} {seed}\n")
                time.sleep(pause)
                fail(params)
                return run(seed)

            return marked

        monkeypatch.setattr(_kernel, "trial", trial)
        return lambda: [(int(f.name), *map(int, line.split())) for f in tmp_path.iterdir() for line in f.read_text().splitlines()]

    @staticmethod
    def count_threads(monkeypatch):
        """The threads started from here on."""
        started, real = [], threading.Thread.start

        def start(thread):
            started.append(thread)
            return real(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        return started

    def test_children_per_sweep_sized_to_its_chunks(self, monkeypatch, tmp_path):
        # The children are the threads a sweep starts besides the caller.
        trials = self.mark_trials(monkeypatch, tmp_path)
        started = self.count_threads(monkeypatch)

        def swept(run, cfg, workers):
            """The threads that ran a trial and the threads started, in one sweep that matches one worker's."""
            for marker in tmp_path.iterdir():
                marker.unlink()
            del started[:]
            assert run(cfg, workers=workers) == run(cfg, workers=1)
            return {ident for ident, *_ in trials()}, [thread.ident for thread in started]

        caller, before = threading.get_ident(), threading.active_count()
        three_rows = ExperimentConfig(n=[10, 12, 14], c1=3.0, c2=0.0, trials=6, seed=8)
        for run in (run_avg_experiment, run_consistency_experiment):
            ran, children = swept(run, three_rows, 2)
            assert len(children) == 1 and ran <= {caller, *children}  # 3 rows x 6 one-trial chunks; this thread is the other worker
        three_chunks = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=3, seed=8)
        ran, children = swept(run_avg_experiment, three_chunks, 8)
        assert len(children) == 2 and ran <= {caller, *children}
        one_chunk = ExperimentConfig(n=12, c1=3.0, c2=0.0, trials=1, seed=8)
        for run in (run_avg_experiment, run_dist_experiment):
            assert swept(run, one_chunk, 2) == ({caller}, [])
        assert threading.active_count() == before
        assert_no_children()

    def test_a_thread_that_fails_to_start_raises_its_error(self, monkeypatch):
        # The thread that did start is joined; the one that did not is not.
        before, real, calls = threading.active_count(), threading.Thread.start, []

        def start(thread):
            calls.append(thread)
            if len(calls) == 2:
                raise RuntimeError("can't start new thread")
            return real(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        cfg = ExperimentConfig(n=[30, 40], c1=5.0, c2=0.0, trials=12, seed=3)
        with pytest.raises(RuntimeError, match="^can't start new thread$"):
            run_avg_experiment(cfg, workers=3)
        assert len(calls) == 2 and threading.active_count() == before

    def test_the_sweep_loads_the_kernel_before_its_threads_start(self, fresh_cache):
        # `_sweep` loads the kernel, once, before it starts any thread, so
        # no two threads race to hash the source or compile it on a cold
        # cache.
        assert _kernel.load.cache_info().currsize == 0
        run_avg_experiment(ExperimentConfig(n=[20, 30], c1=3.0, c2=0.0, trials=4, seed=8), workers=2)
        assert _kernel.load.cache_info().currsize == 1

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_this_process_is_one_of_the_workers(self, monkeypatch, tmp_path, workers):
        trials = self.mark_trials(monkeypatch, tmp_path)
        before = threading.active_count()
        cfg = ExperimentConfig(n=10, c1=3.0, c2=0.0, trials=12, seed=5)  # 10 chunks at 2 workers, 12 at 3 or 4
        swept = run_avg_experiment(cfg, workers=workers)
        ran = [ident for ident, *_ in trials()]
        assert swept == run_avg_experiment(cfg, workers=1)
        assert len(ran) == 12  # each trial once, by one thread
        assert threading.get_ident() in ran and len(set(ran)) <= workers
        assert threading.active_count() == before
        assert_no_children()

    # Short trials, more threads than this box's two cores and a short
    # switch interval, so the claims on the shared counter contend: a lost
    # update would run a trial twice or not at all.
    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_each_trial_runs_exactly_once(self, monkeypatch, tmp_path, workers):
        trials = self.mark_trials(monkeypatch, tmp_path, pause=0)
        cfg = ExperimentConfig(n=[10, 12, 14, 16], c1=3.0, c2=0.0, trials=40, seed=5)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with deadline(30):
                swept = run_avg_experiment(cfg, workers=workers)
        finally:
            sys.setswitchinterval(interval)
        assert_no_children()
        ran = sorted((n, seed) for _, n, seed in trials())
        assert ran == sorted((n, mix_seed(5, t)) for n in (10, 12, 14, 16) for t in range(40))
        assert swept == run_avg_experiment(cfg, workers=1)

    # Without stopping at the first error, the 80 trials behind the failure
    # would all run.  A "child" is a thread the sweep started.
    @pytest.mark.parametrize("run", [run_avg_experiment, run_consistency_experiment])
    @pytest.mark.parametrize("fail_in", ["trial", "caller", "caller's trial", "child's trial"])
    def test_error_cancels_queued_chunks(self, monkeypatch, tmp_path, run, fail_in):
        caller, before = threading.get_ident(), threading.active_count()
        fails = {
            "trial": lambda params: params.n == 10,
            "caller": lambda params: False,
            "caller's trial": lambda params: threading.get_ident() == caller,
            "child's trial": lambda params: threading.get_ident() != caller,
        }[fail_in]

        def fail(params):
            if fails(params):
                raise RuntimeError("trial failed")

        trials = self.mark_trials(monkeypatch, tmp_path, fail)

        def interrupted(*args):
            raise KeyboardInterrupt

        if fail_in == "caller":  # the theory columns of row 0, in this thread
            monkeypatch.setattr("randasp.experiments.expected_total", interrupted)
        cfg = ExperimentConfig(n=[10, 12, 14, 16, 18, 20], c1=3.0, c2=0.0, trials=16, seed=5)
        with pytest.raises(KeyboardInterrupt if fail_in == "caller" else RuntimeError, match=None if fail_in == "caller" else "trial failed"):
            run(cfg, workers=2)
        assert threading.active_count() == before
        assert_no_children()
        assert len(trials()) < 48  # of 96 trials

    def test_an_error_pickle_cannot_carry_fails_the_sweep(self, monkeypatch, tmp_path):
        # Nothing is pickled: another thread's error is raised as itself.
        caller = threading.get_ident()

        class LocalError(Exception):  # a local class: pickle could not name it
            pass

        raised = []

        def fail(params):
            if threading.get_ident() != caller:
                raised.append(LocalError("only another thread raises this"))
                raise raised[-1]

        self.mark_trials(monkeypatch, tmp_path, fail)
        cfg = ExperimentConfig(n=[10, 12, 14, 16, 18, 20], c1=3.0, c2=0.0, trials=16, seed=5)
        with pytest.raises(LocalError) as error:
            run_avg_experiment(cfg, workers=2)
        assert raised == [error.value]
        assert_no_children()

    def test_two_sweeps_at_once_each_give_their_own_results(self):
        # Each sweep sets its stop flag as it ends: were the flag shared, the
        # short sweeps, run over and over, would stop the long one's trials.
        long = ExperimentConfig(n=[200, 300, 400], c1=5.0, c2=0.0, trials=40, seed=20240901)
        short = ExperimentConfig(n=[50, 60], c1=5.0, c2=0.0, trials=20, seed=12)
        expected = {long: run_avg_experiment(long), short: run_avg_experiment(short)}
        got, long_done, before = {long: [], short: []}, threading.Event(), threading.active_count()

        def sweep(cfg):
            try:
                while True:
                    got[cfg].append(run_avg_experiment(cfg, workers=2))
                    if cfg is long or long_done.is_set() or len(got[cfg]) == 1000:
                        return
            except BaseException as error:
                got[cfg].append(error)
            finally:
                if cfg is long:
                    long_done.set()

        # daemons, so that a sweep left waiting for good fails the test and
        # does not hang the run
        callers = [threading.Thread(target=sweep, args=(cfg,), daemon=True) for cfg in (long, short)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
        assert got[long] == [expected[long]]
        assert len(got[short]) > 1 and all(result == expected[short] for result in got[short])
        assert threading.active_count() == before


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
        assert_no_children()

    def test_c1_zero_rejected_before_first_trial(self, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("randasp.experiments._count_chunk", no_trials)
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
        assert_no_children()


# `_count_chunk` arguments: (n, c1, c2, seed, start, stop, limit).
KERNEL_CHUNKS = [
    (1000, 3.0, 0.0, 20240904, 0, 10, 1),  # exist-n1000-c3
    (200, 5.0, 0.0, 20240901, 0, 4, None),  # enum-n200-c5
    (50, 5.0, 0.0, 20240901, 0, 16, None),  # the smallest row of sweep-w2
    (100, 10.0, 4.0, 20240903, 0, 10, None),  # c2 > 0: contradictions merged into head order
    (60, 10.0, 4.0, 7, 3, 30, 3),  # limit 3, a chunk that starts past 0
    (150, 5.0, 1.0, 9, 5, 15, 1),
    (1, 0.0, 0.5, 3, 0, 40, None),  # n = 1: contradictions only, and resamples
    (2, 1.5, 1.0, 4, 0, 50, None),
    (3, 1.0, 0.0, 5, 0, 60, None),  # resamples
    (5, 1.0, 0.3, 6, 10, 70, 3),
    (60, 10.0, 4.0, 7, 0, 30, 2**64 + 1),  # a limit past int64 keeps every leaf, as None does
]


class TestKernelTrials:
    """A sweep trial on the kernel is one C call, and it adds what `python_chunk`, the definition, adds."""

    @pytest.mark.parametrize("chunk", KERNEL_CHUNKS)
    def test_sums_equal_the_python_loops(self, chunk):
        kernel = _count_chunk(chunk)
        assert kernel == python_chunk(chunk)
        assert len(kernel) == chunk[0] + 4 and all(type(x) is int for x in kernel)

    def test_the_grids_resample_and_keep_sets(self):
        sums = {chunk: _count_chunk(chunk) for chunk in KERNEL_CHUNKS}
        assert all(sums[c][2] > 0 for c in KERNEL_CHUNKS[6:9])
        assert [c for c in KERNEL_CHUNKS if not sums[c][0]] == [KERNEL_CHUNKS[6]]  # n = 1 draws only a0 <- not a0
        assert sums[KERNEL_CHUNKS[10]] == _count_chunk(KERNEL_CHUNKS[10][:6] + (None,))

    def test_all_draws_empty_raises_as_generate_does(self, monkeypatch):
        monkeypatch.setattr(generate_module, "_MAX_RESAMPLE", 3)  # the bound of the kernel trial and of the definition
        chunk = (2, 1e-3, 0.0, 1, 0, 1, None)  # a draw is empty with probability 0.999
        with pytest.raises(RuntimeError) as kernel:
            _count_chunk(chunk)
        with pytest.raises(RuntimeError) as python:
            python_chunk(chunk)
        assert str(kernel.value) == str(python.value) == "no nonempty program after 3 resamples"

    @pytest.mark.parametrize("column", ["count", "square", "size"])
    def test_a_sum_past_int64_raises(self, column):
        params = LinearModelParams(20, 3.0, 0.0)
        seed = next(mix_seed(1, t) for t in range(100) if enumerate_answer_sets(generate(params, mix_seed(1, t))).count)
        (size, *_) = (m.bit_count() for m in enumerate_answer_sets(generate(params, seed)).masks)
        sums = np.zeros(24, np.int64)
        sums[{"count": 0, "square": 1, "size": 3 + size}[column]] = 2**63 - 1
        with pytest.raises(OverflowError, match="leaves int64"):
            _kernel.trial(params, None, sums)(seed)

    def test_a_rejected_leaf_raises(self, monkeypatch):
        # randasp_trial stops at a leaf that randasp_check rejects, which no
        # sampled program reaches (tests/kernel_sanitize.c hands it one).
        lib = _kernel.load()
        monkeypatch.setattr(lib, "randasp_trial", lambda *args: _kernel._REJECTED)
        run = _kernel.trial(LinearModelParams(10, 3.0, 0.0), None, np.zeros(14, np.int64))
        with pytest.raises(RuntimeError, match="a leaf that is not an answer set"):
            run(1)

    def test_rejects_what_c_cannot_add_into(self):
        params = LinearModelParams(10, 3.0, 0.0)
        with pytest.raises(ValueError, match=r"shape \(14,\), got \(13,\)"):
            _kernel.trial(params, None, np.zeros(13, np.int64))
        with pytest.raises(TypeError, match="C-contiguous int64 array, got int32"):
            _kernel.trial(params, None, np.zeros(14, np.int32))
        with pytest.raises(ValueError, match="limit must be positive"):
            _kernel.trial(params, 0, np.zeros(14, np.int64))
        with pytest.raises(TypeError, match="params must be a LinearModelParams, got tuple"):
            _kernel.trial((10, 3.0, 0.0), None, np.zeros(14, np.int64))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_interrupt_in_a_kernel_sweep_is_raised(self, workers):
        # The alarm lands in C or between trials: either way it is raised,
        # with no row returned.
        def interrupt(signum, frame):
            raise KeyboardInterrupt

        cfg = ExperimentConfig(n=200, c1=5.0, c2=0.0, trials=400, seed=20240901)  # about 0.2 s of trials
        handler = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.02)
            with pytest.raises(KeyboardInterrupt):
                run_avg_experiment(cfg, workers=workers)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        assert_no_children()

    @pytest.mark.parametrize("chunk", [KERNEL_CHUNKS[1], KERNEL_CHUNKS[3]])
    def test_a_set_stop_flag_ends_the_trial_at_its_first_decision(self, chunk):
        n, c1, c2, seed, start, _, limit = chunk
        params = LinearModelParams(n, c1, c2)
        args = (*_kernel._model(params), generate_module._MAX_RESAMPLE, _kernel._limit(limit))
        sums, flag = np.zeros(n + 4, np.int64), ctypes.c_int32(1)
        trial_seed = mix_seed(seed, start)
        rc = _kernel.load().randasp_trial(trial_seed, *args, sums.ctypes.data, ctypes.addressof(flag))
        assert rc == _kernel._STOPPED and not sums.any()  # no leaf reached, so nothing added
        with pytest.raises(_kernel.Stopped):
            _kernel.trial(params, limit, sums, flag)(trial_seed)
        flag.value = 0
        _kernel.trial(params, limit, sums, flag)(trial_seed)
        assert tuple(sums.tolist()) == _count_chunk((n, c1, c2, seed, start, start + 1, limit))
        with pytest.raises(TypeError, match="stop must be a ctypes.c_int32, got c_byte"):
            _kernel.trial(params, limit, sums, ctypes.c_int8(0))

    def test_an_interrupt_stops_the_other_threads_trial(self, monkeypatch):
        # Every trial of this row runs for many seconds in C (25 s for trial
        # 0 on a 2-core Xeon).  This thread sleeps in Python instead of
        # running its own, so the alarm lands at once; the other thread's
        # trial must end at its next decision, not run to its end.
        caller, real, outcomes = threading.get_ident(), _kernel.trial, []

        def trial(*args):
            run = real(*args)

            def watched(seed):
                if threading.get_ident() == caller:
                    time.sleep(60)
                    raise AssertionError("the alarm did not interrupt this thread")
                try:
                    run(seed)
                except BaseException as error:
                    outcomes.append(type(error))
                    raise
                outcomes.append(None)

            return watched

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        monkeypatch.setattr(_kernel, "trial", trial)
        cfg = ExperimentConfig(n=1000, c1=5.0, c2=0.0, trials=2, seed=20240901)  # two one-trial chunks at two workers
        before = threading.active_count()
        handler = signal.signal(signal.SIGALRM, interrupt)
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, 0.5)
            with pytest.raises(KeyboardInterrupt):
                run_avg_experiment(cfg, workers=2)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        assert outcomes == [_kernel.Stopped]
        assert time.perf_counter() - t0 < 10  # generous: the flag stops it within milliseconds
        assert threading.active_count() == before

    @pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
    def test_runs_clean_under_the_undefined_behaviour_sanitizer(self, tmp_path):
        # Sampling, search and whole trials on every chunk above, through a
        # build that aborts on the first undefined behaviour, in a process
        # of its own: `python_chunk` draws and searches each trial through
        # `_kernel.sample` and `_kernel.enumerate`.
        so = tmp_path / "search-ubsan.so"
        cc = ["cc", "-O1", "-g", "-fsanitize=undefined", "-fno-sanitize-recover=all", "-shared", "-fPIC", "-x", "c", "-"]
        subprocess.run([*cc, "-lm", "-o", str(so)], input=_kernel.source(), capture_output=True, check=True)
        script = f"""
import ctypes
from randasp import _kernel, experiments
lib = _kernel._bind(ctypes.CDLL({str(so)!r}))
_kernel.load = lambda: lib
from conftest import python_chunk
for chunk in {KERNEL_CHUNKS!r}:
    assert experiments._count_chunk(chunk) == python_chunk(chunk), chunk
print("clean")
"""
        paths = [str(Path(randasp.__file__).parent.parent), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script], capture_output=True, text=True, env=env, timeout=300)
        assert (proc.returncode, proc.stdout) == (0, "clean\n"), proc.stderr
