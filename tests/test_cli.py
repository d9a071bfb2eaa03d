import hashlib
import re
import shlex
import subprocess
import sys

import numpy as np
import pytest

from randasp import _kernel, experiments
from randasp.cli import _build_parser, cli_dispatch
from randasp.csvout import write_avg_csv, write_theory_curve_csv
from randasp.experiments import ExperimentConfig, run_avg_experiment
from randasp.generate import mix_seed
from randasp.theory import chi, expected_count_size_k_exact, size_curves, theory_params

TWO_CYCLE_TEXT = "a :- not b.\nb :- not a.\n"


def run_cli(*argv):
    return cli_dispatch(list(argv))


class TestGen:
    def test_writes_deterministic_file(self, tmp_path):
        out1, out2 = tmp_path / "p1.lp", tmp_path / "p2.lp"
        args = ["gen", "--n", "20", "--c1", "3", "--c2", "1", "--seed", "42"]
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_text().startswith("#universe 20.")

    def test_stdout_mode(self, capsys):
        assert run_cli("gen", "--n", "5", "--c1", "2", "--c2", "0", "--seed", "7") == 0
        assert "#universe 5." in capsys.readouterr().out

    @pytest.mark.parametrize(
        "n, c1, c2, seed, t, digest",
        [
            ("200", "5", "1", 20240901, 0, "74d14fd06f4bc0c1fe44a52cf21a0052df25f958b350a95799d75fe16f24e184"),
            ("200", "5", "1", 20240901, 1, "ed129f79e0af597d93b959a30b99d327b9c7602ee3228cee1c1f55d2a0aef5d7"),
            ("1000", "3", "0", 20240904, 2, "10aad62fb1a62aeca371477460677758f99315ba2712730ba755cd2d954841ac"),
            ("8", "3", "1", 3, 0, "cab03ed5a3c6d4df6a5e4333d941ebe00d4703aef26d3fe847a474f64b7daf9a"),
        ],
    )
    def test_replays_trial_sub_seed(self, n, c1, c2, seed, t, digest, capsys):
        # a sweep's trial t is replayed with `gen --seed mix_seed(seed, t)`;
        # the bytes are pinned to the program the sweep generated
        assert run_cli("gen", "--n", n, "--c1", c1, "--c2", c2, "--seed", str(mix_seed(seed, t))) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_invalid_params_exit_1(self, capsys):
        assert run_cli("gen", "--n", "3", "--c1", "5", "--c2", "0", "--seed", "1") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("c1, c2", [("5", "nan"), ("nan", "0"), ("5", "inf")])
    def test_non_finite_rate_exit_1(self, capsys, c1, c2):
        assert run_cli("gen", "--n", "50", "--c1", c1, "--c2", c2, "--seed", "1") == 1
        assert "c1 and c2 must be finite" in capsys.readouterr().err

    def test_near_empty_model_fails_before_resampling(self, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("a program was drawn")

        monkeypatch.setattr("randasp.cli.generate", no_draws)
        assert run_cli("gen", "--n", "2", "--c1", "1e-9", "--c2", "0", "--seed", "1") == 1
        assert "resamples would more likely fail" in capsys.readouterr().err


class TestSolve:
    @pytest.fixture
    def two_cycle_file(self, tmp_path):
        path = tmp_path / "prog.lp"
        path.write_text(TWO_CYCLE_TEXT)
        return str(path)

    def test_count(self, two_cycle_file, capsys):
        assert run_cli("solve", "--in", two_cycle_file, "--count") == 0
        assert capsys.readouterr().out == "2\n"

    def test_enumerate_default(self, two_cycle_file, capsys):
        assert run_cli("solve", "--in", two_cycle_file) == 0
        assert capsys.readouterr().out == "a\nb\n"

    def test_enumerate_option_is_usage_error(self, two_cycle_file, capsys):
        assert run_cli("solve", "--in", two_cycle_file, "--enumerate") == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--enumerate" in captured.err

    def test_limit_truncates(self, two_cycle_file, capsys):
        assert run_cli("solve", "--in", two_cycle_file, "--limit", "1") == 0
        captured = capsys.readouterr()
        assert captured.out in ("a\n", "b\n")  # exactly one set, deterministic
        assert "truncated" in captured.err

    def test_limit_equal_to_count_is_not_truncated(self, two_cycle_file, capsys):
        assert run_cli("solve", "--in", two_cycle_file, "--limit", "2") == 0
        captured = capsys.readouterr()
        assert captured.out == "a\nb\n"
        assert captured.err == ""

    def test_limit_must_be_positive(self, two_cycle_file, capsys):
        assert run_cli("solve", "--in", two_cycle_file, "--limit", "0") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "limit must be positive" in captured.err

    @pytest.mark.parametrize("args", [["--count", "--limit", "1"], ["--check", "a", "--limit", "0"]])
    def test_limit_with_count_or_check_is_usage_error(self, two_cycle_file, capsys, args):
        assert run_cli("solve", "--in", two_cycle_file, *args) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with argument" in captured.err

    def test_check_reports_both_checkers(self, two_cycle_file, capsys):
        assert run_cli("solve", "--in", two_cycle_file, "--check", "a") == 0
        assert capsys.readouterr().out == "n2: true\ngeneral: true\n"
        assert run_cli("solve", "--in", two_cycle_file, "--check", "a,b") == 0
        assert capsys.readouterr().out == "n2: false\ngeneral: false\n"

    def test_check_unknown_atom(self, two_cycle_file, capsys):
        assert run_cli("solve", "--in", two_cycle_file, "--check", "zzz") == 1
        assert "unknown atom" in capsys.readouterr().err

    def test_check_non_n2_program(self, tmp_path, capsys):
        path = tmp_path / "pos.lp"
        path.write_text("a.\nb :- a.\n")
        assert run_cli("solve", "--in", str(path), "--check", "a,b") == 0
        assert capsys.readouterr().out == "n2: not-applicable\ngeneral: true\n"

    def test_empty_program_has_the_empty_answer_set(self, tmp_path, capsys):
        path = tmp_path / "empty.lp"
        path.write_text("#universe 3.\n")
        assert run_cli("solve", "--in", str(path), "--count") == 0
        assert capsys.readouterr().out == "1\n"
        assert run_cli("solve", "--in", str(path)) == 0
        assert capsys.readouterr().out == "\n"
        assert run_cli("solve", "--in", str(path), "--check", "") == 0
        assert capsys.readouterr().out == "n2: true\ngeneral: true\n"
        assert run_cli("solve", "--in", str(path), "--check", "a0") == 0
        assert capsys.readouterr().out == "n2: false\ngeneral: false\n"

    def test_missing_file(self, capsys):
        assert run_cli("solve", "--in", "/nonexistent.lp", "--count") == 1

    def test_non_n2_enumerate_is_domain_error(self, tmp_path, capsys):
        path = tmp_path / "pos.lp"
        path.write_text("a.\nb :- a.\n")
        assert run_cli("solve", "--in", str(path), "--count") == 1
        assert "negative two-literal" in capsys.readouterr().err


class TestTheory:
    def test_report_keys(self, capsys):
        assert run_cli("theory", "--n", "200", "--c1", "10", "--c2", "0") == 0
        out = capsys.readouterr().out
        for key in (
            "alpha=",
            "x0=",
            "sigma=",
            "c0=",
            "delta=",
            "phi_x0_direct=",
            "phi_x0_asymptotic=",
            "expected_total=",
            "limit_expected_total=",
            "expected_rule_count=",
        ):
            assert key in out
        alpha = float(out.split("alpha=")[1].splitlines()[0])
        assert abs(alpha - 5.7289) < 1e-3

    def test_curve_csv(self, tmp_path, capsys):
        curve = tmp_path / "curve.csv"
        assert run_cli("theory", "--n", "30", "--c1", "5", "--c2", "0", "--curve", str(curve)) == 0
        lines = curve.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "k,Pr_k,E_Nk,phi_k,chi_k"
        assert len(data) == 1 + 29  # k = 1..n-1
        api = tmp_path / "api.csv"
        write_theory_curve_csv(api, np.int64(30), 5, 0)  # ints are written as the CLI's floats
        assert api.read_bytes() == curve.read_bytes()

    @pytest.mark.parametrize("n, c1, c2", [(30, 5.0, 0.0), (200, 10.0, 4.0), (60, 2.5, 20.0)])
    def test_curve_columns_match_size_curves(self, tmp_path, n, c1, c2):
        curve = tmp_path / "curve.csv"
        assert run_cli("theory", "--n", str(n), "--c1", str(c1), "--c2", str(c2), "--curve", str(curve)) == 0
        rows = [l.split(",") for l in curve.read_text().splitlines() if not l.startswith("#")][1:]
        tp = theory_params(n, c1, c2)
        pr, e_nk, phi_k = (column.tolist() for column in size_curves(n, c1, c2))
        assert [int(row[0]) for row in rows] == list(range(1, n))
        for row, expect in zip(rows, zip(pr, e_nk, phi_k)):
            assert tuple(float(text) for text in row[1:]) == (*expect, chi(float(row[0]), tp))
        if n == 30:  # the exact oracle's range
            for row in rows:
                exact = float(expected_count_size_k_exact(n, int(row[0]), c1, c2))
                assert abs(float(row[2]) - exact) <= 1e-12 * exact

    # sha256 of the curve CSV and of stdout, recorded while phi and E[N_k]
    # still had scalar per-k functions beside the arrays
    @pytest.mark.parametrize(
        "n, c1, c2, curve_digest, stdout_digest",
        [
            ("30", "5", "0", "4ae99acc7b42d021f17c675add7806365e6e56fd7e71e72e07740561200edf21",
             "16bcdcec52c8d81ded44ea11589fb64d0b66abca4083bbc263e9734a2bb6de6b"),
            ("200", "10", "4", "e7aa83a131121cd3e0c35e1db8f3b735937d7c7bbfff21ae1b83b870b0e11950",
             "9a4e0a446b5ef05fef6248ed8d80d23be7045dc6c2c2770d9a034470f9647c36"),
            ("60", "2.5", "20", "09375e285e09aa7239458d2cd5ea3b5b0b0d818c8cb26819dcbd84eff670ef51",
             "c44202af30031a6e3c51a87b01867f84a3cba141bf772dffc38dcb5c16e1554c"),
        ],
    )
    def test_pinned_output_bytes(self, tmp_path, capsys, n, c1, c2, curve_digest, stdout_digest):
        curve = tmp_path / "curve.csv"
        assert run_cli("theory", "--n", n, "--c1", c1, "--c2", c2, "--curve", str(curve)) == 0
        assert hashlib.sha256(curve.read_bytes()).hexdigest() == curve_digest
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_digest

    def test_c1_zero_rejected(self, capsys):
        assert run_cli("theory", "--n", "100", "--c1", "0", "--c2", "5") == 1

    def test_c1_where_alpha_rounds_to_one_rejected(self, capsys):
        assert run_cli("theory", "--n", "50", "--c1", "1e-20", "--c2", "1") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "c1=1e-20" in captured.err

    @pytest.mark.parametrize("c1, c2", [("5", "nan"), ("nan", "0")])
    def test_non_finite_rate_rejected(self, capsys, c1, c2):
        assert run_cli("theory", "--n", "50", "--c1", c1, "--c2", c2) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "c1 and c2 must be finite" in captured.err

    def test_curve_too_large_rejected_before_allocating(self, capsys):
        assert run_cli("theory", "--n", "10000000000", "--c1", "3", "--c2", "0") == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "limit_expected_total" in captured.err


class TestTranslate:
    def test_translate_and_verify(self, tmp_path, capsys):
        src = tmp_path / "neg.lp"
        src.write_text("a :- not b, not c.\nb.\n")
        dst = tmp_path / "out.lp"
        assert run_cli("translate", "--in", str(src), "--out", str(dst), "--verify") == 0
        assert capsys.readouterr().out == "verified: true\n"
        text = dst.read_text()
        assert text.startswith("#universe 5.")
        # every rule in the output is negative two-literal
        from randasp.progio import parse_program

        assert parse_program(text).is_n2

    def test_empty_program_verifies(self, tmp_path, capsys):
        src = tmp_path / "empty.lp"
        src.write_text("#universe 3.\n")
        dst = tmp_path / "out.lp"
        assert run_cli("translate", "--in", str(src), "--out", str(dst), "--verify") == 0
        assert capsys.readouterr().out == "verified: true\n"
        assert dst.read_text().startswith("#universe 3.")

    # sha256 of the output file, recorded while the CLI still named the aux
    # atoms itself; the `_e0.` input keeps its names, so `__e0` shows the
    # collision prefix in the bytes
    @pytest.mark.parametrize(
        "text, digest",
        [
            ("a :- not b, not c.\nb.\n", "859c890e0c0e4acd0bdc7c9718d46d62411a49780ca3e78b4db63c58e08522ef"),
            ("_e0.\na1 :- not _e0.\n", "dae4fed02184eb0c690e5f8523552cd25c4f0ad76ff4c56b5f0752afe7b1942d"),
            ("a5 :- not a0.\nq :- not a5.\n", "17239627218db86815a6b18b6e5b05a632bedf01b13b5bf00022078ce8927bd8"),
            ("#universe 3.\n", "25bc98c1b9a044148c0458646c57ddf007518494a6f95f6b9ad82ac86b2a2310"),
        ],
    )
    def test_pinned_output_bytes(self, tmp_path, capsys, text, digest):
        src, dst = tmp_path / "in.lp", tmp_path / "out.lp"
        src.write_text(text)
        assert run_cli("translate", "--in", str(src), "--out", str(dst), "--verify") == 0
        assert capsys.readouterr().out == "verified: true\n"
        assert hashlib.sha256(dst.read_bytes()).hexdigest() == digest

    def test_rejects_positive_bodies(self, tmp_path, capsys):
        src = tmp_path / "pos.lp"
        src.write_text("b :- a.\n")
        dst = tmp_path / "out.lp"
        assert run_cli("translate", "--in", str(src), "--out", str(dst)) == 1
        assert "negative normal" in capsys.readouterr().err


class TestExperimentCommand:
    def test_avg_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "avg.csv"
        code = run_cli(
            "experiment", "avg", "--n", "10,12", "--c1", "3", "--c2", "0",
            "--trials", "20", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "n,c1,c2,trials,avg_answer_sets,stderr,theory_finite_n,theory_limit"
        assert len(data) == 3
        assert data[1].startswith("10,3.0,0.0,20,")

    def test_dist_csv_schema(self, tmp_path):
        out = tmp_path / "dist.csv"
        code = run_cli(
            "experiment", "dist", "--n", "10", "--c1", "3", "--c2", "0",
            "--trials", "20", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "k,empirical_avg,model_E_Nk,chi_k"
        assert len(data) == 1 + 11  # k = 0..n

    def test_consistency_csv_schema(self, tmp_path):
        out = tmp_path / "cons.csv"
        code = run_cli(
            "experiment", "consistency", "--n", "10,20", "--c1", "3", "--c2", "0",
            "--trials", "30", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        data = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert data[0] == "n,c1,c2,trials,empirical_ratio,pred_full,pred_gamma"
        assert len(data) == 3

    def test_c2_list_matches_api(self, tmp_path, capsys):
        out, ref = tmp_path / "cli.csv", tmp_path / "api.csv"
        code = run_cli(
            "experiment", "avg", "--n", "12", "--c1", "3", "--c2", "0,1,2",
            "--trials", "10", "--seed", "5", "--out", str(out),
        )
        assert code == 0
        cfg = ExperimentConfig(n=(12,), c1=(3.0,), c2=(0.0, 1.0, 2.0), trials=10, seed=5)
        write_avg_csv(ref, run_avg_experiment(cfg), cfg.seed)
        assert out.read_bytes() == ref.read_bytes()
        assert len(out.read_text().splitlines()) == 5 + 3  # provenance, header, 3 rows

    @pytest.mark.parametrize("kind, n", [("avg", "10,12,14"), ("consistency", "10,12,14"), ("dist", "10")])
    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    def test_progress_line_per_row_on_stderr(self, tmp_path, capsys, kind, n, workers):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "experiment", kind, "--n", n, "--c1", "3", "--c2", "0",
            "--trials", "8", "--seed", "5", "--workers", workers, "--out", str(out),
        )
        assert code == 0
        captured = capsys.readouterr()
        rows = n.split(",")
        lines = captured.err.splitlines()
        assert len(lines) == len(rows)
        for i, (line, row_n) in enumerate(zip(lines, rows), 1):
            assert line.startswith(f"{kind} n={row_n} ")
            assert re.search(rf" \[row {i}/{len(rows)}, \d+\.\d s\]$", line)
        assert captured.out == "" and "[row" not in out.read_text()

    def test_gamma_option_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "experiment", "consistency", "--n", "12", "--c1", "3", "--c2", "0",
            "--trials", "10", "--seed", "5", "--gamma", "0.5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "--gamma" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_list_element_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            "experiment", "avg", "--n", "12", "--c1", "3", "--c2", "0,x",
            "--trials", "10", "--seed", "5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "comma-separated float list" in capsys.readouterr().err

    def test_epilog_invocations_parse(self, capsys):
        assert run_cli("experiment", "--help") == 0
        lines = [l.strip() for l in capsys.readouterr().out.splitlines()]
        invocations = [l for l in lines if l.startswith("randasp experiment ")]
        assert len(invocations) == 4
        parser = _build_parser()
        for line in invocations:
            args = parser.parse_args(shlex.split(line)[1:])
            assert args.command == "experiment" and args.trials == 1000
            assert args.out.endswith(".csv")

    def test_unwritable_out_fails_before_the_first_trial(self, tmp_path, capsys, monkeypatch):
        chunks = []
        monkeypatch.setattr(experiments, "_count_chunk", lambda *args: chunks.append(args))
        code = run_cli(
            "experiment", "avg", "--n", "50", "--c1", "5", "--c2", "0",
            "--trials", "3", "--seed", "1", "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 1 and not chunks
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: [Errno 2] No such file or directory")
        assert "[row" not in captured.err

    @pytest.mark.parametrize("existing", [False, True])
    def test_a_failed_sweep_leaves_the_out_file_as_it_was(self, tmp_path, capsys, monkeypatch, existing):
        out = tmp_path / "x.csv"
        if existing:
            out.write_bytes(b"kept\n")

        def fail(*args):
            raise RuntimeError("trial failed")

        monkeypatch.setattr(experiments, "_count_chunk", fail)
        code = run_cli(
            "experiment", "avg", "--n", "12", "--c1", "3", "--c2", "0",
            "--trials", "5", "--seed", "5", "--out", str(out),
        )
        assert code == 1 and "error: trial failed" in capsys.readouterr().err
        assert (out.read_bytes() == b"kept\n") if existing else not out.exists()

    def test_zero_workers_rejected(self, tmp_path, capsys):
        code = run_cli(
            "experiment", "avg", "--n", "12", "--c1", "3", "--c2", "0",
            "--trials", "5", "--seed", "5", "--workers", "0", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert "workers must be at least 1" in capsys.readouterr().err

    def test_dist_multiple_n_rejected(self, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        code = run_cli(
            "experiment", "dist", "--n", "10,12", "--c1", "3", "--c2", "0",
            "--trials", "5", "--seed", "5", "--out", str(out),
        )
        assert code == 1


class TestWithoutACompiler:
    """Where the kernel cannot be built, each command that samples, searches or sweeps exits 1 with one error line."""

    @pytest.fixture(autouse=True)
    def no_compiler(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(_kernel, "CC", ("randasp-no-such-compiler", *_kernel.CC[1:]))

    @staticmethod
    def fails(capsys, *argv):
        assert run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert re.fullmatch(r"error: the search kernel needs a C compiler, and `randasp-no-such-compiler .*` failed: not found", line)

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("kind", ["avg", "dist", "consistency"])
    def test_experiment_runs_no_trial_and_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch, kind, existing):
        chunks = []
        monkeypatch.setattr(experiments, "_count_chunk", lambda *args: chunks.append(args))
        out = tmp_path / "x.csv"
        if existing:
            out.write_bytes(b"kept\n")
        self.fails(capsys, "experiment", kind, "--n", "50", "--c1", "5", "--c2", "0", "--trials", "3", "--seed", "1", "--out", str(out))
        assert not chunks
        assert (out.read_bytes() == b"kept\n") if existing else not out.exists()

    def test_gen_and_solve_exit_1(self, tmp_path, capsys):
        prog, out = tmp_path / "p.lp", tmp_path / "gen.lp"
        prog.write_text(TWO_CYCLE_TEXT)
        self.fails(capsys, "gen", "--n", "20", "--c1", "3", "--c2", "1", "--seed", "42")
        self.fails(capsys, "gen", "--n", "20", "--c1", "3", "--c2", "1", "--seed", "42", "--out", str(out))
        assert not out.exists()
        for mode in ([], ["--limit", "2"], ["--count"]):
            self.fails(capsys, "solve", "--in", str(prog), *mode)

    def test_theory_and_translate_verify_run(self, tmp_path, capsys):
        prog = tmp_path / "p.lp"
        prog.write_text("a :- not b, not c.\nb :- not a.\n")
        assert run_cli("theory", "--n", "50", "--c1", "5", "--c2", "0") == 0
        assert run_cli("translate", "--in", str(prog), "--out", str(tmp_path / "t.lp"), "--verify") == 0
        assert capsys.readouterr().out.endswith("verified: true\n")
        assert list(tmp_path.rglob("*.so")) == []


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate") == 2

    def test_missing_required_flag(self):
        assert run_cli("gen", "--n", "10") == 2

    def test_bad_seed(self):
        assert run_cli("gen", "--n", "10", "--c1", "1", "--c2", "0", "--seed", "-3") == 2

    def test_help_exits_zero(self):
        assert run_cli("--help") == 0


class TestSubprocessSurface:
    def test_module_entry_point(self, tmp_path):
        prog = tmp_path / "p.lp"
        prog.write_text(TWO_CYCLE_TEXT)
        proc = subprocess.run(
            [sys.executable, "-m", "randasp", "solve", "--in", str(prog), "--count"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0 and proc.stdout == "2\n"
