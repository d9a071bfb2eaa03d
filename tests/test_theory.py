import hashlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from randasp.generate import LinearModelParams, generate, mix_seed
from randasp.programs import AtomSet
from randasp.solver import is_answer_set_n2
from randasp.theory import (
    CURVE_MAX_N,
    _log_binom,
    _log_factorial,
    _log_factorials,
    chi,
    expected_counts,
    consistency_probability,
    expected_count_size_k_exact,
    expected_total,
    limit_expected_total,
    size_curves,
    solve_alpha,
    theory_params,
)


def rel(a, b):
    return abs(a - b) / abs(b)


class TestSolveAlpha:
    def test_euler_fixed_point(self):
        assert abs(solve_alpha(math.e) - math.e) < 1e-12

    def test_reported_values(self):
        assert rel(solve_alpha(5.0), 3.7687) < 1e-4
        assert rel(solve_alpha(10.0), 5.7289) < 1e-4

    def test_residual_tolerance(self):
        for c1 in (0.1, 0.5, 1.0, 2.0, 5.0, 17.3, 120.0):
            a = solve_alpha(c1)
            assert abs(a * math.log(a) - c1) <= 1e-12

    def test_monotone_in_c1(self):
        grid = [0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0]
        alphas = [solve_alpha(c) for c in grid]
        assert alphas == sorted(alphas)
        assert all(a > 1.0 for a in alphas)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            solve_alpha(0.0)
        with pytest.raises(ValueError):
            solve_alpha(-1.0)

    @pytest.mark.parametrize("c1", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, c1):
        with pytest.raises(ValueError, match="finite c1 > 0"):
            solve_alpha(c1)

    @pytest.mark.parametrize("c1", [8960.194543333342, 1e5, 1.5e9, 2e9])
    def test_large_c1_converges(self, c1):
        # past 2^26 adjacent doubles are wider than the 1e-8 bisection width,
        # and the residual of a ln a - c1 is rounded at the scale of c1
        a = solve_alpha(c1)
        assert abs(a * math.log(a) - c1) <= 1e-12 * c1
        assert math.isfinite(limit_expected_total(c1, 0.0))


class TestProbAnswerSet:
    """The Pr_k column of `size_curves`; index k - 1 holds size k."""

    def test_collapse_at_k_equals_n_minus_1(self):
        n, c1, c2 = 12, 4.0, 3.0
        p, d = c1 / n, c2 / n
        pr, _, _ = size_curves(n, c1, c2)
        assert rel(pr[n - 2], p ** (n - 1) * (1 - d)) < 1e-12

    def test_exact_oracle_rejects_boundary_k(self):
        for k in (0, 10, -1):
            with pytest.raises(ValueError, match="0 < k < n"):
                expected_count_size_k_exact(10, k, 5.0, 0.0)

    def test_zero_when_no_pure_rules(self):
        for column in size_curves(10, 0.0, 5.0):
            assert column.tolist() == [0.0] * 9

    def test_matches_exact_rationals(self):
        pr, _, _ = size_curves(10, 5.0, 2.0)
        for k in range(1, 10):
            exact = expected_count_size_k_exact(10, k, 5.0, 2.0) / math.comb(10, k)
            assert rel(pr[k - 1], float(exact)) < 1e-12

    @pytest.mark.slow
    def test_monte_carlo_agreement(self):
        # informative sizes: Pr(8) ~ 0.025, Pr(7) ~ 0.006 at (10, 5, 0)
        cases = [(8, 5.0, 0.0), (7, 5.0, 0.0), (8, 5.0, 5.0)]
        trials = 20000
        for k, c1, c2 in cases:
            params = LinearModelParams(10, c1, c2)
            pr = size_curves(10, c1, c2)[0][k - 1]
            target = AtomSet.from_atoms(10, range(k))
            hits = sum(
                is_answer_set_n2(generate(params, mix_seed(k, t)), target)
                for t in range(trials)
            )
            assert abs(hits / trials - pr) <= 3 * math.sqrt(pr * (1 - pr) / trials)


class TestExpectedCounts:
    def test_two_atom_hand_value(self):
        assert rel(expected_counts(2, 1.0, 0.0)[0], 1.0) < 1e-12

    @pytest.mark.parametrize("n,c1,c2", [(20, 5.0, 0.0), (24, 3.0, 6.0), (30, 7.5, 0.0), (28, 3.5, 7.0)])
    def test_log_path_matches_exact_rationals(self, n, c1, c2):
        # p = c1/n exactly representable in binary on these grids
        counts = expected_counts(n, c1, c2)
        for k in range(1, n):
            exact = float(expected_count_size_k_exact(n, k, c1, c2))
            assert rel(counts[k - 1], exact) < 1e-12

    def test_exact_oracle_caps_n(self):
        with pytest.raises(ValueError):
            expected_count_size_k_exact(31, 5, 5.0, 0.0)

    def test_exact_oracle_takes_numpy_n(self):
        # a numpy n kept as the exponent's base overflows the Fraction powers in int64
        assert expected_count_size_k_exact(np.int64(20), 7, 5.0, 0.0) == expected_count_size_k_exact(20, 7, 5.0, 0.0)


class TestIntegerK:
    @pytest.mark.parametrize("k", [2.5, 2.0, np.float64(3.0)])
    def test_rejects_non_integral_k(self, k):
        with pytest.raises(ValueError, match="k must be an integer"):
            expected_count_size_k_exact(10, k, 3.0, 0.0)

    def test_numpy_integers_pass(self):
        assert expected_count_size_k_exact(10, np.int64(2), 3.0, 0.0) == expected_count_size_k_exact(10, 2, 3.0, 0.0)


class TestExpectedTotal:
    def test_two_atom_case(self):
        assert rel(expected_total(2, 1.0, 0.0), 1.0) < 1e-12

    def test_frozen_finite_n_values(self):
        assert rel(expected_total(50, 5.0, 0.0), 1.6584698374650675) < 1e-9
        assert rel(expected_total(1000, 5.0, 0.0), 1.6215414149820297) < 1e-9

    def test_within_one_percent_of_limit_at_500(self):
        assert rel(expected_total(500, 5.0, 0.0), limit_expected_total(5.0, 0.0)) < 0.01

    def test_zero_when_no_pure_rules(self):
        assert expected_total(10, 0.0, 5.0) == 0.0

    @pytest.mark.parametrize("curve", [expected_total, expected_counts, size_curves])
    def test_curve_size_capped_before_allocation(self, monkeypatch, curve):
        class Reached(Exception):
            pass

        def kernel(*args):
            raise Reached

        monkeypatch.setattr("randasp.theory._log_kernel", kernel)
        for n in (CURVE_MAX_N + 1, 10**10):
            with pytest.raises(ValueError, match="limit_expected_total"):
                curve(n, 3.0, 0.0)
        with pytest.raises(Reached):  # the cap itself is allowed
            curve(CURVE_MAX_N, 3.0, 0.0)


class TestPinnedBits:
    """float.hex of expected_total / limit_expected_total, recorded before the
    theory kernel was unified; the benchmark's golden CSVs rest on these bits."""

    CASES = [
        (50, 5.0, 0.0, "0x1.a8917ab1509d5p+0", "0x1.9ea70303bace8p+0"),
        (100, 5.0, 0.0, "0x1.a36d580c5848bp+0", "0x1.9ea70303bace8p+0"),
        (150, 5.0, 0.0, "0x1.a1cc08f7919a9p+0", "0x1.9ea70303bace8p+0"),
        (200, 5.0, 0.0, "0x1.a0ff27431d150p+0", "0x1.9ea70303bace8p+0"),
        (1000, 3.0, 0.0, "0x1.6507f4bbb4a6bp+0", "0x1.64d75bc7af763p+0"),
        (200, 10.0, 4.0, "0x1.0dadebc0b6d43p+0", "0x1.09bd9b56c6404p+0"),
        (60, 10.0, 4.0, "0x1.185994da4d20bp+0", "0x1.09bd9b56c6404p+0"),
        (10, 3.0, 0.0, "0x1.7d634688f6180p+0", "0x1.64d75bc7af763p+0"),
    ]

    @pytest.mark.parametrize("n,c1,c2,total,limit", CASES)
    def test_expected_and_limit_bits(self, n, c1, c2, total, limit):
        assert expected_total(n, c1, c2).hex() == total
        assert limit_expected_total(c1, c2).hex() == limit
        assert theory_params(n, c1, c2).limit_expected_total.hex() == limit

    def test_no_pure_rules_is_exact_zero(self):
        assert expected_total(10, 0.0, 5.0).hex() == "0x0.0p+0"
        assert expected_total(1000, 0.0, 3.0).hex() == "0x0.0p+0"


class TestPinnedPeakBits:
    """float.hex of phi_x0_direct on the TestPinnedBits grids, recorded while
    it still came from a scalar phi; the chi columns of the CSVs rest on it."""

    @pytest.mark.parametrize(
        "n,c1,c2,bits",
        [
            (50, 5.0, 0.0, "0x1.fac10c666e964p-2"),
            (100, 5.0, 0.0, "0x1.616cee6b0e631p-2"),
            (150, 5.0, 0.0, "0x1.1f44c6c17e833p-2"),
            (200, 5.0, 0.0, "0x1.f0725c27074ccp-3"),
            (1000, 3.0, 0.0, "0x1.35d9b8ea3418bp-4"),
            (200, 10.0, 4.0, "0x1.affbeb059ec95p-3"),
            (60, 10.0, 4.0, "0x1.84afe9bdc4017p-2"),
            (10, 3.0, 0.0, "0x1.ade140b7999a0p-1"),
        ],
    )
    def test_phi_x0_direct_bits(self, n, c1, c2, bits):
        assert theory_params(n, c1, c2).phi_x0_direct.hex() == bits


class TestLogFactorialPort:
    """`_log_factorial` must reproduce the log-gamma bits every E[N_k] was recorded with."""

    def test_table_hash(self):
        # recorded from the Cephes lgam at 1..100001 before the port replaced it
        table = np.array([_log_factorial(m) for m in range(100001)])
        digest = hashlib.sha256(table.tobytes()).hexdigest()
        assert digest == "c6b2b324c971ec691f99b386681db11f1a8bbd471e6d4e267da873b96f5ccbc5"

    # n = m at each branch edge of lgam(m + 1): x < 13, polevl below 1000, short series above, x > 1e8
    @pytest.mark.parametrize(
        "n,k,bits",
        [
            (11, 5, "0x1.88ad185d6ba3ep+2"),
            (12, 5, "0x1.ab2c038b3f2e4p+2"),
            (998, 5, "0x1.dbb32831f0e00p+4"),
            (999, 5, "0x1.dbc7b5802a900p+4"),
            (1000, 5, "0x1.dbdc3d881de00p+4"),
            (10**9, 5, "0x1.8b50bb0000000p+6"),
        ],
    )
    def test_log_binom_bits(self, n, k, bits):
        assert float(_log_binom(n, k)).hex() == bits

    def test_array_port_table_hash(self):
        table = _log_factorials(np.arange(100001))
        digest = hashlib.sha256(table.tobytes()).hexdigest()
        assert digest == "c6b2b324c971ec691f99b386681db11f1a8bbd471e6d4e267da873b96f5ccbc5"

    def test_array_port_bits_at_branch_edges(self):
        # m < 12 from the table, below and above x = 1000, x > 1e8 returning q alone
        edges = [0, 1, 2, 11, 12, 13, 997, 998, 999, 1000, 1001, 10**8 - 2, 10**8 - 1, 10**8, 10**8 + 1, 10**9, 2**52]
        got = _log_factorials(np.array(edges, dtype=np.int64))
        assert [v.hex() for v in got.tolist()] == [_log_factorial(m).hex() for m in edges]
        for m in edges:  # a 0-d array takes the same branches
            assert float(_log_factorials(np.array(m, dtype=np.int64))).hex() == _log_factorial(m).hex()

    @pytest.mark.parametrize("n", [2, 3, 12, 13, 999, 1000, 1001, 2000])
    def test_log_binom_full_range_matches_scalar(self, n):
        # k = 1..n-1 reuses lf(k) reversed for lf(n - k); any other k computes both
        k = np.arange(1, n)
        expected = [(_log_factorial(n) - _log_factorial(j) - _log_factorial(n - j)).hex() for j in k.tolist()]
        assert [v.hex() for v in _log_binom(n, k).tolist()] == expected
        assert [v.hex() for v in _log_binom(n, k.astype(np.float64)).tolist()] == expected
        assert [v.hex() for v in _log_binom(n, k[::-1]).tolist()] == expected[::-1]
        assert [v.hex() for v in _log_binom(n, k[: n // 2]).tolist()] == expected[: n // 2]

    def test_import_needs_only_numpy(self, tmp_path):
        # Nor does importing randasp and validating a config load the search
        # kernel or touch its cache.  numpy imports ctypes, so that check
        # counts only what randasp loads beyond numpy.  Nothing in randasp
        # loads multiprocessing or concurrent.futures.
        code = (
            "import sys; before = set(sys.modules); import numpy; "
            "base = set(sys.modules); import randasp; "
            "randasp.ExperimentConfig(n=[50, 100], c1=5.0, c2=0.0, trials=8, seed=1); "
            "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(m for m in new - set(sys.stdlib_module_names) if not m.startswith('_'))); "
            "assert randasp.ExperimentConfig is randasp.experiments.ExperimentConfig; "
            "print(sorted({'randasp.progio', 'randasp.translate', 'randasp.csvout', 'randasp.cli'} & set(sys.modules))); "
            "print(sorted({'ctypes', 'subprocess', 'hashlib', 'randasp._kernel'} & (set(sys.modules) - base))); "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        )
        env = {**os.environ, "XDG_CACHE_HOME": str(tmp_path)}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0 and proc.stdout == "['numpy', 'randasp']\n[]\n[]\n[]\n", proc.stderr
        assert list(tmp_path.iterdir()) == []


class TestLimit:
    def test_frozen_value(self):
        assert rel(limit_expected_total(5.0, 0.0), 1.6197358974557634) < 1e-12

    def test_algebraic_collapse(self):
        assert abs(limit_expected_total(math.e, math.e) - 0.5) < 1e-12

    def test_c2_damping(self):
        base = limit_expected_total(10.0, 0.0)
        alpha = solve_alpha(10.0)
        assert rel(limit_expected_total(10.0, 20.0), base * math.exp(-20.0 / alpha)) < 1e-12

    def test_requires_positive_c1(self):
        with pytest.raises(ValueError):
            limit_expected_total(0.0, 5.0)


class TestPhiChi:
    def test_frozen_direct_values(self):
        tp = theory_params(200, 10.0, 0.0)
        assert rel(tp.x0, 165.089439945186) < 1e-12
        assert rel(tp.phi_x0_direct, 0.4270122910655096) < 1e-9
        tp = theory_params(200, 10.0, 20.0)
        assert rel(tp.phi_x0_direct, 0.010789982832717438) < 1e-9

    @pytest.mark.parametrize("n,c1,c2", [(30, 5.0, 0.0), (60, 10.0, 4.0)])
    def test_stirling_ratio_at_every_size(self, n, c1, c2):
        # 1 <= m!/(e^-m m^m sqrt(2 pi m)) <= e/sqrt(2 pi) for m >= 1 bounds
        # C(n, k) over its Stirling form, so E[N_k]/phi(k), at every k
        lower, upper = 2.0 * math.pi / math.e**2, math.e / math.sqrt(2.0 * math.pi)
        _, e_nk, phi_k = size_curves(n, c1, c2)
        assert (phi_k > 0.0).all()  # no underflow on these grids
        ratio = e_nk / phi_k
        assert ((lower <= ratio) & (ratio <= upper)).all()

    def test_chi_peak_and_width(self):
        tp = theory_params(200, 10.0, 4.0)
        assert chi(tp.x0, tp) == tp.phi_x0_direct
        assert rel(chi(tp.x0 + tp.sigma, tp), tp.phi_x0_direct * math.exp(-0.5)) < 1e-12
        assert rel(chi(tp.x0 - tp.sigma, tp), tp.phi_x0_direct * math.exp(-0.5)) < 1e-12

    def test_chi_integral_approaches_limit(self):
        lim = limit_expected_total(5.0, 0.0)
        gaps = []
        for n in (500, 2000):
            tp = theory_params(n, 5.0, 0.0)
            integral = math.sqrt(2 * math.pi) * tp.sigma * tp.phi_x0_direct
            gaps.append(abs(integral - lim))
        assert gaps[1] < gaps[0]
        assert gaps[1] / lim < 0.001


class TestTheoryParams:
    def test_reported_distribution_parameters(self):
        tp = theory_params(200, 10.0, 0.0)
        assert rel(tp.alpha, 5.7289) < 1e-4
        assert rel(tp.x0, 165.0894) < 1e-6
        assert rel(tp.sigma, 1.9552) < 1e-4
        assert abs(tp.alpha * math.log(tp.alpha) - 10.0) <= 1e-12
        assert rel(tp.x0, (tp.alpha - 1) * 200 / tp.alpha) < 1e-15
        assert rel(tp.delta, tp.c0 * math.sqrt(200 * math.log(200))) < 1e-15

    def test_asymptotic_peak_matches_reported(self):
        # the reported 0.4257 / 0.01297 are the closed-form asymptotic values
        assert rel(theory_params(200, 10.0, 0.0).phi_x0_asymptotic, 0.4257) < 5e-3
        assert rel(theory_params(200, 10.0, 20.0).phi_x0_asymptotic, 0.01297) < 5e-3

    def test_c0_positive_and_formula(self):
        tp = theory_params(100, 5.0, 0.0)
        expect = max(math.sqrt(2) * (tp.alpha + 5.0) / math.sqrt(tp.alpha - 1.0), 1 / math.sqrt(5.0))
        assert tp.c0 == expect and tp.c0 > 0

    def test_direct_asymptotic_gap_scaling(self):
        # |direct - asymptotic| = O(n^{-3/2}): scaled gap stays bounded
        scaled = []
        for n in (100, 400, 1600):
            tp = theory_params(n, 5.0, 0.0)
            scaled.append(abs(tp.phi_x0_direct - tp.phi_x0_asymptotic) * n**1.5)
        assert all(v < 6.0 for v in scaled)
        assert scaled[-1] <= scaled[0]

    def test_rejects_c1_zero(self):
        with pytest.raises(ValueError):
            theory_params(100, 0.0, 5.0)

    def test_numpy_n_is_kept_as_an_int(self):
        tp = theory_params(np.int64(50), 5.0, 0.0)
        assert type(tp.n) is int and tp == theory_params(50, 5.0, 0.0)
        assert type(theory_params(50, 5, 0).c1) is float
        with pytest.raises(ValueError, match="c1 must be a number"):
            expected_total(50, True, 0.0)

    def test_rejects_c1_where_alpha_rounds_to_one(self):
        assert solve_alpha(1e-17) == 1.0
        with pytest.raises(ValueError, match="c1=1e-17"):
            theory_params(50, 1e-17, 1.0)


class TestConvergenceLadders:
    def test_phi_sum_approaches_expected_sum(self):
        rels = []
        for n in (100, 300, 1000):
            phis = math.fsum(size_curves(n, 5.0, 0.0)[2].tolist())
            et = expected_total(n, 5.0, 0.0)
            rels.append(abs(phis - et) / et)
        assert rels == sorted(rels, reverse=True)

    def test_expected_total_approaches_limit(self):
        lim = limit_expected_total(5.0, 0.0)
        gaps = [abs(expected_total(n, 5.0, 0.0) - lim) for n in (100, 300, 1000)]
        assert gaps == sorted(gaps, reverse=True)


class TestConsistencyProbability:
    def test_boundaries(self):
        assert consistency_probability(0.0) == 0.0
        assert consistency_probability(1e9) == pytest.approx(1.0)

    def test_gamma_one_recovers_raw_estimate(self):
        assert rel(consistency_probability(1.4, 1.0), 1 - math.exp(-1.4)) < 1e-14

    def test_gamma_half(self):
        assert rel(consistency_probability(1.4, 0.5), 1 - math.exp(-0.7)) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            consistency_probability(-0.1)
        with pytest.raises(ValueError):
            consistency_probability(1.0, 0.0)
        with pytest.raises(ValueError):
            consistency_probability(1.0, 1.5)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="non-negative"):
            consistency_probability(math.nan)
