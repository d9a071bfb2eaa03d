import math

import numpy as np
import pytest

from randasp.generate import (
    LinearModelParams,
    SplitMix64,
    _generate_bernoulli,
    expected_rule_count,
    generate,
    generate_with_stats,
    log_prob_empty,
    mix_seed,
    require_sampleable,
)
from randasp.programs import Rule


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinearModelParams(10, 0.0, 0.0)  # c1 + c2 > 0
        with pytest.raises(ValueError):
            LinearModelParams(10, 10.0, 0.0)  # n > max(c1, c2)
        with pytest.raises(ValueError):
            LinearModelParams(10, -1.0, 2.0)
        LinearModelParams(10, 0.0, 9.99)  # boundary case is fine

    def test_n_must_be_integral(self):
        with pytest.raises(ValueError, match="integer"):
            LinearModelParams(10.5, 1.0, 0.0)
        with pytest.raises(ValueError, match="integer"):
            LinearModelParams(10.0, 1.0, 0.0)
        assert LinearModelParams(np.int64(10), 1.0, 0.0).p == 0.1

    def test_derived_probabilities(self):
        p = LinearModelParams(50, 5.0, 10.0)
        assert p.p == 0.1 and p.d == 0.2 and p.q == 0.9
        assert math.isclose(p.r, 0.8 / 0.9)


class TestEmptyDraws:
    def test_log_prob_empty_closed_form(self):
        for n, c1, c2 in [(2, 1.5, 0.0), (5, 2.0, 1.0), (30, 0.01, 0.02)]:
            p = LinearModelParams(n, c1, c2)
            direct = math.log(p.q ** (n * (n - 1)) * (1.0 - p.d) ** n)
            assert math.isclose(log_prob_empty(p), direct, rel_tol=1e-12)

    def test_require_sampleable_threshold(self):
        # 100000 draws at n=2 all empty: exp(-c1 * 100000) for small c1
        require_sampleable(LinearModelParams(2, 1e-5, 0.0))  # fails w.p. ~0.37
        with pytest.raises(ValueError, match="resamples would more likely fail"):
            require_sampleable(LinearModelParams(2, 5e-6, 0.0))  # ~0.61
        with pytest.raises(ValueError, match="resamples"):
            require_sampleable(LinearModelParams(1000, 1e-9, 0.0))
        require_sampleable(LinearModelParams(1000, 3.0, 0.0))
        require_sampleable(LinearModelParams(1, 0.0, 0.5))


class TestExpectedRuleCount:
    def test_values(self):
        assert expected_rule_count(LinearModelParams(50, 5.0, 0.0)) == 245.0
        assert expected_rule_count(LinearModelParams(200, 10.0, 4.0)) == 1994.0
        assert expected_rule_count(LinearModelParams(2, 1.0, 1.0)) == 2.0


class TestMixSeed:
    def test_frozen_values(self):
        # splitmix64 sub-stream derivation; regression-pinned
        assert mix_seed(0, 0) == 16294208416658607535
        assert mix_seed(0, 1) == 7960286522194355700
        assert mix_seed(42, 7) == 14769051326987775908
        assert mix_seed(2**64 - 1, 3) == 7862637804313477842

    def test_stream_is_finalizer_of_counter(self):
        rng = SplitMix64(123)
        assert rng.next_u64() == mix_seed(123, 0)
        assert rng.next_u64() == mix_seed(123, 1)

    def test_random_in_unit_interval(self):
        rng = SplitMix64(7)
        xs = [rng.random() for _ in range(1000)]
        assert all(0.0 < x <= 1.0 for x in xs)


class TestGenerate:
    def test_deterministic(self):
        params = LinearModelParams(50, 5.0, 2.0)
        assert generate(params, 42) == generate(params, 42)
        assert generate(params, 42) != generate(params, 43)

    def test_pure_only_and_contradiction_only(self):
        only_con = generate(LinearModelParams(10, 0.0, 9.99), 1)
        assert all(r.is_contradiction for r in only_con.rules)
        only_pure = generate(LinearModelParams(50, 5.0, 0.0), 1)
        assert not any(r.is_contradiction for r in only_pure.rules)

    def test_always_n2_and_nonempty(self):
        for t in range(50):
            p = generate(LinearModelParams(12, 2.0, 1.0), t)
            assert p.is_n2 and len(p) >= 1 and p.n == 12

    def test_resampling_reports_attempts(self):
        # sparse enough that empty draws happen regularly
        params = LinearModelParams(2, 0.05, 0.05)
        attempts = [generate_with_stats(params, t)[1] for t in range(300)]
        assert all(a >= 0 for a in attempts)
        assert any(a > 0 for a in attempts)
        assert all(len(generate(params, t)) >= 1 for t in range(50))

    def test_mean_rule_count(self):
        params = LinearModelParams(50, 5.0, 0.0)
        trials = 3000
        mean = sum(len(generate(params, mix_seed(11, t))) for t in range(trials)) / trials
        var = 50 * 49 * params.p * params.q
        assert abs(mean - 245.0) <= 3.0 * math.sqrt(var / trials)

    def test_per_rule_frequency(self):
        params = LinearModelParams(8, 3.0, 2.0)
        trials = 8000
        target_pure, target_con = Rule(2, (), (5,)), Rule(3, (), (3,))
        hits_p = hits_c = 0
        for t in range(trials):
            rules = generate(params, mix_seed(13, t)).rules
            hits_p += target_pure in rules
            hits_c += target_con in rules
        p, d = params.p, params.d
        assert abs(hits_p / trials - p) <= 3 * math.sqrt(p * (1 - p) / trials)
        assert abs(hits_c / trials - d) <= 3 * math.sqrt(d * (1 - d) / trials)

    def test_rule_independence(self):
        # empirical correlation of two fixed distinct rules ~ 0 within 3 sigma
        params = LinearModelParams(8, 3.0, 0.0)
        trials = 8000
        r1, r2 = Rule(0, (), (1,)), Rule(4, (), (6,))
        x = y = xy = 0
        for t in range(trials):
            rules = generate(params, mix_seed(17, t)).rules
            a, b = r1 in rules, r2 in rules
            x += a
            y += b
            xy += a and b
        fx, fy, fxy = x / trials, y / trials, xy / trials
        corr = (fxy - fx * fy) / math.sqrt(fx * (1 - fx) * fy * (1 - fy))
        assert abs(corr) <= 3 / math.sqrt(trials)

    def test_skip_path_matches_bernoulli_path_distribution(self):
        params = LinearModelParams(12, 4.0, 2.0)
        trials = 4000
        m_skip = sum(len(generate(params, mix_seed(1, t))) for t in range(trials)) / trials
        m_bern = sum(len(_generate_bernoulli(params, mix_seed(1, t))) for t in range(trials)) / trials
        var = 12 * 11 * params.p * params.q + 12 * params.d * (1 - params.d)
        tol = 3 * math.sqrt(2 * var / trials)
        assert abs(m_skip - m_bern) <= tol
        # and a fixed rule's inclusion frequency agrees across paths
        target = Rule(3, (), (7,))
        f_skip = sum(target in generate(params, mix_seed(2, t)).rules for t in range(trials)) / trials
        f_bern = sum(target in _generate_bernoulli(params, mix_seed(2, t)).rules for t in range(trials)) / trials
        ptol = 3 * math.sqrt(2 * params.p * params.q / trials)
        assert abs(f_skip - f_bern) <= ptol
