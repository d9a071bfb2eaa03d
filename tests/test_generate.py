import hashlib
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import randasp.generate as generate_module
from randasp.generate import (
    LinearModelParams,
    SplitMix64,
    _generate_bernoulli,
    _pair_from_index,
    _sample_n2_arrays,
    _skip_indices,
    _skips,
    _uniforms,
    expected_rule_count,
    generate,
    generate_with_stats,
    log_prob_empty,
    mix_seed,
    require_sampleable,
)
from randasp.programs import Program, Rule
from randasp.solver import enumerate_answer_sets

from conftest import assert_same_program


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinearModelParams(10, 0.0, 0.0)  # c1 + c2 > 0
        with pytest.raises(ValueError):
            LinearModelParams(10, 10.0, 0.0)  # n > max(c1, c2)
        with pytest.raises(ValueError):
            LinearModelParams(10, -1.0, 2.0)
        LinearModelParams(10, 0.0, 9.99)  # boundary case is fine

    @pytest.mark.parametrize(
        "c1, c2", [(5.0, math.nan), (math.nan, 0.0), (math.nan, math.nan), (math.inf, 0.0), (5.0, -math.inf)]
    )
    def test_rates_must_be_finite(self, c1, c2):
        # max(5.0, nan) is 5.0, so the n > max(c1, c2) check alone lets nan through
        with pytest.raises(ValueError, match="c1 and c2 must be finite"):
            LinearModelParams(50, c1, c2)

    def test_n_must_be_integral(self):
        with pytest.raises(ValueError, match="integer"):
            LinearModelParams(10.5, 1.0, 0.0)
        with pytest.raises(ValueError, match="integer"):
            LinearModelParams(10.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="n must be an integer"):
            LinearModelParams(True, 0.5, 0.0)
        assert LinearModelParams(np.int64(10), 1.0, 0.0).p == 0.1

    @pytest.mark.parametrize("bad", [True, "5", None])
    def test_rates_must_be_real_numbers(self, bad):
        for c1, c2 in ((bad, 0.0), (5.0, bad)):
            with pytest.raises(ValueError, match="must be a number"):
                LinearModelParams(20, c1, c2)

    def test_rates_are_kept_as_floats(self):
        params = LinearModelParams(20, 5, 0)
        assert type(params.c1) is float and type(params.c2) is float
        assert params == LinearModelParams(20, 5.0, 0.0)

    def test_numpy_n_is_kept_as_an_int(self):
        # 1 << np.int64(100) is 0, so a numpy universe size rejects every answer-set mask
        p = generate(LinearModelParams(np.int64(100), 5.0, 0.0), 3)
        assert type(p.n) is int
        assert enumerate_answer_sets(p).sets == enumerate_answer_sets(generate(LinearModelParams(100, 5.0, 0.0), 3)).sets

    def test_derived_probabilities(self):
        p = LinearModelParams(50, 5.0, 10.0)
        assert p.p == 0.1 and p.d == 0.2 and p.q == 0.9


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

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5)])
    def test_numpy_integers(self, seed):
        # np.int64 + a Python int past 2^63 overflows; np.uint64 only warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mix_seed(seed, np.int64(0)) == mix_seed(5, 0)
            assert SplitMix64(seed).next_u64() == mix_seed(5, 0)

    def test_stream_is_finalizer_of_counter(self):
        rng = SplitMix64(123)
        assert rng.next_u64() == mix_seed(123, 0)
        assert rng.next_u64() == mix_seed(123, 1)

    def test_random_in_unit_interval(self):
        rng = SplitMix64(7)
        xs = [rng.random() for _ in range(1000)]
        assert all(0.0 < x <= 1.0 for x in xs)


def _scalar_skips(rng, total, prob):
    """Reference: one draw, one skip at a time."""
    out = []
    if prob <= 0.0 or total == 0:
        return out
    log_q = math.log1p(-prob)
    cursor = -1
    while True:
        cursor += 1 + int(math.log(rng.random()) / log_q)
        if cursor >= total:
            return out
        out.append(cursor)


def _scalar_rules(params, stream_seed):
    """Reference sampler: pure rules, then contradictions, from one shared stream."""
    rng = SplitMix64(stream_seed)
    n = params.n
    pairs = [_pair_from_index(j, n) for j in _scalar_skips(rng, n * (n - 1), params.p)]
    rules = [Rule(a, (), (b,)) for a, b in pairs]
    rules.extend(Rule(i, (), (i,)) for i in _scalar_skips(rng, n, params.d))
    return rules


class TestBatchedSampler:
    def test_uniforms_match_scalar_stream(self):
        for seed in (0, 123, 2**64 - 1, mix_seed(5, 9)):
            rng = SplitMix64(seed)
            expected = [rng.random() for _ in range(300)]
            assert _uniforms(seed, 0, 300).tolist() == expected
            assert _uniforms(seed, 120, 180).tolist() == expected[120:]

    @pytest.mark.parametrize("total, prob", [(90, 0.3), (2450, 0.1), (56, 0.875), (1000, 1e-300)])
    def test_skip_indices_match_scalar_for_any_batch(self, total, prob):
        for seed in (1, 2, mix_seed(7, 3)):
            expected = _scalar_skips(SplitMix64(seed), total, prob)
            # the default batch, and small batches that force refills
            for batch in (0, 1, 2, 5):
                got, next_draw = _skip_indices(seed, 0, total, prob, batch)
                assert got.tolist() == expected
                assert next_draw == len(expected) + 1  # one draw per success, one to pass the end

    def test_subnormal_prob_clips_instead_of_overflowing(self):
        # log(u) / log1p(-5e-324) is inf for most u; int(inf) would raise
        for seed in range(20):
            got, next_draw = _skip_indices(seed, 0, 7, 5e-324)
            assert got.size == 0 and next_draw == 1

    def test_refill_continues_the_stream(self):
        seed, total, prob = 11, 5000, 0.02
        rng = SplitMix64(seed)
        expected = _scalar_skips(rng, total, prob)
        assert len(expected) > 40
        got, next_draw = _skip_indices(seed, 0, total, prob, 8)
        assert got.tolist() == expected and next_draw == len(expected) + 1
        # a walk that starts mid-stream (the contradiction rules) also matches
        tail, _ = _skip_indices(seed, next_draw, 50, 0.3, 3)
        assert tail.tolist() == _scalar_skips(rng, 50, 0.3)

    @pytest.mark.parametrize(
        "n, c1, c2",
        [
            (1, 0.0, 0.9),
            (2, 1.5, 1.0),
            (5, 4.0, 4.0),
            (12, 4.0, 2.0),
            (40, 0.0, 5.0),
            (60, 3.0, 0.5),
            # bench and paper sizes: batches of thousands of logs reach the guard
            (1000, 3.0, 0.0),
            (200, 5.0, 0.0),
            (1000, 4.0, 4.0),
        ],
    )
    def test_draw_matches_scalar_reference(self, n, c1, c2):
        params = LinearModelParams(n, c1, c2)
        for t in range(25):
            s = mix_seed(3, t)
            heads, bodies = _sample_n2_arrays(params, s)
            reference = _scalar_rules(params, s)
            assert list(zip(heads.tolist(), bodies.tolist())) == [(r.head, r.neg_body[0]) for r in reference]
            assert Program.from_n2_arrays(n, heads, bodies) == Program(n, reference)


def _scalar_skip_list(u, log_q, total):
    """Reference for `_skips`: the scalar loop's int(math.log(u) / log_q), capped at total."""
    return [int(min(math.log(x) / log_q, total)) for x in u.tolist()]


def _off_by_ulps(ulps):
    """An np.log whose every result is moved `ulps` doubles up (or down, if negative)."""
    fast_log = np.log

    def log(x):
        y = fast_log(x)
        for _ in range(abs(ulps)):
            y = np.nextafter(y, np.inf if ulps > 0 else -np.inf)
        return y

    return log


class TestSkipGuard:
    """`_skips` takes np.log and redoes with math.log every ratio near an integer."""

    def _count_exact_logs(self, monkeypatch):
        calls = []

        def log(x):
            calls.append(x)
            return math.log(x)

        monkeypatch.setattr(generate_module, "math", SimpleNamespace(log=log))
        return calls

    def test_integer_ratios_are_all_recomputed(self, monkeypatch):
        # log(2^-k) / log(1/2) is k to within an ulp or two, inside the guard
        u = 2.0 ** -np.arange(0, 1075, dtype=np.float64)
        log_q = math.log1p(-0.5)
        expected = _scalar_skip_list(u, log_q, 10**6)
        assert expected[:4] == [0, 1, 2, 3] and expected[-1] == 1074
        calls = self._count_exact_logs(monkeypatch)
        assert _skips(u, log_q, 10**6).tolist() == expected
        assert len(calls) == u.size
        for ulps in (4, -4):  # an exact integer ratio floors either way if not redone
            monkeypatch.setattr(np, "log", _off_by_ulps(ulps))
            assert _skips(u, log_q, 10**6).tolist() == expected

    @pytest.mark.parametrize("ulps", [4, -4])
    def test_a_few_ulps_of_fast_log_change_no_skip(self, monkeypatch, ulps):
        cases = [(1000, 3.0, 0.0), (200, 5.0, 0.0), (1000, 4.0, 4.0), (50, 5.0, 2.0)]
        expected = {(c, t): _scalar_rules(LinearModelParams(*c), mix_seed(t, 1)) for c in cases for t in range(5)}
        u = _uniforms(7, 0, 20_000)
        log_q = math.log1p(-0.003)
        reference = _scalar_skip_list(u, log_q, 10**6)
        monkeypatch.setattr(np, "log", _off_by_ulps(ulps))
        assert _skips(u, log_q, 10**6).tolist() == reference
        for (c, t), rules in expected.items():
            heads, bodies = _sample_n2_arrays(LinearModelParams(*c), mix_seed(t, 1))
            assert list(zip(heads.tolist(), bodies.tolist())) == [(r.head, r.neg_body[0]) for r in rules]

    def test_u_one_gives_a_zero_skip(self):
        u = np.array([1.0, 1.0 - 2.0**-53, 0.5, 1.0])
        for prob in (0.5, 0.003, 1e-300, 5e-324):
            log_q = math.log1p(-prob)
            got = _skips(u, log_q, 10**6).tolist()
            assert got == _scalar_skip_list(u, log_q, 10**6)
            assert got[0] == got[3] == 0

    def test_subnormal_prob_clips_every_skip(self, monkeypatch):
        # log(u) / -5e-324 is inf for every u < 1: capped at total, then redone
        u = _uniforms(3, 0, 500)
        log_q = math.log1p(-5e-324)
        calls = self._count_exact_logs(monkeypatch)
        assert _skips(u, log_q, 7).tolist() == [7] * 500
        assert len(calls) == 500

    def test_clipped_entries(self):
        u = np.array([2.0**-53, 1e-10, 0.25, 0.9999, 1.0])
        log_q = math.log1p(-0.01)
        for total in (0, 1, 3, 137, 10**6):
            got = _skips(u, log_q, total)
            assert got.dtype == np.int64
            assert got.tolist() == _scalar_skip_list(u, log_q, total)
            assert got.max() <= total


class TestGenerate:
    def test_deterministic(self):
        params = LinearModelParams(50, 5.0, 2.0)
        assert generate(params, 42) == generate(params, 42)
        assert generate(params, 42) != generate(params, 43)

    def test_pure_only_and_contradiction_only(self):
        only_con = generate(LinearModelParams(10, 0.0, 9.99), 1)
        assert all(r.is_n2 and r.neg_body == (r.head,) for r in only_con.rules)
        only_pure = generate(LinearModelParams(50, 5.0, 0.0), 1)
        assert not any(r.neg_body == (r.head,) for r in only_pure.rules)

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


# (n, c1, c2, seed, trials, resample counts, sha256 of the concatenated
# repr((p.n, p.rules)) of generate_with_stats(params, mix_seed(seed, t)) for
# t in range(trials)).  Recorded from the one-draw-at-a-time sampler that
# `_scalar_rules` reproduces; the generator must keep reproducing them exactly.
PINNED_PROGRAMS = [
    (1, 0.0, 0.5, 1, 4, (0, 2, 2, 0), "052887990902ca65135920295df5527b2bbf71a60184e33b841da63f063a2695"),
    (2, 1.0, 0.5, 1, 4, (0, 0, 0, 0), "c47d19b78dcad3d77f58699878811e6288bb3bd213d692c969c17cf8c3fc8af6"),
    (2, 0.05, 0.05, 7, 40,
     (4, 5, 2, 34, 5, 4, 48, 6, 10, 4, 7, 4, 0, 26, 10, 2, 10, 3, 1, 6,
      2, 21, 6, 37, 6, 5, 16, 15, 0, 5, 3, 0, 0, 11, 24, 0, 22, 29, 12, 0),
     "177f5fa05858a84fa86a301575752e7b830b9a3505aa0226b312ca72416da58e"),
    (3, 2.0, 1.0, 1, 4, (0, 0, 0, 0), "dda4aabf52f19f2ea7f82ff90981c40fa06ae503c98a32479b14e68a99c397ff"),
    (8, 3.0, 1.0, 1, 4, (0, 0, 0, 0), "a270d5a8f18d470f9614170819b586e6d3a2d505d3ca61ff6eaae247be7fffd6"),
    (8, 7.0, 0.0, 2, 4, (0, 0, 0, 0), "20fcf6ce01c888684ae8d322ce422b35c4be820928345703521d1518d031a0be"),
    (8, 0.0, 3.0, 3, 4, (0, 0, 0, 0), "9476509381b823a54f449dad1cd72d2cf47ed0fc45365a1ab0919660ee5e35bf"),
    (50, 5.0, 0.0, 20240901, 4, (0, 0, 0, 0), "dba1639591841bd56650624e44ee7c11d3e8f0a8debc7684a1d6eb4ac776d13f"),
    (50, 5.0, 2.0, 4, 4, (0, 0, 0, 0), "ebb883a46233a371f04d62126cb6396ae4d31956bef6c0961ee84267ab472f75"),
    (200, 5.0, 0.0, 5, 3, (0, 0, 0), "4e7fd85f11091410a388d9f37234e57702fe20e12ace26e5e86b1cc9be67b4a8"),
    (200, 10.0, 4.0, 20240902, 3, (0, 0, 0), "dae003458d188664fbf79565c07393eba90092c12d38fd587871bd641a3420b3"),
    (1000, 3.0, 0.0, 20240904, 3, (0, 0, 0), "b8b04b19929d3a7f12b7a795b4885c64bbe51f0aa1f96365c8599f739e105544"),
    (1000, 3.0, 4.0, 6, 3, (0, 0, 0), "7574eff10a1b54ce4f073b570a1e400ea69c9c0cbed3f1ce8d269bf19b1219b5"),
    (1000, 0.002, 0.001, 8, 4, (0, 0, 0, 0), "abede6142ffdec58e749a06a9dba239e4c9483e1b3c333df524edde420e64bfd"),
]


class TestPinnedPrograms:
    @pytest.mark.parametrize("n, c1, c2, seed, trials, resamples, digest", PINNED_PROGRAMS)
    def test_reproduces_recorded_programs(self, n, c1, c2, seed, trials, resamples, digest):
        h = hashlib.sha256()
        got = []
        for t in range(trials):
            p, attempts = generate_with_stats(LinearModelParams(n, c1, c2), mix_seed(seed, t))
            h.update(repr((p.n, p.rules)).encode())
            got.append(attempts)
        assert tuple(got) == resamples
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("n, c1, c2, seed, trials, resamples, digest", PINNED_PROGRAMS)
    def test_both_constructors_give_one_program(self, n, c1, c2, seed, trials, resamples, digest):
        for t in range(trials):
            p = generate(LinearModelParams(n, c1, c2), mix_seed(seed, t))
            general = Program(n, p.rules)
            assert "n2_arrays" not in vars(general)
            assert_same_program(p, general)
            assert_same_program(general, Program.from_n2_arrays(n, *general.n2_arrays))
