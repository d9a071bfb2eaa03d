import hashlib
import math
import warnings

import numpy as np
import pytest

from randasp import _kernel
from randasp.generate import (
    _GAMMA,
    LinearModelParams,
    SplitMix64,
    _generate_bernoulli,
    _pair_from_index,
    _sample_n2_arrays,
    _skip_indices,
    expected_rule_count,
    generate,
    generate_with_stats,
    log_prob_empty,
    mix_seed,
    require_sampleable,
)
from randasp.programs import Program, Rule
from randasp.solver import enumerate_answer_sets

from conftest import assert_same_program, needs_kernel


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
        cursor += 1 + int(min(math.log(rng.random()) / log_q, total))
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


@pytest.fixture
def scalar_walk(monkeypatch):
    """Sampling without the compiled kernel: every draw takes `_skip_indices`."""
    monkeypatch.setattr(_kernel, "load", lambda: None)


def _kernel_walk(seed, total, prob):
    """The kernel's walk over range(total) from draw 0: its contradiction walk at p = 0."""
    heads, bodies = _kernel.sample(seed, total, 0.0, math.log1p(-prob), 8)  # a small cap: long walks call twice
    assert heads.tolist() == bodies.tolist()
    return heads.tolist()


def _unmix64(z):
    """The inverse of the splitmix64 output mix."""
    m64 = (1 << 64) - 1
    for shift, mult in ((31, 0x94D049BB133111EB), (27, 0xBF58476D1CE4E5B9), (30, None)):
        x = z
        for _ in range(64 // shift + 1):  # undo z ^= z >> shift
            x = z ^ (x >> shift)
        z = x if mult is None else x * pow(mult, -1, 1 << 64) & m64
    return z


def _seed_with_first_draw(x):
    """A stream seed whose draw 0 is the 64-bit value x."""
    seed = (_unmix64(x) - _GAMMA) % (1 << 64)
    assert SplitMix64(seed).next_u64() == x
    return seed


# Draws whose uniform ((x >> 11) + 1) * 2^-53 is 1, 1 - 2^-53 and 2^-53.
U_ONE = [(1 << 64) - 1, ((1 << 53) - 1) << 11]
U_BELOW_ONE = ((1 << 53) - 2) << 11
U_SMALLEST = 0


class TestSampler:
    @pytest.mark.parametrize("total, prob", [(90, 0.3), (2450, 0.1), (56, 0.875), (1000, 1e-300)])
    def test_skip_indices_match_scalar(self, total, prob):
        for seed in (1, 2, mix_seed(7, 3)):
            expected = _scalar_skips(SplitMix64(seed), total, prob)
            got, next_draw = _skip_indices(seed, 0, total, prob)
            assert got == expected
            assert next_draw == len(expected) + 1  # one draw per success, one to pass the end

    def test_subnormal_prob_clips_instead_of_overflowing(self):
        # log(u) / log1p(-5e-324) is inf for most u; int(inf) would raise
        for seed in range(20):
            got, next_draw = _skip_indices(seed, 0, 7, 5e-324)
            assert got == [] and next_draw == 1

    def test_contradiction_walk_continues_the_stream(self):
        seed, total, prob = 11, 5000, 0.02
        rng = SplitMix64(seed)
        expected = _scalar_skips(rng, total, prob)
        assert len(expected) > 40
        got, next_draw = _skip_indices(seed, 0, total, prob)
        assert got == expected and next_draw == len(expected) + 1
        tail, end = _skip_indices(seed, next_draw, 50, 0.3)
        assert tail == _scalar_skips(rng, 50, 0.3) and end == next_draw + len(tail) + 1
        assert _skip_indices(seed, next_draw, 50, 0.0) == ([], next_draw)  # no draw taken

    @pytest.mark.parametrize(
        "n, c1, c2",
        [
            (1, 0.0, 0.9),
            (2, 1.5, 1.0),
            (5, 4.0, 4.0),
            (12, 4.0, 2.0),
            (40, 0.0, 5.0),
            (60, 3.0, 0.5),
            # bench and paper sizes
            (1000, 3.0, 0.0),
            (200, 5.0, 0.0),
            (1000, 4.0, 4.0),
            # p = 5e-324, the least positive double: most skips are inf, clipped
            (4, 2e-323, 0.0),
            (1, 0.0, 5e-324),
            # p and d of 0.875 and 0.999: skips of 0 on most draws
            (8, 7.0, 7.0),
            (2, 1.998, 1.998),
            (1000, 0.0, 999.0),
        ],
    )
    def test_draw_matches_scalar_reference(self, n, c1, c2):
        # On the kernel where it loads: the CI kernel step checks that it does.
        params = LinearModelParams(n, c1, c2)
        for t in range(25):
            s = mix_seed(3, t)
            heads, bodies = _sample_n2_arrays(params, s)
            reference = _scalar_rules(params, s)
            assert list(zip(heads.tolist(), bodies.tolist())) == [(r.head, r.neg_body[0]) for r in reference]
            assert Program.from_n2_arrays(n, heads, bodies) == Program(n, reference)

    @pytest.mark.parametrize(
        "n, c1, c2", [(1, 0.0, 0.9), (12, 4.0, 2.0), (1000, 3.0, 0.0), (4, 2e-323, 0.0), (2, 1.998, 1.998)]
    )
    def test_scalar_walk_matches_scalar_reference(self, scalar_walk, n, c1, c2):
        params = LinearModelParams(n, c1, c2)
        for t in range(10):
            heads, bodies = _sample_n2_arrays(params, mix_seed(3, t))
            reference = _scalar_rules(params, mix_seed(3, t))
            assert list(zip(heads.tolist(), bodies.tolist())) == [(r.head, r.neg_body[0]) for r in reference]


@needs_kernel
class TestKernelSampler:
    def test_a_cap_below_the_rule_count_gives_the_same_arrays(self):
        for n, p, d in ((1000, 0.003, 0.0), (50, 0.1, 0.04), (8, 0.875, 0.875), (1, 0.0, 0.9)):
            log_p = math.log1p(-p) if p else 0.0
            log_d = math.log1p(-d) if d else 0.0
            for t in range(10):
                s = mix_seed(9, t)
                heads, bodies = _kernel.sample(s, n, log_p, log_d, n * n)  # n^2 rules at most
                count = heads.size
                for cap in {0, 1, count // 2, max(count - 1, 0), count, count + 5}:
                    h, b = _kernel.sample(s, n, log_p, log_d, cap)
                    assert h.dtype == b.dtype == np.int32
                    assert h.tolist() == heads.tolist() and b.tolist() == bodies.tolist()

    def test_rejects_two_to_the_31_atoms(self):
        # the kernel's atoms are int32; ctypes would wrap n silently
        with pytest.raises(ValueError, match=r"fewer than 2\^31 atoms, got n=2147483648"):
            _kernel.sample(1, 1 << 31, math.log1p(-1e-9), 0.0, 8)

    def test_default_cap_holds_a_typical_draw(self, monkeypatch):
        calls = []
        sample = _kernel.sample

        def counting(seed, n, log_p, log_d, cap):
            heads, bodies = sample(seed, n, log_p, log_d, cap)
            calls.append(heads.size > cap)
            return heads, bodies

        monkeypatch.setattr(_kernel, "sample", counting)
        params = LinearModelParams(1000, 3.0, 0.0)
        for t in range(200):
            _sample_n2_arrays(params, mix_seed(4, t))
        assert len(calls) == 200 and not any(calls)

    def test_kernel_matches_scalar_walk(self, monkeypatch):
        grid = [(2, 1.5, 1.0), (50, 5.0, 2.0), (200, 10.0, 4.0), (1000, 3.0, 0.0), (8, 7.0, 7.0)]
        drawn = {(c, t): _sample_n2_arrays(LinearModelParams(*c), mix_seed(5, t)) for c in grid for t in range(8)}
        monkeypatch.setattr(_kernel, "load", lambda: None)
        for (c, t), (heads, bodies) in drawn.items():
            h, b = _sample_n2_arrays(LinearModelParams(*c), mix_seed(5, t))
            assert h.tolist() == heads.tolist() and b.tolist() == bodies.tolist()


class TestSkipEdges:
    """Draws at the ends of (0, 1], from seeds made to give them: the scalar walk and the kernel agree."""

    def _walks(self, seed, total, prob):
        scalar, next_draw = _skip_indices(seed, 0, total, prob)
        if _kernel.load() is not None:
            assert _kernel_walk(seed, total, prob) == scalar
        return scalar, next_draw

    def test_seeds_give_their_draws(self):
        for x in (*U_ONE, U_BELOW_ONE, U_SMALLEST):
            assert SplitMix64(_seed_with_first_draw(x)).random() == ((x >> 11) + 1) * 2.0**-53
        assert SplitMix64(_seed_with_first_draw(U_ONE[0])).random() == 1.0
        assert SplitMix64(_seed_with_first_draw(U_SMALLEST)).random() == 2.0**-53

    def test_u_one_gives_a_zero_skip(self):
        for x in U_ONE:
            seed = _seed_with_first_draw(x)
            for prob in (0.5, 0.003, 1e-300, 5e-324):
                found, _ = self._walks(seed, 1000, prob)
                assert found[0] == 0  # log(1) / log_q is -0.0
        found, _ = self._walks(_seed_with_first_draw(U_BELOW_ONE), 1000, 0.5)
        assert found[0] == 0  # log(1 - 2^-53) / log(1/2) is about 1.6e-16

    def test_subnormal_prob_clips_every_skip(self):
        # log(u) / -5e-324 is inf for every u < 1: capped at total, so the walk ends at once
        for seed in range(500):
            assert self._walks(seed, 7, 5e-324) == ([], 1)

    def test_clipped_entries(self):
        seed = _seed_with_first_draw(U_SMALLEST)
        skip = int(math.log(2.0**-53) / math.log1p(-0.01))
        assert skip == 3655
        for total in (1, 3, 137, skip, skip + 1, 10**5):
            found, next_draw = self._walks(seed, total, 0.01)
            if total <= skip:
                assert (found, next_draw) == ([], 1)  # the first skip passes the end
            else:
                assert found[0] == skip


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
    def test_scalar_walk_reproduces_recorded_programs(self, scalar_walk, n, c1, c2, seed, trials, resamples, digest):
        self.test_reproduces_recorded_programs(n, c1, c2, seed, trials, resamples, digest)

    @pytest.mark.parametrize("n, c1, c2, seed, trials, resamples, digest", PINNED_PROGRAMS)
    def test_both_constructors_give_one_program(self, n, c1, c2, seed, trials, resamples, digest):
        for t in range(trials):
            p = generate(LinearModelParams(n, c1, c2), mix_seed(seed, t))
            general = Program(n, p.rules)
            assert "n2_arrays" not in vars(general)
            assert_same_program(p, general)
            assert_same_program(general, Program.from_n2_arrays(n, *general.n2_arrays))
