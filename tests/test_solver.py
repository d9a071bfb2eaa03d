import ctypes
import hashlib
import os
import tempfile
import threading
import tracemalloc
from importlib import resources

import pytest
from hypothesis import given, settings

from randasp import _kernel
from randasp.generate import LinearModelParams, generate, mix_seed
from randasp.programs import AtomSet, Program, Rule, is_answer_set_general, pure_rule
from randasp.solver import (
    _IN,
    _OUT,
    _SUPPORTED,
    _UNASSIGNED,
    KERNEL_MAX_N,
    _kernel_search,
    _Searcher,
    enumerate_answer_sets,
    enumerate_brute_force,
    is_answer_set_n2,
    search_path,
)

from conftest import n2_programs, needs_kernel, negative_programs


def s(n, *atoms):
    return AtomSet.from_atoms(n, atoms)


TWO_CYCLE = Program(2, [pure_rule(0, 1), pure_rule(1, 0)])


class TestCheckerN2:
    def test_single_rule_all_subsets(self):
        p = Program(2, [pure_rule(0, 1)])
        assert is_answer_set_n2(p, s(2, 0))
        assert not is_answer_set_n2(p, s(2, 1))
        assert not is_answer_set_n2(p, s(2))
        assert not is_answer_set_n2(p, s(2, 0, 1))

    def test_contradiction_rule_kills_everything(self):
        p = Program(1, [pure_rule(0, 0)])
        assert not is_answer_set_n2(p, s(1))
        assert not is_answer_set_n2(p, s(1, 0))

    def test_rejects_non_n2(self):
        with pytest.raises(ValueError, match="not negative two-literal"):
            is_answer_set_n2(Program(2, [Rule(0, (1,), ())]), s(2))

    def test_rejects_universe_mismatch(self):
        with pytest.raises(ValueError, match="universe-size mismatch: program n=2, set n=3"):
            is_answer_set_n2(Program(2, [pure_rule(0, 1)]), s(3, 0))

    @pytest.mark.parametrize("n", range(5))
    def test_empty_program_accepts_only_the_empty_set(self, n):
        p = Program(n, [])
        for checker in (is_answer_set_n2, is_answer_set_general):
            assert [m for m in range(1 << n) if checker(p, AtomSet(n, m))] == [0]

    @given(n2_programs())
    @settings(max_examples=80)
    def test_agrees_with_general_checker(self, p):
        for mask in range(1 << p.n):
            cand = AtomSet(p.n, mask)
            assert is_answer_set_n2(p, cand) == is_answer_set_general(p, cand)

    def test_agreement_on_random_generated(self):
        for i, (c1, c2) in enumerate([(5.0, 0.0), (4.0, 4.0)]):
            for t in range(25):
                n = 7 + (t % 4)
                p = generate(LinearModelParams(n, c1, c2), mix_seed(900 + i, t))
                for mask in range(1 << n):
                    cand = AtomSet(n, mask)
                    assert is_answer_set_n2(p, cand) == is_answer_set_general(p, cand)


class TestEnumerate:
    def test_two_cycle(self):
        col = enumerate_answer_sets(TWO_CYCLE)
        assert [a.members for a in col.sets] == [(0,), (1,)]
        assert col.count == 2
        assert col.masks == (0b01, 0b10)

    def test_single_rule(self):
        col = enumerate_answer_sets(Program(2, [pure_rule(0, 1)]))
        assert [a.members for a in col.sets] == [(0,)]

    def test_three_rule_example(self):
        p = Program(3, [pure_rule(0, 1), pure_rule(1, 0), pure_rule(2, 0)])
        col = enumerate_answer_sets(p)
        assert [a.members for a in col.sets] == [(0,), (1, 2)]

    def test_contradiction_only(self):
        assert enumerate_answer_sets(Program(1, [pure_rule(0, 0)])).count == 0

    def test_empty_program_has_the_empty_answer_set(self):
        for n in range(5):
            assert enumerate_answer_sets(Program(n, [])).masks == (0,)
            assert enumerate_answer_sets(Program(n, []), limit=1).masks == (0,)

    def test_rejects_non_n2(self):
        with pytest.raises(ValueError, match="not negative two-literal"):
            enumerate_answer_sets(Program(2, [Rule(0, (1,), ())]))

    def test_limit_truncates(self):
        col = enumerate_answer_sets(TWO_CYCLE, limit=1)
        assert col.count == 1
        with pytest.raises(ValueError):
            enumerate_answer_sets(TWO_CYCLE, limit=0)

    def test_rejects_non_integer_limit(self):
        with pytest.raises(ValueError, match="limit must be an integer"):
            enumerate_answer_sets(TWO_CYCLE, limit=1.5)

    def test_deterministic_canonical_order(self):
        p = generate(LinearModelParams(20, 4.0, 1.0), 5)
        c1 = enumerate_answer_sets(p)
        c2 = enumerate_answer_sets(p)
        assert c1 == c2
        assert list(c1.masks) == sorted(c1.masks)

    @given(n2_programs(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, p):
        assert enumerate_answer_sets(p).masks == enumerate_brute_force(p).masks

    def test_matches_brute_force_generated(self):
        for t in range(30):
            p = generate(LinearModelParams(14, 5.0, 1.0), mix_seed(77, t))
            assert enumerate_answer_sets(p).masks == enumerate_brute_force(p).masks

    @given(n2_programs(max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_collection_invariants(self, p):
        col = enumerate_answer_sets(p)
        assert col.count == len(col.sets)
        assert len(set(col.masks)) == col.count
        if p.rules:  # a nonempty program's answer sets are strictly inside
            for a in col.sets:
                assert 0 < a.mask.bit_count() < p.n
        masks = col.masks
        for a in masks:
            for b in masks:
                if a != b:
                    assert a & ~b and b & ~a  # pairwise incomparable


def two_cycles(k):
    """k disjoint two-cycles `a_i <- not b_i`, `b_i <- not a_i`: 2^k answer sets."""
    return Program(2 * k, [r for i in range(k) for r in (pure_rule(2 * i, 2 * i + 1), pure_rule(2 * i + 1, 2 * i))])


class TestDeepSearch:
    # Each two-cycle takes one decision and nothing prunes the rest, so k
    # cycles keep k decisions pending at once, each holding a state snapshot.
    def test_ten_two_cycles_match_brute_force(self):
        p = two_cycles(10)
        col = enumerate_answer_sets(p)
        assert col.count == 1024
        assert col.masks == enumerate_brute_force(p).masks

    def test_five_hundred_pending_decisions(self):
        p = two_cycles(500)
        (mask,) = enumerate_answer_sets(p, limit=1).masks
        assert is_answer_set_n2(p, AtomSet(p.n, mask))

    def test_snapshots_stay_near_two_words_per_atom(self):
        # Guards the Python searcher: tracemalloc does not see the kernel's
        # C allocations.  k pending snapshots of two n-atom lists take about
        # 2 * 8 * n * k bytes; a third per-atom list in each would exceed the
        # bound.
        k = 500
        p = two_cycles(k)
        tracemalloc.start()
        try:
            list(_Searcher(p).run(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * p.n * k


class TestExistence:
    @given(n2_programs(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_limit_one_matches_brute_force(self, p):
        col = enumerate_answer_sets(p, limit=1)
        bf = enumerate_brute_force(p)
        assert col.count == min(1, bf.count)
        assert set(col.masks) <= set(bf.masks)

    def test_limit_one_matches_brute_force_generated(self):
        for i, (c1, c2) in enumerate([(3.0, 0.0), (5.0, 0.0), (4.0, 1.0), (3.0, 3.0)]):
            for t in range(25):
                n = 8 + (t % 9)  # 8..16
                p = generate(LinearModelParams(n, c1, c2), mix_seed(500 + i, t))
                col = enumerate_answer_sets(p, limit=1)
                bf = enumerate_brute_force(p)
                assert col.count == min(1, bf.count)
                assert set(col.masks) <= set(bf.masks)


class _CheckedSearcher(_Searcher):
    """Checks the support fields after every successful propagation and every undo.

    The state a failed propagation leaves is thrown away by the next undo, so
    it is not checked.
    """

    def _check(self):
        state = self.state
        supported = [any(state[b] == _OUT for b in self.bodies_of[a]) for a in range(self.p.n)]
        for a in range(self.p.n):
            if supported[a]:
                assert self.n_free_supp[a] == _SUPPORTED
            else:
                assert self.n_free_supp[a] == sum(state[b] == _UNASSIGNED for b in self.bodies_of[a])
        expected = {a for a in range(self.p.n) if state[a] == _IN and not supported[a]}
        assert self.unsupported == expected

    def _propagate(self, queue):
        ok = super()._propagate(queue)
        if ok:  # each unsupported IN atom still has two candidates to branch on
            self._check()
            assert all(self.n_free_supp[a] >= 2 for a in self.unsupported)
        return ok

    def _undo_to(self, snapshot):
        super()._undo_to(snapshot)
        self._check()


class _CountingSearcher(_Searcher):
    """Counts `_propagate` calls past the root one (one per branch tried) and `_apply` calls."""

    def __init__(self, p):
        super().__init__(p)
        self.decisions = -1
        self.applies = 0

    def _propagate(self, queue):
        self.decisions += 1
        return super()._propagate(queue)

    def _apply(self, queue, val, atom):
        self.applies += 1
        return super()._apply(queue, val, atom)


def python_search(p, limit):
    """(masks in the order found, `_propagate` calls, `_apply` calls) of `_Searcher`, as `_kernel_search` gives them."""
    searcher = _CountingSearcher(p)
    masks = list(searcher.run(limit))
    return masks, searcher.decisions + 1, searcher.applies


# (decisions, _apply calls) summed over t = 0..9, recorded from an earlier
# searcher that undid assignments from a trail: any change to branching or
# propagation order shows here.
TREE_PINS = [(100, 5.0, 0.0, None, (780, 13538)), (60, 4.0, 2.0, None, (142, 1965)), (300, 3.0, 0.0, 1, (63, 4404))]


class TestSearchTree:
    @pytest.mark.parametrize("n, c1, c2, limit, expected", TREE_PINS)
    def test_tree_is_pinned(self, n, c1, c2, limit, expected):
        decisions = applies = 0
        for t in range(10):
            searcher = _CountingSearcher(generate(LinearModelParams(n, c1, c2), mix_seed(20240901, t)))
            list(searcher.run(limit))
            decisions += searcher.decisions
            applies += searcher.applies
        assert (decisions, applies) == expected

    @needs_kernel
    @pytest.mark.parametrize("n, c1, c2, limit, expected", TREE_PINS)
    def test_kernel_walks_the_same_tree(self, n, c1, c2, limit, expected):
        decisions = applies = 0
        for t in range(10):
            p = generate(LinearModelParams(n, c1, c2), mix_seed(20240901, t))
            got = _kernel_search(p, limit)
            assert got == python_search(p, limit)
            decisions += got[1] - 1
            applies += got[2]
        assert (decisions, applies) == expected

    @needs_kernel
    def test_a_wrapped_oracle_sees_the_search(self, monkeypatch):
        # Wraps the methods on the class, as perfbench's count_work does: the
        # search must then run on `_Searcher`, and the wrappers count what
        # the kernel counts for the same program.
        p = generate(LinearModelParams(200, 5.0, 0.0), mix_seed(20240901, 0))
        kernel_masks, propagations, applies = _kernel_search(p, None)
        calls = {"_propagate": 0, "_apply": 0}
        for name in calls:
            orig = getattr(_Searcher, name)

            def counted(self, *args, _name=name, _orig=orig):
                calls[_name] += 1
                return _orig(self, *args)

            monkeypatch.setattr(_Searcher, name, counted)
        assert search_path(p.n) == "python"
        assert enumerate_answer_sets(p).masks == tuple(sorted(kernel_masks))
        assert calls == {"_propagate": propagations, "_apply": applies}
        assert propagations > 1
        monkeypatch.undo()
        assert search_path(p.n) == "kernel"


class TestUnsupportedSet:
    def test_invariant_through_full_searches(self):
        for i, (n, c1, c2) in enumerate([(12, 3.0, 1.0), (40, 5.0, 0.0), (60, 4.0, 2.0)]):
            for t in range(6):
                p = generate(LinearModelParams(n, c1, c2), mix_seed(600 + i, t))
                searcher = _CheckedSearcher(p)
                masks = sorted(searcher.run(None))
                assert tuple(masks) == enumerate_answer_sets(p).masks

    @given(n2_programs(max_n=10))
    @settings(max_examples=60, deadline=None)
    def test_invariant_on_small_programs(self, p):
        masks = sorted(_CheckedSearcher(p).run(None))
        assert tuple(masks) == enumerate_brute_force(p).masks


# Results of the degree-order enumerator this search replaced, recorded from it:
# (n, c2, t, count, sha256 of repr(sorted mask tuple)) for the program
# generate(LinearModelParams(n, 5.0, c2), mix_seed(PINNED_SEED, n * 1000 + int(c2) * 100 + t)).
PINNED_SEED = 20261017
PINNED = [
    (50, 0.0, 0, 2, "d9fbb0e0c8a6057bb5763421d6f23228530045ab59ca19d115c244eec5982b50"),
    (50, 0.0, 1, 3, "0deb0ee90bfbebb1e9b70233009aa4260843792d781c9f4da8845b15abe0b1b9"),
    (50, 0.0, 2, 1, "b999ad35852a9af6eb8f9501ee4600713d546ced28a1e15554194ac88c4ece65"),
    (50, 0.0, 3, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (50, 0.0, 4, 2, "2b200ffbe4d11118ee9465d644d05178c8533c64de49072911ee905165a1a523"),
    (50, 0.0, 5, 2, "b8b95e187563fd707fe03a7a9a3ee8e1a3e6506b52d6fadfbfaae47730ea8e2c"),
    (50, 0.0, 6, 1, "6873c5823d6ee27af277c60c6e6404f207d7dc26bd63b5dd6f23dae80b5ee62e"),
    (50, 0.0, 7, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (50, 0.0, 8, 1, "318320ff00ff31b18865fcf2cbca022e85da86853267f8427bbe20d31821df45"),
    (50, 0.0, 9, 2, "85dca92b9862ca701950a16255e11721a6340a77f75206a3f31e0bc1c8978acb"),
    (50, 1.0, 0, 1, "9d2a9fab5bbe8dff89ec31bf50fa5e773fc696195c5096d621372c5bf06c9796"),
    (50, 1.0, 1, 1, "789552a11294629628a0e125d4f5017646b99fdc6a398ab5d284c0a970e8dbde"),
    (50, 1.0, 2, 3, "d6d4fc4db1265ff3e84bf4ccbfabaac2a778261ea5da09e711714cf2973d6823"),
    (50, 1.0, 3, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (50, 1.0, 4, 1, "1a1d02c151debefbd92f080c4bb886c40e6b15f7762ad30aa9eb93e093794925"),
    (50, 1.0, 5, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (50, 1.0, 6, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (50, 1.0, 7, 2, "7d5c18419171b54cdaf8f4086a1d9015d3e6ce7c608729389a9abecf31c184a0"),
    (50, 1.0, 8, 3, "999137f5980c1d3c48f1f827955b35237dcb28cc77404584e78cbff8d402a06d"),
    (50, 1.0, 9, 1, "1606ca6793fc482ca6020cc7620bdc11e7464b9b84bbdac47814d7b5e15f3005"),
    (100, 0.0, 0, 1, "10b11ace84d36f6f87e78bdc127bf1b24860d5bfcb6ed5bf0d34b0e6ac50538d"),
    (100, 0.0, 1, 4, "fa7e443c1d5b3524d217bd602ebdf4c84c9875b2c614b92b474ac860cd0b8c4d"),
    (100, 0.0, 2, 1, "8296e6dcda867078124747a2786d709c56467dd1c4967c86c97af05007567d0a"),
    (100, 0.0, 3, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (100, 0.0, 4, 4, "64219683fd70d3a0d1fa05816078de224aac01ebe53be5d9facf5f7ca13f8765"),
    (100, 0.0, 5, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (100, 0.0, 6, 1, "94f93f6f7bbefbff9b29f9f2672a2c1db82a60c5e1369990aa99e03f04bdc414"),
    (100, 0.0, 7, 2, "aba734006fb73f576d0160bb9fcf8e5b0d3f627daa94a3e52e269c2f6e281402"),
    (100, 0.0, 8, 3, "0dbee3d5d90e5d48c7f53fe9b17b6d8046260ddc55f897b2d9fb2c679fbaab97"),
    (100, 0.0, 9, 3, "3d41e979b4dba8659a85f5449a8f60a853275ac0be65897cd0de4385c338d24b"),
    (100, 1.0, 0, 1, "150bc97f3e1b341f6ece4af3df3f2ba7a07b194c1dbf448d45a9e3e3451310a9"),
    (100, 1.0, 1, 1, "5d9e42223fc928a65d50955bd9f321da5c89b38258c7e83b33034108136f7932"),
    (100, 1.0, 2, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (100, 1.0, 3, 2, "990c7544c2f34543d8597000e8d137dd6727d2c3dd4a11b1d9734e630f6e7ed3"),
    (100, 1.0, 4, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (100, 1.0, 5, 2, "97f9e3f23073e27e68c66e80cecdb2791055a50c82287f8482d70da6a7ac4da8"),
    (100, 1.0, 6, 1, "8f3d2304f38eff13b1e9169f64242cc3fb49ceb5c7dbf2f268681a730b496a23"),
    (100, 1.0, 7, 3, "0add890e5b9327e9ed9d7ba52bda706c55a78fd20a3e2fff20f1cf0edfb8419a"),
    (100, 1.0, 8, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (100, 1.0, 9, 5, "97fac5a7302facde51fc4b32d321353cc466e3e1300e76619a66fe1a50da4ae1"),
    (150, 0.0, 0, 2, "da8d8cab25d7be0c33826f9392855b55e29d4e23e9d3c699eb4abcdf0c467e1c"),
    (150, 0.0, 1, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (150, 0.0, 2, 3, "d3624199739f412a955c032d3038d6ea00578ea760ca7c90b8f8a0cfa11dc5a8"),
    (150, 0.0, 3, 1, "df259d133094919a69e8fb645e2a1d9fca59d1f0e8773e5996f26223c2ea2705"),
    (150, 0.0, 4, 1, "799e09539589b1b83dc23d829b3740fd514b893d78bac51cc9dd244819b1a174"),
    (150, 0.0, 5, 2, "1f1120a9897aa5e54f48653ab3672904c6816abdc58697f7a2f550af5ce22aee"),
    (150, 0.0, 6, 1, "182a53bc3b72ad50d67a1e52488e90a616bb2f7d71f9621d8a2e3af14f3bc4e6"),
    (150, 0.0, 7, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (150, 0.0, 8, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (150, 0.0, 9, 1, "d14fab4d02cbd10914a1af327febb2ca686e9483a88f822a02f7a8ff830833a0"),
    (150, 1.0, 0, 2, "f2426945062f48ac4fb23b57d2bde85b645369f09636224c42d456ddd65abdd0"),
    (150, 1.0, 1, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (150, 1.0, 2, 1, "0e78b3c65fce6266e9ca8499439611756961dd6faf8ff7117b86700554ae977d"),
    (150, 1.0, 3, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (150, 1.0, 4, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (150, 1.0, 5, 1, "3b9df7299f431918923783477fe583cda7b21649678bfefbc51672cd279d46fc"),
    (150, 1.0, 6, 2, "ee5922141865f82adf77dc63f8ebb64c2d9ca6fbc70d22dc816c072ebb391e66"),
    (150, 1.0, 7, 1, "5f8ba67b1ee6ce4eba64af53a109ce54e7300e72842b47114a0eb3958cebddf7"),
    (150, 1.0, 8, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (150, 1.0, 9, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (300, 0.0, 0, 1, "2f3878f2ed1b71479f52768aa0333fbda9f560f75b23a4ebe3d7deeb8f93a6a1"),
    (300, 0.0, 1, 2, "f7eb3c57283ab29e08eb44e4b8e4647b7c3602b69454118068ba3b099abc71e3"),
    (300, 0.0, 2, 2, "b2014d0e8760f4296aa4ae3faf5d9c9aef10030e993987b4f8a21107fcf88292"),
    (300, 0.0, 3, 4, "ad25c9820a702c45bbea4da25c7c713861d1e4bbe6698e051ed168fa4d8207d6"),
    (300, 0.0, 4, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
    (300, 0.0, 5, 0, "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d"),
]


class TestPinnedResults:
    def test_reproduces_recorded_mask_sets(self):
        mismatches = []
        for n, c2, t, count, digest in PINNED:
            seed = mix_seed(PINNED_SEED, n * 1000 + int(c2) * 100 + t)
            masks = enumerate_answer_sets(generate(LinearModelParams(n, 5.0, c2), seed)).masks
            got = (len(masks), hashlib.sha256(repr(masks).encode()).hexdigest())
            if got != (count, digest):
                mismatches.append((n, c2, t))
        assert mismatches == []


@needs_kernel
class TestKernelEquivalence:
    def test_pinned_programs(self):
        for n, c2, t, _, _ in PINNED:
            p = generate(LinearModelParams(n, 5.0, c2), mix_seed(PINNED_SEED, n * 1000 + int(c2) * 100 + t))
            assert _kernel_search(p, None) == python_search(p, None)

    @given(n2_programs(min_n=0, max_n=10))
    @settings(max_examples=150)
    def test_small_programs(self, p):
        for limit in (None, 1):
            assert _kernel_search(p, limit) == python_search(p, limit)

    def test_five_hundred_pending_decisions(self):
        p = two_cycles(500)
        assert _kernel_search(p, 1) == python_search(p, 1)

    def test_path_by_size(self):
        assert KERNEL_MAX_N == 1 << 29
        assert search_path((1 << 29) - 1) == "kernel"
        assert search_path(1 << 29) == "python"  # decided from n alone: nothing of that size is made


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """A missing home and cache root, an empty temp dir, and a `_kernel.load` that has not run yet."""
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    (tmp_path / "tmp").mkdir()
    _kernel.load.cache_clear()
    yield tmp_path
    _kernel.load.cache_clear()


class TestKernelBuild:
    def test_source_ships_in_the_package(self):
        path = resources.files("randasp").joinpath("_search.c")
        assert path.is_file()
        assert _kernel.source() == path.read_bytes()

    @needs_kernel
    def test_missing_cache_roots_are_not_created(self, fresh_cache):
        assert _kernel.load() is not None
        assert sorted(fresh_cache.iterdir()) == [fresh_cache / "tmp"]
        (leaf,) = (fresh_cache / "tmp").iterdir()
        assert leaf.name == f"randasp-{os.getuid()}" and leaf.stat().st_mode & 0o777 == 0o700
        assert [so.name.startswith("search-") and so.suffix == ".so" for so in leaf.iterdir()] == [True]

    @needs_kernel
    def test_builds_once_into_an_existing_cache_root(self, fresh_cache):
        (fresh_cache / "xdg").mkdir()
        assert _kernel.load() is not None
        (so,) = (fresh_cache / "xdg" / "randasp").iterdir()
        assert (fresh_cache / "xdg" / "randasp").stat().st_mode & 0o777 == 0o700
        built = so.stat().st_mtime_ns
        _kernel.load.cache_clear()
        assert _kernel.load() is not None
        assert [p.stat().st_mtime_ns for p in so.parent.iterdir()] == [built]
        assert list((fresh_cache / "tmp").iterdir()) == []

    def test_loads_only_from_a_directory_this_user_owns(self, fresh_cache, monkeypatch):
        (fresh_cache / "xdg").mkdir()
        (fresh_cache / "xdg" / "randasp").mkdir(mode=0o777)
        os.chmod(fresh_cache / "xdg" / "randasp", 0o777)  # others may write: skipped
        assert _kernel.cache_dir() == fresh_cache / "tmp" / f"randasp-{os.getuid()}"
        monkeypatch.setattr(os, "getuid", lambda: os.geteuid() + 1)  # owns neither directory
        assert _kernel.cache_dir() is None
        assert _kernel.load() is None
        assert search_path(2) == "python"
        assert enumerate_answer_sets(TWO_CYCLE).masks == (1, 2)

    def test_without_a_compiler_the_search_runs_in_python(self, fresh_cache, monkeypatch):
        monkeypatch.setattr(_kernel, "CC", ("randasp-no-such-compiler", *_kernel.CC[1:]))
        assert _kernel.load() is None
        assert search_path(2) == "python"
        assert enumerate_answer_sets(TWO_CYCLE).masks == (1, 2)

    @needs_kernel
    def test_concurrent_builds_leave_one_loadable_file(self, tmp_path):
        path = tmp_path / "search.so"
        threads = [threading.Thread(target=_kernel._build, args=(_kernel.source(), path)) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
        assert not any(th.is_alive() for th in threads)
        assert list(tmp_path.iterdir()) == [path]
        assert ctypes.CDLL(str(path)).randasp_search


class TestCount:
    def test_examples(self):
        assert enumerate_answer_sets(TWO_CYCLE).count == 2
        assert enumerate_answer_sets(Program(1, [pure_rule(0, 0)])).count == 0

    def test_matches_enumeration(self):
        for t in range(20):
            p = generate(LinearModelParams(16, 5.0, 0.0), mix_seed(31, t))
            assert enumerate_answer_sets(p).count == enumerate_brute_force(p).count


class TestLeafRecheck:
    def test_every_leaf_goes_through_the_mask_checker(self, monkeypatch):
        p = generate(LinearModelParams(50, 5.0, 0.0), mix_seed(PINNED_SEED, 50001))  # 3 sets pinned
        assert enumerate_answer_sets(p).count == 3
        monkeypatch.setattr("randasp.solver._is_n2_answer_set_mask", lambda heads, bodies, smask: False)
        assert enumerate_answer_sets(p).masks == ()
        assert enumerate_answer_sets(TWO_CYCLE, limit=1).count == 0

    def test_an_error_in_the_recheck_stops_the_search_and_is_raised(self, monkeypatch):
        checked = []

        def broken(heads, bodies, smask):
            checked.append(smask)
            raise ZeroDivisionError

        monkeypatch.setattr("randasp.solver._is_n2_answer_set_mask", broken)
        with pytest.raises(ZeroDivisionError):
            enumerate_answer_sets(two_cycles(3))
        assert len(checked) == 1


class TestBruteForce:
    def test_cap(self):
        with pytest.raises(ValueError, match="exceeds brute-force cap 20"):
            enumerate_brute_force(Program(21, [pure_rule(0, 1)]))

    def test_empty_program_has_the_empty_answer_set(self):
        for n in range(5):
            assert enumerate_brute_force(Program(n, [])).masks == (0,)

    def test_rejects_positive_body(self):
        # {a<-, b<-a} has a positive body atom
        with pytest.raises(ValueError, match="requires a negative program"):
            enumerate_brute_force(Program(2, [Rule(0, (), ()), Rule(1, (0,), ())]))

    @given(negative_programs())
    @settings(max_examples=60, deadline=None)
    def test_vector_path_matches_reference_scan(self, p):
        expected = [
            m for m in range(1 << p.n) if is_answer_set_general(p, AtomSet(p.n, m))
        ]
        assert list(enumerate_brute_force(p).masks) == expected
