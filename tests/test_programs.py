import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randasp.programs import (
    N2_MAX_N,
    AtomSet,
    Program,
    Rule,
    is_answer_set_general,
    least_model,
    pure_rule,
    reduct,
)
from randasp.solver import enumerate_answer_sets

from conftest import assert_same_program, general_programs, n2_programs, positive_programs


def s(n, *atoms):
    return AtomSet.from_atoms(n, atoms)


class TestRuleAndProgram:
    def test_rule_flags(self):
        assert pure_rule(0, 1).is_n2 and pure_rule(2, 2).is_n2
        assert not Rule(0, (1,), ()).is_n2

    def test_program_validates_universe(self):
        with pytest.raises(ValueError):
            Program(2, [pure_rule(0, 2)])
        with pytest.raises(ValueError):
            Program(2, [Rule(0, (), (1, 1))])

    def test_program_dedups_and_sorts(self):
        p = Program(3, [pure_rule(2, 0), pure_rule(0, 1), pure_rule(2, 0)])
        assert len(p) == 2
        assert p.rules == (pure_rule(0, 1), pure_rule(2, 0))

    def test_is_n2_flag(self):
        assert Program(2, [pure_rule(0, 1), pure_rule(1, 1)]).is_n2
        assert not Program(2, [Rule(0, (1,), ())]).is_n2
        assert Program(2, []).is_n2  # vacuous

    def test_program_rejects_non_integer_n(self):
        with pytest.raises(ValueError, match="n must be an integer"):
            Program(2.5, [])
        assert Program(np.int64(2), [pure_rule(0, 1)]) == Program(2, [pure_rule(0, 1)])
        assert type(Program(np.int64(2), []).n) is type(Program.from_n2_arrays(np.int64(2), [], []).n) is int

    @pytest.mark.parametrize("atom", [True, 1.0])
    def test_rejects_non_integer_atoms(self, atom):
        for rule in (Rule(atom, (), (2,)), Rule(0, (atom,), ()), Rule(0, (), (atom,))):
            with pytest.raises(ValueError, match="atom must be an integer"):
                Program(3, [rule])

    def test_numpy_atoms_are_kept_as_ints(self):
        p = Program(70, [pure_rule(np.int64(65), np.int64(66)), pure_rule(np.int64(66), np.int64(65))])
        assert all(type(a) is int for r in p.rules for a in (r.head, *r.neg_body))
        assert enumerate_answer_sets(p).count == 2  # 1 << np.int64(65) would overflow the search masks

    def test_negative_universe_rejected(self):
        with pytest.raises(ValueError, match="universe size must be non-negative"):
            Program(-1)
        with pytest.raises(ValueError, match="universe size must be non-negative"):
            AtomSet(-1, 0)

    def test_symbols_do_not_affect_equality(self):
        a = Program(2, [pure_rule(0, 1)], symbols=["x", "y"])
        b = Program(2, [pure_rule(0, 1)])
        assert a == b


class TestFromN2Arrays:
    @given(n2_programs(max_n=10), st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_general_constructor(self, p, data):
        pairs = [(r.head, r.neg_body[0]) for r in p.rules]
        extra = data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
        shuffled = data.draw(st.permutations(pairs + extra))
        heads = np.array([h for h, _ in shuffled], dtype=np.int64)
        bodies = np.array([b for _, b in shuffled], dtype=np.int64)
        bulk = Program.from_n2_arrays(p.n, heads, bodies)
        general = Program(p.n, [Rule(h, (), (b,)) for h, b in shuffled])
        assert_same_program(bulk, general)  # both sort their arrays, from shuffled and repeated pairs
        assert bulk.rules == general.rules == p.rules
        assert all(type(r) is Rule and type(r.head) is int and type(r.neg_body[0]) is int for r in bulk.rules)
        assert bulk.is_n2 and general.is_n2
        assert [a.tolist() for a in bulk.n2_arrays] == [[h for h, _ in pairs], [b for _, b in pairs]]

    @given(n2_programs(min_n=0, max_n=12), st.sampled_from(["int8", "int32", "int64", "uint16", "uint64", "mixed"]))
    @settings(max_examples=150, deadline=None)
    def test_input_dtypes_give_one_program(self, p, dtype):
        heads, bodies = p.n2_arrays
        if dtype == "mixed":  # an int64 and a uint64 array: the sort key must not go through float64
            h, b = heads.astype(np.int64), bodies.astype(np.uint64)
        else:
            h, b = heads.astype(dtype), bodies.astype(dtype)
        bulk = Program.from_n2_arrays(p.n, h[::-1], b[::-1])
        assert_same_program(bulk, p)

    @given(n2_programs(min_n=0, max_n=12), st.sampled_from(["int8", "int32", "int64", "uint16", "uint64"]))
    @settings(max_examples=100, deadline=None)
    def test_canonical_input_gives_the_general_program(self, p, dtype):
        heads, bodies = (a.astype(dtype) for a in p.n2_arrays)
        bulk = Program.from_n2_arrays(p.n, heads, bodies)
        assert_same_program(bulk, Program(p.n, p.rules))
        assert [a.tolist() for a in bulk.n2_arrays] == [a.tolist() for a in p.n2_arrays]

    @pytest.mark.parametrize("canonical", [True, False])
    def test_callers_arrays_are_neither_kept_nor_frozen(self, canonical):
        heads = np.array([0, 0, 1, 2] if canonical else [2, 0, 1, 0], dtype=np.int32)
        bodies = np.array([1, 2, 1, 0] if canonical else [0, 2, 1, 1], dtype=np.int32)
        p = Program.from_n2_arrays(3, heads, bodies)
        expected = Program(3, [pure_rule(0, 1), pure_rule(0, 2), pure_rule(1, 1), pure_rule(2, 0)])
        assert heads.flags.writeable and bodies.flags.writeable
        assert not any(np.shares_memory(a, x) for a in p.n2_arrays for x in (heads, bodies))
        heads[:], bodies[:] = 2, 1
        assert_same_program(p, expected)
        assert [a.tolist() for a in p.n2_arrays] == [[0, 0, 1, 2], [1, 2, 1, 0]]

    def test_views_of_one_buffer(self):
        # the kernel sampler returns its heads and bodies as rows of one (2, cap) buffer
        out = np.array([[0, 1, 1, 9], [2, 0, 2, 9]], dtype=np.int32)
        p = Program.from_n2_arrays(3, out[0, :3], out[1, :3])
        out[:] = 0
        assert [a.tolist() for a in p.n2_arrays] == [[0, 1, 1], [2, 0, 2]]

    @pytest.mark.parametrize(
        "heads, bodies",
        [
            ([0, 1, 1], [1, 2, 0]),  # unsorted
            ([0, 1, 1], [1, 0, 0]),  # a repeat
            ([0, 0, 1], [2, 1, 0]),  # bodies out of order under one head
            ([1, 2, 0, 1], [0, 1, 0, 1]),  # pure rules, then contradictions, as a c2 > 0 draw comes
        ],
    )
    def test_noncanonical_input_is_sorted_and_deduplicated(self, heads, bodies):
        p = Program.from_n2_arrays(3, np.array(heads), np.array(bodies))
        assert_same_program(p, Program(3, [pure_rule(h, b) for h, b in zip(heads, bodies)]))

    def test_mixed_dtypes_keep_large_keys_exact(self):
        # h * n + b above 2^53 is not exact in float64
        n = N2_MAX_N
        heads = np.array([n - 1, n - 1, n - 2], dtype=np.uint64)
        bodies = np.array([n - 2, n - 3, n - 1], dtype=np.int64)
        p = Program.from_n2_arrays(n, heads, bodies)
        assert [a.tolist() for a in p.n2_arrays] == [[n - 2, n - 1, n - 1], [n - 1, n - 3, n - 2]]
        assert_same_program(p, Program(n, [pure_rule(h, b) for h, b in zip(heads.tolist(), bodies.tolist())]))

    def test_empty(self):
        for n in (0, 3):
            for empty in ([], np.empty(0, dtype=np.uint64), np.empty(0)):
                p = Program.from_n2_arrays(n, empty, empty)
                assert_same_program(p, Program(n, []))
                assert len(p) == 0 and p.rules == () and p.is_n2

    def test_universe_limit(self):
        assert Program.from_n2_arrays(N2_MAX_N, [N2_MAX_N - 1], [0]).n == (1 << 31) - 1
        with pytest.raises(ValueError, match="at most 2147483647 atoms"):
            Program.from_n2_arrays(N2_MAX_N + 1, [], [])
        big = Program(N2_MAX_N + 1, [pure_rule(N2_MAX_N, 0)])  # the general constructor has no limit
        assert big.is_n2 and len(big) == 1
        with pytest.raises(ValueError, match="at most 2147483647 atoms"):
            big.n2_arrays

    def test_arrays_are_read_only(self):
        p = Program.from_n2_arrays(3, np.array([2, 0]), np.array([1, 1]))
        heads, _ = p.n2_arrays
        with pytest.raises(ValueError, match="read-only"):
            heads[0] = 1
        with pytest.raises(AttributeError, match="immutable"):
            p.n = 4
        with pytest.raises(AttributeError, match="immutable"):
            p.rules = ()

    def test_pickle_keeps_the_representation(self):
        bulk = Program.from_n2_arrays(3, [2, 0], [1, 1])
        assert "rules" not in vars(pickle.loads(pickle.dumps(bulk)))
        parsed = Program(2, [pure_rule(0, 1)], symbols=["x", "y"])
        assert pickle.loads(pickle.dumps(parsed)).symbols == ("x", "y")

    @pytest.mark.parametrize(
        "heads, bodies",
        [
            ([0, 3], [1, 1]),
            ([0, 1], [1, 3]),
            ([-1], [0]),
            ([0], [-2]),
            (np.array([5], dtype=np.uint64), [0]),
            ([0, 0], [-1, 1]),  # keys -1, 1 strictly increase: the range check still comes first
        ],
    )
    def test_rejects_out_of_range_atoms(self, heads, bodies):
        with pytest.raises(ValueError, match="out of universe"):
            Program.from_n2_arrays(3, np.asarray(heads), np.asarray(bodies))

    def test_rejects_malformed_arrays(self):
        with pytest.raises(ValueError, match="one length"):
            Program.from_n2_arrays(3, [0, 1], [1])
        with pytest.raises(ValueError, match="integers"):
            Program.from_n2_arrays(3, [0.0], [1.0])
        with pytest.raises(ValueError, match="integers"):
            Program.from_n2_arrays(3, [0, 1], [1.0, 2.0])  # canonical pairs, float bodies
        with pytest.raises(ValueError, match="non-negative"):
            Program.from_n2_arrays(-1, [], [])

    def test_rejects_non_integer_n(self):
        with pytest.raises(ValueError, match="n must be an integer"):
            Program.from_n2_arrays(2.5, [0], [1])

    def test_n2_arrays_rejects_general_program(self):
        with pytest.raises(ValueError, match="not negative two-literal"):
            Program(2, [Rule(0, (1,), ())]).n2_arrays


class TestAtomSet:
    def test_basics(self):
        t = s(4, 0, 2)
        assert t.mask == 0b101 and t.members == (0, 2)

    def test_bounds(self):
        with pytest.raises(ValueError):
            AtomSet(2, 4)
        with pytest.raises(ValueError):
            AtomSet.from_atoms(2, [2])

    def test_from_atoms_applies_the_atom_rule(self):
        assert AtomSet.from_atoms(70, [np.int64(65)]).members == (65,)  # numpy's 1 << 65 is 0
        with pytest.raises(ValueError, match="atom must be an integer"):
            AtomSet.from_atoms(3, [True])

    def test_rejects_non_integer_n(self):
        with pytest.raises(ValueError, match="n must be an integer"):
            AtomSet(2.5, 0)
        assert AtomSet(np.int64(100), 1 << 99).members == (99,)  # 1 << np.int64(100) is 0

    @pytest.mark.parametrize("mask", [1.0, True])
    def test_rejects_non_integer_mask(self, mask):
        with pytest.raises(ValueError, match="mask must be an integer"):
            AtomSet(3, mask)

    def test_numpy_mask_is_kept_as_an_int(self):
        assert type(AtomSet(3, np.int64(5)).mask) is int


class TestReduct:
    def test_rule_deleted(self):
        assert reduct(Program(2, [pure_rule(0, 1)]), s(2, 1)).rules == ()

    def test_negation_stripped(self):
        p = reduct(Program(2, [pure_rule(0, 1)]), s(2, 0))
        assert p.rules == (Rule(0, (), ()),)

    def test_empty_set_strips_everything(self):
        p = reduct(Program(2, [pure_rule(0, 0), pure_rule(1, 0)]), s(2))
        assert p.rules == (Rule(0, (), ()), Rule(1, (), ()))

    @given(general_programs())
    def test_empty_and_full_boundaries(self, p):
        stripped = reduct(p, AtomSet(p.n, 0))
        assert set(stripped.rules) == {Rule(r.head, r.pos_body, ()) for r in p.rules}
        full = reduct(p, AtomSet(p.n, (1 << p.n) - 1))
        kept = {r for r in p.rules if not r.neg_body}
        assert set(full.rules) == {Rule(r.head, r.pos_body, ()) for r in kept}


class TestLeastModel:
    def test_forward_chaining(self):
        p = Program(2, [Rule(0, (), ()), Rule(1, (0,), ())])
        assert least_model(p).members == (0, 1)

    def test_empty_program(self):
        assert least_model(Program(3, [])).members == ()

    def test_unfounded_loop_excluded(self):
        p = Program(2, [Rule(0, (1,), ()), Rule(1, (0,), ())])
        assert least_model(p).members == ()

    def test_requires_positive(self):
        with pytest.raises(ValueError):
            least_model(Program(2, [pure_rule(0, 1)]))

    @given(positive_programs(), positive_programs())
    def test_monotone_in_rules(self, p, q):
        if p.n != q.n:
            q = Program(p.n, [r for r in q.rules if max((r.head, *r.pos_body), default=0) < p.n])
        merged = Program(p.n, p.rules + q.rules)
        assert least_model(p).mask & ~least_model(merged).mask == 0

    @given(positive_programs())
    @settings(max_examples=100)
    def test_is_the_least_closed_set(self, p):
        # the definition, checked over all 2^n sets: closed under every rule, inside every closed set
        def closed(m):
            return all((m >> r.head) & 1 or not all((m >> b) & 1 for b in r.pos_body) for r in p.rules)

        lm = least_model(p).mask
        assert closed(lm)
        assert all(lm & ~m == 0 for m in range(1 << p.n) if closed(m))


class TestIsAnswerSetGeneral:
    def test_unique_answer_set(self):
        p = Program(2, [pure_rule(0, 1)])
        assert is_answer_set_general(p, s(2, 0))
        assert not is_answer_set_general(p, s(2, 1))
        assert not is_answer_set_general(p, s(2))
        assert not is_answer_set_general(p, s(2, 0, 1))

    def test_inconsistent_contradiction(self):
        p = Program(1, [pure_rule(0, 0)])
        assert not is_answer_set_general(p, s(1, 0))
        assert not is_answer_set_general(p, s(1))

    def test_empty_program_empty_set(self):
        assert is_answer_set_general(Program(3, []), s(3))

    def test_rejects_universe_mismatch(self):
        with pytest.raises(ValueError, match="universe-size mismatch: program n=2, set n=3"):
            is_answer_set_general(Program(2, [pure_rule(0, 1)]), s(3, 0))

    @given(general_programs())
    @settings(max_examples=60)
    def test_matches_reduct_least_model_composition(self, p):
        for mask in range(1 << p.n):
            cand = AtomSet(p.n, mask)
            literal = least_model(reduct(p, cand)) == cand
            assert is_answer_set_general(p, cand) == literal

    @given(general_programs())
    @settings(max_examples=40)
    def test_answer_sets_incomparable(self, p):
        found = [m for m in range(1 << p.n) if is_answer_set_general(p, AtomSet(p.n, m))]
        for a in found:
            for b in found:
                if a != b:
                    assert a & ~b != 0 and b & ~a != 0
