import pytest
from hypothesis import given, settings

from randasp.progio import parse_program
from randasp.programs import Program, Rule, pure_rule
from randasp.solver import enumerate_brute_force
from randasp.translate import check_equivalence_modulo_aux, to_two_literal

from conftest import negative_programs


class TestToTwoLiteral:
    def test_fact_encoding(self):
        p = Program(1, [Rule(0, (), ())])
        out = to_two_literal(p)
        assert out.n == 2  # aux atom 1 belongs to rule 0
        assert out.rules == (Rule(0, (), (1,)),)
        assert [a.members for a in enumerate_brute_force(out).sets] == [(0,)]

    def test_two_rule_worked_example(self):
        # a <- not b, not c.   b.
        p = Program(3, [Rule(0, (), (1, 2)), Rule(1, (), ())])
        out = to_two_literal(p)
        # e_0 = atom 3 (for the a-rule), e_1 = atom 4 (for the fact b).
        # Unfolding e_0 <- b against b <- not e_1 gives e_0 <- not e_1;
        # e_0 <- c is dropped since nothing heads c.
        assert set(out.rules) == {
            Rule(0, (), (3,)),
            Rule(3, (), (4,)),
            Rule(1, (), (4,)),
        }
        answer_sets = {
            frozenset(a.members) - {3, 4} for a in enumerate_brute_force(out).sets
        }
        assert answer_sets == {frozenset({1})}

    def test_output_always_n2(self):
        p = Program(4, [Rule(0, (), (1, 2, 3)), Rule(1, (), (0,)), Rule(2, (), ())])
        out = to_two_literal(p)
        assert out.is_n2
        assert out.n == 7  # aux atoms 4, 5, 6

    def test_aux_count_equals_rule_count(self):
        p = Program(3, [Rule(0, (), (1,)), Rule(1, (), (2,)), Rule(2, (), ())])
        assert to_two_literal(p).n == p.n + len(p.rules)

    def test_rejects_positive_bodies(self):
        with pytest.raises(ValueError):
            to_two_literal(Program(2, [Rule(0, (1,), ())]))

    def test_names_aux_atoms_after_the_input_names(self):
        assert to_two_literal(Program(1, [Rule(0, (), ())])).symbols == ("a0", "_e0")
        p = parse_program("_e0.\na1 :- not _e0.\n")
        assert to_two_literal(p).symbols == ("_e0", "a1", "__e0", "_e1")

    def test_output_size_bound(self):
        p = Program(4, [Rule(0, (), (1, 2)), Rule(1, (), (2, 3)), Rule(2, (), ())])
        out = to_two_literal(p)
        heads = {}
        for r in p.rules:
            heads[r.head] = heads.get(r.head, 0) + 1
        bound = len(p.rules) + sum(heads.get(c, 0) for r in p.rules for c in r.neg_body)
        assert len(out.rules) <= bound


class TestEquivalenceCheck:
    def test_identity(self):
        p = Program(2, [pure_rule(0, 1)])
        assert check_equivalence_modulo_aux(p, p)

    def test_detects_extra_answer_set(self):
        p = Program(2, [pure_rule(0, 1)])
        p2 = Program(2, [pure_rule(0, 1), pure_rule(1, 0)])
        assert not check_equivalence_modulo_aux(p, p2)

    def test_detects_two_extensions_of_one_answer_set(self):
        # a0.  against  a0.  a1 :- not a2.  a2 :- not a1.  (aux a1, a2):
        # {a0} extends to both {a0, a1} and {a0, a2}
        p = Program(1, [Rule(0)])
        p2 = Program(3, [Rule(0), pure_rule(1, 2), pure_rule(2, 1)])
        assert not check_equivalence_modulo_aux(p, p2)

    def test_rejects_smaller_extended_universe(self):
        p = Program(3, [pure_rule(0, 1)])
        with pytest.raises(ValueError, match="smaller than the original"):
            check_equivalence_modulo_aux(p, Program(2, [pure_rule(0, 1)]))

    def test_cap_refusal(self):
        p = Program(25, [pure_rule(0, 1)])
        with pytest.raises(ValueError):
            check_equivalence_modulo_aux(p, p)

    @pytest.mark.parametrize("n", range(5))
    def test_empty_program(self, n):
        p = Program(n, [])
        out = to_two_literal(p)
        assert out == p
        assert check_equivalence_modulo_aux(p, out)

    def test_translation_equivalence_spec_cases(self):
        cases = [
            Program(1, [Rule(0, (), ())]),
            Program(3, [Rule(0, (), (1, 2)), Rule(1, (), ())]),
            Program(2, [Rule(0, (), (0,))]),
            Program(2, [Rule(0, (), (1,)), Rule(1, (), (0,))]),
        ]
        for p in cases:
            assert check_equivalence_modulo_aux(p, to_two_literal(p))

    @given(negative_programs(max_n=6, max_body=3))
    @settings(max_examples=80, deadline=None)
    def test_translation_equivalence_random(self, p):
        out = to_two_literal(p)
        assert out.is_n2 and out.n == p.n + len(p.rules)
        assert check_equivalence_modulo_aux(p, out)
