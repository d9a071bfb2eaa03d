import pytest
from hypothesis import given, settings

from randasp.generate import LinearModelParams, generate, mix_seed
from randasp.progio import ParseError, format_program, parse_program
from randasp.programs import Program, Rule, pure_rule

from conftest import general_programs


class TestParse:
    def test_single_pure_rule(self):
        p = parse_program("a :- not b.\n")
        assert p.n == 2
        assert p.rules == (pure_rule(0, 1),)
        assert p.symbols == ("a", "b")

    def test_contradiction_rule(self):
        p = parse_program("a :- not a.")
        assert p.rules == (pure_rule(0, 0),) and p.n == 1

    def test_fact_and_positive_body(self):
        p = parse_program("a.\nb :- a.\nc :- a, not b.")
        assert p.n == 3
        assert set(p.rules) == {
            Rule(0, (), ()),
            Rule(1, (0,), ()),
            Rule(2, (0,), (1,)),
        }

    def test_duplicate_body_atom_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_program("x.\na :- not b, not b.")
        assert err.value.line == 2

    def test_comments_and_whitespace(self):
        p = parse_program("% header comment\na :- not b.  % trailing\n\n% done\n")
        assert p.rules == (pure_rule(0, 1),)

    def test_universe_directive(self):
        p = parse_program("#universe 5.\na :- not b.")
        assert p.n == 5 and p.rules == (pure_rule(0, 1),)

    def test_universe_extends_to_atoms_seen(self):
        p = parse_program("#universe 2.\na :- not b.\nc :- not a.")
        assert p.n == 3

    def test_canonical_names_pin_indices(self):
        p = parse_program("a5 :- not a0.")
        assert p.n == 6 and p.rules == (Rule(5, (), (0,)),)

    def test_mixed_names_fill_free_indices(self):
        p = parse_program("b :- not a1.")
        assert p.rules == (Rule(0, (), (1,)),)
        assert p.symbols == ("b", "a1")

    def test_syntax_errors_carry_location(self):
        for text, line in [("a :- b", 1), ("x.\n:- not b.", 2), ("a :- not not b.", 1), ("$", 1)]:
            with pytest.raises(ParseError) as err:
                parse_program(text)
            assert err.value.line == line

    def test_duplicate_rules_deduplicate(self):
        p = parse_program("a :- not b.\na :- not b.")
        assert len(p.rules) == 1

    def test_empty_text(self):
        p = parse_program("")
        assert p.n == 0 and p.rules == ()


class TestFormat:
    def test_two_cycle_two_lines_plus_header(self):
        p = Program(2, [pure_rule(0, 1), pure_rule(1, 0)])
        text = format_program(p)
        assert text == "#universe 2.\na0 :- not a1.\na1 :- not a0.\n"

    def test_empty_program_header_only(self):
        assert format_program(Program(3, [])) == "#universe 3.\n"

    def test_fact_rendering(self):
        assert format_program(Program(1, [Rule(0, (), ())])) == "#universe 1.\na0.\n"

    def test_isolated_atoms_survive_via_header(self):
        p = Program(4, [pure_rule(2, 0)])
        assert parse_program(format_program(p)) == p

    def test_named_program_keeps_names_when_safe(self):
        p = parse_program("win :- not lose.\nlose :- not win.")
        text = format_program(p)
        assert "win" in text and "lose" in text
        assert parse_program(text) == p

    def test_unsafe_names_fall_back_to_canonical(self):
        # index order disagrees with first-appearance order after sorting
        p = Program(2, [Rule(1, (), (0,))], symbols=("zed", "why"))
        text = format_program(p)
        assert "zed" not in text
        assert parse_program(text) == p

    @pytest.mark.parametrize("symbol", ["1x", "x y", "not", "a1"])
    def test_symbol_that_is_not_an_atom_name_falls_back(self, symbol):
        p = Program(1, [Rule(0)], symbols=(symbol,))
        assert format_program(p) == "#universe 1.\na0.\n"
        assert parse_program(format_program(p)) == p

    def test_names_permuted_over_a_symmetric_program_fall_back(self):
        # the named text parses back to the same rules, but with a0 and a1 swapped
        p = Program(2, [pure_rule(0, 1), pure_rule(1, 0)], symbols=("a1", "a0"))
        assert format_program(p) == "#universe 2.\na0 :- not a1.\na1 :- not a0.\n"


class TestRoundTrip:
    def test_generated_programs(self):
        for t in range(200):
            p = generate(LinearModelParams(12, 3.0, 1.0), mix_seed(4, t))
            assert parse_program(format_program(p)) == p

    @given(general_programs())
    @settings(max_examples=120)
    def test_arbitrary_programs(self, p):
        assert parse_program(format_program(p)) == p

    @given(general_programs())
    @settings(max_examples=60)
    def test_format_parse_format_idempotent(self, p):
        text = format_program(p)
        assert format_program(parse_program(text)) == text
