"""Concrete syntax, substitution, renaming, and constant remapping."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from termalg import (
    Apply,
    Constant,
    ParseError,
    TermError,
    Variable,
    apply_evaluation,
    map_constants,
    max_variable,
    parse,
    print_term,
    rename_variables,
    variables,
)

import oracle
from helpers import random_term

SIG = {"+": 2, "*": 2, "neg": 1}


def bool2_terms(n_vars=3, with_constants=False):
    leaf = st.builds(Variable, st.integers(min_value=1, max_value=n_vars))
    if with_constants:
        leaf |= st.builds(Constant, st.integers(min_value=0, max_value=1))
    return st.recursive(
        leaf,
        lambda sub: st.one_of(
            st.builds(lambda a, b: Apply("+", (a, b)), sub, sub),
            st.builds(lambda a, b: Apply("*", (a, b)), sub, sub),
            st.builds(lambda a: Apply("neg", (a,)), sub),
        ),
        max_leaves=12,
    )


class TestParse:
    def test_t1(self):
        assert parse("+(*(x1,x2),x3)", SIG) == Apply(
            "+", (Apply("*", (Variable(1), Variable(2))), Variable(3))
        )

    def test_single_variable(self):
        assert parse("x1", SIG) == Variable(1)

    def test_constant(self):
        assert parse("#0", SIG) == Constant(0)

    def test_whitespace_insignificant(self):
        assert parse(" + ( x1 , neg ( x2 ) ) ", SIG) == parse("+(x1,neg(x2))", SIG)

    def test_arity_mismatch(self):
        with pytest.raises(ParseError, match=r"'\+' expects 2"):
            parse("+(x1)", SIG)

    def test_unknown_symbol_with_position(self):
        with pytest.raises(ParseError, match="'or'.*position 0"):
            parse("or(x1,x2)", SIG)

    def test_malformed_constant(self):
        with pytest.raises(ParseError, match="digits after '#'"):
            parse("#", SIG)

    def test_non_decimal_digit_after_hash(self):
        with pytest.raises(ParseError, match="digits after '#'.*position 0"):
            parse("#\u00b2", SIG)

    def test_non_decimal_digit_variable_is_a_symbol(self):
        with pytest.raises(ParseError, match="unknown operation symbol 'x\u00b2'"):
            parse("x\u00b2", SIG)

    def test_zero_variable_index(self):
        with pytest.raises(ParseError, match="x0"):
            parse("x0", SIG)

    def test_trailing_input(self):
        with pytest.raises(ParseError, match="trailing"):
            parse("x1 x2", SIG)

    def test_missing_close_paren(self):
        with pytest.raises(ParseError, match=r"expected '\)'"):
            parse("+(x1,x2", SIG)

    def test_identifier_symbols_and_glyphs(self):
        sig = {"nand": 2, "^": 2}
        t = parse("nand(^(x1,x2),x1)", sig)
        assert t == Apply("nand", (Apply("^", (Variable(1), Variable(2))), Variable(1)))

    def test_signature_from_algebra(self, bu):
        assert parse("neg(x1)", bu) == Apply("neg", (Variable(1),))


class TestPrint:
    @given(term=bool2_terms(with_constants=True))
    @settings(max_examples=150, deadline=None)
    def test_parse_print_round_trip(self, term):
        assert parse(print_term(term), SIG) == term

    def test_print_parse_canonicalizes(self):
        assert print_term(parse("  +( x1 ,#1 ) ", SIG)) == "+(x1,#1)"


class TestApplyEvaluation:
    def test_example(self):
        t1 = parse("+(*(x1,x2),x3)", SIG)
        assert apply_evaluation(t1, {3: 0}) == parse("+(*(x1,x2),#0)", SIG)

    def test_empty_assignment_is_identity(self):
        t1 = parse("+(*(x1,x2),x3)", SIG)
        assert apply_evaluation(t1, {}) == t1

    @given(term=bool2_terms(), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_idempotent_and_variable_set(self, term, data):
        assigned = data.draw(
            st.dictionaries(st.integers(1, 3), st.integers(0, 1), max_size=3)
        )
        once = apply_evaluation(term, assigned)
        assert apply_evaluation(once, assigned) == once
        assert variables(once) == variables(term) - set(assigned)


class TestRenameVariables:
    def test_example_swap(self):
        t1 = parse("+(*(x1,x2),x3)", SIG)
        assert rename_variables(t1, {1: 3, 2: 2, 3: 1}) == parse("+(*(x3,x2),x1)", SIG)

    def test_identity(self):
        t = parse("neg(x2)", SIG)
        assert rename_variables(t, [1, 2]) == t

    def test_sequence_form(self):
        assert rename_variables(parse("x1", SIG), [2, 1]) == Variable(2)

    def test_composition(self, bu):
        rng = random.Random(5)
        for _ in range(50):
            term = random_term(rng, bu, 3, 3)
            sigma = [1, 2, 3]
            rho = [1, 2, 3]
            rng.shuffle(sigma)
            rng.shuffle(rho)
            composed = {i + 1: sigma[rho[i] - 1] for i in range(3)}
            assert rename_variables(term, composed) == rename_variables(
                rename_variables(term, rho), sigma
            )

    def test_not_a_permutation(self):
        with pytest.raises(TermError, match="not a permutation"):
            rename_variables(parse("x1", SIG), {1: 2, 2: 2})

    def test_uncovered_variable(self):
        with pytest.raises(TermError, match="cover x2"):
            rename_variables(parse("x2", SIG), {1: 1})


class TestMapConstants:
    def test_example(self):
        p = parse("+(x1,#0)", SIG)
        assert map_constants(p, {0: 1, 1: 0}) == parse("+(x1,#1)", SIG)

    def test_identity_map(self):
        p = parse("+(x1,#0)", SIG)
        assert map_constants(p, {0: 0, 1: 1}) == p

    def test_variables_untouched(self):
        p = parse("+(x1,x2)", SIG)
        assert map_constants(p, {0: 1, 1: 0}) == p

    def test_missing_value_rejected(self):
        with pytest.raises(TermError, match="#1"):
            map_constants(parse("#1", SIG), {0: 0})


class TestQueries:
    def test_variables_and_max(self):
        t = parse("+(*(x1,x5),#1)", SIG)
        assert variables(t) == {1, 5}
        assert max_variable(t) == 5
        assert max_variable(parse("#0", SIG)) == 0

    def test_ast_nodes_validate(self):
        with pytest.raises(TermError):
            Variable(0)
        with pytest.raises(TermError):
            Constant(-1)

    def test_oracle_and_library_agree_on_syntax_tree(self, bu):
        # same AST, two interpreters: recursion in the oracle, tables here
        t = parse("+(*(x1,x2),neg(x3))", bu)
        ops = oracle.ops_of(bu)
        assert oracle.eval_term(t, (1, 1, 1), ops) == 1
