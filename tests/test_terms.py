"""Concrete syntax, substitution, renaming, and constant remapping."""

import random
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from termalg import (
    Apply,
    Constant,
    ParseError,
    TermError,
    Variable,
    apply_evaluation,
    catalog,
    clone_level,
    cp1,
    cp2,
    ess_via_lemma35,
    induced_operation,
    map_constants,
    max_variable,
    parse,
    print_term,
    rename_variables,
    variables,
)
from termalg.terms import is_polynomial, nodes

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

    @pytest.mark.parametrize(
        "text, position",
        [("x" + "9" * 5000, 0), ("+(x1,#" + "9" * 5000 + ")", 5), ("+(x1,#" + "9" * 5000, 5)],
    )
    def test_huge_number_is_a_parse_error(self, text, position):
        with pytest.raises(ParseError) as caught:
            parse(text, SIG)
        assert str(caught.value) == f"number of 5000 digits is too long (at position {position})"
        assert caught.value.position == position

    def test_zeros_in_front_of_a_number_are_not_counted(self):
        zeros = "0" * 5000
        term = parse(f"+(x{zeros}1,#\u0966{zeros}1)", SIG)
        assert term == Apply("+", (Variable(1), Constant(1)))

    def test_deep_nesting_parses_without_recursion(self):
        depth = 100_000
        start = time.perf_counter()
        node = parse("neg(" * depth + "x1" + ")" * depth, SIG)
        # linear work takes well under a second; quadratic work, minutes
        assert time.perf_counter() - start < 5
        for _ in range(depth):
            assert node.symbol == "neg" and len(node.children) == 1
            (node,) = node.children
        assert node == Variable(1)

    def test_deep_nesting_with_a_syntax_error(self):
        depth = 100_000
        text = "neg(" * depth + "x1" + ")" * (depth - 1)
        with pytest.raises(ParseError, match=rf"expected '\)' \(at position {len(text)}\)"):
            parse(text, SIG)


# The differential test: parse against the recursive-descent parser it
# replaced, kept in the oracle, on grammar texts over small signatures and
# on their mutations.
_SYMBOLS = ["f", "g", "neg", "_h", "x", "ab1", "+", "*", "\u00b2", "\u0967"]
_LEAVES = ["x1", "x2", "x12", "x01", "#0", "#1", "#10", "x\u0967", "#\u0967"]
_SPACES = st.sampled_from(["", "", " ", "\t", "\xa0", "\u2003"])
_ALPHABET = "(),#_0123456789\u00b2\u0967abfgnx+* \t\xa0\u2003"


@st.composite
def _mutated_terms(draw):
    sig = draw(
        st.dictionaries(st.sampled_from(_SYMBOLS), st.integers(1, 3), min_size=1, max_size=3)
    )

    def term(depth):
        if depth == 0 or draw(st.booleans()):
            return draw(st.sampled_from(_LEAVES))
        symbol = draw(st.sampled_from(sorted(sig)))
        children = [draw(_SPACES) + term(depth - 1) for _ in range(sig[symbol])]
        return symbol + draw(_SPACES) + "(" + ",".join(children) + draw(_SPACES) + ")"

    text = list(term(3))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["insert", "delete", "swap"]))
        at = draw(st.integers(0, len(text)))
        if kind == "insert":
            text.insert(at, draw(st.sampled_from(_ALPHABET)))
        elif text:
            at = min(at, len(text) - 1)
            if kind == "delete":
                del text[at]
            else:
                other = draw(st.integers(0, len(text) - 1))
                text[at], text[other] = text[other], text[at]
    return "".join(text), sig


def _outcome(parser, text, sig):
    try:
        return parser(text, sig)
    except ParseError as exc:
        return str(exc), exc.position


class TestAgainstReferenceParser:
    @given(_mutated_terms())
    @settings(max_examples=500, deadline=None)
    def test_same_tree_or_same_error(self, case):
        text, sig = case
        try:
            want = _outcome(oracle.reference_parse, text, sig)
        except RecursionError:
            assume(False)
        assert _outcome(parse, text, sig) == want

    @pytest.mark.parametrize(
        "text",
        [
            "", "  ", "(", "x1(", "x1 (x2)", "+(x1(x2),x3)", "neg x1", "neg(x1", "neg(x1,)",
            "neg(,x1)", "+(x1)", "#", "#a", "#1a", "x0", "x00(x1)", "x", "xy", "neg(x1)x2",
            "neg(x1) x2", "+x1", "x1+", "\u00b2(x1)", "a-b(x1)", "c(x1)", "#(x1)", "((x1))",
        ],
    )
    def test_edge_cases(self, text):
        sig = {**SIG, "x": 1, "\u00b2": 1, "a-b": 1, "c": 0, "#": 1, "(": 1, "x1": 1}
        assert _outcome(parse, text, sig) == _outcome(oracle.reference_parse, text, sig)


class TestPrint:
    @given(term=bool2_terms(with_constants=True))
    @settings(max_examples=150, deadline=None)
    def test_parse_print_round_trip(self, term):
        assert parse(print_term(term), SIG) == term

    def test_print_parse_canonicalizes(self):
        assert print_term(parse("  +( x1 ,#1 ) ", SIG)) == "+(x1,#1)"

    def test_application_without_arguments(self):
        assert print_term(Apply("f", ())) == "f()"
        assert print_term(Apply("g", (Apply("f", ()), Variable(2)))) == "g(f(),x2)"

    def test_subclasses_of_leaves_print_as_their_base(self):
        # a leaf prints by its base class's text, and repr() by its own
        var, const = type("Var", (Variable,), {})(1), type("Const", (Constant,), {})(0)
        term = Apply("+", (var, Apply("neg", (const,))))
        assert print_term(term) == "+(x1,neg(#0))"
        assert repr(term) == "Apply(symbol='+', children=(Var(index=1), Apply(symbol='neg', children=(Const(value=0),))))"

    def test_apply_takes_no_subclass(self):
        with pytest.raises(TypeError, match="no subclass"):
            type("App", (Apply,), {})

    def test_deep_nesting_prints_without_recursion(self):
        text = "+(" * 50_000 + "x1" + ",neg(#1))" * 50_000
        assert print_term(parse(text, SIG)) == text


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

    def test_variables_of_a_deep_term_without_recursion(self):
        depth = 100_000
        t = parse("+(" * depth + "x3" + ",x7)" * depth, SIG)
        assert variables(t) == {3, 7}
        assert max_variable(t) == 7

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


class TestWalks:
    """No walk of a term recurses: each answers on a term 100,000 levels
    deep, and the substitutions raise the leftmost error."""

    # over bool2, +(a, #0) is a and *(x2, #0) is 0, so the deep term
    # induces x1
    DEPTH = 100_000
    TEXT = "+(" * DEPTH + "+(x1,*(x2,#0))" + ",#0)" * DEPTH

    @pytest.fixture(scope="class")
    def deep(self):
        return parse(self.TEXT, SIG)

    def test_counts(self, deep):
        assert len(nodes(deep)) == 2 * self.DEPTH + 5
        assert (cp1(deep), cp2(deep)) == (2, self.DEPTH + 2)
        assert is_polynomial(deep)
        assert not is_polynomial(parse("+(" * self.DEPTH + "x1" + ",x2)" * self.DEPTH, SIG))

    def test_substitutions(self, deep):
        text = self.TEXT
        assert print_term(apply_evaluation(deep, {1: 1})) == text.replace("x1", "#1")
        swapped = text.replace("x1", "x3").replace("x2", "x1").replace("x3", "x2")
        assert print_term(rename_variables(deep, {1: 2, 2: 1})) == swapped
        assert print_term(map_constants(deep, {0: 1, 1: 0})) == text.replace("#0", "#1")

    def test_compare_hash_print(self, deep):
        twin = parse(self.TEXT, SIG)
        assert twin is not deep and twin == deep and not twin != deep
        assert hash(twin) == hash(deep)
        # one constant changed at the bottom, and one at the top
        assert parse(self.TEXT.replace("#0)", "#1)", 1), SIG) != deep
        assert parse(self.TEXT[::-1].replace(")0#", ")1#", 1)[::-1], SIG) != deep
        assert deep != parse("x1", SIG) and deep != self.TEXT
        inner = repr(parse("+(x1,*(x2,#0))", SIG))
        outer = "Apply(symbol='+', children=("
        assert repr(deep) == outer * self.DEPTH + inner + ", Constant(value=0)))" * self.DEPTH

    def test_equality_reads_child_counts(self):
        # the same symbols and leaves in level order; only the child counts
        # of g and h differ
        a = parse("f(g(x1),h(x2,x3))", {"f": 2, "g": 1, "h": 2})
        b = parse("f(g(x1,x2),h(x3))", {"f": 2, "g": 2, "h": 1})
        assert [getattr(t, "symbol", t) for t in nodes(a)] == [getattr(t, "symbol", t) for t in nodes(b)]
        assert a != b and b != a and not a == b

    def test_shared_subterms_compare_and_hash_as_copies(self):
        # the clone's witnesses share their arguments' terms; each copy is
        # rebuilt node by node, and shares no application
        witnesses = clone_level(catalog.bool2(), 3).witnesses
        children = [id(c) for w in witnesses if type(w) is Apply for c in w.children]
        assert len(set(children)) < len(children)
        copies = [apply_evaluation(w, {}) for w in witnesses]
        for w, c in zip(witnesses, copies):
            assert w == c and c == w and hash(w) == hash(c) and repr(w) == repr(c)
        assert len(set(witnesses) | set(copies)) == len(witnesses)

    def test_tabulation(self, bu, deep):
        assert induced_operation(deep, bu, 2).values == (0, 0, 1, 1)
        assert ess_via_lemma35(deep, bu, 2, 1)
        assert not ess_via_lemma35(deep, bu, 2, 2)

    @given(term=bool2_terms(with_constants=True))
    @settings(max_examples=100, deadline=None)
    def test_counts_are_those_of_the_text(self, term):
        text = print_term(term)
        assert len(nodes(term)) == text.count("x") + text.count("#") + text.count("(")
        assert (cp1(term), cp2(term)) == (text.count("x"), text.count("("))
        assert is_polynomial(term) == ("#" in text)

    def test_application_without_arguments(self):
        assert apply_evaluation(Apply("f", ()), {}) == Apply("f", ())
        term = Apply("g", (Apply("f", ()), Variable(2)))
        assert print_term(apply_evaluation(term, {2: 0})) == "g(f(),#0)"

    def test_substitutions_raise_the_leftmost_error(self):
        term = Apply("+", (Variable(4), Apply("neg", (Constant(5),)), Variable(3), Constant(6)))
        with pytest.raises(TermError, match="cover x4$"):
            rename_variables(term, {1: 2, 2: 1})
        with pytest.raises(TermError, match="cover #5$"):
            map_constants(term, {0: 0, 1: 1})
