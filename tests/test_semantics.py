"""Essential variables, identities, separability, and the subterm order."""

import random
from itertools import combinations, product

import pytest

from termalg import (
    BudgetError,
    FunctionTable,
    TermError,
    apply_evaluation,
    cp3_set,
    direct_power,
    ess,
    ess_via_lemma35,
    essential_vars,
    induced_operation,
    is_separable,
    is_subterm,
    parse,
    restrict_table,
    satisfies_identity,
    sep_sets,
    subalgebra,
    variables,
)
from termalg import algebra, catalog, kernels
from termalg.algebra import FiniteAlgebra, Operation
from termalg.terms import Apply, Variable

import oracle
from helpers import equivalent_bool2_term, random_term

T1 = "+(*(x1,x2),x3)"
T2 = "+(*(x1,x3),*(x2,neg(x3)))"
# (x1 and x2) or ((not x1) and x2), spelled with xor/and/not
MIX = "+(+(*(x1,x2),*(neg(x1),x2)),*(*(x1,x2),*(neg(x1),x2)))"


class TestEssentialVars:
    def test_masked_first_argument(self, bu):
        table = induced_operation(parse(MIX, bu), bu, 2)
        assert table.values == (0, 1, 0, 1)
        assert essential_vars(table) == {2}

    def test_constant_table(self):
        assert essential_vars(FunctionTable(2, 2, (1, 1, 1, 1))) == frozenset()

    def test_t2_table(self):
        assert essential_vars(FunctionTable(3, 2, (0, 0, 1, 0, 0, 1, 1, 1))) == {1, 2, 3}

    def test_matches_oracle_on_random_tables(self):
        rng = random.Random(31)
        for k, n in ((2, 3), (3, 2), (4, 1)):
            for _ in range(20):
                values = tuple(rng.randrange(k) for _ in range(k**n))
                assert essential_vars(FunctionTable(n, k, values)) == oracle.brute_ess(
                    values, k, n
                )


class TestEss:
    def test_semilattice_terms_depend_on_all_their_variables(self, sl):
        rng = random.Random(41)
        for _ in range(100):
            term = random_term(rng, sl, 4, 4)
            assert ess(term, sl, 4) == _vars(term)

    def test_t1_all_essential(self, bu):
        assert ess(parse(T1, bu), bu, 3) == {1, 2, 3}

    def test_single_element_carrier_has_no_essential_variables(self):
        one = FiniteAlgebra("one", 1, (Operation("f", 2, (0,)),))
        assert ess(parse("x1", {"f": 2}), one, 2) == frozenset()

    def test_subset_of_term_variables(self, bu):
        rng = random.Random(43)
        for _ in range(50):
            term = random_term(rng, bu, 3, 3)
            assert ess(term, bu, 3) <= _vars(term)


def _vars(term):
    from termalg import variables

    return variables(term)


class TestSatisfiesIdentity:
    def test_absorbed_first_variable(self, bu):
        assert satisfies_identity(bu, parse(MIX, bu), parse("x2", bu), 2)

    def test_syntactic_equality(self, bu):
        t = parse(T1, bu)
        assert satisfies_identity(bu, t, t, 3)

    def test_distinct_projections_differ(self, bu):
        assert not satisfies_identity(bu, parse("x1", bu), parse("x2", bu), 2)

    def test_polynomial_identity(self, bu):
        # x + x = 0 as polynomials
        assert satisfies_identity(bu, parse("+(x1,x1)", bu), parse("#0", bu), 1)


class TestLemma35:
    def test_t1_depends_on_x3(self, bu):
        assert ess_via_lemma35(parse(T1, bu), bu, 3, 3)

    def test_masked_variable_is_reported_fictitious(self, bu):
        assert not ess_via_lemma35(parse(MIX, bu), bu, 2, 1)

    def test_absent_variable(self, bu):
        assert not ess_via_lemma35(parse("*(x1,x2)", bu), bu, 3, 3)

    def test_index_out_of_range(self, bu):
        with pytest.raises(TermError):
            ess_via_lemma35(parse("x1", bu), bu, 1, 2)

    def test_agrees_with_ess_membership(self, bu, mod3):
        rng = random.Random(53)
        for alg in (bu, mod3):
            for _ in range(40):
                term = random_term(rng, alg, 3, 3)
                essential = ess(term, alg, 3)
                for i in (1, 2, 3):
                    assert ess_via_lemma35(term, alg, 3, i) == (i in essential)


class TestEvaluationCharacterizations:
    def test_essential_iff_some_restriction_stays_nonconstant(self, bu, chain3):
        rng = random.Random(61)
        for alg in (bu, chain3):
            k = alg.carrier_size
            for _ in range(25):
                term = random_term(rng, alg, 3, 3)
                table = induced_operation(term, alg, 3)
                for i in (1, 2, 3):
                    others = [j for j in (1, 2, 3) if j != i]
                    witness = False
                    for consts in product(range(k), repeat=2):
                        restricted = restrict_table(table, dict(zip(others, consts)))
                        if len(set(restricted.values)) > 1:
                            witness = True
                            break
                    assert witness == (i in essential_vars(table))

    def test_essential_variable_survives_some_partial_evaluation(self, bu):
        rng = random.Random(67)
        for _ in range(40):
            term = random_term(rng, bu, 3, 3)
            essential = ess(term, bu, 3)
            for i in sorted(essential):
                others = [j for j in (1, 2, 3) if j != i]
                rng.shuffle(others)
                subset = others[: rng.randrange(3)]
                hits = [
                    consts
                    for consts in product(range(2), repeat=len(subset))
                    if i in ess(apply_evaluation(term, dict(zip(subset, consts))), bu, 3)
                ]
                assert hits, (term, i, subset)


class TestSeparability:
    def test_paper_pair_over_boolean_ring(self, br):
        assert is_separable(parse(T1, br), br, 3, {1, 2})

    def test_t2_pair_not_separable(self, bu):
        assert not is_separable(parse(T2, bu), bu, 3, {1, 2})

    def test_full_essential_set_always_separable(self, bu):
        term = parse(T1, bu)
        assert is_separable(term, bu, 3, ess(term, bu, 3))

    def test_empty_set_rejected(self, bu):
        with pytest.raises(ValueError, match="nonempty"):
            is_separable(parse(T1, bu), bu, 3, set())

    def test_inessential_member_rejected_by_name(self, bu):
        with pytest.raises(ValueError, match="x3 is not essential"):
            is_separable(parse("*(x1,x2)", bu), bu, 3, {1, 3})

    def test_sep_sets_t1_all_seven(self, bu):
        assert [tuple(sorted(m)) for m in sep_sets(parse(T1, bu), bu, 3)] == [
            (1,),
            (1, 2),
            (1, 2, 3),
            (1, 3),
            (2,),
            (2, 3),
            (3,),
        ]

    def test_sep_sets_t2_all_but_x1x2(self, bu):
        assert [tuple(sorted(m)) for m in sep_sets(parse(T2, bu), bu, 3)] == [
            (1,),
            (1, 2, 3),
            (1, 3),
            (2,),
            (2, 3),
            (3,),
        ]

    def test_constant_term_has_no_separable_sets(self, bu):
        assert sep_sets(parse("+(x1,x1)", bu), bu, 2) == []

    def test_separable_iff_positive_count(self, bu, mod3):
        rng = random.Random(71)
        unit = FiniteAlgebra("unit", 1, (Operation("f", 2, (0,)),))
        for alg in (bu, mod3, unit):
            ops, k = oracle.ops_of(alg), alg.carrier_size
            for _ in range(30):
                term = random_term(rng, alg, 3, 3)
                table = oracle.table_of(term, ops, k, 3)
                essential = oracle.brute_ess(table, k, 3)
                listed = set(sep_sets(term, alg, 3))
                for size in (1, 2, 3):
                    for subset in combinations((1, 2, 3), size):
                        m = frozenset(subset)
                        count = cp3_set(term, alg, 3, m)
                        assert count == oracle.brute_cp3_set(table, k, 3, m)
                        if not m <= essential:
                            assert count == 0
                            with pytest.raises(ValueError, match="is not essential"):
                                is_separable(term, alg, 3, m)
                            continue
                        verdict = is_separable(term, alg, 3, m)
                        assert verdict == (count >= 1)
                        assert verdict == (m in listed)


class TestSubterm:
    def test_product_below_t1(self, bu):
        assert is_subterm(parse("*(x1,x2)", bu), parse(T1, bu), bu, 3)

    def test_reflexive(self, bu):
        t = parse(T1, bu)
        assert is_subterm(t, t, bu, 3)

    def test_reflexive_for_variable_free_terms(self, bu):
        t = parse("+(#1,#1)", bu)
        assert is_subterm(t, t, bu, 2)

    def test_negative_example(self, bu):
        assert not is_subterm(parse("x3", bu), parse("*(x1,x2)", bu), bu, 3)

    @pytest.mark.parametrize("name, n", [("bool2", 4), ("chain3", 3), ("mod3", 3)])
    def test_matches_oracle(self, name, n):
        alg = getattr(catalog, name)()
        ops, k = oracle.ops_of(alg), alg.carrier_size
        rng = random.Random(97)
        # t also depends on a variable outside var(s), drawn apart so the
        # other pairs stay as they were
        widen = random.Random(98)
        symbol = min(sym for sym, arity in alg.signature().items() if arity == 2)
        verdicts, outside_pairs = [], 0
        for round_ in range(60):
            # s may use fewer than n variables, or none at all
            s = random_term(rng, alg, rng.randint(1, n), 3, p_const=0.1)
            vs = sorted(variables(s))
            if round_ % 6 == 0:
                s = apply_evaluation(s, {i: rng.randrange(k) for i in vs})
                vs = []
            chosen = rng.sample(vs, rng.randrange(len(vs))) if vs else []
            substituted = apply_evaluation(s, {i: rng.randrange(k) for i in chosen})
            unrelated = random_term(rng, alg, n, 3, p_const=0.1)
            for t in (substituted, unrelated):
                verdict = is_subterm(t, s, alg, n)
                assert verdict == oracle.brute_is_subterm(t, s, ops, k, n), (t, s)
                verdicts.append(verdict)
            assert verdicts[-2]
            outside = sorted(set(range(1, n + 1)) - set(vs))
            if outside:
                t = Apply(symbol, (substituted, Variable(widen.choice(outside))))
                verdict = is_subterm(t, s, alg, n)
                assert verdict == oracle.brute_is_subterm(t, s, ops, k, n), (t, s)
                if ess(t, alg, n) - set(vs):
                    assert not verdict
                    outside_pairs += 1
        assert not all(verdicts[1::2])
        assert outside_pairs >= 10

    def test_search_leaves_the_variables_of_t_free(self, bu, monkeypatch):
        evaluated = []
        restrict = kernels.restrict

        def counting(values, k, arity, positions, constants):
            evaluated.append({p + 1 for p in positions})
            return restrict(values, k, arity, positions, constants)

        monkeypatch.setattr(kernels, "restrict", counting)
        s = parse(T1, bu)
        # t depends on every variable of s: only the empty evaluation is left
        for text, expected in (("+(x3,*(x2,x1))", True), ("+(x1,+(x2,x3))", False)):
            evaluated.clear()
            assert is_subterm(parse(text, bu), s, bu, 3) == expected
            assert evaluated == [set()]
        rng = random.Random(71)
        covering = 0
        for _ in range(60):
            s = random_term(rng, bu, 4, 3)
            t = random_term(rng, bu, 4, 3)
            evaluated.clear()
            is_subterm(t, s, bu, 4)
            essential = ess(t, bu, 4)
            assert not any(m & essential for m in evaluated)
            if essential >= variables(s):
                assert len(evaluated) <= 1
                covering += 1
        assert covering >= 10

    def test_search_budget(self, bu, monkeypatch):
        # evaluations of the pruned search, the sum of C(p, m) * k**m over
        # the sizes m searched, times the k**n table entries
        chain = "x15"
        for i in range(14, 0, -1):
            chain = f"+(x{i},{chain})"
        message = r"needs up to 3\*\*14 evaluations x 2\*\*15 entries, budget is 100000000$"
        with pytest.raises(BudgetError, match=message):
            is_subterm(parse("x1", bu), parse(chain, bu), bu)
        s = parse(T1, bu)
        # x1 leaves x2 and x3 to evaluate: 3**2 evaluations
        monkeypatch.setattr(algebra, "WORK_BUDGET", 9 * 8)
        assert is_subterm(parse("x1", bu), s, bu, 3)
        monkeypatch.setattr(algebra, "WORK_BUDGET", 9 * 8 - 1)
        with pytest.raises(BudgetError, match=r"3\*\*2 evaluations x 2\*\*3 entries, budget is 71$"):
            is_subterm(parse("x1", bu), s, bu, 3)
        # a constant leaves all of var(s), of which only proper subsets count
        monkeypatch.setattr(algebra, "WORK_BUDGET", (27 - 8) * 8)
        assert is_subterm(parse("#1", bu), s, bu, 3)
        monkeypatch.setattr(algebra, "WORK_BUDGET", (27 - 8) * 8 - 1)
        with pytest.raises(BudgetError, match=r"3\*\*3 - 2\*\*3 evaluations x 2\*\*3 entries"):
            is_subterm(parse("#1", bu), s, bu, 3)

    def test_subterm_implies_sep_containment(self, bu):
        rng = random.Random(83)
        for _ in range(40):
            term = random_term(rng, bu, 3, 3)
            keys = sorted(rng.sample([1, 2, 3], rng.randrange(1, 3)))
            image = apply_evaluation(term, {i: rng.randrange(2) for i in keys})
            if not is_subterm(image, term, bu, 3):
                continue
            assert set(sep_sets(image, bu, 3)) <= set(sep_sets(term, bu, 3))


class TestPreservation:
    def test_identity_implies_equal_ess_and_sep(self, bu):
        rng = random.Random(89)
        for _ in range(60):
            term = random_term(rng, bu, 3, 3)
            other = equivalent_bool2_term(rng, term)
            assert satisfies_identity(bu, term, other, 3)
            assert ess(term, bu, 3) == ess(other, bu, 3)
            assert sep_sets(term, bu, 3) == sep_sets(other, bu, 3)

    def test_subalgebra_shrinks_ess(self, chain3):
        rng = random.Random(97)
        subsets = [{0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2}]
        for _ in range(60):
            term = random_term(rng, chain3, 3, 3)
            sub = subalgebra(chain3, rng.choice(subsets))
            assert ess(term, sub, 3) <= ess(term, chain3, 3)

    def test_direct_power_keeps_ess(self, bu, sl):
        rng = random.Random(101)
        for alg in (bu, sl):
            squared = direct_power(alg, 2)
            for _ in range(30):
                term = random_term(rng, alg, 3, 3)
                assert ess(term, alg, 3) == ess(term, squared, 3)
