"""Essential variables, identities, separable sets, and the subterm order.

All notions are relative to a finite algebra: a variable is essential in
a term when the induced operation actually depends on that input, an
identity holds when both sides induce the same table, and a set M of
essential variables is separable when some assignment of constants to
the other variables leaves exactly M essential.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Optional

from . import kernels
from .algebra import (
    FiniteAlgebra,
    FunctionTable,
    induced_operation,
    _check_cp3_work,
    _check_work,
)
from .errors import TermError
from .terms import Term, max_variable, rename_variables, variables

__all__ = [
    "essential_vars",
    "ess",
    "satisfies_identity",
    "ess_via_lemma35",
    "is_separable",
    "sep_sets",
    "is_subterm",
]


def essential_vars(table: FunctionTable) -> frozenset[int]:
    """The set of argument positions (1-based) the table depends on."""
    mask = kernels.essential_mask(table.values, table.carrier_size, table.arity)
    return kernels.indices_of_mask(mask)


def _context(n: Optional[int], *ts: Term) -> int:
    return max((max_variable(t) for t in ts), default=0) if n is None else n


def ess(term: Term, alg: FiniteAlgebra, n: Optional[int] = None) -> frozenset[int]:
    """Essential variables of a term or polynomial in the algebra.

    Defaults n to the largest variable index; the answer is always a
    subset of variables(term).
    """
    n = _context(n, term)
    return essential_vars(induced_operation(term, alg, n))


def satisfies_identity(alg: FiniteAlgebra, s: Term, t: Term, n: Optional[int] = None) -> bool:
    """Do both sides induce the same n-ary operation on the algebra?"""
    n = _context(n, s, t)
    return induced_operation(s, alg, n).values == induced_operation(t, alg, n).values


def ess_via_lemma35(term: Term, alg: FiniteAlgebra, n: int, i: int) -> bool:
    """Essentiality of x_i decided through identity failure.

    Renames x_i to the fresh variable x_{n+1} and reports whether the
    algebra refutes the identity between the term and its renaming.
    Agrees with membership in ess(term, alg, n).
    """
    if not 1 <= i <= n:
        raise TermError(f"variable index {i} outside 1..{n}")
    # x_{n+1} does not occur in the term, so swapping it with x_i renames x_i
    swap = {**{v: v for v in variables(term)}, i: n + 1, n + 1: i}
    renamed = rename_variables(term, swap)
    return not satisfies_identity(alg, term, renamed, n + 1)


def _check_subset(subset: Iterable[int], n: int) -> frozenset[int]:
    m = frozenset(int(i) for i in subset)
    for i in sorted(m):
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} outside 1..{n}")
    return m


def is_separable(term: Term, alg: FiniteAlgebra, n: int, subset: Iterable[int]) -> bool:
    """Is the set separable: can constants for the other variables leave
    exactly this set essential?

    The set must be a nonempty subset of ess(term, alg, n); anything else
    is a precondition violation and raises ValueError.
    """
    m = _check_subset(subset, n)
    if not m:
        raise ValueError("separability is defined for nonempty variable sets")
    table = induced_operation(term, alg, n)
    essential = essential_vars(table)
    for i in sorted(m):
        if i not in essential:
            raise ValueError(f"x{i} is not essential in the term, so the set is not admissible")
    mask = kernels.mask_of_indices(m)
    return kernels.cp3_count(table.values, alg.carrier_size, n, mask) >= 1


def sep_sets(term: Term, alg: FiniteAlgebra, n: Optional[int] = None) -> list[frozenset[int]]:
    """All separable sets, ordered lexicographically by sorted indices."""
    n = _context(n, term)
    _check_cp3_work(alg.carrier_size, n)
    table = induced_operation(term, alg, n)
    counts = kernels.cp3_counts(table.values, alg.carrier_size, n)
    found = [kernels.indices_of_mask(m) for m in range(1, 1 << n) if counts[m] >= 1]
    return sorted(found, key=lambda s: tuple(sorted(s)))


def is_subterm(t: Term, s: Term, alg: FiniteAlgebra, n: Optional[int] = None) -> bool:
    """Is t a subterm of s in the algebra's sense?

    True when some evaluation of a proper subset M of var(s), the empty
    set included, turns s into a polynomial inducing the same operation
    as t. With M empty this is plain identity, so the relation is
    reflexive.

    An evaluated variable is fictitious in the result, so M avoids
    ess(t): only subsets of var(s) - ess(t) are searched. The search is
    checked against WORK_BUDGET before it starts.
    """
    n = _context(n, s, t)
    k = alg.carrier_size
    target = induced_operation(t, alg, n)
    source = induced_operation(s, alg, n)
    vs = variables(s)
    pool = sorted(vs - essential_vars(target))
    p = len(pool)
    # proper subsets only, but the empty one must stay available when
    # s has no variables at all (reflexivity)
    top = min(p, max(len(vs) - 1, 0))
    # the sum of C(p, m) * k**m over m <= top, where top is p or p - 1
    if top == p:
        evaluations, formula = (k + 1) ** p, f"{k + 1}**{p}"
    else:
        evaluations, formula = (k + 1) ** p - k**p, f"{k + 1}**{p} - {k}**{p}"
    _check_work(
        evaluations * len(source.values),
        f"the subterm search needs up to {formula} evaluations x {k}**{n}",
    )
    width = kernels.lane_width(k, ())
    want = kernels.pack(target.values, width)
    have = kernels.pack(source.values, width)
    for m in range(top + 1):
        for chosen in combinations(pool, m):
            positions = [i - 1 for i in chosen]
            for consts in product(range(k), repeat=m):
                if kernels.restrict(have, k, n, positions, consts) == want:
                    return True
    return False
