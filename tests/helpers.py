"""Shared generators for randomized and exhaustive term tests."""

import random
from itertools import product

from termalg.algebra import FiniteAlgebra, Operation
from termalg.terms import Apply, Constant, Variable


def random_term(rng, alg, n_vars, depth, p_const=0.0):
    """Random AST over the algebra's signature with variables x1..x{n_vars}.

    With p_const > 0, leaves may be constants of the algebra's carrier,
    producing a polynomial.
    """
    sig = sorted(alg.signature().items())
    if depth == 0 or rng.random() < 0.3:
        if p_const and rng.random() < p_const:
            return Constant(rng.randrange(alg.carrier_size))
        return Variable(rng.randint(1, n_vars))
    symbol, arity = rng.choice(sig)
    children = tuple(
        random_term(rng, alg, n_vars, depth - 1, p_const) for _ in range(arity)
    )
    return Apply(symbol, children)


def wide_lane_algebras():
    """A ternary sum on 7 elements and successor on 257 elements: their
    7**3 operation-table indices and 257 carrier values do not fit in one
    byte per entry."""
    sum7 = FiniteAlgebra(
        "sum7",
        7,
        (Operation("s", 3, tuple(sum(t) % 7 for t in product(range(7), repeat=3))),),
    )
    succ257 = FiniteAlgebra(
        "succ257", 257, (Operation("succ", 1, tuple((a + 1) % 257 for a in range(257))),)
    )
    return sum7, succ257


def equivalent_bool2_term(rng, term):
    """A syntactically different term inducing the same bool2 operation.

    Wraps with double negation, xor with x1+x1, or and-idempotence.
    """
    wrapped = term
    for _ in range(rng.randint(1, 3)):
        choice = rng.randrange(3)
        if choice == 0:
            wrapped = Apply("neg", (Apply("neg", (wrapped,)),))
        elif choice == 1:
            zero = Apply("+", (Variable(1), Variable(1)))
            wrapped = Apply("+", (wrapped, zero))
        else:
            wrapped = Apply("*", (wrapped, wrapped))
    return wrapped


def equivalent_mod3_term(rng, term, other):
    """A syntactically different term equal to `term` over mod3.

    Uses lattice idempotence and absorption; `other` feeds the absorbed
    side.
    """
    wrapped = term
    for _ in range(rng.randint(1, 3)):
        choice = rng.randrange(4)
        if choice == 0:
            wrapped = Apply("min", (wrapped, wrapped))
        elif choice == 1:
            wrapped = Apply("max", (wrapped, wrapped))
        elif choice == 2:
            wrapped = Apply("min", (wrapped, Apply("max", (wrapped, other))))
        else:
            wrapped = Apply("max", (wrapped, Apply("min", (wrapped, other))))
    return wrapped


def terms_by_op_count(alg, n_vars, max_ops):
    """All terms with at most max_ops operation symbols, by exact count.

    Returns a list L with L[c] = list of terms having exactly c operation
    symbols; subtrees are shared between entries.
    """
    sig = sorted(alg.signature().items())
    levels = [[Variable(i) for i in range(1, n_vars + 1)]]
    for c in range(1, max_ops + 1):
        level = []
        for symbol, arity in sig:
            if arity == 1:
                level.extend(Apply(symbol, (t,)) for t in levels[c - 1])
            elif arity == 2:
                for i in range(c):
                    for a in levels[i]:
                        for b in levels[c - 1 - i]:
                            level.append(Apply(symbol, (a, b)))
            else:
                raise NotImplementedError("only arities 1 and 2 are enumerated")
        levels.append(level)
    return levels
