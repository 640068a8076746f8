"""Term and polynomial syntax: AST nodes, parsing, printing, substitution.

Concrete grammar (whitespace insignificant):

    term     :=  variable | constant | symbol '(' term (',' term)* ')'
    variable :=  'x' digits          1-based index
    constant :=  '#' digits          carrier value
    symbol   :=  identifier other than a variable token, or a single
                 punctuation glyph registered in the signature

A term without Constant nodes is a plain term; with them it is a
polynomial. `parse` and `print_term` round-trip: parse(print_term(t)) == t.
"""

from __future__ import annotations

from typing import Mapping, Union

from ._record import record
from .errors import ParseError, TermError

__all__ = [
    "Variable",
    "Constant",
    "Apply",
    "Term",
    "parse",
    "print_term",
    "variables",
    "max_variable",
    "is_polynomial",
    "apply_evaluation",
    "rename_variables",
    "map_constants",
]


@record
class Variable:
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise TermError(f"variable index must be >= 1, got {self.index}")


@record
class Constant:
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise TermError(f"constant value must be >= 0, got {self.value}")


@record
class Apply:
    symbol: str
    children: tuple

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))


Term = Union[Variable, Constant, Apply]


def _signature_of(sig) -> Mapping[str, int]:
    getter = getattr(sig, "signature", None)
    return getter() if callable(getter) else dict(sig)


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


class _Parser:
    def __init__(self, text: str, signature: Mapping[str, int]):
        self.text = text
        self.sig = signature
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def digits(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        return self.text[start : self.pos]

    def term(self) -> Term:
        self.skip_ws()
        start = self.pos
        c = self.peek()
        if not c:
            raise ParseError("expected a term", start)
        if c == "#":
            self.pos += 1
            ds = self.digits()
            if not ds:
                raise ParseError("expected digits after '#'", start)
            return Constant(int(ds))
        if _is_ident_start(c):
            while self.pos < len(self.text) and _is_ident_char(self.text[self.pos]):
                self.pos += 1
            name = self.text[start : self.pos]
            if name[0] == "x" and name[1:].isdecimal():
                index = int(name[1:])
                if index < 1:
                    raise ParseError(f"variable index must be >= 1 in {name!r}", start)
                return Variable(index)
            return self.application(name, start)
        if c in "(),":
            raise ParseError("expected a term", start)
        self.pos += 1
        return self.application(c, start)

    def application(self, symbol: str, start: int) -> Term:
        if symbol not in self.sig:
            raise ParseError(f"unknown operation symbol {symbol!r}", start)
        arity = self.sig[symbol]
        self.skip_ws()
        self.expect("(")
        children = [self.term()]
        self.skip_ws()
        while self.peek() == ",":
            self.pos += 1
            children.append(self.term())
            self.skip_ws()
        self.expect(")")
        if len(children) != arity:
            raise ParseError(
                f"{symbol!r} expects {arity} argument(s), got {len(children)}", start
            )
        return Apply(symbol, tuple(children))


def parse(text: str, signature) -> Term:
    """Parse term text against a signature (mapping symbol -> arity)."""
    p = _Parser(text, _signature_of(signature))
    node = p.term()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError("trailing input after term", p.pos)
    return node


def print_term(term: Term) -> str:
    """Canonical text for an AST; inverse of `parse`."""
    if isinstance(term, Variable):
        return f"x{term.index}"
    if isinstance(term, Constant):
        return f"#{term.value}"
    args = ",".join(print_term(c) for c in term.children)
    return f"{term.symbol}({args})"


def variables(term: Term) -> frozenset[int]:
    """Indices of the variables occurring in the term."""
    if isinstance(term, Variable):
        return frozenset((term.index,))
    if isinstance(term, Constant):
        return frozenset()
    out: set[int] = set()
    for c in term.children:
        out |= variables(c)
    return frozenset(out)


def max_variable(term: Term) -> int:
    """Largest variable index occurring in the term; 0 if none."""
    return max(variables(term), default=0)


def is_polynomial(term: Term) -> bool:
    """True if the term contains a Constant node."""
    if isinstance(term, Constant):
        return True
    if isinstance(term, Apply):
        return any(is_polynomial(c) for c in term.children)
    return False


def apply_evaluation(term: Term, evaluation) -> Term:
    """Substitute constants for the assigned variables, leave the rest.

    `evaluation` is an Evaluation or any mapping from variable index to
    carrier value. Unassigned variables pass through, so the result's
    variable set is variables(term) minus the assigned keys.
    """
    assigned = getattr(evaluation, "assigned", evaluation)
    return _substitute(term, assigned)


def _substitute(term: Term, assigned: Mapping[int, int]) -> Term:
    if isinstance(term, Variable):
        if term.index in assigned:
            return Constant(assigned[term.index])
        return term
    if isinstance(term, Constant):
        return term
    return Apply(term.symbol, tuple(_substitute(c, assigned) for c in term.children))


def _as_permutation(sigma) -> dict[int, int]:
    if isinstance(sigma, Mapping):
        mapping = {int(a): int(b) for a, b in sigma.items()}
    else:
        mapping = {i + 1: int(v) for i, v in enumerate(sigma)}
    if set(mapping.keys()) != set(mapping.values()):
        raise TermError(f"not a permutation: {sorted(mapping.items())}")
    return mapping


def rename_variables(term: Term, sigma) -> Term:
    """Apply a variable permutation; sigma maps old index to new index.

    Accepts a mapping or a sequence (position i holds the image of
    x_{i+1}). Every variable of the term must be in sigma's domain.
    """
    mapping = _as_permutation(sigma)

    def go(t: Term) -> Term:
        if isinstance(t, Variable):
            if t.index not in mapping:
                raise TermError(f"permutation does not cover x{t.index}")
            return Variable(mapping[t.index])
        if isinstance(t, Constant):
            return t
        return Apply(t.symbol, tuple(go(c) for c in t.children))

    return go(term)


def map_constants(term: Term, g: Mapping[int, int]) -> Term:
    """Replace every Constant(c) by Constant(g[c]); variables untouched.

    This is a syntactic substitution. The induced operation, and so the
    cp3 report, may change even when g is a bijection: over bool2,
    `+(x2,*(#1,x3))` induces x2 xor x3, and swapping 0 and 1 gives
    `+(x2,*(#0,x3))`, which induces x2. What a map injective on the value
    set preserves is the report of the induced operation with its values
    relabelled by g, not the report of the substituted term.
    """

    def go(t: Term) -> Term:
        if isinstance(t, Constant):
            if t.value not in g:
                raise TermError(f"constant map does not cover #{t.value}")
            return Constant(g[t.value])
        if isinstance(t, Variable):
            return t
        return Apply(t.symbol, tuple(go(c) for c in t.children))

    return go(term)
