"""Term and polynomial syntax: AST nodes, parsing, printing, substitution.

Concrete grammar (whitespace insignificant):

    term     :=  variable | constant | symbol '(' term (',' term)* ')'
    variable :=  'x' digits          1-based index
    constant :=  '#' digits          carrier value
    symbol   :=  identifier other than a variable token, or a single
                 punctuation glyph registered in the signature

A term without Constant nodes is a plain term; with them it is a
polynomial. `parse` and `print_term` round-trip: parse(print_term(t)) == t.

`parse` reads the text in one scan. Three replaces and a split, all in C,
cut it into words, and one loop walks the words with an explicit stack of
open applications, building the nodes without their checks, which the
scan has made. The first error, with its message and position, is the
one a left-to-right recursive descent over the grammar meets; positions
are worked out only when there is an error. No term function recurses:
each walks an explicit stack, so that a term of any depth is handled.
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
    "nodes",
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
    """An application. Its equality, hash and repr answer as the record's
    do, read off the walks of `nodes` and `print_term`, so that a term of
    any depth compares, hashes and prints. It takes no subclass: the walks
    open `type(node) is Apply` only, and would read one as a leaf."""

    symbol: str
    children: tuple

    def __init_subclass__(cls, **kwargs):
        raise TypeError("Apply takes no subclass: the term walks open Apply itself only")

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))

    def __eq__(self, other):
        if type(other) is not Apply:
            return NotImplemented
        if other is self:
            return True
        # level order with each application's child count fixes the tree
        for a, b in zip(nodes(self), nodes(other)):
            if type(a) is not Apply:
                if a is not b and a != b:
                    return False
            elif type(b) is not Apply or a.symbol != b.symbol or len(a.children) != len(b.children):
                return False
        return True

    def __hash__(self):
        # hash((symbol, children)) from the leaves up, which reversed level
        # order visits first; an application child stands in by its hash
        hashes = {}
        for node in reversed(nodes(self)):
            if type(node) is Apply:
                children = tuple(map(hashes.get, map(id, node.children), node.children))
                hashes[id(node)] = _Hashed(hash((node.symbol, children)))
        return hashes[id(self)]

    def __repr__(self):
        return _emit(self, False)


class _Hashed(int):
    """Hashes as the hash it holds, which hash() returns unchanged."""

    __hash__ = int.__index__  # the value held, as a plain int


Term = Union[Variable, Constant, Apply]
_END_ONE, _END = object(), object()  # where `_emit` ends an application of one child, or another


def _signature_of(sig) -> Mapping[str, int]:
    getter = getattr(sig, "signature", None)
    return getter() if callable(getter) else dict(sig)


def _symbol_word(word: str) -> bool:
    """Is the word one operation symbol token: an identifier that is not
    a variable, or one glyph?"""
    if len(word) == 1:
        return word not in "#(),"
    return (
        (word[0].isalpha() or word[0] == "_")
        and word.replace("_", "a").isalnum()
        and not (word[0] == "x" and word[1:].isdecimal())
    )


def _decimal(digits: str) -> int:
    """int(digits) of decimal digits in any script. When int() refuses
    the length, the zeros in front are dropped and it is asked again, so
    that ValueError means a value of more digits than int() converts."""
    try:
        return int(digits)
    except ValueError:
        return int(digits.lstrip("".join(c for c in set(digits) if not int(c))) or "0")


def _leaf(word: str):
    """The Variable or Constant the word is, else None."""
    if not word[1:].isdecimal() or word[0] not in "x#":
        return None
    try:
        value = _decimal(word[1:])
    except ValueError:
        return None
    if word[0] == "x" and not value:
        return None
    cls, field = (Variable, "index") if word[0] == "x" else (Constant, "value")
    node = cls.__new__(cls)
    node.__dict__[field] = value
    return node


def parse(text: str, signature) -> Term:
    """Parse term text against a signature (mapping symbol -> arity).

    Three replaces and a split, all in C, cut the text into words: '(',
    ',', ')' and the runs between them and whitespace. A loop walks the
    words with an explicit stack of open applications, so that no depth
    of nesting recurses. Text positions are worked out only for an error.
    """
    sig = _signature_of(signature)
    words = text.replace("(", " ( ").replace(",", " , ").replace(")", " ) ").split()
    end = len(words)
    words += "", ""  # no word is empty: the scan reads past the end safely
    leaves: dict = {}  # word -> its Variable or Constant, in this call
    symbols: dict = {}  # word -> arity of the operation symbols met
    stack = []  # open applications: (symbol, arity, word index, outer children)
    children = None  # of the innermost open application; None at the top
    new = Apply.__new__
    i = 0
    while True:
        # a term starts at word i
        word = words[i]
        if words[i + 1] == "(":
            arity = symbols.get(word)
            if arity is None:
                if word not in sig or not _symbol_word(word):
                    _term_error(text, words, i, sig, children is not None)
                arity = symbols[word] = sig[word]
            stack.append((word, arity, i, children))
            children = []
            i += 2
            continue
        node = leaves.get(word)
        if node is None:
            node = leaves[word] = _leaf(word)
            if node is None:
                _term_error(text, words, i, sig, children is not None)
        i += 1
        # a term ends before word i
        while True:
            if children is None:
                if i != end:
                    raise ParseError("trailing input after term", _start(text, words, i))
                return node
            children.append(node)
            word = words[i]
            if word == ",":
                i += 1
                break
            if word != ")":
                raise ParseError("expected ')'", _start(text, words, i))
            symbol, arity, at, outer = stack.pop()
            if len(children) != arity:
                raise ParseError(
                    f"{symbol!r} expects {arity} argument(s), got {len(children)}",
                    _start(text, words, at),
                )
            node = new(Apply)
            fields = node.__dict__
            fields["symbol"], fields["children"] = symbol, tuple(children)
            children = outer
            i += 1


def _start(text: str, words: list, i: int) -> int:
    """Position in the text of word i; the text's length past the last."""
    pos = 0
    for word in words[:i]:
        pos = text.find(word, pos) + len(word)
    return text.find(words[i], pos) if words[i] else len(text)


def _term_error(text: str, words: list, i: int, sig, inside: bool):
    """Raise the ParseError of the term that should start at word i but
    that the scan could not read: lex its first token a character at a
    time and report what it is or what follows it. `inside` tells
    whether an application is open."""
    start = pos = _start(text, words, i)
    c = text[pos : pos + 1]
    if not c or c in "(),":
        raise ParseError("expected a term", start)
    if c == "#" or c.isalpha() or c == "_":
        pos += 1
        while pos < len(text) and (
            text[pos].isdecimal() if c == "#" else text[pos].isalnum() or text[pos] == "_"
        ):
            pos += 1
        token = text[start:pos]
        if c == "#" and pos == start + 1:
            raise ParseError("expected digits after '#'", start)
        if c == "#" or c == "x" and token[1:].isdecimal():
            try:
                value = _decimal(token[1:])
            except ValueError:
                digits = pos - start - 1
                raise ParseError(f"number of {digits} digits is too long", start) from None
            if c == "x" and value < 1:
                raise ParseError(f"variable index must be >= 1 in {token!r}", start)
            # a leaf, and another token follows it
            message = "expected ')'" if inside else "trailing input after term"
            raise ParseError(message, len(text) - len(text[pos:].lstrip()))
    else:
        token = c
        pos += 1
    if token not in sig:
        raise ParseError(f"unknown operation symbol {token!r}", start)
    raise ParseError("expected '('", len(text) - len(text[pos:].lstrip()))


def print_term(term: Term) -> str:
    """Canonical text for an AST; inverse of `parse`."""
    return _emit(term, True)


def _emit(term: Term, plain: bool) -> str:
    """The text of a term: `print_term`'s if plain, else the record repr
    of its applications. The nodes, and each application's end behind its
    children, wait on an explicit stack, so that any depth prints; each
    text is followed by the separator, which an end overwrites."""
    head, symbol, opening, sep, end, end_one, variable, constant = (
        ("", str, "(", ",", ")", ")", Variable, Constant) if plain  # else leaves print by repr
        else ("Apply(symbol=", repr, ", children=(", ", ", "))", ",))", (), ())
    )
    out, stack = [], [term]
    while stack:
        node = stack.pop()
        if type(node) is Apply:
            out.append(f"{head}{symbol(node.symbol)}{opening}")
            children = node.children
            if children:
                stack.append(_END_ONE if len(children) == 1 else _END)
                stack += children[::-1]
            else:
                out += (end, sep)
        elif node is _END:
            out[-1] = end
            out.append(sep)
        elif node is _END_ONE:
            out[-1] = end_one
            out.append(sep)
        elif isinstance(node, variable):
            out += (f"x{node.index}", sep)
        elif isinstance(node, constant):
            out += (f"#{node.value}", sep)
        else:
            out += (repr(node), sep)
    out.pop()
    return "".join(out)


def nodes(term: Term) -> list:
    """Every node of the term, level by level, read from a list as it grows."""
    out = [term]
    for node in out:
        if type(node) is Apply:
            out += node.children
    return out


def variables(term: Term) -> frozenset[int]:
    """Indices of the variables occurring in the term."""
    return frozenset([t.index for t in nodes(term) if type(t) is Variable])


def max_variable(term: Term) -> int:
    """Largest variable index occurring in the term; 0 if none."""
    return max(variables(term), default=0)


def is_polynomial(term: Term) -> bool:
    """True if the term contains a Constant node."""
    return any(type(t) is Constant for t in nodes(term))


def _rebuild(term: Term, leaf) -> Term:
    """The term with each leaf replaced by leaf(node), the leaves met left
    to right, so that `leaf` raises the leftmost error. An application
    waits on the stack as a one-tuple until its children are rebuilt; the
    new nodes are built without their checks, as `parse` builds them."""
    done, stack = [], [term]
    new = Apply.__new__
    while stack:
        node = stack.pop()
        if type(node) is Apply:
            stack += [(node,), *node.children[::-1]]
        elif type(node) is tuple:
            at = len(done) - len(node[0].children)
            built = new(Apply)
            fields = built.__dict__
            fields["symbol"], fields["children"] = node[0].symbol, tuple(done[at:])
            done[at:] = [built]
        else:
            done.append(leaf(node))
    return done[0]


def apply_evaluation(term: Term, evaluation) -> Term:
    """Substitute constants for the assigned variables, leave the rest.

    `evaluation` is an Evaluation or any mapping from variable index to
    carrier value. Unassigned variables pass through, so the result's
    variable set is variables(term) minus the assigned keys.
    """
    assigned = getattr(evaluation, "assigned", evaluation)

    def leaf(t: Term) -> Term:
        if type(t) is Variable and t.index in assigned:
            return Constant(assigned[t.index])
        return t

    return _rebuild(term, leaf)


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

    def leaf(t: Term) -> Term:
        if type(t) is not Variable:
            return t
        if t.index not in mapping:
            raise TermError(f"permutation does not cover x{t.index}")
        return Variable(mapping[t.index])

    return _rebuild(term, leaf)


def map_constants(term: Term, g: Mapping[int, int]) -> Term:
    """Replace every Constant(c) by Constant(g[c]); variables untouched.

    This is a syntactic substitution. The induced operation, and so the
    cp3 report, may change even when g is a bijection: over bool2,
    `+(x2,*(#1,x3))` induces x2 xor x3, and swapping 0 and 1 gives
    `+(x2,*(#0,x3))`, which induces x2. What a map injective on the value
    set preserves is the report of the induced operation with its values
    relabelled by g, not the report of the substituted term.
    """

    def leaf(t: Term) -> Term:
        if type(t) is not Constant:
            return t
        if t.value not in g:
            raise TermError(f"constant map does not cover #{t.value}")
        return Constant(g[t.value])

    return _rebuild(term, leaf)
