"""Independent brute-force oracle used to cross-check the library.

Deliberately naive and separate from the implementation under test:
terms are evaluated by direct recursion over argument tuples, essential
variables are found by enumerating axis-aligned pairs of tuples, and the
cp3 counts come from nested loops over subsets and constant assignments.
"""

from itertools import combinations, product
from math import comb
from typing import Mapping

from termalg.errors import ParseError
from termalg.terms import Apply, Constant, Term, Variable


def idx(args, k):
    r = 0
    for a in args:
        r = r * k + a
    return r


def ops_of(alg):
    """symbol -> python function, built from the raw operation tables."""
    k = alg.carrier_size

    def make(table):
        def fn(*args):
            return table[idx(args, k)]

        return fn

    return {op.symbol: make(tuple(op.table)) for op in alg.operations}


def eval_term(node, args, ops):
    if isinstance(node, Variable):
        return args[node.index - 1]
    if isinstance(node, Constant):
        return node.value
    return ops[node.symbol](*(eval_term(c, args, ops) for c in node.children))


def table_of(node, ops, k, n):
    """Tabulate by direct recursive interpretation on every tuple."""
    return tuple(eval_term(node, a, ops) for a in product(range(k), repeat=n))


def brute_direct_power(alg, m):
    """Carrier size and tables of the m-th direct power by its definition:
    an element is an m-tuple, listed first coordinate most significant,
    and each operation acts on every coordinate."""
    k = alg.carrier_size
    elements = list(product(range(k), repeat=m))
    tables = []
    for op in alg.operations:
        table = []
        for args in product(elements, repeat=op.arity):
            out = tuple(op.table[idx([a[j] for a in args], k)] for j in range(m))
            table.append(elements.index(out))
        tables.append(tuple(table))
    return len(elements), tables


def brute_ess(table, k, n):
    ess = set()
    for i in range(1, n + 1):
        for a in product(range(k), repeat=n):
            for v in range(k):
                b = list(a)
                b[i - 1] = v
                if table[idx(a, k)] != table[idx(b, k)]:
                    ess.add(i)
    return frozenset(ess)


def brute_restrict(table, k, n, assigned):
    out = []
    for a in product(range(k), repeat=n):
        b = list(a)
        for i, c in assigned.items():
            b[i - 1] = c
        out.append(table[idx(b, k)])
    return tuple(out)


def brute_cp3_set(table, k, n, subset):
    outside = sorted(set(range(1, n + 1)) - set(subset))
    count = 0
    for consts in product(range(k), repeat=len(outside)):
        restricted = brute_restrict(table, k, n, dict(zip(outside, consts)))
        if brute_ess(restricted, k, n) == frozenset(subset):
            count += 1
    return count


def term_variables(node):
    if isinstance(node, Variable):
        return {node.index}
    if isinstance(node, Constant):
        return set()
    return set().union(*(term_variables(c) for c in node.children))


def brute_is_subterm(t, s, ops, k, n):
    """Is the table of t a restriction of the table of s by an evaluation
    of a proper subset of var(s)? The empty evaluation always counts."""
    target = table_of(t, ops, k, n)
    source = table_of(s, ops, k, n)
    vs = sorted(term_variables(s))
    # value k leaves a variable free, and one must stay free when var(s) is not empty
    for choice in product(range(k + 1), repeat=len(vs)):
        if vs and k not in choice:
            continue
        assigned = {i: c for i, c in zip(vs, choice) if c < k}
        if brute_restrict(source, k, n, assigned) == target:
            return True
    return False


def brute_cp3_report(table, k, n):
    """(per-set dict keyed by frozenset, total)."""
    per = {}
    for m in range(1, n + 1):
        for subset in combinations(range(1, n + 1), m):
            per[frozenset(subset)] = brute_cp3_set(table, k, n, subset)
    return per, sum(per.values())


def all_tables(k, n):
    """Every function A^n -> A as a flat table, lexicographic order."""
    return (tuple(vals) for vals in product(range(k), repeat=k**n))


def brute_census_all_functions(k, n):
    """(total, histogram) of cp3 summed over every n-ary function."""
    hist = {}
    total = 0
    for table in all_tables(k, n):
        _, t = brute_cp3_report(table, k, n)
        hist[t] = hist.get(t, 0) + 1
        total += t
    return total, hist


def census_total_all_functions(k, n):
    """Closed form of the cp3 total summed over every n-ary function on
    k elements. For each set M of m variables and each of the k**(n-m)
    assignments outside M, it counts the functions whose restriction
    depends on exactly M: E(k, m) choices of the restriction times any
    values on the other k**n - k**m entries. E(k, m), the m-ary
    functions that depend on all m variables, is the inclusion-exclusion
    over the variables they may ignore."""

    def essential_on_all(m):
        return sum((-1) ** (m - j) * comb(m, j) * k ** (k**j) for j in range(m + 1))

    return sum(
        comb(n, m) * k ** (n - m) * essential_on_all(m) * k ** (k**n - k**m)
        for m in range(1, n + 1)
    )


def brute_clone(alg, n):
    """(member tables, witness texts) of the n-ary clone in discovery order.

    Fixpoint rounds over every argument tuple of known members that
    touches the previous round's members, one tuple at a time, with the
    projections tabulated by `table_of` and compositions evaluated entry
    by entry through the raw operation tables. Runs to the fixpoint with
    no early stop; the witness text is built here, not by the printer.
    """
    k = alg.carrier_size
    ops = ops_of(alg)
    tables, texts = [], []
    for i in range(1, n + 1):
        table = table_of(Variable(i), ops, k, n)
        if table not in tables:
            tables.append(table)
            texts.append(f"x{i}")
    seen = set(tables)
    frontier = 0
    while frontier < len(tables):
        known = len(tables)
        for op in alg.operations:
            fn = ops[op.symbol]
            for args in product(range(known), repeat=op.arity):
                if all(a < frontier for a in args):
                    continue
                table = tuple(fn(*column) for column in zip(*(tables[a] for a in args)))
                if table not in seen:
                    seen.add(table)
                    tables.append(table)
                    texts.append(f"{op.symbol}({','.join(texts[a] for a in args)})")
        frontier = known
    return tables, texts


def brute_census(alg, n):
    """(clone size, total, histogram) of cp3 summed over the members of
    `brute_clone`."""
    members, _ = brute_clone(alg, n)
    hist = {}
    for table in members:
        _, t = brute_cp3_report(table, alg.carrier_size, n)
        hist[t] = hist.get(t, 0) + 1
    return len(members), sum(t * c for t, c in hist.items()), hist


def brute_monotone_count(n):
    """Number of monotone Boolean functions of n variables, f(a) <= f(b)
    whenever a <= b in every coordinate, by trying every table."""
    points = list(product((0, 1), repeat=n))
    pairs = [
        (idx(a, 2), idx(b, 2))
        for a in points
        for b in points
        if all(x <= y for x, y in zip(a, b))
    ]
    return sum(all(table[i] <= table[j] for i, j in pairs) for table in all_tables(2, n))


def brute_subuniverses(alg):
    """Every subset of the carrier, the empty one included, that each
    operation maps into itself on every argument tuple."""
    k = alg.carrier_size
    ops = ops_of(alg)
    out = []
    for bits in product((False, True), repeat=k):
        s = [a for a in range(k) if bits[a]]
        if all(
            ops[op.symbol](*args) in s
            for op in alg.operations
            for args in product(s, repeat=op.arity)
        ):
            out.append(s)
    return out


def brute_pol_count(alg, n):
    """Number of n-ary tables f with f(S**n) inside S for every
    subuniverse S, by trying every table."""
    k = alg.carrier_size
    subs = brute_subuniverses(alg)
    tuples = list(product(range(k), repeat=n))
    # the indices of S**n in a table, per subuniverse
    inside = [[idx(a, k) for a in tuples if all(x in s for x in a)] for s in subs]
    return sum(
        all(table[i] in s for s, indices in zip(subs, inside) for i in indices)
        for table in all_tables(k, n)
    )


def brute_square_subuniverse(alg, pairs):
    """The subuniverse of A**2 that a set of pairs generates: every
    operation applied coordinatewise to every tuple of known pairs,
    round after round, until no pair is new."""
    ops = ops_of(alg)
    closed = set(pairs)
    while True:
        new = set()
        for op in alg.operations:
            fn = ops[op.symbol]
            for args in product(sorted(closed), repeat=op.arity):
                new.add((fn(*(p[0] for p in args)), fn(*(p[1] for p in args))))
        if new <= closed:
            return closed
        closed |= new


def brute_bp_members(alg, n, tables):
    """For each n-ary table, whether it preserves every subuniverse of
    A**2 generated by pairs: for all points a, b of A**n, (f(a), f(b))
    lies in the subuniverse the pairs (a_i, b_i) generate. When A has a
    majority term these are exactly its term operations (Baker and
    Pixley 1975). One plain loop per table over every pair of points;
    the subuniverses are closed once per set of pairs."""
    k = alg.carrier_size
    points = list(product(range(k), repeat=n))
    closed = {}

    def member(table):
        for a in points:
            for b in points:
                pairs = frozenset(zip(a, b))
                if pairs not in closed:
                    closed[pairs] = brute_square_subuniverse(alg, pairs)
                if (table[idx(a, k)], table[idx(b, k)]) not in closed[pairs]:
                    return False
        return True

    return [member(table) for table in tables]


# ---------------------------------------------------------------------------
# the reference parser: the recursive-descent parser termalg.terms.parse
# replaced, kept to judge it


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


def reference_parse(text: str, signature) -> Term:
    """Parse term text against a signature (mapping symbol -> arity)."""
    p = _Parser(text, _signature_of(signature))
    node = p.term()
    p.skip_ws()
    if p.pos != len(text):
        raise ParseError("trailing input after term", p.pos)
    return node


# ---------------------------------------------------------------------------
# the one-mask smear: what termalg.kernels.cp3_count computed before it
# walked its mask's positions with `_walk`, kept to judge the walk


def reference_kept(axes, k):
    """The indices that count for the mask whose free positions have
    these axes, as a bitset: the cp3 count is its size.

    A free position is essential in the restriction to an assignment q
    of the fixed positions when its `moving` bitset meets the indices
    that agree with q. OR-ing the shifts of `moving` down by d * stride,
    0 <= d < k, for each other free position moves such a bit to the
    index of q with all free digits 0. The kept bits are those that
    every free position sets. Shifts that borrow across digits set other
    bits too; `termalg.kernels._walk` shows that none survives the AND.
    """
    if not axes:
        return 0
    kept = -1
    for p, (_, bits) in enumerate(axes):
        for a, (stride, _) in enumerate(axes):
            if a != p:
                for _ in range(k - 1):
                    bits |= bits >> stride
        kept &= bits
    return kept
