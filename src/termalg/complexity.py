"""Complexity measures for terms and algebras.

Three measures: variable occurrences (cp1), operation-symbol count (cp2),
and the semantic count cp3, which for each nonempty variable set M counts
the assignments to the remaining variables that leave exactly M essential.
Summing cp3 over every member of the n-ary clone gives the n-complexity
of an algebra.
"""

from __future__ import annotations

import json
import struct
from functools import cached_property
from itertools import chain, combinations, compress
from math import comb
from typing import Iterable, Mapping, Optional

from . import algebra, kernels
from ._record import record
from .algebra import (
    FiniteAlgebra,
    FunctionTable,
    induced_operation,
    _check_cp3_work,
    _check_work,
    _table_size,
)
from .errors import BudgetError
from .semantics import _check_subset, _context
from .terms import Apply, Constant, Term, Variable

CLONE_BUDGET = 1_000_000

__all__ = [
    "CLONE_BUDGET",
    "ComplexityReport",
    "CloneLevel",
    "AlgebraCensus",
    "cp1",
    "cp2",
    "cp3_set",
    "cp3_total",
    "cp3_of_table",
    "value_set",
    "clone_level",
    "algebra_n_complexity",
]


def cp1(term: Term) -> int:
    """Number of variable occurrences."""
    if isinstance(term, Variable):
        return 1
    if isinstance(term, Constant):
        return 0
    return sum(cp1(c) for c in term.children)


def cp2(term: Term) -> int:
    """Number of operation symbols; constants count like variables: zero."""
    if isinstance(term, (Variable, Constant)):
        return 0
    return 1 + sum(cp2(c) for c in term.children)


@record
class ComplexityReport:
    """cp3 counts of one function: per nonempty variable set, plus total."""

    arity: int
    per_set: Mapping[frozenset, int]
    total: int

    @classmethod
    def from_counts(cls, counts, arity: int) -> "ComplexityReport":
        sets = dict(kernels.index_sets(arity))
        per = {sets[m]: counts[m] for m in range(1, 1 << arity)}
        return cls(arity, per, sum(counts))

    def sorted_items(self):
        """(set, count) pairs of every nonempty set of x1..x_arity,
        ordered lexicographically by sorted indices (`kernels.preorder`)."""
        per = self.per_set
        return [(s, per[s]) for _, s in kernels.index_sets(self.arity)]


def cp3_set(term: Term, alg: FiniteAlgebra, n: int, subset: Iterable[int]) -> int:
    """Evaluations of the variables outside the set that leave exactly it
    essential; the set must be nonempty."""
    m = _check_subset(subset, n)
    if not m:
        raise ValueError("cp3 is defined for nonempty variable sets")
    table = induced_operation(term, alg, n)
    return kernels.cp3_count(table.lanes, alg.carrier_size, n, kernels.mask_of_indices(m))


def cp3_total(term: Term, alg: FiniteAlgebra, n: Optional[int] = None) -> ComplexityReport:
    """Full cp3 report over all nonempty subsets of x1..xn."""
    n = _context(n, term)
    return cp3_of_table(induced_operation(term, alg, n))


def cp3_of_table(table: FunctionTable) -> ComplexityReport:
    """cp3 report computed directly from a tabulated function."""
    _check_cp3_work(table.carrier_size, table.arity)
    counts = kernels.cp3_counts(table.lanes, table.carrier_size, table.arity)
    return ComplexityReport.from_counts(counts, table.arity)


def value_set(term: Term, alg: FiniteAlgebra, n: Optional[int] = None) -> frozenset:
    """Distinct values the induced operation takes."""
    n = _context(n, term)
    return frozenset(induced_operation(term, alg, n).values)


# ---------------------------------------------------------------------------
# clone enumeration


@record
class CloneLevel:
    """The n-ary term operations of an algebra, with generating terms.

    `members` lists distinct tables in discovery order: the projections
    first, then breadth-first by composition depth with ties broken by
    operation order and then by the lexicographic argument tuple.
    `witnesses[i]` is a term inducing `members[i]`. The order is the same
    whether the closure ran to its fixpoint or stopped early because it
    held as many members as the clone can have (`clone_level`).

    `tables` holds the members as the closure built them, lane bytes of
    `width` bytes per entry; `members` makes them FunctionTables on first
    use. The closure records each member's derivation in `_derivations`:
    the index i of the projection x_i, or (symbol, argument member
    indices). `witnesses` builds the terms from them on first use.
    """

    arity: int
    carrier_size: int
    tables: tuple
    width: int
    witnesses: tuple

    @classmethod
    def _derived(cls, arity, k, tables, width, derivations) -> "CloneLevel":
        """The level the closure built, its witnesses not yet built."""
        level = cls.__new__(cls)
        level.__dict__.update(
            arity=arity, carrier_size=k, tables=tables, width=width, _derivations=derivations
        )
        return level

    @cached_property
    def witnesses(self) -> tuple:
        built: list[Term] = []
        for d in self._derivations:
            if type(d) is int:
                built.append(Variable(d))
            else:
                symbol, args = d
                built.append(Apply(symbol, tuple(map(built.__getitem__, args))))
        return tuple(built)

    @cached_property
    def members(self) -> tuple:
        return tuple(FunctionTable._from_lanes(self.arity, self.carrier_size, t) for t in self.tables)

    @property
    def size(self) -> int:
        return len(self.tables)


def clone_level(alg: FiniteAlgebra, n: int, max_size: int = CLONE_BUDGET) -> CloneLevel:
    """Close the n projections under the basic operations.

    Fixpoint rounds: each round composes every basic operation with all
    argument tuples of already-known members that touch the newest layer
    (the members added in the previous round), deduplicating by table.
    A commutative binary operation skips each (a, b) with b < a: it
    equals (b, a), which touches the newest layer through a and came
    earlier in the same round, so it is never new.
    Raises BudgetError once more than `max_size` distinct members appear
    or their tables would hold more than WORK_BUDGET entries; when the
    clone's size is known beforehand (a semilattice, a distributive
    lattice or a primal algebra), that error comes before any closing.
    Stops as soon as the clone holds `_clone_bound` members, as many as
    the free spectrum counts or else as there are n-ary functions
    preserving every subuniverse: the clone has no more, so it is then
    complete. With no proper nonempty subuniverse that is all k**(k**n)
    functions. Raises ValueError for n < 0.
    """
    if n < 0:
        raise ValueError(f"clone arity must be >= 0, got {n}")
    k = alg.carrier_size
    _table_size(k, n)
    bound, exact = _clone_bound(alg, n)
    try:
        _refuse(bound, max_size, k, n)
    except BudgetError:
        # the bound is the clone's size when exact, and for a primal
        # algebra, all k**(k**n) functions: such a closure is refused now
        if exact or _primal(alg, n, max_size):
            raise
    return _closure(alg, n, max_size, bound)


def _closure(alg, n, max_size, bound):
    """The n-ary clone in discovery order, closed until it holds `bound`
    members or reaches its fixpoint; the tables are lane bytes.

    For each prefix of all but the last argument, the last argument runs
    over a whole block of members at once. One little-endian integer
    holds the block's tables; adding the prefix's lanes scaled by k,
    their bytes repeated once per table, puts the operation-table index
    of every entry of every candidate in its own lane, which is below
    256**width so no lane carries. One table lookup over the bytes then
    yields all the composed tables, in the order the argument tuples
    come in. A block is split into its tables at C speed and deduplicated
    by one set difference against the known tables; when some are new,
    one pass over the block picks them out in block order.
    """
    k = alg.carrier_size
    width = kernels.lane_width(k, [op.arity for op in alg.operations])
    size = _table_size(k, n)
    step = size * width
    tables: list[bytes] = []
    derivations: list = []  # as CloneLevel._derivations
    seen: set[bytes] = set()
    # the most members that pass _admit; it raises for the next one
    cap = min(max_size, algebra.WORK_BUDGET // size)

    def add(values: bytes, derivation) -> bool:
        """Record a new member; True once the clone reaches the bound."""
        if len(tables) >= cap:
            _admit(len(tables) + 1, max_size, k, n)
        seen.add(values)
        tables.append(values)
        derivations.append(derivation)
        return len(tables) == bound

    def level():
        return CloneLevel._derived(n, k, tuple(tables), width, tuple(derivations))

    for i in range(1, n + 1):
        values = kernels.projection_lanes(i, n, k, width)
        if values not in seen and add(values, i):
            return level()
    frontier = 0
    while frontier < len(tables):
        known = len(tables)
        # the tables of all members, and of the newest layer, as integers
        every = int.from_bytes(b"".join(tables), "little")
        fresh = every >> 8 * step * frontier
        for op in alg.operations:
            lookup = kernels.lookup(op.table, width)
            # its table equals its transpose
            commutes = op.arity == 2 and op.table == tuple(
                chain.from_iterable(op.table[b::k] for b in range(k))
            )
            for prefix, prefix_lanes in _prefixes(tables, op.arity - 1, k, known):
                # tuples made only of older members were composed before,
                # and for a commutative operation (a, b) with b < a is (b, a)
                last = max(prefix, default=-1)
                first = frontier if last < frontier else last if commutes else 0
                blob = fresh if first == frontier else every >> 8 * step * first
                count = known - first
                # each whole-block copy is dropped once the next one exists
                data = (prefix_lanes * k).to_bytes(step, "little") * count
                data = int.from_bytes(data, "little")
                data += blob
                data = lookup(data.to_bytes(count * step, "little"))
                # a fresh Struct: struct.unpack would cache one compiled
                # format, 32 bytes per table, for each block size it sees
                chunks = struct.Struct(f"{step}s" * count).unpack(data)
                del data
                novel = set(chunks).difference(seen)
                if not novel:
                    continue
                for j in compress(range(count), map(novel.__contains__, chunks)):
                    if chunks[j] in seen:
                        continue  # a new table repeated within the block
                    if add(chunks[j], (op.symbol, prefix + (first + j,))):
                        return level()
        frontier = known
    return level()


def _admit(members, max_size, k, n):
    """Raise the closure's BudgetError for holding `members` members:
    more than `max_size` of them, or more than WORK_BUDGET entries."""
    if members > max_size:
        raise BudgetError(f"clone budget exceeded: more than {max_size} members at arity {n}")
    _check_work(members * k**n, f"the closure holds {members} members x {k}**{n}")


def _refuse(count, max_size, k, n):
    """Raise the BudgetError a closure to `count` members raises on the
    way: at its first member over `max_size` or WORK_BUDGET, if any."""
    _admit(min(count, max_size + 1, algebra.WORK_BUDGET // k**n + 1), max_size, k, n)


def _clone_bound(alg, n):
    """(bound, exact): the n-ary clone has at most `bound` members, and
    exactly that many when `exact`: the free-spectrum count where there
    is one, else the subuniverse bound."""
    count = _free_spectrum(alg, n)
    if count is not None:
        return count, True
    return _subuniverse_bound(alg, n), False


# Dedekind numbers M(n) = the monotone Boolean functions of n variables
# (Dedekind 1897; OEIS A000372)
_DEDEKIND = (2, 3, 6, 20, 168, 7581, 7828354, 2414682040998, 56130437228687557907788)


def _free_spectrum(alg, n):
    """The number of n-ary term operations of a nontrivial semilattice
    (one binary operation) or distributive lattice (two); for any other
    algebra, for n < 1 and for a lattice past the table of Dedekind
    numbers the count is None.

    The n-ary clone of A is the free algebra on n generators of the
    variety A generates (Birkhoff 1935). A nontrivial semilattice
    generates every semilattice; their free algebra is the 2**n - 1 joins
    of nonempty sets of generators. A nontrivial distributive lattice
    generates every distributive lattice; their free algebra is the
    M(n) - 2 monotone Boolean functions that are not constant.

    A binary operation * is a semilattice operation exactly when it is
    idempotent, the sets below(x) = {z : z * x = z} are distinct and
    below(x * y) = below(x) & below(y) (`_below`). Two of them form a
    lattice exactly when each one's order is the other's reversed, and
    the lattice is distributive exactly when for every a no y != y' have
    a ^ y = a ^ y' and a v y = a v y' (Birkhoff's cancellation: a lattice
    that is not distributive has M3 or N5 as a sublattice, which both
    break it).

    The checks read each entry of the binary tables a bounded number of
    times, so they cost no more than loading the algebra, which visited
    every entry: they need no budget, at any n.
    """
    k, ops = alg.carrier_size, alg.operations
    most = 2 if n < len(_DEDEKIND) else 1  # operations that can have a count
    if k < 2 or n < 1 or not 1 <= len(ops) <= most or any(op.arity != 2 for op in ops):
        return None
    if any(op.table[x * (k + 1)] != x for op in ops for x in range(k)):
        return None
    below = [_below(op.table, k) for op in ops]
    if None in below:
        return None
    if len(ops) == 1:
        return 2**n - 1
    meet, join = below
    f, g = (op.table for op in ops)
    if any((meet[x] >> z & 1) != (join[z] >> x & 1) for x in range(k) for z in range(k)):
        return None
    if any(len(set(zip(f[a * k : a * k + k], g[a * k : a * k + k]))) < k for a in range(k)):
        return None
    return _DEDEKIND[n] - 2


def _below(table, k):
    """below(x) = {z : z * x = z} as a bitset for each x, when the
    idempotent binary operation with this table is a semilattice
    operation; else None.

    With the below sets distinct and below(x * y) = below(x) & below(y),
    z <= x iff z is in below(x) is a partial order: reflexive by
    idempotence; transitive, since y <= x gives y * x = y and so
    below(y) = below(y) & below(x); antisymmetric, since x <= y <= x
    would make their below sets equal. In it x * y is the greatest lower
    bound of x and y: it lies below both, and every common lower bound
    lies below it. A semilattice operation passes, its below sets being
    the principal ideals.
    """
    below = [0] * k
    for z in range(k):
        for x, v in enumerate(table[z * k : z * k + k]):
            if v == z:
                below[x] |= 1 << z
    if len(set(below)) < k:
        return None
    if any(below[table[x * k + y]] != below[x] & below[y] for x in range(k) for y in range(k)):
        return None
    return below


def _subuniverse_bound(alg, n, lookups=None):
    """Number of n-ary operations that preserve every subuniverse: the
    product over a in A**n of |Sg({a1, ..., an})|, the subuniverse the
    entries of a generate. Every term operation preserves every
    subuniverse, so the n-ary clone has at most this many members; with
    no proper nonempty subuniverse it is k**(k**n).

    The tuples whose entries form a set X of j elements are the
    surjections of the n positions onto X, so each X is closed once and
    its factor raised to their number. A set's closure starts from the
    union of its points' subuniverses, and each round applies every
    operation to all of S**arity. The rounds of all sets together visit
    at most `lookups` operation-table entries, by default k**n, one
    table's worth; once that is spent, every remaining factor is taken
    as k, which only enlarges the bound.
    """
    k = alg.carrier_size
    budget = k**n if lookups is None else lookups
    left = k**n  # tuples whose factor is not yet known
    bound = 1
    points: dict[int, frozenset] = {}

    def generated(s):
        nonlocal budget
        while len(s) < k:
            cost = sum(len(s) ** op.arity for op in alg.operations)
            if cost > budget:
                return None
            budget -= cost
            grown = set(s)
            for op in alg.operations:
                indices = [0]
                for _ in range(op.arity):
                    indices = [i * k + a for i in indices for a in s]
                grown.update(map(op.table.__getitem__, indices))
            if len(grown) == len(s):
                break
            s = grown
        return frozenset(s)

    for j in range(min(n, k) + 1):
        tuples = sum((-1) ** i * comb(j, i) * (j - i) ** n for i in range(j + 1))
        for subset in combinations(range(k), j):
            closed = generated(set(subset).union(*(points.get(x, ()) for x in subset)))
            if closed is None:
                return bound * k**left
            if j == 1:
                points[subset[0]] = closed
            bound *= len(closed) ** tuples
            left -= tuples
    return bound


def _prefixes(tables, depth, k, known):
    """(indices, lanes) of every depth-tuple over range(known), in
    lexicographic order; lane j holds a1[j]*k**(depth-1) + ... + a_depth[j]."""
    if depth == 0:
        yield (), 0
        return
    for head, head_lanes in _prefixes(tables, depth - 1, k, known):
        for a in range(known):
            yield head + (a,), head_lanes * k + int.from_bytes(tables[a], "little")


@record
class AlgebraCensus:
    """n-complexity of an algebra with its distribution histogram."""

    algebra: str
    n: int
    clone_size: int
    total: int
    histogram: Mapping[int, int]

    def to_json(self) -> str:
        doc = {
            "algebra": self.algebra,
            "n": self.n,
            "clone_size": self.clone_size,
            "total": self.total,
            "histogram": {
                str(c): self.histogram[c] for c in sorted(self.histogram, reverse=True)
            },
        }
        return algebra._dumps(doc) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "AlgebraCensus":
        doc = json.loads(text)
        hist = {int(c): int(v) for c, v in doc["histogram"].items()}
        return cls(doc["algebra"], doc["n"], doc["clone_size"], doc["total"], hist)


def algebra_n_complexity(
    alg: FiniteAlgebra, n: int, max_size: int = CLONE_BUDGET
) -> AlgebraCensus:
    """Sum cp3 over every n-ary clone member, grouping members by total.

    One table's count is checked before the clone is built; once the
    clone is known, the count over all its members is charged in full.
    A semilattice or distributive lattice (`_free_spectrum`), then a
    primal algebra (`_primal`), skip the closure: their tables are built
    directly (`_free_tables`, `_all_tables`) once the budget errors the
    closure would raise on the way to their known number are ruled out.
    Other algebras take the closure. Raises ValueError for n < 0.
    """
    if n < 0:
        raise ValueError(f"clone arity must be >= 0, got {n}")
    k = alg.carrier_size
    _check_cp3_work(k, n)
    count = _free_spectrum(alg, n)
    if count is not None:
        _refuse(count, max_size, k, n)
        width = kernels.lane_width(k, (2,))
        tables = b"".join(_free_tables(alg, n, width))
    elif _primal(alg, n, max_size):
        size = k**n
        count = k**size
        _refuse(count, max_size, k, n)
        width = kernels.lane_width(k, ())
        tables = _all_tables(k, size, width)
    else:
        clone = _closure(alg, n, max_size, _subuniverse_bound(alg, n))
        count, width, tables = clone.size, clone.width, b"".join(clone.tables)
    _check_work(
        (2**n - 1) * count * k**n,
        f"the census's cp3 needs 2**{n} - 1 sets x {count} members x {k}**{n}",
    )
    blob = int.from_bytes(tables, "little")
    buckets: dict[int, int] = {}
    total = 0
    for t in kernels.cp3_totals(blob, count, k, n, width):
        total += t
        buckets[t] = buckets.get(t, 0) + 1
    histogram = {c: buckets[c] for c in sorted(buckets, reverse=True)}
    return AlgebraCensus(alg.name, n, count, total, histogram)


def _free_tables(alg, n, width):
    """Lane bytes of each n-ary term operation, once, of an algebra that
    `_free_spectrum` counts, with operations * and then +.

    Every term of a semilattice is a meet x_S = *(x_i : i in S) over a
    nonempty set S of variables. In a lattice, distributivity and then
    absorption make every term the join over a nonempty antichain of
    such sets (dually when * is the join). A depth-first walk extends
    each antichain by later incomparable sets only, so it reaches each
    once. A meet is one lookup of a smaller meet and a projection, a
    join one of its parent antichain's join and a meet. No two are
    equal: take a two-element chain a < b in the algebra, ordered so
    that a * b = a. At the point that is b on a set U of variables and
    a elsewhere, the join over an antichain is b exactly when U holds
    one of its sets, so the antichain is the family of minimal such U.
    """
    k = alg.carrier_size
    step = k**n * width
    meet, *joins = [kernels.lookup(op.table, width) for op in alg.operations]
    tables = []
    meets = [0] * (1 << n)  # as integers; bit p of s stands for x_(p+1)
    for s in range(1, 1 << n):
        rest = s & (s - 1)
        table = kernels.projection_lanes((s ^ rest).bit_length(), n, k, width)
        if rest:
            table = meet((meets[rest] * k + int.from_bytes(table, "little")).to_bytes(step, "little"))
        meets[s] = int.from_bytes(table, "little")
        tables.append(table)
    if not joins:
        return tables
    (join,) = joins
    # the sets incomparable with s, as a bitset over the sets
    apart = [sum(1 << t for t in range(1 << n) if t & s not in (s, t)) for s in range(1 << n)]
    # (table, the later sets incomparable with all of its antichain)
    stack = [(meets[s], apart[s] >> s + 1 << s + 1) for s in range(1, 1 << n)]
    while stack:
        x, later = stack.pop()
        x *= k
        while later:
            t = (later & -later).bit_length() - 1
            later ^= 1 << t
            table = join((x + meets[t]).to_bytes(step, "little"))
            tables.append(table)
            if later & apart[t]:
                stack.append((int.from_bytes(table, "little"), later & apart[t]))
    return tables


def _primal(alg, n, max_size):
    """True when a cheap certificate shows that the clone holds every
    operation on the carrier, so that its n-ary members need no closure.

    k = 2: Post's criterion (Post 1941), tried from n = 2 on: the clone
    holds every operation exactly when, for each of the five maximal
    clones (`_post_clones`), some basic operation lies outside it. At
    n = 1 the closure of at most four members costs no more.
    k >= 3: the unary clone holds all k**k functions and some basic
    operation is onto and depends on at least two variables (Slupecki
    1939). The closure behind the certificate is never larger than the
    n-ary one it spares; if a budget stops it, the certificate fails and
    the census takes the closure, which raises the budget's own error.
    """
    k = alg.carrier_size
    if k == 2 and n >= 2:
        rows = [_post_clones(op.table, op.arity) for op in alg.operations]
        return not any(all(row[c] for row in rows) for c in range(5))
    width = kernels.lane_width(k, ())
    if k < 3 or n < 1 or not any(
        set(op.table) == set(range(k))
        and kernels.essential_mask(kernels.pack(op.table, width), k, op.arity).bit_count() >= 2
        for op in alg.operations
    ):
        return False
    try:
        # not clone_level, whose early budget check asks this certificate
        return _closure(alg, 1, max_size, _clone_bound(alg, 1)[0]).size == k**k
    except BudgetError:
        return False


def _post_clones(t, r):
    """Whether the r-ary operation on {0, 1} with table t lies in each of
    Post's five maximal clones: the functions that fix 0, those that fix
    1, the self-dual, the monotone and the affine ones. Together they
    read the table O(r) times. None depends on the order of the
    arguments, so bit p of an entry's index stands for one argument."""
    affine = [t[0]]  # the affine function that agrees with t at 0 and at each unit
    for p in range(r):
        affine += [v ^ t[1 << p] ^ t[0] for v in affine]
    return (
        t[0] == 0,
        t[-1] == 1,
        all(t[i] != t[-1 - i] for i in range(len(t))),
        all(t[i] <= t[i | 1 << p] for p in range(r) for i in range(len(t))),
        affine == list(t),
    )


def _all_tables(k, size, width):
    """Lane bytes of every function with `size` entries over k elements,
    joined: the tables in lexicographic order, the first entry most
    significant. Entry i of all tables together is the runs of each
    value, k**(size - 1 - i) long, repeated; it is written into every
    table at once by one strided slice per lane byte."""
    count = k**size
    step = size * width
    out = bytearray(count * step)
    for i in range(size):
        run = k ** (size - 1 - i)
        column = b"".join(kernels.constant_lanes(v, run, width) for v in range(k))
        column *= count // (run * k)
        for b in range(width):
            out[i * width + b :: step] = column[b::width]
    return out
