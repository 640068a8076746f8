"""Finite algebras as flat operation tables, and induced term operations.

Index convention, fixed for every table and for serialization: the
argument tuple (a1, ..., an) maps to index sum(ai * k**(n - i)), i.e.
the first argument is the most significant base-k digit.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import product
from typing import Iterable, Mapping, Sequence

from . import kernels
from ._record import record
from .errors import AlgebraError, BudgetError, TermError
from .terms import Apply, Constant, Term, Variable

TABLE_BUDGET = 1_000_000
WORK_BUDGET = 100_000_000
# Per variable set, the cp3 count takes about as long as visiting 2000
# table entries, however small the table: about 16 us per set on a
# one-element carrier at arity 14-16 against about 8 ns per entry at
# k = 2, arity 12-13 (Intel Xeon, 2 vCPU).
_CP3_SET_FLOOR = 2000

__all__ = [
    "TABLE_BUDGET",
    "WORK_BUDGET",
    "Operation",
    "FiniteAlgebra",
    "FunctionTable",
    "Evaluation",
    "tuple_index",
    "projection_table",
    "constant_table",
    "validate_algebra",
    "load_algebra",
    "dump_algebra",
    "dumps_algebra",
    "induced_operation",
    "restrict_table",
    "direct_power",
    "subalgebra",
    "transport_algebra",
]


def tuple_index(args: Sequence[int], k: int) -> int:
    """Flat index of an argument tuple, first argument most significant."""
    idx = 0
    for a in args:
        idx = idx * k + a
    return idx


@record
class Operation:
    symbol: str
    arity: int
    table: tuple

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(self.table))

    def apply(self, args: Sequence[int], k: int) -> int:
        return self.table[tuple_index(args, k)]


@record
class FiniteAlgebra:
    name: str
    carrier_size: int
    operations: tuple

    def __post_init__(self):
        ops = tuple(
            op if isinstance(op, Operation) else Operation(*op) for op in self.operations
        )
        object.__setattr__(self, "operations", ops)
        k = self.carrier_size
        if k < 1:
            raise AlgebraError(f"carrier size must be >= 1, got {k}")
        seen = set()
        for pos, op in enumerate(ops):
            if op.arity < 1:
                raise AlgebraError(
                    f"operation {op.symbol!r} (index {pos}): arity must be >= 1"
                )
            if op.symbol in seen:
                raise AlgebraError(f"duplicate operation symbol {op.symbol!r} (index {pos})")
            seen.add(op.symbol)
            size = len(op.table)
            # for k >= 2, k**arity > size from this arity on, so the power,
            # which may be too large to compute, is not needed to compare;
            # the message writes it out only up to 4096 bits (1234 digits)
            if k > 1 and op.arity >= size.bit_length() or size != k**op.arity:
                short = op.arity * k.bit_length() <= 4096
                expected = k**op.arity if short else f"{k}^{op.arity}"
                raise AlgebraError(
                    f"operation {op.symbol!r} (index {pos}): table length "
                    f"{size}, expected k^{op.arity} = {expected}"
                )
            for j, v in enumerate(op.table):
                # a bool equals 0 or 1 but is written back as false or true
                if type(v) is bool or not isinstance(v, int) or not 0 <= v < k:
                    wrong = "must be an integer" if type(v) is bool else f"is outside 0..{k - 1}"
                    raise AlgebraError(
                        f"operation {op.symbol!r} (index {pos}): entry {v!r} "
                        f"at table position {j} {wrong}"
                    )

    def signature(self) -> dict[str, int]:
        return {op.symbol: op.arity for op in self.operations}

    def operation(self, symbol: str) -> Operation:
        for op in self.operations:
            if op.symbol == symbol:
                return op
        raise TermError(f"unknown operation symbol {symbol!r}")


@record
class FunctionTable:
    """An n-ary function on the carrier, stored as lane bytes: one
    little-endian lane of `kernels.lane_width(k, ())` bytes per entry, in
    index order. `values` unpacks them into a tuple on first use."""

    arity: int
    carrier_size: int
    lanes: bytes

    def __init__(self, arity: int, carrier_size: int, values: Iterable[int]):
        values = tuple(values)
        k = carrier_size
        if arity < 0 or k < 1:
            raise AlgebraError(f"bad table shape: arity {arity}, carrier {k}")
        # for k >= 2, k**arity > len(values) from this arity on, and the
        # power itself may be too large to compute
        if k > 1 and arity >= len(values).bit_length() or len(values) != k**arity:
            raise AlgebraError(f"table length {len(values)}, expected {k}^{arity}")
        # whole-table passes decide; the scan only names the first bad entry
        if not (
            all(issubclass(t, int) for t in set(map(type, values)))
            and min(values) >= 0
            and max(values) < k
        ):
            for j, v in enumerate(values):
                if not isinstance(v, int) or not 0 <= v < k:
                    raise AlgebraError(
                        f"table entry {v!r} at position {j} is outside 0..{k - 1}"
                    )
        lanes = kernels.pack(values, kernels.lane_width(k, ()))
        self.__dict__.update(arity=arity, carrier_size=k, lanes=lanes, values=values)

    @classmethod
    def _from_lanes(cls, arity: int, k: int, lanes: bytes) -> "FunctionTable":
        """The unchecked table of lane bytes the library built. Lanes
        wider than the value width, as tabulation and the closure build
        them, are narrowed to it, so that equal functions are equal
        tables."""
        width, narrow = len(lanes) // k**arity, kernels.lane_width(k, ())
        if width > narrow:
            lanes = kernels.pack(kernels.unpack(lanes, width), narrow)
        table = cls.__new__(cls)
        table.__dict__.update(arity=arity, carrier_size=k, lanes=lanes)
        return table

    @cached_property
    def values(self) -> tuple:
        return kernels.unpack(self.lanes, kernels.lane_width(self.carrier_size, ()))

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise TermError(f"expected {self.arity} arguments, got {len(args)}")
        return self.values[tuple_index(args, self.carrier_size)]


@record
class Evaluation:
    """A partial assignment of carrier values to variables x1..xn.

    `assigned` maps 1-based variable indices to values; the keys are the
    substituted set, everything else stays free. Value range against a
    particular carrier is checked where the evaluation is applied.
    """

    assigned: Mapping[int, int]
    context_arity: int

    def __post_init__(self):
        normalized = {int(i): int(v) for i, v in sorted(dict(self.assigned).items())}
        object.__setattr__(self, "assigned", normalized)
        for i, v in normalized.items():
            if not 1 <= i <= self.context_arity:
                raise AlgebraError(
                    f"assigned variable x{i} outside context arity {self.context_arity}"
                )
            if v < 0:
                raise AlgebraError(f"assigned value {v} for x{i} is negative")


def projection_table(i: int, n: int, k: int) -> FunctionTable:
    """Table of the n-ary projection onto the i-th coordinate (1-based)."""
    if not 1 <= i <= n:
        raise TermError(f"projection index {i} outside 1..{n}")
    _table_size(k, n)
    lanes = kernels.projection_lanes(i, n, k, kernels.lane_width(k, ()))
    return FunctionTable._from_lanes(n, k, lanes)


def constant_table(value: int, n: int, k: int) -> FunctionTable:
    """Table of the n-ary constant operation with the given value."""
    if not 0 <= value < k:
        raise TermError(f"constant {value} outside carrier 0..{k - 1}")
    lanes = kernels.constant_lanes(value, _table_size(k, n), kernels.lane_width(k, ()))
    return FunctionTable._from_lanes(n, k, lanes)


# ---------------------------------------------------------------------------
# description files


def validate_algebra(raw: Mapping) -> FiniteAlgebra:
    """Build a FiniteAlgebra from a parsed description, checking invariants.

    Expected shape: {"name": str, "carrier": int, "operations":
    [{"symbol": str, "arity": int, "table": [int, ...]}, ...]}.
    """
    if not isinstance(raw, Mapping):
        raise AlgebraError("algebra description must be an object")
    try:
        name = raw["name"]
        carrier = raw["carrier"]
        ops_raw = raw["operations"]
    except KeyError as exc:
        raise AlgebraError(f"missing field {exc.args[0]!r}") from None
    if not isinstance(name, str):
        raise AlgebraError("field 'name' must be a string")
    if not isinstance(carrier, int) or isinstance(carrier, bool):
        raise AlgebraError("field 'carrier' must be an integer")
    if not isinstance(ops_raw, (list, tuple)):
        raise AlgebraError("field 'operations' must be a list")
    ops = []
    for pos, entry in enumerate(ops_raw):
        try:
            symbol = entry["symbol"]
            arity = entry["arity"]
            table = entry["table"]
        except (TypeError, KeyError):
            raise AlgebraError(f"operation entry {pos} must have symbol/arity/table") from None
        if not isinstance(symbol, str) or not symbol:
            raise AlgebraError(f"operation entry {pos}: symbol must be a nonempty string")
        # what terms.parse reads as a variable or a constant
        if symbol[0] == "#" or symbol[0] == "x" and symbol[1:].isdecimal():
            token = "constant" if symbol[0] == "#" else "variable"
            raise AlgebraError(
                f"operation entry {pos}: field 'symbol' {symbol!r} reads as a {token} in terms"
            )
        if not isinstance(arity, int) or isinstance(arity, bool):
            raise AlgebraError(f"operation {symbol!r} (index {pos}): arity must be an integer")
        if not isinstance(table, (list, tuple)):
            raise AlgebraError(f"operation {symbol!r} (index {pos}): field 'table' must be a list")
        ops.append(Operation(symbol, arity, tuple(table)))
    return FiniteAlgebra(name, carrier, tuple(ops))


def load_algebra(path) -> FiniteAlgebra:
    """Read an algebra description file (JSON)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise AlgebraError(f"{path}: invalid JSON: {exc}") from None
        except RecursionError:
            raise AlgebraError(f"{path}: JSON nested too deeply to read") from None
    return validate_algebra(raw)


def dumps_algebra(alg: FiniteAlgebra) -> str:
    """Canonical description text; load(dumps(a)) == a, bit-exact."""
    doc = {
        "name": alg.name,
        "carrier": alg.carrier_size,
        "operations": [
            {"symbol": op.symbol, "arity": op.arity, "table": list(op.table)}
            for op in alg.operations
        ],
    }
    return _dumps(doc) + "\n"


# the C string quoting of json's own encoder
_quote = json.encoder.encode_basestring_ascii


def _dumps(doc, indent: str = "\n") -> str:
    """json.dumps(doc, indent=2), byte for byte. With an indent, json
    encodes through its pure-Python encoder; here strings are quoted in
    C, exact ints and lists of them are written by str and one join, and
    any other scalar goes to json.dumps. Dict keys are str. `indent` is
    the line break and indent before the closing bracket of `doc`."""
    if isinstance(doc, str):
        return _quote(doc)
    if type(doc) is int:
        return str(doc)
    inner = indent + "  "
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        left, right = "{", "}"
        items = (_quote(key) + ": " + _dumps(value, inner) for key, value in doc.items())
    elif isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        left, right = "[", "]"
        if {*map(type, doc)} == {int}:
            items = map(str, doc)
        else:
            items = (_dumps(x, inner) for x in doc)
    else:
        return json.dumps(doc)
    return left + inner + ("," + inner).join(items) + indent + right


def dump_algebra(alg: FiniteAlgebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_algebra(alg))


# ---------------------------------------------------------------------------
# induced operations


def _table_size(k: int, n: int) -> int:
    """Entries of an n-ary table over k elements, k**n, checked against
    TABLE_BUDGET before any table of that size is built."""
    # from this arity on k**n > TABLE_BUDGET for every k >= 2, and the
    # power itself may be too large to compute
    if k > 1 and (n >= TABLE_BUDGET.bit_length() or k**n > TABLE_BUDGET):
        raise BudgetError(
            f"a table of arity {n} over {k} elements needs {k}**{n} entries, "
            f"budget is {TABLE_BUDGET}"
        )
    return k**n


def _check_work(work: int, estimate: str) -> None:
    """Raise BudgetError when a search or count would visit more than
    WORK_BUDGET table entries; `estimate` spells out how `work` arises."""
    if work > WORK_BUDGET:
        raise BudgetError(f"{estimate} entries, budget is {WORK_BUDGET}")


def _check_cp3_work(k: int, n: int) -> None:
    """Budget of cp3 over every variable set of an n-ary table: 2**n
    sets, each visiting the k**n entries but charged at least
    _CP3_SET_FLOOR of them for its own steps."""
    _table_size(k, n)
    per_set = max(k**n, _CP3_SET_FLOOR)
    shown = f"{k}**{n}" if per_set == k**n else str(per_set)
    # from this arity on 2**n alone exceeds the budget
    work = WORK_BUDGET + 1 if n >= WORK_BUDGET.bit_length() else 2**n * per_set
    _check_work(work, f"cp3 over every variable set needs 2**{n} sets x {shown}")


def induced_operation(term: Term, alg: FiniteAlgebra, n: int) -> FunctionTable:
    """Tabulate the n-ary operation the term or polynomial induces.

    Bottom-up on lane bytes: variables become projections (each built
    once), constants become constant operations, applications compose
    pointwise.
    """
    k = alg.carrier_size
    if n < 0:
        raise TermError(f"context arity must be >= 0, got {n}")
    size = _table_size(k, n)
    ops = {op.symbol: op for op in alg.operations}
    width = kernels.lane_width(k, [op.arity for op in alg.operations])
    projections: dict[int, bytes] = {}

    def tab(t: Term) -> bytes:
        if isinstance(t, Variable):
            if t.index > n:
                raise TermError(f"variable x{t.index} exceeds context arity {n}")
            if t.index not in projections:
                projections[t.index] = kernels.projection_lanes(t.index, n, k, width)
            return projections[t.index]
        if isinstance(t, Constant):
            if not 0 <= t.value < k:
                raise TermError(f"constant #{t.value} outside carrier 0..{k - 1}")
            return kernels.constant_lanes(t.value, size, width)
        if not isinstance(t, Apply):
            raise TermError(f"not a term node: {t!r}")
        op = ops.get(t.symbol)
        if op is None:
            raise TermError(f"unknown operation symbol {t.symbol!r}")
        if len(t.children) != op.arity:
            raise TermError(
                f"{t.symbol!r} expects {op.arity} argument(s), got {len(t.children)}"
            )
        args = [tab(c) for c in t.children]
        return kernels.compose(op.table, op.arity, args, k, size)

    return FunctionTable._from_lanes(n, k, tab(term))


def restrict_table(table: FunctionTable, evaluation) -> FunctionTable:
    """Plug the evaluation's constants into the table; arity is kept.

    The assigned positions become fictitious in the result, which keeps
    essential-set comparisons index-stable across restrictions.
    """
    assigned = getattr(evaluation, "assigned", evaluation)
    k = table.carrier_size
    positions, constants = [], []
    for i, v in sorted(assigned.items()):
        if not 1 <= i <= table.arity:
            raise AlgebraError(f"assigned variable x{i} outside 1..{table.arity}")
        if not 0 <= v < k:
            raise AlgebraError(f"assigned value {v} for x{i} outside 0..{k - 1}")
        positions.append(i - 1)
        constants.append(v)
    lanes = kernels.restrict(table.lanes, k, table.arity, positions, constants)
    return FunctionTable._from_lanes(table.arity, k, lanes)


# ---------------------------------------------------------------------------
# algebra constructions


def direct_power(alg: FiniteAlgebra, m: int, max_entries: int = TABLE_BUDGET) -> FiniteAlgebra:
    """The m-th direct power, operations acting coordinatewise.

    Element e of the power encodes the tuple (e div k**(m-1), ..., e mod k),
    first coordinate most significant.
    """
    if m < 1:
        raise AlgebraError(f"power exponent must be >= 1, got {m}")
    k = alg.carrier_size
    big = k**m
    for op in alg.operations:
        if big**op.arity > max_entries:
            raise BudgetError(
                f"direct power table for {op.symbol!r} needs {big**op.arity} entries, "
                f"budget is {max_entries}"
            )
    codes = list(product(range(k), repeat=m))
    ops = []
    for op in alg.operations:
        values = []
        for args in product(range(big), repeat=op.arity):
            coords = [codes[a] for a in args]
            out = tuple(
                op.table[tuple_index([c[j] for c in coords], k)] for j in range(m)
            )
            values.append(tuple_index(out, k))
        ops.append(Operation(op.symbol, op.arity, tuple(values)))
    return FiniteAlgebra(f"{alg.name}^{m}", big, tuple(ops))


def subalgebra(alg: FiniteAlgebra, subset: Iterable[int]) -> FiniteAlgebra:
    """Restrict to a subuniverse, re-indexing along the sorted subset."""
    sub = sorted(set(subset))
    k = alg.carrier_size
    if not sub:
        raise AlgebraError("subalgebra carrier must be nonempty")
    for v in sub:
        if not isinstance(v, int) or not 0 <= v < k:
            raise AlgebraError(f"subset element {v!r} outside carrier 0..{k - 1}")
    reindex = {v: i for i, v in enumerate(sub)}
    ops = []
    for op in alg.operations:
        values = []
        for args in product(sub, repeat=op.arity):
            out = op.table[tuple_index(args, k)]
            if out not in reindex:
                raise AlgebraError(
                    f"subset not closed: {op.symbol}{args} = {out} is outside it"
                )
            values.append(reindex[out])
        ops.append(Operation(op.symbol, op.arity, tuple(values)))
    name = f"{alg.name}|{{{','.join(str(v) for v in sub)}}}"
    return FiniteAlgebra(name, len(sub), tuple(ops))


def transport_algebra(alg: FiniteAlgebra, bijection) -> FiniteAlgebra:
    """The isomorphic copy along a carrier permutation.

    `bijection` maps old elements to new ones (sequence or mapping); each
    table is conjugated so the map is an isomorphism onto the result.
    """
    k = alg.carrier_size
    if isinstance(bijection, Mapping):
        phi = [bijection.get(i) for i in range(k)]
    else:
        phi = list(bijection)
    if sorted(x for x in phi if isinstance(x, int)) != list(range(k)) or len(phi) != k:
        raise AlgebraError(f"not a permutation of 0..{k - 1}: {phi!r}")
    inv = [0] * k
    for a, b in enumerate(phi):
        inv[b] = a
    ops = []
    for op in alg.operations:
        values = []
        for args in product(range(k), repeat=op.arity):
            pre = [inv[a] for a in args]
            values.append(phi[op.table[tuple_index(pre, k)]])
        ops.append(Operation(op.symbol, op.arity, tuple(values)))
    return FiniteAlgebra(f"{alg.name}~", k, tuple(ops))
