"""Command-line front end.

Every subcommand loads an algebra description file (JSON), parses any
term arguments against its signature, and prints either a human-readable
report or, with --json, a machine-readable one. Exit status: 0 success,
1 domain error, 2 usage error. Output never contains timestamps, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import complexity, kernels, semantics, terms
from .algebra import induced_operation, load_algebra
from .errors import TermAlgError


class UsageError(Exception):
    pass


def _format_set(indices) -> str:
    return "{" + ",".join(f"x{i}" for i in sorted(indices)) + "}"


def _parse_index_set(text: str) -> list[int]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip().lstrip("x")
        if not chunk.isdigit():
            raise UsageError(f"bad variable list {text!r}; expected e.g. 1,3 or x1,x3")
        out.append(int(chunk))
    if not out:
        raise UsageError("empty variable list")
    return out


def _load_terms(args, *names):
    alg = load_algebra(args.algebra)
    parsed = [terms.parse(getattr(args, name), alg) for name in names]
    needed = max((terms.max_variable(t) for t in parsed), default=0)
    arity = args.arity if getattr(args, "arity", None) is not None else needed
    if arity < needed:
        raise UsageError(f"--arity {arity} is below the largest variable index {needed}")
    return alg, parsed, arity


def _emit(args, doc: dict, human: str) -> None:
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(human)


def _cmd_alg_check(args) -> int:
    alg = load_algebra(args.algebra)
    ops = ", ".join(f"{op.symbol}/{op.arity}" for op in alg.operations)
    _emit(
        args,
        {
            "name": alg.name,
            "carrier": alg.carrier_size,
            "operations": [
                {"symbol": op.symbol, "arity": op.arity} for op in alg.operations
            ],
        },
        f"OK: {alg.name}, carrier {alg.carrier_size}, operations: {ops}",
    )
    return 0


def _cmd_eval(args) -> int:
    alg, (term,), arity = _load_terms(args, "term")
    table = induced_operation(term, alg, arity)
    human = (
        f"term: {terms.print_term(term)}\n"
        f"arity {arity} over carrier {alg.carrier_size}\n"
        f"values: {list(table.values)}"
    )
    _emit(
        args,
        {
            "term": terms.print_term(term),
            "arity": arity,
            "carrier": alg.carrier_size,
            "values": list(table.values),
        },
        human,
    )
    return 0


def _cmd_ess(args) -> int:
    alg, (term,), arity = _load_terms(args, "term")
    result = semantics.ess(term, alg, arity)
    _emit(
        args,
        {"term": terms.print_term(term), "arity": arity, "essential": sorted(result)},
        f"Ess = {_format_set(result)}",
    )
    return 0


def _cmd_sep(args) -> int:
    alg, (term,), arity = _load_terms(args, "term")
    if args.set is not None:
        subset = _parse_index_set(args.set)
        verdict = semantics.is_separable(term, alg, arity, subset)
        _emit(
            args,
            {
                "term": terms.print_term(term),
                "arity": arity,
                "set": sorted(set(subset)),
                "separable": verdict,
            },
            f"{_format_set(subset)} is {'separable' if verdict else 'not separable'}",
        )
        return 0
    sets = semantics.sep_sets(term, alg, arity)
    human_lines = [f"Sep sets ({len(sets)}):"] + [f"  {_format_set(m)}" for m in sets]
    _emit(
        args,
        {
            "term": terms.print_term(term),
            "arity": arity,
            "separable_sets": [sorted(m) for m in sets],
        },
        "\n".join(human_lines),
    )
    return 0


def _cmd_subterm(args) -> int:
    alg, (t, s), arity = _load_terms(args, "term", "of")
    verdict = semantics.is_subterm(t, s, alg, arity)
    _emit(
        args,
        {
            "term": terms.print_term(t),
            "of": terms.print_term(s),
            "arity": arity,
            "subterm": verdict,
        },
        f"{terms.print_term(t)} {'is' if verdict else 'is not'} a subterm of {terms.print_term(s)}",
    )
    return 0


def _cmd_identity(args) -> int:
    alg, (s, t), arity = _load_terms(args, "lhs", "rhs")
    verdict = semantics.satisfies_identity(alg, s, t, arity)
    _emit(
        args,
        {
            "lhs": terms.print_term(s),
            "rhs": terms.print_term(t),
            "arity": arity,
            "satisfied": verdict,
        },
        f"identity {'holds' if verdict else 'fails'}",
    )
    return 0


def _cmd_cp(args) -> int:
    alg, (term,), arity = _load_terms(args, "term")
    measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    for m in measures:
        if m not in ("1", "2", "3"):
            raise UsageError(f"unknown measure {m!r}; choose from 1,2,3")
    doc: dict = {"term": terms.print_term(term), "arity": arity}
    lines = [f"term: {terms.print_term(term)}"]
    if "1" in measures:
        doc["cp1"] = complexity.cp1(term)
        lines.append(f"Cp1 = {doc['cp1']}")
    if "2" in measures:
        doc["cp2"] = complexity.cp2(term)
        lines.append(f"Cp2 = {doc['cp2']}")
    if "3" in measures:
        report = complexity.cp3_total(term, alg, arity)
        doc["cp3"] = {
            "total": report.total,
            "per_set": [
                {"vars": sorted(m), "count": c} for m, c in report.sorted_items()
            ],
        }
        for m, c in report.sorted_items():
            lines.append(f"Cp3[{_format_set(m)}] = {c}")
        lines.append(f"Cp3 total = {report.total}")
    _emit(args, doc, "\n".join(lines))
    return 0


def _cmd_census(args) -> int:
    alg = load_algebra(args.algebra)
    census = complexity.algebra_n_complexity(alg, args.arity, args.max_clone_size)
    if args.json:
        sys.stdout.write(census.to_json())
        return 0
    lines = [
        f"algebra {census.algebra}, n = {census.n}",
        f"clone size: {census.clone_size}",
        "histogram (complexity: members):",
    ]
    for c in sorted(census.histogram, reverse=True):
        lines.append(f"  {c}: {census.histogram[c]}")
    lines.append(f"total: {census.total}")
    print("\n".join(lines))
    return 0


def _witness_texts(witnesses):
    """Printed witnesses of a clone in discovery order. The arguments of
    each composed witness are earlier witnesses, so its text joins
    theirs instead of printing their subterms again."""
    texts: dict[int, str] = {}
    for w in witnesses:
        if isinstance(w, terms.Apply):
            texts[id(w)] = f"{w.symbol}({','.join(texts[id(c)] for c in w.children)})"
        else:
            texts[id(w)] = terms.print_term(w)
    return [texts[id(w)] for w in witnesses]


def _cmd_clone(args) -> int:
    alg = load_algebra(args.algebra)
    clone = complexity.clone_level(alg, args.arity, args.max_clone_size)
    # the closure built these tables, so they need no FunctionTable check
    values = (list(kernels.unpack(t, clone.width)) for t in clone.tables)
    texts = _witness_texts(clone.witnesses) if args.list else ()
    if args.json:
        doc = {
            "algebra": alg.name,
            "n": clone.arity,
            "size": clone.size,
        }
        if args.list:
            doc["members"] = [{"values": v, "witness": w} for v, w in zip(values, texts)]
        print(json.dumps(doc, indent=2))
        return 0
    print(f"clone of {alg.name} at arity {clone.arity}: {clone.size} members")
    for i, (v, w) in enumerate(zip(values, texts)):
        print(f"  {i}: {v}  <-  {w}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="termalg",
        description="Analyze terms and polynomials over user-defined finite algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_arity=True):
        p.add_argument("algebra", help="algebra description file (JSON)")
        if with_arity:
            p.add_argument(
                "--arity",
                type=int,
                default=None,
                help="context arity n (default: largest variable index used)",
            )
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("alg-check", help="validate an algebra description file")
    common(p, with_arity=False)
    p.set_defaults(func=_cmd_alg_check)

    p = sub.add_parser("eval", help="tabulate the operation a term induces")
    common(p)
    p.add_argument("term")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ess", help="essential variables of a term")
    common(p)
    p.add_argument("term")
    p.set_defaults(func=_cmd_ess)

    p = sub.add_parser("sep", help="separable sets, or a single-set verdict")
    common(p)
    p.add_argument("term")
    p.add_argument("--set", default=None, help="check one set, e.g. 1,2 or x1,x2")
    p.set_defaults(func=_cmd_sep)

    p = sub.add_parser("subterm", help="is TERM a subterm of OF?")
    common(p)
    p.add_argument("term")
    p.add_argument("of")
    p.set_defaults(func=_cmd_subterm)

    p = sub.add_parser("identity", help="does the algebra satisfy LHS = RHS?")
    common(p)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(func=_cmd_identity)

    p = sub.add_parser("cp", help="complexity measures of a term")
    common(p)
    p.add_argument("term")
    p.add_argument(
        "--measures", default="1,2,3", help="comma list from 1,2,3 (default: all)"
    )
    p.set_defaults(func=_cmd_cp)

    p = sub.add_parser("census", help="n-complexity of the algebra with histogram")
    p.add_argument("algebra", help="algebra description file (JSON)")
    p.add_argument("--arity", type=int, required=True, help="clone arity n")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--max-clone-size",
        type=int,
        default=complexity.CLONE_BUDGET,
        help="abort if the clone grows beyond this many members",
    )
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("clone", help="enumerate the n-ary clone")
    p.add_argument("algebra", help="algebra description file (JSON)")
    p.add_argument("--arity", type=int, required=True, help="clone arity n")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--list", action="store_true", help="list members with witnesses")
    p.add_argument(
        "--max-clone-size",
        type=int,
        default=complexity.CLONE_BUDGET,
        help="abort if the clone grows beyond this many members",
    )
    p.set_defaults(func=_cmd_clone)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (TermAlgError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
