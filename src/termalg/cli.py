"""Command-line front end.

Every subcommand loads an algebra description file (JSON), parses any
term arguments against its signature, and prints either a human-readable
report or, with --json, a machine-readable one. Exit status: 0 success,
1 domain error, 2 usage error. Output never contains timestamps, so
repeated runs are bit-identical.
"""

from __future__ import annotations

import argparse
import sys

from . import complexity, kernels, semantics, terms
from .algebra import _dumps, _quote, induced_operation, load_algebra
from .errors import TermAlgError


class UsageError(Exception):
    pass


def _format_set(indices) -> str:
    return "{" + ",".join(f"x{i}" for i in sorted(indices)) + "}"


def _parse_index_set(text: str) -> list[int]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip().lstrip("x")
        if not chunk.isdecimal():  # what int() reads; isdigit also takes '²'
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


def _emit(args, doc, human) -> None:
    """Print the JSON document with --json, else the human text. Both are
    functions, so that only the printed form is built. The commands print
    their terms beforehand either way, so that a term too deeply nested
    to print fails in both forms alike."""
    print(_dumps(doc()) if args.json else human())


def _cmd_alg_check(args) -> int:
    alg = load_algebra(args.algebra)
    _emit(
        args,
        lambda: {
            "name": alg.name,
            "carrier": alg.carrier_size,
            "operations": [
                {"symbol": op.symbol, "arity": op.arity} for op in alg.operations
            ],
        },
        lambda: f"OK: {alg.name}, carrier {alg.carrier_size}, operations: "
        + ", ".join(f"{op.symbol}/{op.arity}" for op in alg.operations),
    )
    return 0


def _cmd_eval(args) -> int:
    alg, (term,), arity = _load_terms(args, "term")
    values = list(induced_operation(term, alg, arity).values)
    text = terms.print_term(term)
    _emit(
        args,
        lambda: {"term": text, "arity": arity, "carrier": alg.carrier_size, "values": values},
        lambda: f"term: {text}\narity {arity} over carrier {alg.carrier_size}\nvalues: {values}",
    )
    return 0


def _cmd_ess(args) -> int:
    alg, (term,), arity = _load_terms(args, "term")
    result = semantics.ess(term, alg, arity)
    text = terms.print_term(term)
    _emit(
        args,
        lambda: {"term": text, "arity": arity, "essential": sorted(result)},
        lambda: f"Ess = {_format_set(result)}",
    )
    return 0


def _cmd_sep(args) -> int:
    alg, (term,), arity = _load_terms(args, "term")
    if args.set is not None:
        subset = _parse_index_set(args.set)
        verdict = semantics.is_separable(term, alg, arity, subset)
        text = terms.print_term(term)
        _emit(
            args,
            lambda: {
                "term": text,
                "arity": arity,
                "set": sorted(set(subset)),
                "separable": verdict,
            },
            lambda: f"{_format_set(subset)} is {'separable' if verdict else 'not separable'}",
        )
        return 0
    sets = semantics.sep_sets(term, alg, arity)
    text = terms.print_term(term)
    _emit(
        args,
        lambda: {
            "term": text,
            "arity": arity,
            "separable_sets": [sorted(m) for m in sets],
        },
        lambda: "\n".join([f"Sep sets ({len(sets)}):"] + [f"  {_format_set(m)}" for m in sets]),
    )
    return 0


def _cmd_subterm(args) -> int:
    alg, (t, s), arity = _load_terms(args, "term", "of")
    verdict = semantics.is_subterm(t, s, alg, arity)
    t_text, s_text = terms.print_term(t), terms.print_term(s)
    _emit(
        args,
        lambda: {"term": t_text, "of": s_text, "arity": arity, "subterm": verdict},
        lambda: f"{t_text} {'is' if verdict else 'is not'} a subterm of {s_text}",
    )
    return 0


def _cmd_identity(args) -> int:
    alg, (s, t), arity = _load_terms(args, "lhs", "rhs")
    verdict = semantics.satisfies_identity(alg, s, t, arity)
    s_text, t_text = terms.print_term(s), terms.print_term(t)
    _emit(
        args,
        lambda: {"lhs": s_text, "rhs": t_text, "arity": arity, "satisfied": verdict},
        lambda: f"identity {'holds' if verdict else 'fails'}",
    )
    return 0


def _cmd_cp(args) -> int:
    alg, (term,), arity = _load_terms(args, "term")
    measures = [m.strip() for m in args.measures.split(",") if m.strip()]
    for m in measures:
        if m not in ("1", "2", "3"):
            raise UsageError(f"unknown measure {m!r}; choose from 1,2,3")
    text = terms.print_term(term)
    cp1 = complexity.cp1(term) if "1" in measures else None
    cp2 = complexity.cp2(term) if "2" in measures else None
    report = complexity.cp3_total(term, alg, arity) if "3" in measures else None

    if args.json:
        doc: dict = {"term": text, "arity": arity}
        if cp1 is not None:
            doc["cp1"] = cp1
        if cp2 is not None:
            doc["cp2"] = cp2
        if report is not None:
            doc["cp3"] = {"total": report.total}
        out = _dumps(doc)
        if report is not None:
            # the layout of json.dumps(doc, indent=2) with the sets listed
            # under "per_set" after "total", laid out by hand: faster than
            # _dumps
            per_set = ",\n".join(
                '      {\n        "vars": [\n          '
                + ",\n          ".join(map(str, sorted(m)))
                + f'\n        ],\n        "count": {c}\n      }}'
                for m, c in report.sorted_items()
            )
            listed = f"[\n{per_set}\n    ]" if per_set else "[]"
            out = f'{out[:-6]},\n    "per_set": {listed}\n  }}\n}}'
        print(out)
        return 0
    lines = [f"term: {text}"]
    if cp1 is not None:
        lines.append(f"Cp1 = {cp1}")
    if cp2 is not None:
        lines.append(f"Cp2 = {cp2}")
    if report is not None:
        lines += [f"Cp3[{_format_set(m)}] = {c}" for m, c in report.sorted_items()]
        lines.append(f"Cp3 total = {report.total}")
    print("\n".join(lines))
    return 0


def _clone_args(args) -> tuple[int, int]:
    """The arity and member budget of `census` and `clone`."""
    if args.arity < 0:
        raise UsageError(f"--arity {args.arity} is negative")
    if args.max_clone_size < 0:
        raise UsageError(f"--max-clone-size {args.max_clone_size} is negative")
    return args.arity, args.max_clone_size


def _cmd_census(args) -> int:
    alg = load_algebra(args.algebra)
    census = complexity.algebra_n_complexity(alg, *_clone_args(args))
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


def _witness_texts(derivations):
    """Printed witnesses of a clone in discovery order, from the
    closure's derivations (`CloneLevel`), as `terms.print_term` prints
    them. The arguments of each composed member are earlier members, so
    its text joins theirs; no term is built."""
    texts: list[str] = []
    for d in derivations:
        if type(d) is int:
            texts.append(f"x{d}")
        else:
            symbol, args = d
            texts.append(f"{symbol}({','.join(map(texts.__getitem__, args))})")
    return texts


def _cmd_clone(args) -> int:
    alg = load_algebra(args.algebra)
    clone = complexity.clone_level(alg, *_clone_args(args))
    texts = _witness_texts(clone._derivations) if args.list else ()
    if args.json:
        head = _dumps({"algebra": alg.name, "n": clone.arity, "size": clone.size})
        if not args.list:
            print(head)
        elif not texts:
            print(f'{head[:-2]},\n  "members": []\n}}')
        else:
            # the layout of json.dumps(doc, indent=2) with the members
            # listed as "members", laid out by hand: one % writes every
            # member's values, unpacked from all tables at once, and
            # leaves a %s for its witness, which a second % fills with
            # the quoted texts. The closure built these tables, so they
            # need no FunctionTable check.
            fields = ",\n        ".join(("%d",) * alg.carrier_size**clone.arity)
            member = (
                f'    {{\n      "values": [\n        {fields}\n'
                '      ],\n      "witness": %%s\n    }'
            )
            values = kernels.unpack(b"".join(clone.tables), clone.width)
            members = ",\n".join((member,) * clone.size) % values % tuple(map(_quote, texts))
            print(head[:-2], ',\n  "members": [\n', members, "\n  ]\n}", sep="")
        return 0
    print(f"clone of {alg.name} at arity {clone.arity}: {clone.size} members")
    for i, (t, w) in enumerate(zip(clone.tables, texts)):
        print(f"  {i}: {list(kernels.unpack(t, clone.width))}  <-  {w}")
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


_parser = None


def main(argv=None) -> int:
    """Run one command line; exit status 0, 1 (domain error) or 2 (usage
    error). The parser is built on the first call and kept."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
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
    except RecursionError:
        # parsing, tabulating and printing recurse once per nesting level
        print("error: term nested too deeply for the recursion limit", file=sys.stderr)
        return 1


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
