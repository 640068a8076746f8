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


def _name(text: str) -> str:
    """An algebra's name for human output: quoted as JSON when it has a
    character that does not print, such as a line break."""
    return text if text.isprintable() else _quote(text)


def _format_set(indices) -> str:
    return "{" + ",".join(f"x{i}" for i in sorted(indices)) + "}"


def _parse_index_set(text: str, arity: int) -> list[int]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip().removeprefix("x")
        if not chunk.isdecimal():  # what int() reads; isdigit also takes '²'
            raise UsageError(f"bad variable list {text!r}; expected e.g. 1,3 or x1,x3")
        try:
            out.append(terms._decimal(chunk))
        except ValueError:  # more digits than int() converts: no index of x1..xn
            raise ValueError(f"variable index {chunk} outside 1..{arity}") from None
    if not out:
        raise UsageError("empty variable list")
    return out


def _load_terms(args, *names):
    alg = load_algebra(args.algebra)
    parsed = [terms.parse(getattr(args, name), alg) for name in names]
    needed = max((terms.max_variable(t) for t in parsed), default=0)
    arity = args.arity if getattr(args, "arity", None) is not None else needed
    if arity < 0:
        raise UsageError(f"--arity {arity} is negative")
    if arity < needed:
        raise UsageError(f"--arity {arity} is below the largest variable index {needed}")
    return alg, parsed, arity


def _emit(args, doc, human) -> None:
    """Print the JSON document with --json, else the human text. Both are
    functions, so that only the printed form is built."""
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
        lambda: f"OK: {_name(alg.name)}, carrier {alg.carrier_size}, operations: "
        + ", ".join(f"{op.symbol}/{op.arity}" for op in alg.operations),
    )
    return 0


def _cmd_eval(args) -> int:
    alg, (term,), arity = _load_terms(args, "term")
    table = induced_operation(term, alg, arity)
    k = alg.carrier_size
    # up to 256 elements a lane is one byte, which _dumps writes as is
    values = table.lanes if k <= 256 else table.values
    text = terms.print_term(term)
    _emit(
        args,
        lambda: {"term": text, "arity": arity, "carrier": k, "values": values},
        lambda: f"term: {text}\narity {arity} over carrier {k}\nvalues: {list(table.values)}",
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
        subset = _parse_index_set(args.set, arity)
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
    # the separable sets are those of positive cp3 count (semantics.sep_sets)
    report = complexity.cp3_total(term, alg, arity)
    text = terms.print_term(term)
    if args.json:
        # the layout of json.dumps(doc, indent=2) with the sets listed as
        # "separable_sets", laid out by hand
        sets = [t for t, count in report.set_texts(",\n      ") if count]
        listed = "[\n    [\n      " + "\n    ],\n    [\n      ".join(sets) + "\n    ]\n  ]"
        head = _dumps({"term": text, "arity": arity})
        print(f'{head[:-2]},\n  "separable_sets": {listed if sets else "[]"}\n}}')
        return 0
    sets = [t for t, count in report.set_texts(",", "x") if count]
    print("\n".join([f"Sep sets ({len(sets)}):"] + [f"  {{{t}}}" for t in sets]))
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
            # under "per_set" after "total", laid out by hand
            entry = (
                '      {\n        "vars": [\n          %s\n'
                '        ],\n        "count": %d\n      }'
            )
            per_set = ",\n".join([entry % pair for pair in report.set_texts(",\n          ")])
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
        lines += [f"Cp3[{{{t}}}] = {c}" for t, c in report.set_texts(",", "x")]
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
        f"algebra {_name(census.algebra)}, n = {census.n}",
        f"clone size: {census.clone_size}",
        "histogram (complexity: members):",
    ]
    for c in sorted(census.histogram, reverse=True):
        lines.append(f"  {c}: {census.histogram[c]}")
    lines.append(f"total: {census.total}")
    print("\n".join(lines))
    return 0


def _cmd_clone(args) -> int:
    alg = load_algebra(args.algebra)
    n, max_size = _clone_args(args)
    clone = complexity.clone_level(alg, n, max_size) if args.list else None
    size = clone.size if args.list else complexity.clone_size(alg, n, max_size)
    texts = clone.witness_texts if args.list else ()
    if args.json:
        head = _dumps({"algebra": alg.name, "n": n, "size": size})
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
            fields = ",\n        ".join(("%d",) * alg.carrier_size**n)
            member = (
                f'    {{\n      "values": [\n        {fields}\n'
                '      ],\n      "witness": %%s\n    }'
            )
            values = kernels.unpack(b"".join(clone.tables), clone.width)
            members = ",\n".join((member,) * size) % values % tuple(map(_quote, texts))
            print(head[:-2], ',\n  "members": [\n', members, "\n  ]\n}", sep="")
        return 0
    print(f"clone of {_name(alg.name)} at arity {n}: {size} members")
    for i, w in enumerate(texts):
        print(f"  {i}: {list(kernels.unpack(clone.tables[i], clone.width))}  <-  {w}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every command. It also keeps, as
    `parser.commands`, the table `_read` binds from: for each command its
    positional dests in order, its option actions keyed by option string,
    its required options, and the defaults of its Namespace. The table is
    taken from the actions `add_argument` returns, so the commands are
    declared once."""
    parser = argparse.ArgumentParser(
        prog="termalg",
        description="Analyze terms and polynomials over user-defined finite algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {}

    def command(name, help, func):
        """Add the command; returns its add_argument, which also records
        each action in the table. `_read` binds untyped one-value
        positionals, one-value options and flags that store `const`; an
        argument of another kind needs `_read` taught first, or the
        differential tests in TestReader fail."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        positional, options, required = [], {}, set()
        defaults = {sub.dest: name, "func": func}
        parser.commands[name] = (positional, options, required, defaults)

        def add(*args, **kwargs):
            action = p.add_argument(*args, **kwargs)
            if not action.option_strings:
                positional.append(action.dest)
                return
            options.update(dict.fromkeys(action.option_strings, action))
            defaults[action.dest] = action.default
            if action.required:
                required.add(action)

        return add

    def common(add, with_arity=True):
        add("algebra", help="algebra description file (JSON)")
        if with_arity:
            add(
                "--arity",
                type=int,
                default=None,
                help="context arity n (default: largest variable index used)",
            )
        add("--json", action="store_true", help="machine-readable output")

    add = command("alg-check", "validate an algebra description file", _cmd_alg_check)
    common(add, with_arity=False)

    add = command("eval", "tabulate the operation a term induces", _cmd_eval)
    common(add)
    add("term")

    add = command("ess", "essential variables of a term", _cmd_ess)
    common(add)
    add("term")

    add = command("sep", "separable sets, or a single-set verdict", _cmd_sep)
    common(add)
    add("term")
    add("--set", default=None, help="check one set, e.g. 1,2 or x1,x2")

    add = command("subterm", "is TERM a subterm of OF?", _cmd_subterm)
    common(add)
    add("term")
    add("of")

    add = command("identity", "does the algebra satisfy LHS = RHS?", _cmd_identity)
    common(add)
    add("lhs")
    add("rhs")

    add = command("cp", "complexity measures of a term", _cmd_cp)
    common(add)
    add("term")
    add("--measures", default="1,2,3", help="comma list from 1,2,3 (default: all)")

    add = command("census", "n-complexity of the algebra with histogram", _cmd_census)
    add("algebra", help="algebra description file (JSON)")
    add("--arity", type=int, required=True, help="clone arity n")
    add("--json", action="store_true", help="machine-readable output")
    add(
        "--max-clone-size",
        type=int,
        default=complexity.CLONE_BUDGET,
        help="abort if the clone grows beyond this many members",
    )

    add = command("clone", "enumerate the n-ary clone", _cmd_clone)
    add("algebra", help="algebra description file (JSON)")
    add("--arity", type=int, required=True, help="clone arity n")
    add("--json", action="store_true", help="machine-readable output")
    add("--list", action="store_true", help="list members with witnesses")
    add(
        "--max-clone-size",
        type=int,
        default=complexity.CLONE_BUDGET,
        help="abort if the clone grows beyond this many members",
    )

    return parser


_parser = None


def _built() -> argparse.ArgumentParser:
    """The parser, built on the first call and kept."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    return _parser


def _read(argv):
    """The Namespace `parse_args(argv)` returns, bound without argparse's
    matcher when the command line is well formed: a command name first,
    each other token that starts with '-' one of its option strings, at
    most once, each value option followed by a value that does not start
    with '-' and that its type converts, every positional and required
    option present. Anything else (help, abbreviations, `--opt=value`,
    `--`, negative numbers, every error) gives None, and argparse reads
    the line."""
    table = _built().commands.get(argv[0]) if argv else None
    if table is None:
        return None
    positional, options, required, defaults = table
    bound = dict(defaults)
    values, seen = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":
            values.append(token)
            continue
        action = options.get(token)
        if action is None or action in seen:
            return None
        seen.add(action)
        if action.nargs == 0:
            bound[action.dest] = action.const
            continue
        value = next(tokens, "-")  # a missing value fails as an option would
        if value[:1] == "-":
            return None
        try:
            bound[action.dest] = value if action.type is None else action.type(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None  # argparse's own error
    if len(values) != len(positional) or not required <= seen:
        return None
    bound.update(zip(positional, values))
    return argparse.Namespace(**bound)


def main(argv=None) -> int:
    """Run one command line; exit status 0, 1 (domain error) or 2 (usage
    error). `argv` defaults to sys.argv[1:], as argparse reads it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv)
    if args is None:
        try:
            args = _built().parse_args(argv)
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
