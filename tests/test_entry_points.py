"""The program as it is started: `python -m termalg.cli` and the console
entry point, each in a fresh interpreter (`helpers.fresh_python`). The
rest of the suite calls `cli.main` in one process that has imported
everything, so it cannot see a lost `__main__` block, an entry point
that drops its command line, or an import-order break. What a fresh
`import termalg` loads is checked in test_records.py."""

import hashlib
import json
from functools import cache

import pytest

from termalg import load_algebra, parse

import oracle
from helpers import REPO, fresh_python

ALGEBRAS = "perfbench/algebras"
DIGESTS = json.loads((REPO / "perfbench" / "census_digests.json").read_text())
BOOL2_EVAL = ("eval", f"{ALGEBRAS}/bool2.json", "+(x1,*(x2,neg(x12)))", "--arity", "12", "--json")
CHAIN3_EVAL = (
    "eval", f"{ALGEBRAS}/chain3.json", "max(min(x1,x2),min(x3,x4))", "--arity", "4", "--json"
)
BOOL2_CP = ("cp", f"{ALGEBRAS}/bool2.json", "+(x1,*(x2,neg(x7)))", "--arity", "7", "--json")
MOD3 = f"{ALGEBRAS}/mod3.json"
MOD3_TERM = "max(min(x1,x2),min(x3,succ(x4)))"
MOD3_ESS = ("ess", MOD3, MOD3_TERM, "--arity", "4", "--json")


@cache
def termalg(*argv):
    """`python -m termalg.cli *argv` in a fresh interpreter, run once per
    command line."""
    return fresh_python("-m", "termalg.cli", *argv)


@pytest.mark.parametrize("label", sorted(DIGESTS))
def test_census_and_clone_digests(label):
    """Every op of the benchmark's census workload, byte for byte: among
    them the census of bool2 n=3 (the primal route), chain3 n=4 (the free
    spectrum) and boolean_ring n=3 (Baker-Pixley), and the clone listing
    of bool2 n=3, its witnesses printed from the closure's derivations."""
    command, name, n = label.split()
    argv = [command, f"{ALGEBRAS}/{name}.json", "--arity", n.removeprefix("n="), "--json"]
    if command == "clone":
        argv.append("--list")
    done = termalg(*argv)
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout).hexdigest() == DIGESTS[label]


@pytest.mark.parametrize(
    "argv", [BOOL2_EVAL, BOOL2_CP, CHAIN3_EVAL], ids=["eval bool2", "cp bool2", "eval chain3"]
)
def test_json_is_the_indented_document(argv):
    """eval values, which `_dumps` writes from lane bytes, and the cp
    per-set listing, laid out by hand, read as json.dumps(..., indent=2)
    writes them."""
    done = termalg(*argv)
    assert done.returncode == 0
    assert done.stdout.decode() == json.dumps(json.loads(done.stdout), indent=2) + "\n"


@pytest.mark.parametrize("argv", [BOOL2_EVAL, CHAIN3_EVAL], ids=["bool2", "chain3"])
def test_eval_values_equal_the_oracle(argv):
    """The values the two-element operations' normal forms and the chain3
    lanes tabulate, against the oracle's direct evaluation."""
    _, path, text, _, n, _ = argv
    alg = load_algebra(REPO / path)
    want = list(oracle.table_of(parse(text, alg), oracle.ops_of(alg), alg.carrier_size, int(n)))
    assert json.loads(termalg(*argv).stdout)["values"] == want


def test_evals_through_main_in_one_interpreter():
    """bool2, chain3 and bool2 again through `cli.main` in one interpreter:
    the second bool2 tabulation finds its shape's projections kept, and
    each answer is the bytes of its one-shot run."""
    argvs = [BOOL2_EVAL, CHAIN3_EVAL, BOOL2_EVAL]
    script = f"import sys; from termalg import cli; sys.exit(max(map(cli.main, {argvs!r})))"
    done = fresh_python("-c", script)
    assert done.returncode == 0
    assert done.stdout == b"".join(termalg(*argv).stdout for argv in argvs)


def test_ess_and_sep_equal_the_oracle():
    """The one axis builder and the one-mask walk against brute_ess and
    brute_cp3_set."""
    alg = load_algebra(REPO / MOD3)
    table = oracle.table_of(parse(MOD3_TERM, alg), oracle.ops_of(alg), 3, 4)
    ess = termalg(*MOD3_ESS)
    sep = termalg("sep", MOD3, MOD3_TERM, "--arity", "4", "--set", "1,2", "--json")
    got = (json.loads(ess.stdout)["essential"], json.loads(sep.stdout)["separable"])
    want = (sorted(oracle.brute_ess(table, 3, 4)), oracle.brute_cp3_set(table, 3, 4, {1, 2}) > 0)
    assert got == want


def test_eval_on_a_carrier_of_2_to_the_70(tmp_path):
    """Its lanes are more than struct can pack."""
    path = tmp_path / "big-carrier.json"
    path.write_text(json.dumps({"name": "big", "carrier": 2**70, "operations": []}))
    done = termalg("eval", str(path), "#5", "--arity", "0", "--json")
    assert done.returncode == 0
    assert json.loads(done.stdout)["values"] == [5]


def test_truncated_term_is_a_parse_error():
    done = termalg("eval", f"{ALGEBRAS}/bool2.json", "+(x1,")
    assert (done.returncode, done.stderr) == (1, b"error: expected a term (at position 5)\n")


def test_number_too_long_for_int_is_a_parse_error():
    done = termalg("eval", f"{ALGEBRAS}/bool2.json", "x" + "9" * 5000)
    assert done.returncode == 1
    assert b"set_int_max_str_digits" not in done.stderr


@pytest.mark.parametrize(
    "command, want",
    [("eval", {"values": [0, 1]}), ("cp", {"cp1": 1, "cp2": 100_000})],
    ids=["eval", "cp"],
)
def test_deep_term_through_console_main(command, want):
    """A neg chain 100,000 levels deep, since no term walk recurses. The
    term goes to the console entry point in sys.argv: no command line
    takes one argument that long."""
    script = (
        "import sys; from termalg import cli; depth = 100_000; "
        f"sys.argv[1:] = [{command!r}, '{ALGEBRAS}/bool2.json', "
        "'neg(' * depth + 'x1' + ')' * depth, '--json']; cli.console_main()"
    )
    done = fresh_python("-c", script)
    assert done.returncode == 0
    doc = json.loads(done.stdout)
    assert {key: doc[key] for key in want} == want


@pytest.mark.parametrize(
    "name, n, size",
    [("mod3", 2, 3**9), ("chain3", 5, 7581 - 2), ("bool2", 4, 2**16), ("boolean_ring", 4, 2**15)],
)
def test_size_only_clone_within_10_s(name, n, size):
    """With no closure, at the closed forms: every function of the primal
    algebras, M(5) - 2 for the chain, and T0 (Post 1941) for the ring."""
    argv = ["clone", f"{ALGEBRAS}/{name}.json", "--arity", str(n), "--json"]
    done = fresh_python("-m", "termalg.cli", *argv, timeout=10)
    assert done.returncode == 0
    assert json.loads(done.stdout)["size"] == size


@pytest.mark.parametrize("arity", [("--arity=4",), ("--ar", "4")], ids=" ".join)
def test_options_argparse_reads_give_the_same_bytes(arity):
    """A well-formed line is bound without argparse's matcher (`cli._read`);
    `=` forms and abbreviations go to argparse."""
    bound = termalg(*MOD3_ESS)
    read = termalg(*MOD3_ESS[:3], *arity, "--json")
    assert (bound.returncode, read.returncode) == (0, 0)
    assert read.stdout == bound.stdout


def test_help_is_argparse_own():
    done = termalg("sep", "--help")
    assert done.returncode == 0
    assert done.stdout.startswith(b"usage: termalg sep")
