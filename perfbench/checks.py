"""Output checks, run after the timed region.

Census and clone JSON must match the sha256 digests recorded in
census_digests.json, because member order and witnesses are a contract;
every clone witness is re-tabulated by the oracle and must reproduce its
member, and the bool2 census (a primal algebra) must equal the oracle's
census over all functions. Every term op must print exactly the JSON the
CLI would print for the oracle's answer.
"""

import hashlib
import json
import re
from pathlib import Path

from workloads import Judge, parse_text

DIGESTS_FILE = Path(__file__).resolve().parent / "census_digests.json"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_text(doc):
    return json.dumps(doc, indent=2) + "\n"


def _sorted_sets(sets):
    return sorted((sorted(m) for m in sets), key=tuple)


class Checker:
    """Decides whether one op's output is right; memoizes oracle work."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.judge = Judge(oracle)
        self.digests = json.loads(DIGESTS_FILE.read_text())
        self._reports = {}

    def check(self, op, output):
        """None if the output is right, else the reason it is not."""
        cmd = op["cmd"]
        if cmd in ("census", "clone"):
            return self._check_census(op, output)
        expected = self.expected(op)
        if output != expected:
            return f"expected {expected[:200]!r}, got {output[:200]!r}"
        return None

    def _report(self, op):
        key = (op["algebra"], op["n"], op["term"])
        if key not in self._reports:
            k, _ = self.judge.ops(op["algebra"])
            table = self.judge.table(op["algebra"], parse_text(op["term"]), op["n"])
            per, total = self.oracle.brute_cp3_report(table, k, op["n"])
            self._reports[key] = (table, per, total)
        return self._reports[key]

    def expected(self, op):
        """The exact output the op must produce."""
        cmd, n = op["cmd"], op["n"]
        if cmd == "subterm":
            verdict = self.judge.is_subterm(
                op["algebra"], parse_text(op["term"]), parse_text(op["of"]), n
            )
            return _cli_text({"term": op["term"], "of": op["of"], "arity": n, "subterm": verdict})
        if cmd == "identity":
            lhs, rhs = (self.judge.table(op["algebra"], parse_text(op[s]), n) for s in ("lhs", "rhs"))
            return _cli_text(
                {"lhs": op["lhs"], "rhs": op["rhs"], "arity": n, "satisfied": lhs == rhs}
            )
        if cmd == "eval":
            k, _ = self.judge.ops(op["algebra"])
            table = self.judge.table(op["algebra"], parse_text(op["term"]), n)
            return _cli_text({"term": op["term"], "arity": n, "carrier": k, "values": list(table)})
        table, per, total = self._report(op)
        head = {"term": op["term"], "arity": n}
        if cmd == "cp3_set":
            return repr(per[frozenset(op["set"])])
        if cmd == "ess":
            k, _ = self.judge.ops(op["algebra"])
            return _cli_text({**head, "essential": sorted(self.oracle.brute_ess(table, k, n))})
        if cmd == "sep":
            separable = _sorted_sets(m for m, c in per.items() if c >= 1)
            return _cli_text({**head, "separable_sets": separable})
        if cmd == "sep_set":
            separable = per[frozenset(op["set"])] >= 1
            return _cli_text({**head, "set": op["set"], "separable": separable})
        if cmd == "cp":
            per_set = [{"vars": m, "count": per[frozenset(m)]} for m in _sorted_sets(per)]
            return _cli_text(
                {
                    **head,
                    # cp1 counts variable occurrences, cp2 operation symbols
                    "cp1": len(re.findall(r"x\d+", op["term"])),
                    "cp2": op["term"].count("("),
                    "cp3": {"total": total, "per_set": per_set},
                }
            )
        raise ValueError(f"no check for op {op['label']!r}")

    def _check_census(self, op, output):
        if sha256(output) != self.digests[op["label"]]:
            return "output differs from the recorded digest"
        doc = json.loads(output)
        if op["cmd"] == "clone":
            if doc["size"] != len(doc["members"]):
                return "size does not match the member list"
            for i, member in enumerate(doc["members"]):
                table = self.judge.table(op["algebra"], parse_text(member["witness"]), op["n"])
                if list(table) != member["values"]:
                    return f"witness {i} does not reproduce its member"
        elif op["algebra"] == "bool2":
            total, hist = self.oracle.brute_census_all_functions(2, op["n"])
            got = {int(c): v for c, v in doc["histogram"].items()}
            if (doc["total"], got) != (total, hist):
                return "census differs from the oracle census of all functions"
        return None
