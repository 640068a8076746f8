"""Census outputs at scale: byte-identical to the digests in
census_scale.sha256, which were taken from earlier outputs, and for
algebras that generate every function, equal to the closed form."""

import hashlib
import json
import re
from pathlib import Path

import pytest

from termalg import catalog, dump_algebra
from termalg.cli import main

import oracle

DIGESTS = Path(__file__).with_name("census_scale.sha256")
ALGEBRAS = {"bool2": catalog.bool2, "boolean_ring": catalog.boolean_ring, "mod3": catalog.mod3}
# bool2 and mod3 are primal: their clones hold every function
EVERY_FUNCTION = {"bool2", "mod3"}


def _entries():
    """(file name, algebra, arity, sha256) of each line of the digest file."""
    for line in DIGESTS.read_text().splitlines():
        digest, name = line.split()
        algebra, n = re.fullmatch(r"census-(\w+)-n(\d+)\.json", name).groups()
        yield pytest.param(algebra, int(n), digest, id=name)


@pytest.mark.parametrize("name, n, digest", _entries())
def test_census_at_scale(name, n, digest, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    alg = ALGEBRAS[name]()
    dump_algebra(alg, path)
    assert main(["census", str(path), "--arity", str(n), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if name in EVERY_FUNCTION:
        total = json.loads(out)["total"]
        assert total == oracle.census_total_all_functions(alg.carrier_size, n)


def test_digest_file_covers_the_scale_inputs():
    names = [p.id for p in _entries()]
    assert names == [
        "census-bool2-n4.json",
        "census-mod3-n2.json",
        "census-boolean_ring-n4.json",
    ]
