"""Checks on the package source itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qgt"


def test_no_assert_statements():
    # python -O strips assert statements; qgt's checks raise explicitly so
    # that they still check there
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


def test_only_bch_names_the_oracle():
    # Berlekamp-Massey with the Chien scan is the tests' oracle: no module but
    # bch.py, and no demo, reaches it; decode_syndromes does not match
    oracle = re.compile(r"\b(find_error_locator|find_roots|decode_syndrome|DecodeFailure)\b")
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "bch.py"]
    paths += sorted((ROOT / "demos").glob("*.py"))
    assert len(paths) >= 13
    found = [f"{path.relative_to(ROOT)}:{i}"
             for path in paths
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if oracle.search(line)]
    assert found == []
