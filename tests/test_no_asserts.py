"""Source-level guards on the library.

Invariants must raise typed errors, not ``assert``: assert statements vanish
under ``python -O``. A tree's support counts are the tree engine's own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "decaps"


def test_library_has_no_assert_statements():
    found = []
    assert (SRC / "__init__.py").is_file()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not found, f"assert statements in the library: {found}"


def test_only_the_tree_engine_reads_support_counts():
    # es_tree's skip of trees a deletion leaves unchanged reads the counts,
    # so every caller repairs its exact trees through es_tree
    readers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "_count":
                readers.add(path.stem)
    assert readers == {"es_tree", "monotone_es_tree"}
