"""Source-level guards on the library.

Invariants must raise typed errors, not ``assert``: assert statements vanish
under ``python -O``. A tree's support counts are the tree engine's own, and
so are its work counters: every other module reads them through ``stats()``.
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


def _readers(*attrs) -> set[str]:
    """The library modules that read any of ``attrs`` as an attribute."""
    readers = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in attrs:
                readers.add(path.stem)
    return readers


def test_only_the_tree_engine_reads_support_counts():
    # es_tree's skip of trees a deletion leaves unchanged reads the counts,
    # so every caller repairs its exact trees through es_tree
    assert _readers("_count") == {"es_tree", "monotone_es_tree"}


def test_only_the_tree_engine_reads_work_counters():
    # every structure, a tree too, reports its work through stats(), which
    # es_tree.tree_stats sums over a list of trees
    assert _readers("level_increases", "ops") == {"es_tree", "monotone_es_tree"}
