"""Source-level guards on the library.

Invariants must raise typed errors, not ``assert``: assert statements vanish
under ``python -O``. A tree's support counts are the tree engine's own, and
so are its work counters: every other module reads them through ``stats()``.
A deterministic cover is built in one place, ``build_covers``, the
rows of a ``RootDistances`` are read in one place, ``graph_core``, and a
tree is deepened in one way, by ``set_depth`` continuing its own search.
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


def test_only_graph_core_reads_the_rows():
    # the row format (the int16 rows and their sentinel) stays in graph_core:
    # trees are set through starts, a build trigger asks farthest()
    assert _readers("unreached", "dist") == {"graph_core"}


def test_only_the_tree_engine_reads_work_counters():
    # every structure, a tree too, reports its work through stats(), which
    # es_tree.tree_stats sums over a list of trees
    assert _readers("level_increases", "ops") == {"es_tree", "monotone_es_tree"}


def _call_sites(*names) -> list[str]:
    """Every call in the library of any of ``names``, as the module and the
    innermost function around it (the module alone at its top level)."""
    sites = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in names:
                    sites.append(f"{module}.{function}" if function else module)
            visit(child, module, function)
    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem, None)
    return sites


def test_only_build_covers_builds_a_deterministic_cover():
    # the index builds its covers at construction and inside a deletion,
    # both through build_covers: a cover built from scratch on the graph as
    # it stands has one build path
    assert _call_sites("DetCenterCover", "MovingCenters") == ["deterministic_apsp.build_covers"]


def test_only_from_rows_sets_trees_from_rows():
    # every tree set from rows goes through EsTree.from_rows and so through
    # EsTree.__init__, where the benchmark's tracer records its build
    assert _call_sites("starts") == ["es_tree.from_rows"]


def test_one_way_to_deepen_a_tree():
    # a tree is deepened only where a center arrives (open, move) and
    # lowered only where one leaves; a deeper tree continues its own search
    assert _call_sites("set_depth") == ["deterministic_apsp._deepen", "deterministic_apsp._leave"]
    # (graph_core.blocks calls RootDistances' own wide search)
    assert _call_sites("_search") == [
        "es_tree.set_depth", "graph_core.blocks", "monotone_es_tree._setup"]
