"""Library invariants must raise typed errors, not ``assert``: assert
statements vanish under ``python -O``."""

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
