"""Checks over the package source as a whole."""

import ast
from pathlib import Path

import sketchsynth

SRC = Path(sketchsynth.__file__).parent

# defined in src/ but used only from tests, with the reason to keep each
KEPT = {
    "evaluate": "bitvec's reference semantics of terms, which the tests "
                "hold constant folding and bit-blasting to",
}


def test_every_definition_is_used_in_src():
    """No function, method or class of src/ exists only for tests: each
    non-dunder name defined there is read by name somewhere in src/."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(defined - used - set(KEPT)) == []
    assert set(KEPT) <= defined - used
