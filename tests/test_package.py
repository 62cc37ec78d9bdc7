"""Checks over the package source as a whole."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import sketchsynth

SRC = Path(sketchsynth.__file__).parent

# defined in src/ but used only from tests, with the reason to keep each
KEPT = {
    "evaluate": "bitvec's reference semantics of terms, which the tests "
                "hold constant folding and bit-blasting to",
}


def test_every_definition_is_used_in_src():
    """No function, method, class or module constant of src/ exists only
    for tests: each non-dunder name defined there, and each ALL-CAPS name
    a module assigns at its top level, is read by name somewhere in
    src/."""
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign):
                defined.update(n.id for n in ast.walk(stmt)
                               if isinstance(n, ast.Name) and n.id.isupper()
                               and isinstance(n.ctx, ast.Store))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.add(node.name)
            elif isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(defined - used - set(KEPT)) == []
    assert set(KEPT) <= defined - used


def test_import_adds_no_reflection_modules():
    """A fresh ``import sketchsynth.cli`` loads none of ``dataclasses``,
    ``inspect`` and ``typing``, which cost a cold start more than the
    package's own modules.  Only what the import adds is checked: ``site``
    may have loaded some of them already."""
    code = ("import sys; before = set(sys.modules); import sketchsynth.cli; "
            "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          capture_output=True, text=True, check=True)
    added = set(proc.stdout.split())
    assert "sketchsynth.cli" in added
    assert added & {"dataclasses", "inspect", "typing"} == set()
