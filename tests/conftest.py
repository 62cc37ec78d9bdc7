"""Shared fixtures and pipeline helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from sketchsynth import ast_nodes as A
from sketchsynth import bitvec as B
from sketchsynth import engine
from sketchsynth import ir as I
from sketchsynth.classtable import build_class_table
from sketchsynth.desugar import desugar
from sketchsynth.lowering import lower_program
from sketchsynth.parser import parse_program, parse_program_texts

PROGRAMS = Path(__file__).parent / "programs"


def program_files(*names):
    return [str(PROGRAMS / n) for n in names]


def run_front_end(files=None, texts=None):
    """parse + desugar + classtable + lowering.

    Returns (desugared ast, registry, class table, IrProgram).
    """
    ast = parse_program(files) if files else parse_program_texts(texts)
    ast, _spec_map, registry = desugar(ast)
    table = build_class_table(ast)
    program = lower_program(table, registry)
    return ast, registry, table, program


def find_type(ast, name):
    """The top-level type declaration called ``name``, or None."""
    return next((d for d in ast.top_level_types() if d.name == name), None)


def walk_unknowns(node):
    """Hole/Choice/MinRepeat nodes in pre-order."""
    return [n for n in A.walk(node)
            if isinstance(n, (A.Hole, A.Choice, A.MinRepeat))]


def walk_ir(node):
    """IrExpr/IrInstr nodes in pre-order."""
    stack = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, (I.IrExpr, I.IrInstr)):
            yield node
            stack.extend(reversed(vars(node).values()))
        elif isinstance(node, list):
            stack.extend(reversed(node))


def subclasses(cls):
    """Every class derived from ``cls``, at any depth."""
    out = set()
    for sub in cls.__subclasses__():
        out |= {sub} | subclasses(sub)
    return out


def code(lit):
    """The literal code of a DIMACS literal: ``2v`` for ``v``, ``2v + 1``
    for ``-v``."""
    return 2 * lit if lit > 0 else -2 * lit + 1


def add_clause(solver, lits):
    """Add one clause of DIMACS literals, making its variables first.  The
    solver takes clauses that repeat no variable, as the bit-blaster
    emits them, so a repeated literal is dropped and a tautology
    skipped."""
    solver.ensure_vars(max(map(abs, lits), default=0))
    codes = list(dict.fromkeys(map(code, lits)))
    if not any(c ^ 1 in codes for c in codes):
        solver.add_clauses([codes])


def bool_var(name):
    """A bool term over a fresh 1-bit variable, built as
    ``SymbolicUnknowns`` builds a bool hole."""
    return B.eq(B.var(name, 1), B.const(1))


@pytest.fixture
def front_end():
    return run_front_end


@pytest.fixture
def default_config():
    return engine.EngineConfig()


MULT2 = ("Test.java", "SimpleMath.java")
DB = ("DBConnection.java", "Automaton.java", "TestDBConnection.java")
DB_TWO_STATE = ("DBConnection.java", "AutomatonTwoState.java",
                "TestDBConnection.java")
CADSR = ("CADsR.java", "Automaton.java", "TestCADsR.java")
CADSR_SMALL = ("CADsR.java", "Automaton.java", "TestCADsRSmall.java")
