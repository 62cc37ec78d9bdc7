"""Shared fixtures and pipeline helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from sketchsynth import ast_nodes as A
from sketchsynth import bitvec as B
from sketchsynth import engine
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
    program = lower_program(ast, table, registry)
    return ast, registry, table, program


def find_type(ast, name):
    """The top-level type declaration called ``name``, or None."""
    return next((d for d in ast.top_level_types() if d.name == name), None)


def walk_unknowns(node):
    """Hole/Choice/MinRepeat nodes in pre-order."""
    return [n for n in A.walk(node)
            if isinstance(n, (A.Hole, A.Choice, A.MinRepeat))]


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
