"""Decode tests: substitution, emission invariants, round-trips."""

import pytest

from conftest import CADSR, DB, MULT2, program_files, run_front_end
from sketchsynth import bitvec as B
from sketchsynth import decode, engine
from sketchsynth.errors import IncompleteSolutionError
from sketchsynth.interp import ConcreteUnknowns, Interp
from sketchsynth.parser import parse_program_texts


def solve_files(names, **cfg_kw):
    ast, registry, _, prog = run_front_end(files=program_files(*names))
    cfg = engine.EngineConfig(**cfg_kw)
    result = engine.solve(prog, cfg)
    assert isinstance(result, engine.Solution)
    return ast, registry, prog, result, cfg


def test_mult2_substitution_yields_two_times_x():
    ast, registry, _, result, _ = solve_files(MULT2)
    concrete = decode.apply_solution(ast, registry, result.assignment)
    text = decode.unparse_program(concrete)
    (math_file,) = [t for f, t in text.items() if "SimpleMath" in f]
    assert "return 2 * x;" in math_file


def test_no_sketch_tokens_and_no_sketch_modifiers_in_output():
    ast, registry, _, result, _ = solve_files(DB)
    concrete = decode.apply_solution(ast, registry, result.assignment)
    blob = "".join(decode.unparse_program(concrete).values())
    for token in ("??", "{|", "|}", "minrepeat", "harness", "generator",
                  "minimize"):
        assert token not in blob


def test_minrepeat_expands_to_per_iteration_copies():
    ast, registry, _, result, _ = solve_files(DB)
    concrete = decode.apply_solution(ast, registry, result.assignment)
    blob = "".join(decode.unparse_program(concrete).values())
    depth = result.assignment.repeat_counts["e_r1"]
    assert depth == blob.count("if (state == ")


def test_unknown_free_program_round_trips_unchanged():
    ast, registry, _, prog = run_front_end(
        texts=[("f.java", "class A { int f(int x) { return x + 1; } }")])
    empty = engine.Assignment({}, {})
    assert (decode.unparse_program(decode.apply_solution(ast, registry, empty))
            == decode.unparse_program(ast))


def test_missing_value_raises_incomplete_solution():
    ast, registry, _, _ = run_front_end(
        texts=[("f.java", "class A { static int s = ??; }")])
    with pytest.raises(IncompleteSolutionError):
        decode.apply_solution(ast, registry, engine.Assignment({}, {}))


def test_bool_holes_render_as_keywords():
    ast, registry, _, _ = run_front_end(
        texts=[("f.java", "class A { static boolean b = ??; }")])
    concrete = decode.apply_solution(
        ast, registry, engine.Assignment({"e_h1": 1}, {}))
    assert "b = true" in decode.unparse_program(concrete)["f.java"]


def test_negative_hole_under_unary_minus_is_parenthesized():
    ast, registry, _, _ = run_front_end(
        texts=[("f.java", "class A { static int s = -??; }")])
    concrete = decode.apply_solution(
        ast, registry, engine.Assignment({"e_h1": B.to_unsigned(-5)}, {}))
    text = decode.unparse_program(concrete)["f.java"]
    assert "s = -(-5);" in text
    assert decode.unparse_program(parse_program_texts([("f.java", text)])) \
        == {"f.java": text}


@pytest.mark.parametrize("names", [MULT2, DB, CADSR], ids=["mult2", "db", "cadsr"])
def test_reparse_and_run_passes_all_harnesses(names):
    ast, registry, prog, result, cfg = solve_files(names)
    concrete = decode.apply_solution(ast, registry, result.assignment)
    texts = decode.unparse_program(concrete)
    _, registry2, _, prog2 = run_front_end(texts=list(texts.items()))
    assert len(registry2) == 0
    for h in prog.harnesses:
        interp = Interp(prog2, ConcreteUnknowns(prog2.registry, {}), {},
                        loop_bound=cfg.loop_bound, step_limit=cfg.step_limit)
        interp.run_harness(h)


def test_unparse_is_idempotent_after_reparse():
    ast, registry, _, result, _ = solve_files(DB)
    concrete = decode.apply_solution(ast, registry, result.assignment)
    once = decode.unparse_program(concrete)
    again = decode.unparse_program(parse_program_texts(list(once.items())))
    assert once == again
