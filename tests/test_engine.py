"""Engine tests: search order, minimization, canonical solutions, verdicts."""

import pytest

from conftest import DB, DB_TWO_STATE, MULT2, program_files, run_front_end
from sketchsynth import engine
from sketchsynth.errors import InternalError


def solve_texts(*texts, **cfg_kw):
    prog = run_front_end(
        texts=[(f"f{i}.java", t) for i, t in enumerate(texts)])[3]
    return engine.solve(prog, engine.EngineConfig(**cfg_kw)), prog


def test_repeat_vectors_ascending_total_then_lexicographic():
    vecs = list(engine.repeat_vectors(["a", "b"], 2))
    as_tuples = [(v["a"], v["b"]) for v in vecs]
    assert as_tuples == [(0, 0),
                         (0, 1), (1, 0),
                         (0, 2), (1, 1), (2, 0),
                         (1, 2), (2, 1),
                         (2, 2)]
    assert list(engine.repeat_vectors([], 8)) == [{}]


def test_hole_width_covers_program_literals():
    prog = run_front_end(files=program_files(*MULT2))[3]
    cfg = engine.EngineConfig(hole_bits=5)
    assert engine.effective_hole_width(prog, cfg) == 5
    assert engine.effective_hole_width(
        prog, engine.EngineConfig(hole_bits=2)) >= prog.max_literal.bit_length()


def test_simple_hole_solved_and_verified():
    result, prog = solve_texts(
        "class A { static int s = ??; "
        "harness static void t() { assert s * 3 == 12; } }")
    assert isinstance(result, engine.Solution)
    assert result.assignment.values == {"e_h1": 4}
    engine.replay(prog, result.assignment, result.objective_values,
                  engine.EngineConfig())


def test_canonical_solution_is_minimal_in_registry_order():
    # many passing assignments; the reported one must be the smallest
    result, _ = solve_texts(
        "class A { static int a = ??; static int b = ??; "
        "harness static void t() { assert a + b >= 0; } }")
    assert result.assignment.values == {"e_h1": 0, "e_h2": 0}


def test_choice_index_canonically_minimal():
    result, _ = solve_texts(
        "class A { static int f(int x) { return {| x, x + 0, 7 |}; } "
        "harness static void t() { assert f(3) == 3; } }")
    assert result.assignment.values["e_c1"] == 0


def test_objective_minimized_before_canonicalization():
    result, _ = solve_texts("""
        class A {
            static int cost = ??;
            static int other = ??;
            harness static void t() {
                assert cost >= 3 && cost <= 9;
                assert other > cost;
                minimize(cost);
            }
        }""")
    assert result.objective_values == {"t_A": 3}
    assert result.assignment.values == {"e_h1": 3, "e_h2": 4}


def test_negative_objective_minimized_as_signed():
    # read as unsigned, s - 10 would be smallest at s = 10
    result, _ = solve_texts("""
        class A {
            static int s = ??;
            harness static void t() {
                assert s >= 3;
                minimize(s - 10);
            }
        }""")
    assert result.objective_values == {"t_A": -7}
    assert result.assignment.values == {"e_h1": 3}


def test_minimal_repeat_depth_wins_over_objective():
    # depth 1 admits objective value 5; depth 2 would admit 0, but the
    # search must never get there
    result, _ = solve_texts("""
        class A {
            static int n = ??;
            harness static void t() {
                int acc = 0;
                minrepeat { acc = acc + 1; }
                assert acc >= 1;
                assert n >= 5 - acc * 4;
                minimize(n);
            }
        }""")
    assert result.assignment.repeat_counts == {"e_r1": 1}
    assert result.objective_values == {"t_A": 1}


def test_unsat_within_bounds():
    result, _ = solve_texts(
        "class A { static int s = ??; "
        "harness static void t() { assert s < 0; } }",
        hole_bits=3)
    assert isinstance(result, engine.Unsat)


def test_all_harnesses_must_pass_together():
    result, _ = solve_texts(
        "class A { static int s = ??; "
        "harness static void t1() { assert s > 2; } "
        "harness static void t2() { assert s < 2; } }")
    assert isinstance(result, engine.Unsat)


def test_bool_hole_solved():
    result, _ = solve_texts(
        "class A { static boolean flag = ??; "
        "harness static void t() { assert flag; } }")
    assert result.assignment.values == {"e_h1": 1}


def test_timeout_verdict():
    prog = run_front_end(files=program_files(*DB))[3]
    result = engine.solve(prog, engine.EngineConfig(timeout=0.01))
    assert isinstance(result, engine.Timeout)
    # sibling verdicts: a timeout never passes for a proof of unsat
    assert not isinstance(result, engine.Unsat)


def test_two_state_automaton_is_unsat(default_config):
    prog = run_front_end(files=program_files(*DB_TWO_STATE))[3]
    result = engine.solve(prog, default_config)
    assert isinstance(result, engine.Unsat)


def test_eval_harness_classifies_outcomes():
    prog = run_front_end(texts=[("f.java", """
        class A {
            static int s = ??;
            harness static void t() { assert 6 / s == 3; }
        }""")])[3]
    cfg = engine.EngineConfig()
    ok = engine.eval_harness(prog, "t_A", engine.Assignment({"e_h1": 2}, {}), cfg)
    assert ok.reason is None
    div0 = engine.eval_harness(prog, "t_A", engine.Assignment({"e_h1": 0}, {}), cfg)
    assert div0.reason == "division by zero"
    wrong = engine.eval_harness(prog, "t_A", engine.Assignment({"e_h1": 1}, {}), cfg)
    assert wrong.reason == "assertion failed"


def test_replay_reads_objectives_after_static_init_and_rejects_tampering():
    # the harness changes c before minimize(c); the objective is c as the
    # static initializer leaves it, so the minimum is 2, not 3
    result, prog = solve_texts(
        "class A { static int c = ??; harness static void t() { "
        "c = c + 1; assert c >= 3; minimize(c); } }")
    assert result.assignment.values == {"e_h1": 2}
    assert result.objective_values == {"t_A": 2}
    cfg = engine.EngineConfig()
    engine.replay(prog, result.assignment, result.objective_values, cfg)
    with pytest.raises(InternalError, match="objective 't_A' gives 2"):
        engine.replay(prog, result.assignment, {"t_A": 3}, cfg)
    with pytest.raises(InternalError, match="harness 't_A' failed"):
        engine.replay(prog, engine.Assignment({"e_h1": 1}, {}),
                      result.objective_values, cfg)


def test_solutions_are_deterministic_across_runs():
    results = []
    for _ in range(2):
        prog = run_front_end(files=program_files(*DB))[3]
        r = engine.solve(prog, engine.EngineConfig())
        results.append((r.assignment.values, r.assignment.repeat_counts,
                        r.objective_values, r.depth))
    assert results[0] == results[1]
