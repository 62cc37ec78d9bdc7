"""Engine tests: search order, minimization, canonical solutions, verdicts."""

import random
import time

import pytest

from conftest import (CADSR, CADSR_SMALL, DB, DB_TWO_STATE, MULT2,
                      add_clause, program_files, run_front_end)
from sketchsynth import bitvec as B
from sketchsynth import cli, engine, sat
from sketchsynth.cnf import CnfBuilder
from sketchsynth.errors import DeadlineExceeded, InternalError
from sketchsynth.interp import ConcreteUnknowns, Interp


def solve_texts(*texts, **cfg_kw):
    prog = run_front_end(
        texts=[(f"f{i}.java", t) for i, t in enumerate(texts)])[3]
    return engine.solve(prog, engine.EngineConfig(**cfg_kw)), prog


def test_repeat_vectors_ascending_total_then_lexicographic():
    vecs = [v for total in range(5)
            for v in engine.repeat_vectors(["a", "b"], 2, total)]
    as_tuples = [(v["a"], v["b"]) for v in vecs]
    assert as_tuples == [(0, 0),
                         (0, 1), (1, 0),
                         (0, 2), (1, 1), (2, 0),
                         (1, 2), (2, 1),
                         (2, 2)]
    assert list(engine.repeat_vectors(["a", "b"], 2, 5)) == []
    assert list(engine.repeat_vectors([], 8, 0)) == [{}]
    assert list(engine.repeat_vectors([], 8, 1)) == []


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


def test_empty_members_solve():
    result, _ = solve_texts(
        "class A { ; static int f() { return 1; } ; "
        "harness static void t() { assert f() == ??; } } ;")
    assert result.assignment.values == {"e_h1": 1}


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


def test_replay_reads_objectives_where_they_run_and_rejects_tampering():
    # the harness changes c before minimize(c); the objective is c where
    # the statement runs, so the minimum is 3, not the initializer's 2
    result, prog = solve_texts(
        "class A { static int c = ??; harness static void t() { "
        "c = c + 1; assert c >= 3; minimize(c); } }")
    assert result.assignment.values == {"e_h1": 2}
    assert result.objective_values == {"t_A": 3}
    cfg = engine.EngineConfig()
    engine.replay(prog, result.assignment, result.objective_values, cfg)
    with pytest.raises(InternalError, match="objective 't_A' gives 3"):
        engine.replay(prog, result.assignment, {"t_A": 2}, cfg)
    with pytest.raises(InternalError, match="harness 't_A' failed"):
        engine.replay(prog, engine.Assignment({"e_h1": 1}, {}),
                      result.objective_values, cfg)


@pytest.mark.parametrize("decls, init", [
    ("static int x; static int y; ", ""), ("", "int "),
], ids=["statics", "locals"])
def test_objective_is_read_where_minimize_runs(decls, init):
    result, _ = solve_texts(
        f"class M {{ {decls}harness static void h() {{ {init}x = ??; "
        f"{init}y = ??; assert x + y == 10; minimize(y); }} }}")
    assert result.assignment.values == {"e_h1": 10, "e_h2": 0}
    assert result.objective_values == {"h_M": 0}


def test_objective_in_a_loop_is_its_last_iteration():
    # the first iteration sets the objective to a, the last to b
    result, _ = solve_texts(
        "class A { harness static void t() { int a = ??; int b = ??; "
        "int i = 0; int s = 0; while (i < 2) { "
        "if (i == 0) { s = a; } else { s = b; } minimize(s); i = i + 1; } "
        "assert a + b == 5; } }")
    assert result.assignment.values == {"e_h1": 5, "e_h2": 0}
    assert result.objective_values == {"t_A": 0}


def test_objective_is_zero_where_minimize_is_skipped():
    result, prog = solve_texts(
        "class A { harness static void t() { int x = ??; int y = ??; "
        "assert x + y == 10 && y >= 3; if (??) { minimize(y); } } }")
    assert result.assignment.values == {"e_h1": 0, "e_h2": 10, "e_h3": 0}
    assert result.objective_values == {"t_A": 0}
    cfg = engine.EngineConfig()
    taken = engine.Assignment({"e_h1": 7, "e_h2": 3, "e_h3": 1}, {})
    assert engine.eval_harness(prog, "t_A", taken, cfg).objectives == \
        {"t_A": 3}
    skipped = engine.Assignment({"e_h1": 7, "e_h2": 3, "e_h3": 0}, {})
    assert engine.eval_harness(prog, "t_A", skipped, cfg).objectives == {}
    engine.replay(prog, skipped, {"t_A": 0}, cfg)


def test_solutions_are_deterministic_across_runs():
    results = []
    for _ in range(2):
        prog = run_front_end(files=program_files(*DB))[3]
        r = engine.solve(prog, engine.EngineConfig())
        results.append((r.assignment.values, r.assignment.repeat_counts,
                        r.objective_values, r.depth))
    assert results[0] == results[1]


@pytest.mark.parametrize("files, calls", [(MULT2, 2), (CADSR_SMALL, 4)],
                         ids=["mult2", "cadsr-small"])
def test_canonical_answer_takes_one_sat_call(monkeypatch, files, calls):
    # one search per refuted vector and one for the solved vector, then one
    # call that decides the preferred bits first
    made = []
    solve = sat.Solver.solve

    def counted(self, *args, **kwargs):
        made.append(kwargs)
        return solve(self, *args, **kwargs)
    monkeypatch.setattr(sat.Solver, "solve", counted)
    prog = run_front_end(files=program_files(*files))[3]
    assert isinstance(engine.solve(prog, engine.EngineConfig()),
                      engine.Solution)
    assert len(made) == calls
    assert [bool(kw.get("preferred")) for kw in made] == \
        [False] * (calls - 1) + [True]


# per fixture: SAT calls, conflicts, decisions and propagations summed over
# its solvers, then variables and clauses summed over its builders
SEARCH_COUNTERS = {
    "mult2": (MULT2, (2, 0, 0, 36, 36, 99)),
    "db": (DB, (6, 199, 941, 34072, 1825, 5280)),
    "db-two-state": (DB_TWO_STATE, (6, 208, 586, 43716, 3538, 10492)),
    "cadsr": (CADSR, (4, 22, 124, 5588, 1104, 3248)),
    "cadsr-small": (CADSR_SMALL, (4, 22, 124, 3945, 824, 2300)),
}

# the loop of test_cli.py::test_loop_of_1200_additions_solves
ADDITION_LOOP = ("class A { harness static void t() { int s = 0; int i = 0; "
                 "while (i < 1200) { s = s + ??; i = i + 1; } "
                 "assert s != 0; } }")


def search_counters(prog, cfg):
    """SAT calls, conflicts, decisions and propagations summed over the
    solvers of one ``engine.solve``, then variables and clauses summed
    over its builders."""
    builders, calls = [], []
    init, solve = CnfBuilder.__init__, sat.Solver.solve

    def built(self, *args, **kwargs):
        init(self, *args, **kwargs)
        builders.append(self)

    def counted(self, *args, **kwargs):
        calls.append(self)
        return solve(self, *args, **kwargs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(CnfBuilder, "__init__", built)
        m.setattr(sat.Solver, "solve", counted)
        engine.solve(prog, cfg)
    solvers = dict.fromkeys(calls)      # every solver is called
    return (len(calls),
            *(sum(getattr(s, k) for s in solvers)
              for k in ("conflicts", "decisions", "propagations")),
            sum(b.nvars for b in builders),
            sum(len(b.clauses) for b in builders))


def test_search_counters_of_the_paper_sketches():
    """The clause stream and the search are pinned: a change that makes a
    step cheaper keeps every counter; one that changes the search states
    its new counters here."""
    got = {name: search_counters(
               run_front_end(files=program_files(*files))[3],
               engine.EngineConfig())
           for name, (files, _) in SEARCH_COUNTERS.items()}
    assert got == {name: want for name, (_, want) in SEARCH_COUNTERS.items()}


def test_search_counters_of_the_1200_addition_loop():
    """The search where variable order and clause intake cost the most:
    a chain of 1200 adders over one hole, pinned as the paper sketches
    are."""
    prog = run_front_end(texts=[("A.java", ADDITION_LOOP)])[3]
    assert search_counters(prog, engine.EngineConfig(loop_bound=2000)) == \
        (2, 2, 22, 342374, 108040, 372397)


def test_an_expired_deadline_stops_every_layer():
    prog = run_front_end(texts=[("f.java", """
        class A {
            harness static void t() { int s = ??; assert s * s == 9; }
        }""")])[3]
    cfg = engine.EngineConfig()
    with pytest.raises(DeadlineExceeded):
        Interp(prog, ConcreteUnknowns({"e_h1": 3}), {}, cfg,
               deadline=0.0).run_harness("t_A")
    with pytest.raises(DeadlineExceeded):
        engine.eval_harness(prog, "t_A", engine.Assignment({"e_h1": 3}, {}),
                            cfg, deadline=0.0)
    with pytest.raises(DeadlineExceeded):
        CnfBuilder(deadline=0.0).assert_term(B.eq(B.var("x", 8),
                                                  B.var("y", 8)))
    s = sat.Solver(deadline=0.0)
    with pytest.raises(DeadlineExceeded):
        add_clause(s, [1, 2])
    s.deadline = None
    add_clause(s, [1, 2])
    s.deadline = 0.0
    with pytest.raises(DeadlineExceeded):
        s.solve()


def test_timeout_reports_the_wall_time_it_took():
    # the interrupted vector's terms and clauses are freed before the
    # verdict reads the clock
    text = ("class A { harness static void t() { int s = 1; int i = 0; "
            "while (i < 400) { s = s * ?? + ??; i = i + 1; } "
            "assert s != 0; } }")
    prog = run_front_end(texts=[("f.java", text)])[3]
    t0 = time.monotonic()
    result = engine.solve(prog, engine.EngineConfig(timeout=1.0,
                                                    loop_bound=2000))
    elapsed_ms = (time.monotonic() - t0) * 1000
    assert isinstance(result, engine.Timeout)
    assert 0 <= elapsed_ms - result.wall_ms < 50


# -- the range formula ----------------------------------------------------


def gen_repeat_sketch(rng):
    """A sketch with one or two minrepeat blocks: in the harness, whose
    copies may return early, and in a helper whose copies return early;
    a copy may run a loop; the harness may minimize.  Values only grow
    from 0: on some sketches whose copies drive a signed objective
    negative, deepening takes a minute."""
    n_blocks = rng.choice([1, 2])
    in_helper = n_blocks == 2 and rng.random() < 0.4
    copy = [
        "a = a + ??;",
        "a = a + {| 1, 2, 3 |};",
        "if (?? == 1) { a = a + 2; }",
        "b = b + a;",
        "int i = 0; while (i < {| 1, 2 |}) { b = b + 1; i = i + 1; }",
        "if (a == ??) { return; }",
    ]
    blocks = []
    for _ in range(n_blocks - in_helper):
        stmts = rng.sample(copy, rng.randrange(1, 3))
        blocks.append("minrepeat { " + " ".join(stmts) + " }")
    helper = ""
    if in_helper:
        helper = ("static int g(int x) { int t = x; minrepeat { "
                  "if (t == ??) { return t + ??; } t = t + {| 1, 2 |}; } "
                  "return t; } ")
        blocks.insert(rng.randrange(len(blocks) + 1), "a = g(a);")
    checks = []
    for _ in range(rng.randrange(1, 3)):
        var, op = rng.choice("ab"), rng.choice(["==", ">=", "!=", "<"])
        checks.append(f"assert {var} {op} {rng.randrange(8)};")
    if rng.random() < 0.4:
        checks.append(f"minimize({rng.choice(['a', 'b', 'a + b'])});")
    return ("class P { " + helper + "harness static void h() { "
            "int a = 0; int b = 0; " + " ".join(blocks) + " "
            + " ".join(checks) + " } }")


def deepen(prog, cfg, lo):
    """The answer of the first repeat vector, from total ``lo`` in search
    order, that has one, found one vector at a time; None if none has."""
    names = [r.name for r in prog.registry.repeats]
    for total in range(lo, len(names) * cfg.unroll_max + 1):
        for vector in engine.repeat_vectors(names, cfg.unroll_max, total):
            answer, _ = engine._solve_vector(prog, vector, cfg, None)
            if answer is not None:
                return answer
    return None


def test_range_formula_agrees_with_deepening_on_generated_sketches():
    """From total 0, and from a random total, the range formula gives the
    verdict, vector, assignment and objective values that deepening one
    vector at a time gives, and its answers replay."""
    rng = random.Random(28)
    cfg = engine.EngineConfig(hole_bits=3, unroll_max=3, loop_bound=3)
    solved = 0
    for _ in range(200):
        prog = run_front_end(texts=[("P.java", gen_repeat_sketch(rng))])[3]
        top = len(prog.registry.repeats) * cfg.unroll_max
        for lo in (0, rng.randrange(1, top + 1)):
            answer, _ = engine._solve_range(prog, lo, cfg, None)
            assert repr(answer) == repr(deepen(prog, cfg, lo))
            if answer is not None:
                assert answer.depth == sum(
                    answer.assignment.repeat_counts.values())
                engine.replay(prog, answer.assignment,
                              answer.objective_values, cfg)
                solved += 1
    assert 100 < solved < 350     # both verdicts are well represented


def test_range_formula_decides_the_depths_past_the_switch():
    """db-two-state refutes depths 0-4 one at a time; then the refuted
    depths have cost as much as the rest would, and one formula refutes
    depths 5-8."""
    prog = run_front_end(files=program_files(*DB_TWO_STATE))[3]
    result = engine.solve(prog, engine.EngineConfig())
    assert isinstance(result, engine.Unsat) and result.depth_reached == 8
    assert result.steps == [
        "depth 0 e_r1=0: unsat, 31 vars", "depth 1 e_r1=1: unsat, 131 vars",
        "depth 2 e_r1=2: unsat, 275 vars", "depth 3 e_r1=3: unsat, 459 vars",
        "depth 4 e_r1=4: unsat, 679 vars",
        "depths 5-8: one formula, unsat, 1963 vars"]
    # db solves at depth 4 before the refuted depths cost enough
    prog = run_front_end(files=program_files(*DB))[3]
    assert engine.solve(prog, engine.EngineConfig()).steps[-2:] == [
        "depth 3 e_r1=3: unsat, 524 vars", "depth 4 e_r1=4: sat, 759 vars"]


@pytest.mark.parametrize("paid, last, total, top, switch", [
    (1575, 679, 4, 8, True),        # db-two-state after depth 4
    (1066, 524, 3, 8, False),       # db after depth 3
    (100, 0, 2, 8, False),          # no solver at this total
    (100, 10, 0, 8, False),         # depth 0 alone never switches
    (100, 10, 8, 8, False),         # nothing is left
])
def test_range_switch_is_the_ski_rental_rule(paid, last, total, top, switch):
    assert engine._switches(paid, last, total, top) is switch


@pytest.mark.parametrize("copy, args, code, why", [
    ("", ["--step-limit", "70"], cli.EXIT_TIMEOUT, "step limit of 70 exceeded"),
    ("sb.append(1); ", [], cli.EXIT_SOLVED,
     "library call 'StringBuilder.append' with side effects under a "
     "symbolic condition is not supported"),
], ids=["step-limit", "mutating-library-call"])
def test_range_fallback_gives_the_exit_and_message_of_deepening(
        tmp_path, capsys, monkeypatch, copy, args, code, why):
    """Depths 0-4 are refuted, so the range 5-8 is tried in one formula;
    it overruns the step limit that depth 5 fits in, or it reaches a
    mutating library call under a copy's guard, and the search goes on
    one vector at a time, as a search that never switches does."""
    src = tmp_path / "A.java"
    src.write_text("class A { harness static void t() { int a = 0; "
                   "StringBuilder sb = new StringBuilder(); minrepeat { "
                   f"int d = ??; assert d <= 1; a = a + d; {copy}}} "
                   "assert a == 7; } }")
    outcomes = {}
    for label in ("switch", "never"):
        if label == "never":
            monkeypatch.setattr(engine, "_switches", lambda *rule: False)
        out = tmp_path / label
        outcomes[label] = (cli.main([str(src), "--out", str(out), *args]),
                           capsys.readouterr().err,
                           sorted(p.name for p in out.iterdir()))
    assert outcomes["switch"] == outcomes["never"]
    assert outcomes["switch"][0] == code
    if code == cli.EXIT_SOLVED:
        assert (tmp_path / "switch" / "solution.txt").read_bytes() == \
            (tmp_path / "never" / "solution.txt").read_bytes()
    log = (tmp_path / "switch" / "log" / "log.txt").read_text()
    fallback = next(l for l in log.splitlines() if l.startswith("depths 5-8"))
    assert why in fallback and fallback.endswith("; one vector at a time")


def test_range_formula_answer_is_the_answer_of_deepening(
        tmp_path, monkeypatch):
    """Depths 0-4 are refuted, and the range 5-8 is satisfiable in one
    formula: it reports the first depth that solves, 7, and the solution
    and decoded sources are those of a search that never switches."""
    src = tmp_path / "A.java"
    src.write_text("class A { harness static void t() { int a = 0; "
                   "minrepeat { int d = ??; assert d <= 1; a = a + d; } "
                   "assert a == 7; } }")
    for label in ("switch", "never"):
        if label == "never":
            monkeypatch.setattr(engine, "_switches", lambda *rule: False)
        assert cli.main([str(src), "--out", str(tmp_path / label)]) == \
            cli.EXIT_SOLVED
    log = (tmp_path / "switch" / "log" / "log.txt").read_text()
    assert [l for l in log.splitlines() if l.startswith("depth")] == [
        f"depth {d} e_r1={d}: unsat, {n} vars"
        for d, n in enumerate((0, 15, 49, 85, 123))] + [
        "depths 5-8: one formula, sat at depth 7, 465 vars"]
    for name in ("solution.txt", "java/A.java"):
        assert (tmp_path / "switch" / name).read_bytes() == \
            (tmp_path / "never" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "switch" / "java").iterdir()) \
        == sorted(p.name for p in (tmp_path / "never" / "java").iterdir())
