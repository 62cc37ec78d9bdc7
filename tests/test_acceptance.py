"""End-to-end acceptance gate.

Each test exercises the full tool (CLI entry point or engine API) against an
independent oracle:

1. mult2 end-to-end: exit 0 in < 1 s, canonical solution, reparse-and-run.
2. connection-monitor synthesis: 3 states at repeat depth 4, and the decoded
   automaton is language-equivalent to a hand-written reference DFA (product
   construction).
3. identifier-automaton synthesis: the repeat depth and state count equal
   the minimal (rules, states) that a brute-force search finds for the
   example harness, and the decoded automaton labels every example as the
   harness does (the examples themselves are checked against c(a|d)+r).
   Exact c(a|d)+r is not asserted: it needs >= 5 states and 14 rules.
4. underconstrained harness: solving succeeds, passes the reduced harness,
   but fails the length-<=6 oracle (overfitting is observable).
5. over-constrained monitor (2 states hard-wired) is reported unsolvable.
6. differential check of verdict, minimal objective and canonical assignment
   against brute-force enumeration over 200 generated tiny sketches.
7. decode soundness: emitted sources are sketch-free and reparse-and-run
   passes every harness.
8. determinism: rerunning criteria 1-3 with --jobs 4 --seed 0 produces
   byte-identical solution files.
"""

import itertools
import random
import re
import time
from pathlib import Path

import pytest

from conftest import (
    CADSR, CADSR_SMALL, DB, DB_TWO_STATE, MULT2, PROGRAMS, program_files,
    run_front_end,
)
from sketchsynth import ast_nodes as A
from sketchsynth import cli, engine
from sketchsynth.interp import ConcreteUnknowns, Interp
from sketchsynth.parser import parse_program


def run_cli(tmp_path, names, *extra, sub="result"):
    out = tmp_path / sub
    t0 = time.monotonic()
    code = cli.main([*program_files(*names), "--out", str(out), *extra])
    return code, out, time.monotonic() - t0


def read_solution(out):
    records = {}
    stats = {}
    for line in (out / "solution.txt").read_text().splitlines():
        if line.startswith("stats "):
            stats = dict(kv.split("=") for kv in line.split()[1:])
        else:
            kind, name, _, value = line.split()
            records[(kind, name)] = int(value)
    return records, stats


# -- decoded-automaton extraction ------------------------------------------


def extract_automaton(java_dir):
    """(num_state, init_state, rules {(state, id): next}, accept_bound)
    pattern-matched from the decoded automaton class."""
    files = sorted(java_dir.glob("*.java"))
    ast = parse_program([str(p) for p in files])
    auto = None
    for decl in ast.top_level_types():
        if isinstance(decl, A.ClassDecl) and \
                any(m.name == "transition" for m in decl.methods()):
            auto = decl
    assert auto is not None, "no decoded automaton class found"

    num_state = next(f.init.value for f in auto.fields() if f.name == "num_state")
    ctor = next(m for m in auto.methods() if m.is_constructor)
    init_state = next(
        s.expr.value.value for s in ctor.body.stmts
        if isinstance(s, A.ExprStmt) and isinstance(s.expr, A.Assign)
        and s.expr.target.ident == "state")
    accept = next(m for m in auto.methods() if m.name == "accept")
    bound_expr = accept.body.stmts[0].value
    assert bound_expr.op == "<="
    accept_bound = bound_expr.right.value

    rules = {}
    transition = next(m for m in auto.methods() if m.name == "transition")
    for node in A.walk(transition.body):
        if not isinstance(node, A.IfStmt):
            continue
        cond = node.cond
        assert cond.op == "&&"
        state_eq, id_eq = cond.left, cond.right
        assert state_eq.left.ident == "state" and id_eq.left.ident == "id"
        src, tok = state_eq.right.value, id_eq.right.value
        dst = next(
            s.expr.value.value for s in node.then.stmts
            if isinstance(s, A.ExprStmt) and isinstance(s.expr, A.Assign))
        # first matching rule wins at runtime (the body returns)
        rules.setdefault((src, tok), dst)
    return num_state, init_state, rules, accept_bound


def dfa_step(rules, state, token):
    return rules.get((state, token), state)   # no matching rule: stay put


def dfa_accepts(auto, tokens):
    num_state, state, rules, bound = auto
    for t in tokens:
        state = dfa_step(rules, state, t)
    return state <= bound


# Reference connection-state machine: Closed -open-> Open, Open -close->
# Closed, anything else -> Error (absorbing).  Token ids: 1 = open, 2 = close.
REF_DB = {
    ("C", 1): "O", ("C", 2): "E",
    ("O", 1): "E", ("O", 2): "C",
    ("E", 1): "E", ("E", 2): "E",
}
REF_DB_ACCEPTING = {"C", "O"}


def product_equivalent(auto, ref_delta, ref_accepting, ref_start, alphabet):
    """BFS over the product automaton; equivalent iff no reachable product
    state disagrees on acceptance."""
    start = (auto[1], ref_start)
    seen = {start}
    frontier = [start]
    while frontier:
        a, r = frontier.pop()
        if (a <= auto[3]) != (r in ref_accepting):
            return False
        for t in alphabet:
            nxt = (dfa_step(auto[2], a, t), ref_delta[(r, t)])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return True


def reparse_and_run(out, harness_names):
    java = sorted(str(p) for p in (out / "java").glob("*.java"))
    _, registry, _, prog = run_front_end(files=java)
    assert len(registry) == 0
    for h in harness_names:
        interp = Interp(prog, ConcreteUnknowns(prog.registry, {}), {})
        interp.run_harness(h)


def assert_sketch_free(out):
    for p in (out / "java").glob("*.java"):
        text = p.read_text()
        for token in ("??", "{|", "|}", "minrepeat"):
            assert token not in text, f"{p.name} contains {token!r}"


# -- criterion 1 -----------------------------------------------------------


def test_criterion_1_mult2_end_to_end(tmp_path):
    code, out, elapsed = run_cli(tmp_path, MULT2)
    assert code == 0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    records, _ = read_solution(out)
    assert records[("hole", "e_h1")] == 2
    assert records[("choice", "e_c1")] == 0      # index 0 selects `x`
    assert "return 2 * x;" in (out / "java" / "SimpleMath.java").read_text()
    reparse_and_run(out, ["test_Test"])


# -- criterion 2 -----------------------------------------------------------


def test_criterion_2_connection_monitor(tmp_path):
    code, out, elapsed = run_cli(tmp_path, DB)
    assert code == 0
    assert elapsed < 60.0
    records, stats = read_solution(out)
    assert records[("objective", "min_num_state_Automaton1")] == 3
    assert records[("repeat", "e_r1")] == 4
    assert stats["depth"] == "4"
    auto = extract_automaton(out / "java")
    assert auto[0] == 3
    assert product_equivalent(auto, REF_DB, REF_DB_ACCEPTING, "C",
                              alphabet=(1, 2))


# -- criterion 3 -----------------------------------------------------------


CADSR_ALPHABET = tuple(ord(c) for c in "cadr")
CADSR_RE = re.compile(r"c[ad]+r")


def cadsr_language_mismatches(auto, max_len=6):
    """Strings (length 1..max_len) where the decoded automaton disagrees
    with the c(a|d)+r oracle."""
    bad = []
    for n in range(1, max_len + 1):
        for chars in itertools.product("cadr", repeat=n):
            s = "".join(chars)
            expected = CADSR_RE.fullmatch(s) is not None
            got = dfa_accepts(auto, [ord(c) for c in s])
            if got != expected:
                bad.append(s)
    return bad


def read_examples(path):
    """[(string, accepted)] from the `assert [!] a.accept("...")` lines of
    an example harness."""
    return [(s, not neg) for neg, s in re.findall(
        r'assert\s*(!?)\s*a\.accept\("(\w*)"\)', path.read_text())]


def minimal_automaton_size(examples):
    """Brute-force (d, k): the fewest transition rules d, then the fewest
    states k, of an automaton that labels every example correctly.

    Candidates run through `dfa_accepts`: the first matching (state, id)
    rule wins, the state stays put when none matches, and a string is
    accepted iff the final state <= bound.  Holes are non-negative and a
    bound >= k-1 accepts every state, so bounds 0..k-1 cover every
    acceptance set.  A rule that reads a state
    outside 0..k-1 or a token absent from the examples never fires and can
    be dropped, so at the minimal d no rule does; d rules reach at most
    d + 1 states, so k <= d + 1.
    """
    alphabet = sorted({ord(c) for s, _ in examples for c in s})
    encoded = [([ord(c) for c in s], accepted) for s, accepted in examples]
    for d in itertools.count():
        for k in range(1, d + 2):
            states = range(k)
            rule = list(itertools.product(states, alphabet, states))
            for rules in itertools.product(rule, repeat=d):
                table = {}
                for src, tok, dst in rules:
                    table.setdefault((src, tok), dst)   # first match wins
                for init, bound in itertools.product(states, states):
                    auto = (k, init, table, bound)
                    if all(dfa_accepts(auto, toks) == accepted
                           for toks, accepted in encoded):
                        return d, k


def test_criterion_3_identifier_automaton(tmp_path):
    examples = read_examples(PROGRAMS / "TestCADsR.java")
    assert examples
    for s, accepted in examples:
        assert (CADSR_RE.fullmatch(s) is not None) == accepted, s
    code, out, elapsed = run_cli(tmp_path, CADSR)
    assert code == 0
    assert elapsed < 120.0
    records, _ = read_solution(out)
    reparse_and_run(out, ["examples_TestCADsR"])
    auto = extract_automaton(out / "java")
    # spot-check that the extracted transition table matches the decoded
    # program's own behavior before using it to check the examples
    _assert_extraction_consistent(out, auto)
    d, k = minimal_automaton_size(examples)
    reported = (records[("repeat", "e_r1")],
                records[("objective", "min_num_state_Automaton1")], auto[0])
    assert reported == (d, k, k), (
        f"reported (e_r1, objective, num_state) = {reported}; brute force "
        f"gives the minimal (rules, states) = ({d}, {k})")
    wrong = [s for s, accepted in examples
             if dfa_accepts(auto, [ord(c) for c in s]) != accepted]
    assert not wrong, (
        f"decoded automaton mislabels {wrong}; brute force gives the minimal "
        f"(rules, states) = ({d}, {k})")


def _assert_extraction_consistent(out, auto, samples=("car", "cdr", "c",
                                                      "cr", "caar", "rcar",
                                                      "carcar", "cada")):
    java = sorted(str(p) for p in (out / "java").glob("*.java"))
    _, _, _, prog = run_front_end(files=java)
    for s in samples:
        probe = f"""
        class Probe {{
            harness static void t() {{
                CADsR a = new CADsR();
                boolean r = a.accept("{s}");
                assert r == {str(dfa_accepts(auto, [ord(c) for c in s])).lower()};
            }}
        }}"""
        files = [(p, Path(p).read_text()) for p in java] + [("probe.java", probe)]
        _, _, _, prog2 = run_front_end(texts=files)
        interp = Interp(prog2, ConcreteUnknowns(prog2.registry, {}), {})
        interp.run_harness("t_Probe")


# -- criterion 4 -----------------------------------------------------------


def test_criterion_4_underconstrained_harness_overfits(tmp_path):
    code, out, _ = run_cli(tmp_path, CADSR_SMALL)
    assert code == 0
    reparse_and_run(out, ["examples_TestCADsR"])   # passes its own harness
    auto = extract_automaton(out / "java")
    _assert_extraction_consistent(out, auto)
    assert cadsr_language_mismatches(auto), (
        "expected the reduced harness to overfit, but the decoded automaton "
        "matches the full language")


# -- criterion 5 -----------------------------------------------------------


def test_criterion_5_two_state_monitor_unsolvable(tmp_path):
    code, out, elapsed = run_cli(tmp_path, DB_TWO_STATE)
    assert code == 1
    assert elapsed < 120.0
    assert not (out / "java").exists()


# -- criterion 6 -----------------------------------------------------------


MASK32 = (1 << 32) - 1


def s32(v):
    return ((v & MASK32) ^ (1 << 31)) - (1 << 31)


class Reject(Exception):
    pass


def jdiv(a, b):
    if b == 0:
        raise Reject
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def jrem(a, b):
    if b == 0:
        raise Reject
    return a - s32(jdiv(a, b)) * b


INT_OPS = {
    "+": lambda a, b: s32(a + b),
    "-": lambda a, b: s32(a - b),
    "*": lambda a, b: s32(a * b),
    "/": lambda a, b: s32(jdiv(a, b)),
    "%": lambda a, b: s32(jrem(a, b)),
}
CMP_OPS = {
    "==": lambda a, b: a == b, "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b, "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b, ">=": lambda a, b: a >= b,
}


def gen_int(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.4:
        if rng.random() < 0.5:
            lit = rng.randrange(8)
            return str(lit), lambda env, lit=lit: lit
        name = rng.choice(atoms)
        return name, lambda env, name=name: env[name]
    op = rng.choice(["+", "+", "-", "-", "*", "/", "%"])
    lt, lf = gen_int(rng, atoms, depth - 1)
    rt, rf = gen_int(rng, atoms, depth - 1)
    fn = INT_OPS[op]
    return (f"({lt} {op} {rt})",
            lambda env, fn=fn, lf=lf, rf=rf: fn(lf(env), rf(env)))


def gen_bool(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.6:
        op = rng.choice(list(CMP_OPS))
        lt, lf = gen_int(rng, atoms, 1)
        rt, rf = gen_int(rng, atoms, 1)
        fn = CMP_OPS[op]
        return (f"{lt} {op} {rt}",
                lambda env, fn=fn, lf=lf, rf=rf: fn(lf(env), rf(env)))
    kind = rng.randrange(3)
    lt, lf = gen_bool(rng, atoms, depth - 1)
    if kind == 0:
        return f"!({lt})", lambda env, lf=lf: not lf(env)
    rt, rf = gen_bool(rng, atoms, depth - 1)
    if kind == 1:
        return (f"({lt}) && ({rt})",
                lambda env, lf=lf, rf=rf: lf(env) and rf(env))
    return (f"({lt}) || ({rt})",
            lambda env, lf=lf, rf=rf: lf(env) or rf(env))


def gen_sketch(rng):
    """(source text, oracle) for one tiny sketch.

    The oracle is (hole_names, choice_arity, minimized, asserts) where
    ``asserts`` are Python closures over {name: value} environments.
    """
    n_holes = rng.randrange(0, 4)
    holes = ["a", "b", "c"][:n_holes]
    arity = rng.choice([0, 0, 2, 3])
    atoms = holes + (["x"] if arity else [])
    if not atoms:
        atoms = ["a"]
        holes = ["a"]
        n_holes = 1
    lines = [f"    static int {h} = ??;" for h in holes]
    choice_lits = [rng.randrange(8) for _ in range(arity)]
    if arity:
        lines.append("    static int x = {| "
                     + ", ".join(map(str, choice_lits)) + " |};")
    asserts = []
    body = []
    for _ in range(rng.randrange(1, 4)):
        text, fn = gen_bool(rng, atoms, rng.randrange(0, 3))
        body.append(f"        assert {text};")
        asserts.append(fn)
    minimized = bool(holes) and rng.random() < 0.4
    if minimized:
        body.append(f"        minimize({holes[0]});")
    src = ("class P {\n" + "\n".join(lines)
           + "\n    harness static void h() {\n" + "\n".join(body)
           + "\n    }\n}\n")
    return src, (holes, arity, choice_lits, minimized, asserts)


def brute_force(oracle):
    """(passing assignments sorted canonically, min objective or None)."""
    holes, arity, choice_lits, minimized, asserts = oracle
    passing = []
    for values in itertools.product(range(8), repeat=len(holes)):
        for ci in range(max(arity, 1)):
            env = dict(zip(holes, values))
            if arity:
                env["x"] = choice_lits[ci]
            try:
                if all(fn(env) for fn in asserts):
                    passing.append(values + ((ci,) if arity else ()))
            except Reject:
                pass
    if not passing:
        return [], None
    obj = min(p[0] for p in passing) if minimized else None
    if minimized:
        passing = [p for p in passing if p[0] == obj]
    return sorted(passing), obj


def test_criterion_6_differential_vs_brute_force():
    rng = random.Random(2026)
    checked = 0
    for trial in range(200):
        src, oracle = gen_sketch(rng)
        holes, arity, _, minimized, _ = oracle
        prog = run_front_end(texts=[("p.java", src)])[3]
        result = engine.solve(prog, engine.EngineConfig(hole_bits=3))
        passing, obj = brute_force(oracle)
        if not passing:
            assert isinstance(result, engine.Unsat), f"trial {trial}:\n{src}"
        else:
            assert isinstance(result, engine.Solution), f"trial {trial}:\n{src}"
            got = tuple(result.assignment.values[f"e_h{i + 1}"]
                        for i in range(len(holes)))
            if arity:
                got += (result.assignment.values["e_c1"],)
            assert got == passing[0], f"trial {trial}:\n{src}"
            if minimized:
                assert result.objective_values == {"h_P": obj}, \
                    f"trial {trial}:\n{src}"
        checked += 1
    assert checked == 200


# -- criterion 7 -----------------------------------------------------------


@pytest.mark.parametrize("names,harnesses", [
    (MULT2, ["test_Test"]),
    (DB, ["scenario_good_TestDBConnection", "scenario_bad1_TestDBConnection",
          "scenario_bad2_TestDBConnection"]),
    (CADSR, ["examples_TestCADsR"]),
    (CADSR_SMALL, ["examples_TestCADsR"]),
], ids=["mult2", "db", "cadsr", "cadsr-small"])
def test_criterion_7_decode_soundness(tmp_path, names, harnesses):
    code, out, _ = run_cli(tmp_path, names)
    assert code == 0
    assert_sketch_free(out)
    reparse_and_run(out, harnesses)


# -- criterion 8 -----------------------------------------------------------


@pytest.mark.parametrize("names", [MULT2, DB, CADSR],
                         ids=["mult2", "db", "cadsr"])
def test_criterion_8_determinism_across_jobs(tmp_path, names):
    _, out_a, _ = run_cli(tmp_path, names, sub="a")
    _, out_b, _ = run_cli(tmp_path, names, "--jobs", "4", "--seed", "0",
                          sub="b")
    assert (out_a / "solution.txt").read_bytes() == \
        (out_b / "solution.txt").read_bytes()
