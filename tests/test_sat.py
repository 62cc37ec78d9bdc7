"""SAT solver tests: brute-force differential checks, assumptions,
determinism."""

import functools
import itertools
import operator
import random

import pytest

from conftest import add_clause
from sketchsynth import sat


def brute_force(nvars, clauses, fixed=()):
    """All satisfying assignments as tuples of bools (index 0 = var 1)."""
    sols = []
    for bits in itertools.product([False, True], repeat=nvars):
        def val(lit):
            v = bits[abs(lit) - 1]
            return v if lit > 0 else not v
        if all(val(l) for l in fixed) and \
                all(any(val(l) for l in cl) for cl in clauses):
            sols.append(bits)
    return sols


def random_cnf(rng, nvars, nclauses):
    out = []
    for _ in range(nclauses):
        k = rng.randrange(1, 4)
        cl = [rng.randrange(1, nvars + 1) * rng.choice([1, -1])
              for _ in range(k)]
        out.append(cl)
    return out


def check_model(model, nvars, clauses, fixed=()):
    def val(lit):
        v = (abs(lit) in model)
        return v if lit > 0 else not v
    assert all(val(l) for l in fixed)
    for cl in clauses:
        assert any(val(l) for l in cl), f"clause {cl} falsified"


def test_verdict_matches_brute_force_on_random_instances():
    rng = random.Random(11)
    for trial in range(300):
        nvars = rng.randrange(1, 9)
        clauses = random_cnf(rng, nvars, rng.randrange(1, 26))
        s = sat.Solver()
        s.ensure_vars(nvars)
        for cl in clauses:
            add_clause(s, list(cl))
        model = s.solve()
        expected = brute_force(nvars, clauses)
        if model is None:
            assert not expected, f"trial {trial}: solver missed a solution"
        else:
            check_model(model, nvars, clauses)


def test_assumptions_match_brute_force():
    rng = random.Random(23)
    for trial in range(200):
        nvars = rng.randrange(2, 8)
        clauses = random_cnf(rng, nvars, rng.randrange(1, 20))
        s = sat.Solver()
        s.ensure_vars(nvars)
        for cl in clauses:
            add_clause(s, list(cl))
        for _ in range(3):
            k = rng.randrange(0, nvars)
            fixed = rng.sample(
                [v * rng.choice([1, -1]) for v in range(1, nvars + 1)], k)
            model = s.solve(assumptions=fixed)
            expected = brute_force(nvars, clauses, fixed)
            if model is None:
                assert not expected
            else:
                check_model(model, nvars, clauses, fixed)


def test_solver_reusable_across_calls_with_added_clauses():
    s = sat.Solver()
    s.ensure_vars(3)
    add_clause(s, [1, 2])
    assert s.solve() is not None
    add_clause(s, [-1])
    m = s.solve()
    assert m is not None and 2 in m
    add_clause(s, [-2])
    assert s.solve() is None


def test_unit_and_empty_clauses():
    s = sat.Solver()
    add_clause(s, [4])
    m = s.solve()
    assert m is not None and 4 in m
    s2 = sat.Solver()
    add_clause(s2, [])
    assert s2.solve() is None


def test_deterministic_models():
    rng = random.Random(5)
    clauses = random_cnf(rng, 12, 30)
    models = []
    for _ in range(2):
        s = sat.Solver()
        s.ensure_vars(12)
        for cl in clauses:
            add_clause(s, list(cl))
        models.append(s.solve())
    assert models[0] == models[1]


def test_deadline_raises_timeout():
    # pigeonhole instance: guaranteed to run long enough to hit the
    # periodic deadline check
    pigeons, holes = 9, 8
    var = lambda p, h: p * holes + h + 1
    s = sat.Solver(deadline=0.0)  # already expired
    try:
        for p in range(pigeons):
            add_clause(s, [var(p, h) for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    add_clause(s, [-var(p1, h), -var(p2, h)])
    except sat.Timeout:
        return
    with pytest.raises(sat.Timeout):
        s.solve()


def pigeonhole(pigeons, holes):
    """Every pigeon in some hole, no two pigeons in one hole."""
    var = lambda p, h: p * holes + h + 1
    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


def solver_for(nvars, clauses):
    s = sat.Solver()
    s.ensure_vars(nvars)
    for cl in clauses:
        add_clause(s, list(cl))
    return s


def assert_order_is_a_heap_of_distinct_variables(s):
    heap = s.heap
    assert len(heap) == len(set(heap)) <= s.nvars
    assert all(s.heap_pos[v] == i for i, v in enumerate(heap))
    assert sum(1 for p in s.heap_pos if p >= 0) == len(heap)
    for i in range(1, len(heap)):
        parent, child = heap[(i - 1) // 2], heap[i]
        assert (s.activity[parent], -parent) >= (s.activity[child], -child)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_pigeonhole_unsat_and_sat(n):
    s = solver_for(*pigeonhole(n + 1, n))
    assert s.solve() is None
    assert_order_is_a_heap_of_distinct_variables(s)
    if n == 6:
        assert s.conflicts > sat.RESTART_UNIT    # the proof restarts
    nvars, clauses = pigeonhole(n, n)
    model = solver_for(nvars, clauses).solve()
    assert model is not None
    check_model(model, nvars, clauses)


def test_luby_sequence():
    assert [sat.luby(i) for i in range(15)] == \
        [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]


def _true_sets(nvars):
    """Per variable, the bit set (as an int) of the assignments where it is
    true: bit ``a`` stands for the assignment whose bit ``v - 1`` is ``v``."""
    sets = [0]
    for v in range(1, nvars + 1):
        half = 1 << (v - 1)
        bits, width = ((1 << half) - 1) << half, 2 * half
        while width < 1 << nvars:
            bits |= bits << width
            width *= 2
        sets.append(bits)
    return sets


def _models(true_sets, clauses):
    """Bit set of the assignments satisfying every clause."""
    full = (1 << (1 << (len(true_sets) - 1))) - 1
    out = full
    for cl in clauses:
        out &= functools.reduce(
            operator.or_,
            (true_sets[l] if l > 0 else full ^ true_sets[-l] for l in cl), 0)
    return out


def test_incremental_calls_match_brute_force():
    """The engine's pattern: one solver, clauses added between solves under
    assumptions, learnt clauses kept throughout."""
    rng = random.Random(31)
    nvars = 12
    true_sets = _true_sets(nvars)
    for trial in range(8):
        clauses = []
        s = sat.Solver()
        for step in range(24):
            added = [[v * rng.choice([1, -1])
                      for v in rng.sample(range(1, nvars + 1), 3)]
                     for _ in range(25 if step == 0 else rng.randrange(0, 3))]
            for cl in added:
                add_clause(s, list(cl))
            clauses += added
            fixed = [v * rng.choice([1, -1])
                     for v in rng.sample(range(1, nvars + 1), rng.randrange(0, 5))]
            model = s.solve(assumptions=fixed)
            expected = _models(true_sets, clauses + [[l] for l in fixed])
            if model is None:
                assert not expected, f"trial {trial} step {step}: missed a model"
            else:
                check_model(model, nvars, clauses, fixed)
        assert_order_is_a_heap_of_distinct_variables(s)


def test_counters_repeat_exactly():
    counts = []
    for _ in range(2):
        s = solver_for(*pigeonhole(7, 6))
        assert s.solve() is None
        counts.append((s.conflicts, s.decisions, s.propagations))
    assert counts[0] == counts[1]
    conflicts, decisions, propagations = counts[0]
    assert 0 < conflicts < decisions < propagations


def test_learnt_clauses_are_implied_by_the_clauses():
    """Every clause that conflict analysis learns (after minimization) holds
    in every model of the clauses given, under any assumptions."""
    nvars = 14
    true_sets = _true_sets(nvars)
    learnt_total = 0
    for trial in range(40):
        rng = random.Random(trial)
        clauses = [[v * rng.choice([1, -1])
                    for v in rng.sample(range(1, nvars + 1), 3)]
                   for _ in range(rng.choice([40, 50, 56, 60]))]
        models = _models(true_sets, clauses)
        s = solver_for(nvars, clauses)
        learnt = []
        analyze = s.analyze
        s.analyze = lambda confl: learnt.append(analyze(confl)) or learnt[-1]
        for _ in range(6):
            fixed = [v * rng.choice([1, -1]) for v in
                     rng.sample(range(1, nvars + 1), rng.choice([0, 1, 3]))]
            model = s.solve(assumptions=fixed)
            assert (model is None) == \
                (not _models(true_sets, [[l] for l in fixed]) & models)
        for codes, _ in learnt:
            clause = [c >> 1 if c % 2 == 0 else -(c >> 1) for c in codes]
            assert _models(true_sets, [clause]) & models == models, clause
        learnt_total += len(learnt)
    assert learnt_total > 200


def test_decisions_take_the_smallest_index_among_equal_activities():
    s = sat.Solver()
    s.ensure_vars(6)
    assert_order_is_a_heap_of_distinct_variables(s)
    for cl in ([1, 2], [4, 5], [6, -3]):
        add_clause(s, cl)
    # all activities are 0: x1 = 0 forces x2, x3 = 0, x4 = 0 forces x5,
    # then x6 = 0
    assert s.solve() == {2, 5}
    assert s.decisions == 4


def _next_assumptions(rng, prev, nvars):
    """``prev`` extended, with its last literal flipped, truncated, or
    diverging early (at its first or second literal)."""
    kind = rng.choice(["extend", "flip", "truncate", "diverge"]) if prev \
        else "extend"
    if kind == "flip":
        return prev[:-1] + [-prev[-1]]
    if kind == "truncate":
        return prev[:rng.randrange(len(prev))]
    head = prev if kind == "extend" else \
        prev[:rng.randrange(min(2, len(prev)))]
    used = {abs(l) for l in head}
    if kind == "diverge":
        head = head + [-prev[len(head)]]
        used.add(abs(head[-1]))
    free = [v for v in range(1, nvars + 1) if v not in used]
    return head + [v * rng.choice([1, -1])
                   for v in rng.sample(free, min(len(free),
                                                 rng.randrange(1, 4)))]


def test_assumption_sequences_match_brute_force():
    """Each call's assumptions share a prefix with the previous call's, so
    the solver keeps those levels of its trail; clauses come in between."""
    rng = random.Random(47)
    kinds = 0
    for trial in range(24):
        nvars = rng.randrange(12, 15)
        true_sets = _true_sets(nvars)
        clauses = [[v * rng.choice([1, -1])
                    for v in rng.sample(range(1, nvars + 1), 3)]
                   for _ in range(3 * nvars)]
        s = solver_for(nvars, clauses)
        fixed = []
        for step in range(30):
            if rng.random() < 0.3:
                cl = [v * rng.choice([1, -1])
                      for v in rng.sample(range(1, nvars + 1), 3)]
                add_clause(s, list(cl))
                clauses.append(cl)
            fixed = _next_assumptions(rng, fixed, nvars)
            model = s.solve(assumptions=fixed)
            expected = _models(true_sets, clauses + [[l] for l in fixed])
            if model is None:
                assert not expected, f"trial {trial} step {step}: missed a model"
            else:
                check_model(model, nvars, clauses, fixed)
                kinds |= 1
            kinds |= 2 if model is None and s.ok else 0
        assert_order_is_a_heap_of_distinct_variables(s)
    assert kinds == 3         # models and refutations under assumptions


def test_extending_the_assumptions_keeps_their_propagation():
    # x1 implies x2 .. x10; x11 or x12
    clauses = [[-v, v + 1] for v in range(1, 10)] + [[11, 12]]
    s = solver_for(12, clauses)
    assert s.solve(assumptions=[1]) is not None
    before = s.propagations
    assert 12 in s.solve(assumptions=[1, -11])
    fresh = solver_for(12, clauses)
    assert 12 in fresh.solve(assumptions=[1, -11])
    assert s.propagations - before == 2 < fresh.propagations == 12
