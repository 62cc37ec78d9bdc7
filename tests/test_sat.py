"""SAT solver tests: brute-force differential checks, assumptions,
determinism."""

import functools
import itertools
import operator
import random

import pytest

from conftest import add_clause, code
from sketchsynth import sat
from sketchsynth.errors import DeadlineExceeded


def solve(s, assumptions=(), preferred=()):
    """``s.solve`` over DIMACS literals: the set of true variables, or
    None."""
    model = s.solve([code(l) for l in assumptions],
                    [code(l) for l in preferred])
    if model is None:
        return None
    return {c >> 1 for c in range(2, len(model), 2) if model[c] > 0}


def lit_true(lit, model):
    """Whether a DIMACS literal holds in a set of true variables."""
    return (abs(lit) in model) == (lit > 0)


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
        model = solve(s)
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
            model = solve(s, assumptions=fixed)
            expected = brute_force(nvars, clauses, fixed)
            if model is None:
                assert not expected
            else:
                check_model(model, nvars, clauses, fixed)


def test_solver_reusable_across_calls_with_added_clauses():
    s = sat.Solver()
    s.ensure_vars(3)
    add_clause(s, [1, 2])
    assert solve(s) is not None
    add_clause(s, [-1])
    m = solve(s)
    assert m is not None and 2 in m
    add_clause(s, [-2])
    assert solve(s) is None


def test_unit_and_empty_clauses():
    s = sat.Solver()
    add_clause(s, [4])
    m = solve(s)
    assert m is not None and 4 in m
    s2 = sat.Solver()
    add_clause(s2, [])
    assert solve(s2) is None


def test_deterministic_models():
    rng = random.Random(5)
    clauses = random_cnf(rng, 12, 30)
    models = []
    for _ in range(2):
        s = sat.Solver()
        s.ensure_vars(12)
        for cl in clauses:
            add_clause(s, list(cl))
        models.append(solve(s))
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
    except DeadlineExceeded:
        return
    with pytest.raises(DeadlineExceeded):
        solve(s)


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


def assert_vsids_order_invariants(s):
    """The VSIDS order's invariants: ``(-activity, variable)`` entries in
    heap order, at most ``heap_limit(nvars)`` of them, every unassigned
    variable fresh, and every fresh variable with an entry that carries
    its current activity."""
    heap = s.heap
    assert len(heap) <= sat.heap_limit(s.nvars)
    assert all(1 <= v <= s.nvars for _, v in heap)
    for i in range(1, len(heap)):
        assert heap[(i - 1) // 2] <= heap[i]
    entries = set(heap)
    for v in range(1, s.nvars + 1):
        assert s.fresh[v] or s.value[2 * v] != 0, v
        assert not s.fresh[v] or (-s.activity[v], v) in entries, v


@pytest.mark.parametrize("n", [4, 5, 6])
def test_pigeonhole_unsat_and_sat(n):
    s = solver_for(*pigeonhole(n + 1, n))
    assert solve(s) is None
    assert_vsids_order_invariants(s)
    if n == 6:
        assert s.conflicts > sat.RESTART_UNIT    # the proof restarts
    nvars, clauses = pigeonhole(n, n)
    model = solve(solver_for(nvars, clauses))
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
            model = solve(s, assumptions=fixed)
            expected = _models(true_sets, clauses + [[l] for l in fixed])
            if model is None:
                assert not expected, f"trial {trial} step {step}: missed a model"
            else:
                check_model(model, nvars, clauses, fixed)
        assert_vsids_order_invariants(s)


def test_counters_repeat_exactly():
    counts = []
    for _ in range(2):
        s = solver_for(*pigeonhole(7, 6))
        assert solve(s) is None
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
            model = solve(s, assumptions=fixed)
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
    assert_vsids_order_invariants(s)
    for cl in ([1, 2], [4, 5], [6, -3]):
        add_clause(s, cl)
    # all activities are 0: x1 = 0 forces x2, x3 = 0, x4 = 0 forces x5,
    # then x6 = 0
    assert solve(s) == {2, 5}
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
    """Each call's assumptions share a prefix with the previous call's, as
    a search that fixes literals one at a time makes them; clauses come in
    between."""
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
            model = solve(s, assumptions=fixed)
            expected = _models(true_sets, clauses + [[l] for l in fixed])
            if model is None:
                assert not expected, f"trial {trial} step {step}: missed a model"
            else:
                check_model(model, nvars, clauses, fixed)
                kinds |= 1
            kinds |= 2 if model is None and s.ok else 0
        assert_vsids_order_invariants(s)
    assert kinds == 3         # models and refutations under assumptions


def _minimize_by_assumptions(s, preferred):
    """The reference: one call under assumptions per preferred literal that
    the current model does not already make true, each keeping the
    literals chosen before it."""
    model = solve(s)
    fixed = []
    for lit in preferred:
        if not lit_true(lit, model):
            m = solve(s, assumptions=fixed + [lit])
            if m is None:
                lit = -lit
            else:
                model = m
        fixed.append(lit)
    return model


def test_preferred_literals_give_the_lexicographic_optimum():
    """After a first search has left learnt clauses and saved phases, one
    call with preferred literals (variables repeated, in both polarities)
    makes the same literals true as brute force's lexicographic optimum
    and as the per-literal minimizer under assumptions."""
    rng = random.Random(53)
    conflicts = checked = 0
    for trial in range(300):
        nvars = rng.randrange(3, 13)
        true_sets = _true_sets(nvars)
        full = (1 << (1 << nvars)) - 1
        clauses = [[v * rng.choice([1, -1])
                    for v in rng.sample(range(1, nvars + 1), 3)]
                   for _ in range(rng.randrange(3 * nvars, 9 * nvars // 2))]
        s = solver_for(nvars, clauses)
        models = _models(true_sets, clauses)
        if solve(s) is None:
            assert not models
            continue
        preferred = [rng.randrange(1, nvars + 1) * rng.choice([1, -1])
                     for _ in range(rng.randrange(1, 2 * nvars + 1))]
        before = s.conflicts
        model = solve(s, preferred=preferred)
        conflicts += s.conflicts > before
        check_model(model, nvars, clauses)
        optimum = []
        for lit in preferred:
            narrowed = models & (true_sets[lit] if lit > 0
                                 else full ^ true_sets[-lit])
            optimum.append(bool(narrowed))
            models = narrowed or models
        assert [lit_true(l, model) for l in preferred] == optimum, trial
        reference = _minimize_by_assumptions(solver_for(nvars, clauses),
                                             preferred)
        assert [lit_true(l, reference) for l in preferred] == optimum
        assert_vsids_order_invariants(s)
        checked += 1
    assert checked > 200 and conflicts > 100


def test_vsids_decisions_take_the_most_active_unassigned_variable():
    """Every decision past the assumptions is the unassigned variable of
    largest (activity, -index), found here by a linear scan, under a decay
    that rescales the activities and with a heap that outgrows its bound,
    so that both rebuilds happen."""
    rng = random.Random(61)
    decisions = 0
    rebuilds = []               # per rebuild: whether the size bound made it
    for _ in range(30):
        nvars = rng.randrange(40, 71)
        s = solver_for(nvars, [[v * rng.choice([1, -1])
                                for v in rng.sample(range(1, nvars + 1), 3)]
                               for _ in range(13 * nvars // 3)])
        s.var_decay = 0.1
        rebuild = s._rebuild_heap
        s._rebuild_heap = lambda: rebuilds.append(
            len(s.heap) > sat.heap_limit(s.nvars)) or rebuild()
        fixed = []
        assign = s._assign

        def checked(c, reason):
            nonlocal decisions
            if reason is None and len(s.trail_lim) > len(fixed) and \
                    s.trail_lim[-1] == len(s.trail):
                best = max((s.activity[v], -v) for v in range(1, s.nvars + 1)
                           if s.value[2 * v] == 0)
                assert c == 2 * -best[1] | s.polarity[-best[1]]
                decisions += 1
            assign(c, reason)
        s._assign = checked
        for _ in range(8):
            fixed = [v * rng.choice([1, -1]) for v in
                     rng.sample(range(1, nvars + 1), rng.randrange(0, 3))]
            solve(s, assumptions=fixed)
            assert_vsids_order_invariants(s)
    assert decisions > 1000
    assert True in rebuilds and False in rebuilds
