"""Proof check of the SAT layer on the paper's sketches and on generated
ones: every clause the solver learns is RUP (reverse unit propagation: its
negation propagates to a conflict) with respect to the clauses and learnt
clauses before it, and every UNSAT verdict is a conflict of unit
propagation alone.  The propagator here shares no code with the solver;
it reads the literal codes that the bit-blaster hands the solver."""

import random

import pytest

from conftest import (CADSR, CADSR_SMALL, DB, DB_TWO_STATE, MULT2, code,
                      program_files, run_front_end)
from sketchsynth import engine, sat
from test_acceptance import gen_sketch


class Propagator:
    """A growing clause set over literal codes (``2v`` for ``v``, ``2v + 1``
    for its negation), with the unit propagation of its level 0 kept.
    Clauses are watched on their first two literals."""

    def __init__(self, nvars):
        self.true = bytearray(2 * nvars + 2)
        self.watches = [[] for _ in range(2 * nvars + 2)]
        self.trail = []            # true literal codes, level 0 first
        self.refuted = False       # level 0 propagates to a conflict

    def _propagate(self, start):
        """Extends the trail from ``start``; False on a conflict."""
        true, watches, trail = self.true, self.watches, self.trail
        i = start
        while i < len(trail):
            false = trail[i] ^ 1
            i += 1
            ws = watches[false]
            watches[false] = kept = []
            for k, cl in enumerate(ws):
                if cl[0] == false:
                    cl[0], cl[1] = cl[1], false
                if true[cl[0]]:
                    kept.append(cl)
                    continue
                for m in range(2, len(cl)):
                    if not true[cl[m] ^ 1]:
                        cl[1], cl[m] = cl[m], false
                        watches[cl[1]].append(cl)
                        break
                else:
                    kept.append(cl)
                    if true[cl[0] ^ 1]:
                        kept.extend(ws[k + 1:])
                        return False
                    true[cl[0]] = 1
                    trail.append(cl[0])
        return True

    def add(self, codes):
        """Adds a clause at level 0."""
        true = self.true
        if self.refuted or any(true[c] for c in codes):
            return
        cl = sorted(set(codes), key=lambda c: true[c ^ 1])
        if not cl or true[cl[0] ^ 1]:
            self.refuted = True
        elif len(cl) == 1 or true[cl[1] ^ 1]:
            true[cl[0]] = 1
            self.trail.append(cl[0])
            self.refuted = not self._propagate(len(self.trail) - 1)
        else:
            self.watches[cl[0]].append(cl)
            self.watches[cl[1]].append(cl)

    def implies(self, codes):
        """Whether the clause is RUP: its negation, added to level 0,
        propagates to a conflict.  Level 0 is restored afterwards."""
        if self.refuted:
            return True
        true, trail = self.true, self.trail
        mark = len(trail)
        implied = False
        for c in codes:
            if true[c]:
                implied = True
                break
            if not true[c ^ 1]:
                true[c ^ 1] = 1
                trail.append(c ^ 1)
        implied = implied or not self._propagate(mark)
        for c in trail[mark:]:
            true[c] = 0
        del trail[mark:]
        return implied


def record_sat_events(monkeypatch):
    """Per solver, in order: ("clauses", nvars, batch), ("learnt", codes)
    and ("verdict", model is None)."""
    events = {}

    def wrap(name, event):
        orig = getattr(sat.Solver, name)

        def wrapper(self, *args, **kwargs):
            result = orig(self, *args, **kwargs)
            events.setdefault(self, []).append(event(self, args, result))
            return result
        monkeypatch.setattr(sat.Solver, name, wrapper)
    wrap("add_clauses", lambda s, a, r: ("clauses", s.nvars, a[0]))
    wrap("analyze", lambda s, a, r: ("learnt", r[0]))
    wrap("solve", lambda s, a, r: ("verdict", r is None))
    return events


def check_proof(events):
    """(learnt clauses, UNSAT verdicts) checked; fails on the first learnt
    clause that is not RUP or UNSAT verdict that propagation does not
    refute."""
    learnt = unsat = 0
    prop = None
    for kind, *data in events:
        if kind == "clauses":
            nvars, batch = data
            assert prop is None          # the engine's one batch per solver
            prop = Propagator(nvars)
            for codes in batch:
                prop.add(codes)
        elif kind == "learnt":
            assert prop.implies(data[0]), f"learnt clause {data[0]} not RUP"
            prop.add(data[0])
            learnt += 1
        elif data[0]:
            assert prop.refuted, "UNSAT verdict not refuted by propagation"
            unsat += 1
    return learnt, unsat


def test_propagator_checks_rup():
    p = Propagator(3)
    for lits in ([1, 2], [-1, 3], [-2, 3]):
        p.add([code(l) for l in lits])
    assert p.implies([code(3)])             # -3 forces -1 and -2
    assert not p.implies([code(1)])
    assert not p.refuted and not p.trail
    p.add([code(-3)])
    assert p.refuted


def test_learnt_clauses_and_unsat_verdicts_of_the_paper_sketches_check(
        monkeypatch):
    events = record_sat_events(monkeypatch)
    results = []
    for files in (MULT2, DB, DB_TWO_STATE, CADSR, CADSR_SMALL):
        prog = run_front_end(files=program_files(*files))[3]
        results.append(engine.solve(prog, engine.EngineConfig()))
    assert [type(r) for r in results] == [
        engine.Solution, engine.Solution, engine.Unsat, engine.Solution,
        engine.Solution]
    checked = [check_proof(solver_events) for solver_events in events.values()]
    # db's 5 vectors, db-two-state's depths 0-4 and its range formula for
    # depths 5-8, and 3 vectors each for cadsr and cadsr-small
    assert len(events) == 18
    assert results[2].steps[-1] == "depths 5-8: one formula, unsat, 1963 vars"
    assert checked[11] == (153, 1)      # the range formula's solver
    assert sum(u for _, u in checked) == 4 + 6 + 2 + 2
    assert sum(n for n, _ in checked) == 451


# criterion 6's first 100 sketches: (solvers, learnt clauses, UNSAT verdicts);
# one vector among them blasts to false, so it needs no solver
SLICE, COUNTS = 100, (65, 150, 24)


def test_learnt_clauses_and_unsat_verdicts_of_generated_sketches_check(
        monkeypatch):
    """The first sketches of acceptance criterion 6's generator, its seed
    and its hole width."""
    events = record_sat_events(monkeypatch)
    rng = random.Random(2026)
    for _ in range(SLICE):
        src, _ = gen_sketch(rng)
        prog = run_front_end(texts=[("p.java", src)])[3]
        engine.solve(prog, engine.EngineConfig(hole_bits=3))
    learnt = unsat = 0
    for solver_events in events.values():
        n, u = check_proof(solver_events)
        learnt += n
        unsat += u
    assert (len(events), learnt, unsat) == COUNTS


@pytest.mark.parametrize("bad", ["learnt", "verdict"])
def test_a_wrong_step_fails_the_check(bad):
    clauses = [[code(l) for l in lits] for lits in ([1, 2], [-1, 2], [1, -2])]
    events = [("clauses", 2, clauses)]
    events.append(("learnt", [code(-2)]) if bad == "learnt"
                  else ("verdict", True))
    with pytest.raises(AssertionError):
        check_proof(events)
