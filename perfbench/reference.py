"""A fixed task that measures how fast the host runs Python at the moment.

The host shares its cores with other machines, and its speed moves by up
to 1.8x in phases of seconds to minutes (README.md).  ``run.py`` times this
task in its own process right after every ``cli.main`` call and scales the
calls' times by it.  The task is a small DPLL search: unit propagation over
clause lists kept in dicts, the kind of work sketchsynth's SAT layer does.
Of the tasks tried (this search, hash-consing tuples, a tree-walking
interpreter, walking a large object graph), its time moved most nearly in
proportion with sketchsynth's on both workloads as the host's speed
changed.  It imports nothing from sketchsynth, so a change to the program
moves the scaled times in full.
"""

from __future__ import annotations

import random
import time

# Scaled times are seconds on a host where one task takes this long; the
# task takes 11-19 ms on one vCPU of a shared 2.1 GHz Xeon.
NOMINAL_S = 0.015
REPEAT = 3          # tasks per reference time, ~45 ms after each call

_rng = random.Random(20150713)
_NVARS = 60
_CLAUSES = [[_rng.choice((1, -1)) * _rng.randrange(1, _NVARS + 1)
             for _ in range(3)] for _ in range(250)]


def _propagate(assign):
    """Unit propagation to a fixpoint; False on a conflict."""
    changed = True
    while changed:
        changed = False
        for clause in _CLAUSES:
            free = None
            nfree = 0
            for lit in clause:
                value = assign.get(abs(lit))
                if value is None:
                    free = lit
                    nfree += 1
                elif value == (lit > 0):
                    break
            else:
                if nfree == 0:
                    return False
                if nfree == 1:
                    assign[abs(free)] = free > 0
                    changed = True
    return True


def _search(assign, depth):
    if not _propagate(assign):
        return 0
    todo = [v for v in range(1, _NVARS + 1) if v not in assign]
    if not todo or depth > 6:
        return len(assign)
    for value in (True, False):
        trial = dict(assign)
        trial[todo[0]] = value
        found = _search(trial, depth + 1)
        if found:
            return found
    return 0


def task():
    """One unit of reference work; its result is fixed."""
    return sum(_search({v: True}, 0) for v in range(1, 16))


EXPECTED = task()


def timed():
    """Mean seconds one task takes now, over REPEAT tasks in a row."""
    t0 = time.perf_counter()
    for _ in range(REPEAT):
        got = task()
        if got != EXPECTED:
            raise RuntimeError(f"reference task gave {got}, not {EXPECTED}")
    return (time.perf_counter() - t0) / REPEAT
