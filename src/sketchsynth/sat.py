"""Conflict-driven clause-learning SAT solver.

Deterministic by construction: VSIDS activities break ties on variable
index, and no randomized restarts or phase flipping are used, so identical
clause streams always yield identical models.  Supports solving under
assumptions, which the engine uses to fix the bits of objectives and
unknowns one at a time without re-encoding.
"""

from __future__ import annotations

import time


class Timeout(Exception):
    pass


class Solver:
    def __init__(self, deadline=None):
        self.nvars = 0
        self.clauses = []          # each clause: list of literals
        self.watches = {}          # literal -> list of clause indices
        self.assign = []           # 1-indexed: None / True / False
        self.level = []
        self.reason = []
        self.trail = []
        self.trail_lim = []
        self.activity = []
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.phase = []
        self.ok = True
        self._qhead = 0            # trail index of the next literal to propagate
        self.deadline = deadline
        self._ticks = 0

    # -- problem construction ---------------------------------------------

    def ensure_vars(self, n):
        while self.nvars < n:
            self.nvars += 1
            self.assign.append(None)
            self.level.append(0)
            self.reason.append(None)
            self.activity.append(0.0)
            self.phase.append(False)

    def add_clause(self, lits):
        if not self.ok:
            return
        self.backtrack(0)
        seen = set()
        out = []
        for l in lits:
            self.ensure_vars(abs(l))
            if -l in seen:
                return                      # tautology
            if l in seen:
                continue
            v = self._value(l)
            if v is True and self._lvl(l) == 0:
                return
            if v is False and self._lvl(l) == 0:
                continue
            seen.add(l)
            out.append(l)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            if not self._enqueue(out[0], None):
                self.ok = False
            elif self.propagate() is not None:
                self.ok = False
            return
        self._attach(out)

    def _attach(self, lits):
        idx = len(self.clauses)
        self.clauses.append(lits)
        self.watches.setdefault(lits[0], []).append(idx)
        self.watches.setdefault(lits[1], []).append(idx)
        return idx

    # -- assignment helpers ------------------------------------------------

    def _value(self, lit):
        v = self.assign[abs(lit) - 1]
        if v is None:
            return None
        return v if lit > 0 else not v

    def _lvl(self, lit):
        return self.level[abs(lit) - 1]

    def _enqueue(self, lit, reason):
        v = self._value(lit)
        if v is not None:
            return v
        i = abs(lit) - 1
        self.assign[i] = lit > 0
        self.level[i] = len(self.trail_lim)
        self.reason[i] = reason
        self.trail.append(lit)
        return True

    # -- unit propagation --------------------------------------------------

    def propagate(self):
        qhead = self._qhead
        while qhead < len(self.trail):
            self._ticks += 1
            if self.deadline is not None and self._ticks % 4096 == 0:
                if time.monotonic() > self.deadline:
                    raise Timeout()
            lit = self.trail[qhead]
            qhead += 1
            false_lit = -lit
            wl = self.watches.get(false_lit)
            if not wl:
                continue
            keep = []
            conflict = None
            for k, ci in enumerate(wl):
                cl = self.clauses[ci]
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                if self._value(cl[0]) is True:
                    keep.append(ci)
                    continue
                moved = False
                for j in range(2, len(cl)):
                    if self._value(cl[j]) is not False:
                        cl[1], cl[j] = cl[j], cl[1]
                        self.watches.setdefault(cl[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                keep.append(ci)
                if not self._enqueue(cl[0], ci):
                    keep.extend(wl[k + 1:])
                    conflict = ci
                    break
            self.watches[false_lit] = keep
            if conflict is not None:
                self._qhead = len(self.trail)
                return conflict
        self._qhead = qhead
        return None

    # -- conflict analysis -------------------------------------------------

    def _bump(self, v):
        self.activity[v - 1] += self.var_inc
        if self.activity[v - 1] > 1e100:
            for i in range(self.nvars):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100

    def analyze(self, confl):
        learnt = [None]
        seen = [False] * self.nvars
        counter = 0
        p = None                    # literal currently being resolved on
        btlevel = 0
        cur_level = len(self.trail_lim)
        idx = len(self.trail) - 1
        reason_cl = self.clauses[confl]
        while True:
            for q in reason_cl:
                if q == p:
                    continue
                v = abs(q)
                if not seen[v - 1] and self.level[v - 1] > 0:
                    seen[v - 1] = True
                    self._bump(v)
                    if self.level[v - 1] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
                        btlevel = max(btlevel, self.level[v - 1])
            while not seen[abs(self.trail[idx]) - 1]:
                idx -= 1
            p = self.trail[idx]
            v = abs(p)
            seen[v - 1] = False
            counter -= 1
            if counter == 0:
                learnt[0] = -p
                break
            reason_cl = self.clauses[self.reason[v - 1]]
            idx -= 1
        return learnt, btlevel

    def backtrack(self, lvl):
        while self.trail_lim and len(self.trail_lim) > lvl:
            lim = self.trail_lim.pop()
            while len(self.trail) > lim:
                lit = self.trail.pop()
                i = abs(lit) - 1
                self.phase[i] = self.assign[i]
                self.assign[i] = None
                self.reason[i] = None
        self._qhead = min(self._qhead, len(self.trail))

    # -- decision heuristics -----------------------------------------------

    def _decide(self):
        best = None
        best_act = -1.0
        for v in range(1, self.nvars + 1):
            if self.assign[v - 1] is None:
                a = self.activity[v - 1]
                if a > best_act:
                    best_act = a
                    best = v
        if best is None:
            return None
        return best if self.phase[best - 1] else -best

    # -- main loop ---------------------------------------------------------

    def solve(self, assumptions=()):
        """Returns a set of true variable indices, or None if unsatisfiable
        under the assumptions."""
        if not self.ok:
            return None
        self.backtrack(0)
        if self.propagate() is not None:
            self.ok = False
            return None
        conflicts_at_restart = 0
        restart_limit = 128
        while True:
            confl = self.propagate()
            if confl is not None:
                if len(self.trail_lim) == 0:
                    self.ok = False
                    return None
                cl_max = max(self.level[abs(l) - 1] for l in self.clauses[confl])
                if cl_max == 0:
                    self.ok = False
                    return None
                if cl_max < len(self.trail_lim):
                    self.backtrack(cl_max)
                learnt, btlevel = self.analyze(confl)
                self.backtrack(btlevel)
                if len(learnt) > 2:
                    # second watch must sit at the backtrack level
                    hi = max(range(1, len(learnt)),
                             key=lambda i: self.level[abs(learnt[i]) - 1])
                    learnt[1], learnt[hi] = learnt[hi], learnt[1]
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        self.ok = False
                        return None
                else:
                    ci = self._attach(learnt)
                    self._enqueue(learnt[0], ci)
                self.var_inc /= self.var_decay
                conflicts_at_restart += 1
                if conflicts_at_restart >= restart_limit:
                    conflicts_at_restart = 0
                    restart_limit = int(restart_limit * 1.5)
                    self.backtrack(0)
                continue
            if len(self.trail_lim) < len(assumptions):
                # assumptions occupy the first decision levels; a falsified
                # assumption means UNSAT under the given assumption set
                lit = assumptions[len(self.trail_lim)]
                self.ensure_vars(abs(lit))
                v = self._value(lit)
                if v is False:
                    return None
                self.trail_lim.append(len(self.trail))
                if v is None:
                    self._enqueue(lit, None)
                continue
            lit = self._decide()
            if lit is None:
                return {v for v in range(1, self.nvars + 1)
                        if self.assign[v - 1] is True}
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)
