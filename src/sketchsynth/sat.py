"""Conflict-driven clause-learning SAT solver in the MiniSat layout
(Eén & Sörensson, "An Extensible SAT-solver", SAT 2003).

Layout.  Variable ``v`` (1-based, as in the clauses handed in) has the
literal codes ``2v`` (positive) and ``2v + 1`` (negative), so negation is
``code ^ 1`` and ``code >> 1`` is the variable.  ``value`` holds one entry
per literal code: 1 true, -1 false, 0 unassigned.  ``level`` and
``reason`` are indexed by variable.  A reason is the implying clause (a
list whose first literal is the implied one) or, for a binary clause, the
other literal's code as a plain int.

- Clauses of two literals live in per-literal implication lists:
  ``binary[c]`` holds every literal implied once ``c`` is false.  Tseitin
  gates are mostly binary, so most propagation never touches a clause.
- Longer clauses are watched on their first two literals.
  ``watches[c]`` holds the clause lists themselves whose watch ``c`` has
  to move when ``c`` becomes false; propagation compacts it in place.
- Decisions pop the unassigned variable of highest VSIDS activity from an
  indexed binary heap (``heap`` plus ``heap_pos``, so a variable is in it
  at most once); ties go to the smallest index.  The saved phase picks
  the polarity, negative at first.
- Conflict analysis learns the first-UIP clause with one reused ``seen``
  buffer and drops literals whose reason is already covered by the rest
  of the clause (local minimization).
- Restarts follow the Luby sequence with a unit of 100 conflicts.
- Clauses come in batches (``add_clauses``) with one return to level 0
  per batch.  The engine hands each solver all of its clauses in one
  batch, before the first search.

Deterministic by construction: every choice above is a function of the
clause stream and the assumptions (no randomness, no hashing of objects),
so identical inputs always yield identical models and counter values.
Solving under assumptions puts them on the first decision levels, which
the engine uses to fix the bits of objectives and unknowns one at a time
without re-encoding; learnt clauses stay between calls.  A call keeps the
levels of the longest assumption prefix it shares with the previous call
(van der Tak, Ramos & Heule, "Reusing the Assignment Trail in CDCL
Solvers", JSAT 2011); each minimization call shares all or all but the
last of the previous call's assumptions.
"""

from __future__ import annotations

import time


class Timeout(Exception):
    pass


def luby(i):
    """The i-th (0-based) element of the Luby sequence 1 1 2 1 1 2 4 …"""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) >> 1
        seq -= 1
        i %= size
    return 1 << seq


RESTART_UNIT = 100


class Solver:
    def __init__(self, deadline=None):
        self.nvars = 0
        self.value = [0, 0]        # per literal code: 1 / -1 / 0
        self.level = [0]           # per variable
        self.reason = [None]       # per variable: clause list, int or None
        self.binary = [[], []]     # per literal code: implied literal codes
        self.watches = [[], []]    # per literal code: watched clause lists
        self.trail = []
        self.trail_lim = []
        self.assumed = []          # codes of the last solve's assumptions
        self.qhead = 0             # trail index of the next literal to propagate
        self.activity = [0.0]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.polarity = [1]        # saved phase: 0 positive, 1 negative
        self.heap = []             # variables by (activity desc, index asc)
        self.heap_pos = [-1]       # index in heap, -1 if absent
        self.seen = bytearray(1)
        self.ok = True
        self.deadline = deadline
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0

    # -- problem construction ---------------------------------------------

    def ensure_vars(self, n):
        if n <= self.nvars:
            return
        k = n - self.nvars
        self.nvars = n
        self.value.extend([0] * (2 * k))
        self.level.extend([0] * k)
        self.reason.extend([None] * k)
        self.binary.extend([] for _ in range(2 * k))
        self.watches.extend([] for _ in range(2 * k))
        self.activity.extend([0.0] * k)
        self.polarity.extend([1] * k)
        # a new variable has activity 0 and the largest index, so it is the
        # heap's least element and goes at the end
        self.heap_pos.extend(range(len(self.heap), len(self.heap) + k))
        self.heap.extend(range(n - k + 1, n + 1))
        self.seen.extend(bytes(k))

    def add_clauses(self, clauses):
        """Adds the clauses of the iterable ``clauses`` (lists of nonzero
        ints over variables that ``ensure_vars`` has made) in order, at
        level 0; a unit is propagated as it comes."""
        if not self.ok:
            return
        self._backtrack(0)
        value = self.value
        for lits in clauses:
            out = []
            for l in lits:
                c = 2 * l if l > 0 else -2 * l + 1
                val = value[c]
                if val > 0 or c ^ 1 in out:
                    break                   # satisfied at level 0, or tautology
                if val == 0 and c not in out:
                    out.append(c)
            else:
                if len(out) > 1:
                    self._attach(out)
                elif not out:
                    self.ok = False
                    return
                else:
                    self._assign(out[0], None)
                    if self.propagate() is not None:
                        self.ok = False
                        return

    def _attach(self, cl):
        if len(cl) == 2:
            a, b = cl
            self.binary[a].append(b)
            self.binary[b].append(a)
        else:
            self.watches[cl[0]].append(cl)
            self.watches[cl[1]].append(cl)

    def _assign(self, c, reason):
        self.value[c] = 1
        self.value[c ^ 1] = -1
        v = c >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(c)

    # -- unit propagation --------------------------------------------------

    def propagate(self):
        """Propagates the trail from ``qhead``; returns a conflicting clause
        (a list of literal codes, all false) or None."""
        value = self.value
        level = self.level
        reason = self.reason
        binary = self.binary
        watches = self.watches
        trail = self.trail
        append = trail.append
        lvl = len(self.trail_lim)
        start = self.qhead
        confl = None
        # a list iterator also yields what is appended during the loop;
        # __setstate__ places it at ``start`` without stepping through
        pending = iter(trail)
        pending.__setstate__(start)
        for p in pending:
            false_lit = p ^ 1
            for q in binary[false_lit]:
                val = value[q]
                if val == 0:
                    value[q] = 1
                    value[q ^ 1] = -1
                    level[q >> 1] = lvl
                    reason[q >> 1] = false_lit
                    append(q)
                elif val < 0:
                    confl = [q, false_lit]
                    break
            if confl is not None:
                break
            # compacted in place: a kept clause moves to ws[j], j <= i; a
            # moved watch never lands on false_lit, so ws does not grow
            ws = watches[false_lit]
            j = 0
            for i, cl in enumerate(ws):
                first = cl[0]
                if first == false_lit:
                    first = cl[0] = cl[1]
                    cl[1] = false_lit
                if value[first] == 1:
                    ws[j] = cl
                    j += 1
                    continue
                lk = cl[2]
                if value[lk] == -1:
                    for k in range(3, len(cl)):
                        lk = cl[k]
                        if value[lk] != -1:
                            cl[k] = false_lit
                            break
                    else:
                        ws[j] = cl
                        j += 1
                        if value[first] == 0:
                            value[first] = 1
                            value[first ^ 1] = -1
                            level[first >> 1] = lvl
                            reason[first >> 1] = cl
                            append(first)
                            continue
                        confl = cl
                        break
                else:
                    cl[2] = false_lit
                cl[1] = lk
                watches[lk].append(cl)
            if confl is None:
                del ws[j:]
            else:
                ws[j:] = ws[i + 1:]
                break
        # after a conflict, the rest of the trail counts as propagated
        self.qhead = len(trail)
        self.propagations += self.qhead - start
        return confl

    # -- variable order ----------------------------------------------------

    def _heap_pop(self):
        heap, pos, act = self.heap, self.heap_pos, self.activity
        top = heap[0]
        pos[top] = -1
        v = heap.pop()
        n = len(heap)
        if n:
            a = act[v]
            i = 0
            while True:
                child = 2 * i + 1
                if child >= n:
                    break
                u = heap[child]
                b = act[u]
                right = child + 1
                if right < n:
                    w = heap[right]
                    c = act[w]
                    if c > b or (c == b and w < u):
                        child, u, b = right, w, c
                if a > b or (a == b and v < u):
                    break
                heap[i] = u
                pos[u] = i
                i = child
            heap[i] = v
            pos[v] = i
        return top

    def _backtrack(self, lvl):
        """Unassigns every level above ``lvl``, saving each phase and
        putting each variable back in the heap (sifted up from the end)."""
        if len(self.trail_lim) <= lvl:
            return
        value, polarity = self.value, self.polarity
        heap, heap_pos, act = self.heap, self.heap_pos, self.activity
        trail = self.trail
        lim = self.trail_lim[lvl]
        for c in reversed(trail[lim:]):
            v = c >> 1
            value[c] = value[c ^ 1] = 0
            polarity[v] = c & 1
            if heap_pos[v] < 0:
                i = len(heap)
                heap.append(v)
                a = act[v]
                while i:
                    parent = (i - 1) >> 1
                    u = heap[parent]
                    b = act[u]
                    if b > a or (b == a and u < v):
                        break
                    heap[i] = u
                    heap_pos[u] = i
                    i = parent
                heap[i] = v
                heap_pos[v] = i
        del trail[lim:]
        del self.trail_lim[lvl:]
        self.qhead = lim

    # -- conflict analysis -------------------------------------------------

    def analyze(self, confl):
        """First-UIP learnt clause for the conflicting clause ``confl``,
        locally minimized; returns (learnt, backtrack level) with the
        asserting literal first and a literal of the backtrack level
        second."""
        seen, level, reason, trail = self.seen, self.level, self.reason, \
            self.trail
        act, heap, heap_pos = self.activity, self.heap, self.heap_pos
        var_inc = self.var_inc
        cur = len(self.trail_lim)
        learnt = [0]
        pending = 0                 # current-level literals still to resolve
        p = -1
        idx = len(trail) - 1
        lits = confl
        while True:
            for q in lits:
                v = q >> 1
                if not seen[v] and level[v] > 0 and q != p:
                    seen[v] = 1
                    # bump v's activity, rescaling all of them past 1e100,
                    # and sift v up the heap if it is there
                    a = act[v] = act[v] + var_inc
                    if a > 1e100:
                        for i in range(1, self.nvars + 1):
                            act[i] *= 1e-100
                        var_inc = self.var_inc = var_inc * 1e-100
                        a = act[v]
                    i = heap_pos[v]
                    if i > 0:
                        while i:
                            parent = (i - 1) >> 1
                            u = heap[parent]
                            b = act[u]
                            if b > a or (b == a and u < v):
                                break
                            heap[i] = u
                            heap_pos[u] = i
                            i = parent
                        heap[i] = v
                        heap_pos[v] = i
                    if level[v] >= cur:
                        pending += 1
                    else:
                        learnt.append(q)
            while not seen[trail[idx] >> 1]:
                idx -= 1
            p = trail[idx]
            idx -= 1
            seen[p >> 1] = 0
            pending -= 1
            if pending == 0:
                break
            r = reason[p >> 1]
            lits = (r,) if r.__class__ is int else r
        learnt[0] = p ^ 1

        # local minimization: a literal whose reason's other literals are
        # all in the clause (or fixed at level 0) is implied by the rest;
        # the reason's implied literal is skipped as its variable is marked
        marked = learnt[1:]
        j = 1
        for q in marked:
            r = reason[q >> 1]
            if r is not None:
                if r.__class__ is int:
                    r = (r,)
                for k in r:
                    if not seen[k >> 1] and level[k >> 1] > 0:
                        break
                else:
                    continue
            learnt[j] = q
            j += 1
        del learnt[j:]
        for q in marked:
            seen[q >> 1] = 0

        btlevel = 0
        if len(learnt) > 1:
            hi = 1
            for i in range(2, len(learnt)):
                if level[learnt[i] >> 1] > level[learnt[hi] >> 1]:
                    hi = i
            learnt[1], learnt[hi] = learnt[hi], learnt[1]
            btlevel = level[learnt[1] >> 1]
        return learnt, btlevel

    # -- main loop ---------------------------------------------------------

    def solve(self, assumptions=()):
        """Returns a set of true variable indices, or None if unsatisfiable
        under the assumptions."""
        if not self.ok:
            return None
        # the previous call's assumptions sit in order on levels 1, 2, ...
        # below its decisions; keep the levels of the prefix shared with
        # this call's
        assumed = [2 * l if l > 0 else -2 * l + 1 for l in assumptions]
        keep = 0
        for c, prev in zip(assumed, self.assumed[:len(self.trail_lim)]):
            if c != prev:
                break
            keep += 1
        self.assumed = assumed
        self._backtrack(keep)
        if not keep and self.propagate() is not None:
            self.ok = False
            return None
        self.ensure_vars(max(map(abs, assumptions), default=0))
        value, heap = self.value, self.heap
        trail, trail_lim = self.trail, self.trail_lim
        deadline = self.deadline
        restarts = 0
        budget = luby(0) * RESTART_UNIT
        while True:
            confl = self.propagate()
            if confl is not None:
                if deadline is not None and time.monotonic() > deadline:
                    raise Timeout()
                # every literal propagated since the last decision is at the
                # current level, so the conflict has one there; at level 0
                # it refutes the clauses
                if not trail_lim:
                    self.ok = False
                    return None
                self.conflicts += 1
                learnt, btlevel = self.analyze(confl)
                self._backtrack(btlevel)
                if len(learnt) == 1:
                    self._assign(learnt[0], None)
                else:
                    self._attach(learnt)
                    self._assign(learnt[0],
                                 learnt[1] if len(learnt) == 2 else learnt)
                self.var_inc /= self.var_decay
                budget -= 1
                if budget == 0:
                    restarts += 1
                    budget = luby(restarts) * RESTART_UNIT
                    self._backtrack(0)
                continue
            if len(trail_lim) < len(assumed):
                # assumptions occupy the first decision levels; a falsified
                # assumption means UNSAT under the given assumption set
                c = assumed[len(trail_lim)]
                val = value[c]
                if val < 0:
                    return None
                trail_lim.append(len(trail))
                if val == 0:
                    self._assign(c, None)
                continue
            if len(trail) == self.nvars:
                return {c >> 1 for c in trail if not c & 1}
            while value[2 * heap[0]] != 0:
                self._heap_pop()
            v = self._heap_pop()
            self.decisions += 1
            trail_lim.append(len(trail))
            self._assign(2 * v | self.polarity[v], None)
