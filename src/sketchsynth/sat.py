"""Conflict-driven clause-learning SAT solver in the MiniSat layout
(Eén & Sörensson, "An Extensible SAT-solver", SAT 2003).

Layout.  Literals are codes, in clauses, assumptions, preferred literals
and models alike, as ``cnf.CnfBuilder`` emits them: variable ``v`` has the
codes ``2v`` (positive) and ``2v + 1`` (negative), so negation is
``code ^ 1`` and ``code >> 1`` is the variable.  Variable 0 is the
constant: true from the start, at level 0, on no trail and in no heap, so
its codes 0 (true) and 1 (false) read as constants wherever a value is
looked up.  ``value`` holds one entry per literal code: 1 true, -1 false,
0 unassigned.  ``level`` and ``reason`` are indexed by variable.  A
reason is the implying clause (a list whose first literal is the implied
one) or, for a binary clause, the other literal's code as a plain int.

- Clauses of two literals live in per-literal implication lists:
  ``binary[c]`` holds every literal implied once ``c`` is false.  Tseitin
  gates are mostly binary, so most propagation never touches a clause.
- Longer clauses are watched on their first two literals.
  ``watches[c]`` holds the clause lists themselves whose watch ``c`` has
  to move when ``c`` becomes false; propagation compacts it in place.
- Decisions take the unassigned variable of highest VSIDS activity,
  ties to the smallest index: the least ``(-activity, v)`` entry of a
  ``heapq`` list with lazy deletion.  ``fresh[v]`` marks a variable whose
  newest entry carries its current activity, so its older entries are
  stale and skipped.  A bump pushes an entry for a fresh variable, a
  backtrack one for each unassigned variable that is not fresh; every
  unassigned variable is fresh.  A decision pops stale and assigned
  entries until it reaches a fresh, unassigned variable.  Rescaling the
  activities, and a heap longer than ``heap_limit(nvars)``, rebuild the
  heap from the unassigned variables.  The saved phase picks the
  polarity, negative at first.
- Conflict analysis learns the first-UIP clause with one reused ``seen``
  buffer and drops literals whose reason is already covered by the rest
  of the clause (local minimization).
- Restarts follow the Luby sequence with a unit of 100 conflicts.
- Clauses come in batches (``add_clauses``) with one return to level 0
  per batch, taken as they are: a clause repeats no variable (the
  builder never emits one that does).  The solver owns, and reorders in
  place, each clause list it attaches; only a clause with a literal
  already valued at level 0 is copied, without its false literals.  The
  engine hands each solver all of its clauses in one batch, before the
  first search.

Deterministic by construction: every choice above is a function of the
clause stream, the assumptions and the preferred literals (no randomness,
no hashing of objects), so identical inputs always yield identical models
and counter values.  Assumptions sit on the first decision levels.  Then
the first preferred literal still unassigned is the next decision, with
its given polarity, until all have a value; so the first model is their
lexicographic optimum (Di Rosa, Giunchiglia & Maratea, "Solving
Satisfiability Problems with Preferences", Constraints 2010), the
engine's canonical answer.  Learnt clauses stay between calls.

The deadline (a ``time.monotonic()`` value, or None) is read once per
decision or conflict and once per ``CLAUSE_BATCH`` clauses taken in.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import check_deadline


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
CLAUSE_BATCH = 4096


def heap_limit(nvars):
    """The heap length past which a backtrack rebuilds the heap: each
    variable has at most one fresh entry, so stale ones make up the rest."""
    return 2 * nvars + 64


class Solver:
    def __init__(self, deadline=None):
        self.nvars = 0
        self.value = [1, -1]       # per literal code: 1 / -1 / 0
        self.level = [0]           # per variable
        self.reason = [None]       # per variable: clause list, int or None
        self.binary = [[], []]     # per literal code: implied literal codes
        self.watches = [[], []]    # per literal code: watched clause lists
        self.trail = []
        self.trail_lim = []
        self.qhead = 0             # trail index of the next literal to propagate
        self.activity = [0.0]
        self.var_inc = 1.0
        self.var_decay = 0.95
        self.polarity = [1]        # saved phase: 0 positive, 1 negative
        self.heap = []             # (-activity, variable) entries, heapq
        self.fresh = bytearray(1)  # newest heap entry has current activity
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
        self.binary += [[] for _ in range(2 * k)]
        self.watches += [[] for _ in range(2 * k)]
        self.activity.extend([0.0] * k)
        self.polarity.extend([1] * k)
        # a new variable has activity 0 and the largest index, so its
        # entry is the heap's last and goes at the end
        self.heap.extend((-0.0, v) for v in range(n - k + 1, n + 1))
        self.fresh.extend(b"\1" * k)
        self.seen.extend(bytes(k))

    def add_clauses(self, clauses):
        """Adds the clauses of the list ``clauses`` (lists of literal codes
        over variables that ``ensure_vars`` has made, none repeated within
        a clause) in order, at level 0; a literal false at level 0 is
        dropped, a clause true there skipped, and a unit is propagated as
        it comes.  A clause list with no valued literal is attached as it
        is, and the solver reorders it from then on.  The deadline is read
        once per ``CLAUSE_BATCH`` clauses."""
        if not self.ok:
            return
        self._backtrack(0)
        value = self.value
        for at in range(0, len(clauses), CLAUSE_BATCH):
            check_deadline(self.deadline)
            for lits in clauses[at:at + CLAUSE_BATCH]:
                for c in lits:
                    if value[c]:
                        if any(value[d] > 0 for d in lits):
                            lits = None         # satisfied at level 0
                        else:
                            lits = [d for d in lits if not value[d]]
                        break
                if lits is None:
                    continue
                if len(lits) > 1:
                    self._attach(lits)
                elif not lits:
                    self.ok = False
                    return
                else:
                    self._assign(lits[0], None)
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
            if not ws:
                continue
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
                    # a while loop: most clauses are ternary, and a range
                    # per scan would cost more than the scan
                    k, n = 3, len(cl)
                    while k < n:
                        lk = cl[k]
                        if value[lk] != -1:
                            cl[k] = false_lit
                            break
                        k += 1
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

    def _rebuild_heap(self):
        """Refills the heap with one fresh entry per unassigned variable."""
        value, act, fresh = self.value, self.activity, self.fresh
        variables = range(1, self.nvars + 1)
        fresh[1:] = bytes(value[2 * v] == 0 for v in variables)
        self.heap[:] = [(-act[v], v) for v in variables if fresh[v]]
        heapify(self.heap)

    def _backtrack(self, lvl):
        """Unassigns every level above ``lvl``, saving each phase and
        pushing a heap entry for each variable that is not fresh."""
        if len(self.trail_lim) <= lvl:
            return
        value, polarity = self.value, self.polarity
        heap, fresh, act = self.heap, self.fresh, self.activity
        trail = self.trail
        lim = self.trail_lim[lvl]
        for c in reversed(trail[lim:]):
            v = c >> 1
            value[c] = value[c ^ 1] = 0
            polarity[v] = c & 1
            if not fresh[v]:
                heappush(heap, (-act[v], v))
                fresh[v] = 1
        del trail[lim:]
        del self.trail_lim[lvl:]
        self.qhead = lim
        if len(heap) > heap_limit(self.nvars):
            self._rebuild_heap()

    # -- conflict analysis -------------------------------------------------

    def analyze(self, confl):
        """First-UIP learnt clause for the conflicting clause ``confl``,
        locally minimized; returns (learnt, backtrack level) with the
        asserting literal first and a literal of the backtrack level
        second."""
        seen, level, reason, trail = self.seen, self.level, self.reason, \
            self.trail
        act, heap, fresh = self.activity, self.heap, self.fresh
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
                    # bump v's activity, rescaling all of them (and
                    # rebuilding the heap) past 1e100
                    a = act[v] = act[v] + var_inc
                    if a > 1e100:
                        for i in range(1, self.nvars + 1):
                            act[i] *= 1e-100
                        var_inc = self.var_inc = var_inc * 1e-100
                        self._rebuild_heap()
                    elif fresh[v]:
                        heappush(heap, (-a, v))
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

    def solve(self, assumptions=(), preferred=()):
        """Returns a model, or None if unsatisfiable under the assumptions
        (literal codes).  A model is a copy of ``value``: ``model[c] > 0``
        exactly when literal code ``c`` is true, the constant's included.
        It is the lexicographic optimum of ``preferred`` (literal codes,
        highest priority first): each comes out true unless the clauses,
        the assumptions and the preferred literals before it make it
        false."""
        if not self.ok:
            return None
        self._backtrack(0)
        if self.propagate() is not None:
            self.ok = False
            return None
        self.ensure_vars(max([*assumptions, *preferred], default=0) >> 1)
        value, heap, fresh = self.value, self.heap, self.fresh
        trail, trail_lim = self.trail, self.trail_lim
        deadline = self.deadline
        restarts = 0
        budget = luby(0) * RESTART_UNIT
        cursor = 0              # every preferred literal before it has a value
        while True:
            check_deadline(deadline)
            confl = self.propagate()
            if confl is not None:
                # every literal propagated since the last decision is at the
                # current level, so the conflict has one there; at level 0
                # it refutes the clauses
                if not trail_lim:
                    self.ok = False
                    return None
                self.conflicts += 1
                learnt, btlevel = self.analyze(confl)
                self._backtrack(btlevel)
                cursor = 0
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
            if len(trail_lim) < len(assumptions):
                # assumptions occupy the first decision levels; a falsified
                # assumption means UNSAT under the given assumption set
                c = assumptions[len(trail_lim)]
                val = value[c]
                if val < 0:
                    return None
                trail_lim.append(len(trail))
                if val == 0:
                    self._assign(c, None)
                continue
            # a preferred literal with a value is skipped: if false, the
            # clauses, the assumptions and the decisions below it (all on
            # preferred literals before it) imply that
            while cursor < len(preferred) and value[preferred[cursor]] != 0:
                cursor += 1
            if cursor < len(preferred):
                c = preferred[cursor]
            elif len(trail) == self.nvars:
                return value[:]
            else:
                while True:
                    v = heappop(heap)[1]
                    if fresh[v]:
                        fresh[v] = 0
                        if not value[2 * v]:
                            break
                c = 2 * v | self.polarity[v]
            self.decisions += 1
            trail_lim.append(len(trail))
            self._assign(c, None)
