"""Search engine: complete within the configured bounds.

The outer loop deepens over the totals of the repeat counts and decides
each total's vectors in lexicographic order.  For each vector, one call of
``_solve_vector`` executes the program symbolically once, yielding a
constraint system over the hole/choice variables, blasts it and hands all
of its clauses to a fresh SAT solver in one batch; the terms and the
blaster's memos are dropped before the search.  A SAT check decides
whether any candidate passes every harness at that depth.  Nothing of a
refuted vector outlives that call.  On the first satisfiable depth,
objectives are minimized lexicographically, then every unknown is
minimized in registry order (canonicalization), making the reported
assignment independent of solver internals.

Refuting one vector at a time pays for every depth again.  The first time
a refuted total leaves the refuted vectors costing as many solver
variables as one formula for the rest of the range would (``_switches``,
the ski-rental rule), ``_solve_range`` decides every remaining total in
one formula, in which each repeat count is a solver variable, as Sketch
treats ``repeat(??)``.  Its preferred bits put the counts' sum and then
each count first, so its answer is the one deepening would give.  When
that formula cannot be encoded (a resource limit that more copies
overrun, or a library call that needs a concrete condition), the loop
goes on with the next total.  Each verdict returned carries ``steps``,
one line per decision step, which the CLI writes to the log.

An objective is set by its ``minimize(e)`` statement where that statement
runs: it is an implicit ``int`` of its harness, 0 until the statement runs,
and the last run on a path gives its value.  The harness's own run, symbolic
or concrete, yields it.

Canonicalization is one more SAT call on the same solver, with preferred
literals: every objective's blasted bits, then every unknown's, each from
the MSB down, preferring 1 on the sign bit and 0 on every other bit (the
signed 32-bit minimum), constant bits left out.  The solver decides them
first and in that order, so its model is their lexicographic optimum.
Narrow unknowns have a constant-0 sign bit, so they come out as their
unsigned minimum.  The first call, a plain VSIDS search, alone decides
whether the vector has a solution: deciding the preferred bits first from
the start is far slower on refuted vectors.

One deadline, ``cfg.timeout`` after ``solve`` starts, holds in every layer:
symbolic execution and replay, blasting, clause intake and SAT search each
raise ``DeadlineExceeded`` once past it, and ``solve`` reports a
``Timeout``.

The winner is replayed concretely before being returned: every harness must
pass and every objective must end its harness's run with the model's value.
A concrete run takes one of the paths the symbolic run took, so it fits in
the same bounds; any mismatch contradicts the encoding and is an
``InternalError``.
"""

from __future__ import annotations

import time

from . import bitvec as B
from . import sat
from .cnf import CnfBuilder, bits_value
from .errors import DeadlineExceeded, EncodingError, InternalError
from .interp import (
    ConcreteUnknowns, HarnessFailure, Interp, ResourceLimit, SymbolicCount,
    SymbolicUnknowns,
)
from .records import Record


class EngineConfig(Record):
    def __init__(self, hole_bits=5, unroll_max=8, loop_bound=64,
                 step_limit=100_000, timeout=600.0):
        self.hole_bits = hole_bits
        self.unroll_max = unroll_max
        self.loop_bound = loop_bound
        self.step_limit = step_limit
        self.timeout = timeout


class Assignment(Record):
    def __init__(self, values, repeat_counts):
        self.values = values  # unknown instance name -> int
        self.repeat_counts = repeat_counts  # repeat name -> count


class EvalOutcome(Record):
    def __init__(self, steps_used, reason=None, span=None, objectives=None):
        self.steps_used = steps_used
        self.reason = reason  # None if the harness passed
        self.span = span
        # objective name -> int, for each objective the passing run set
        self.objectives = {} if objectives is None else objectives


class Solution(Record):
    candidates = 1               # the first canonical model always replays

    def __init__(self, assignment, objective_values, depth=0, steps=()):
        self.assignment = assignment
        self.objective_values = objective_values  # objective name -> int
        self.depth = depth
        self.steps = steps  # one line per decision step of the search


class _NoSolution(Record):
    def __init__(self, depth_reached=0, wall_ms=0, steps=()):
        self.depth_reached = depth_reached
        self.wall_ms = wall_ms
        self.steps = steps  # one line per decision step of the search


class Unsat(_NoSolution):
    """No candidate passes within the bounds."""


class Timeout(_NoSolution):
    """The wall-clock limit ran out first."""


class Overrun(_NoSolution):
    """No candidate passes, but symbolic execution of at least one repeat
    vector overran a resource limit (steps or call depth), so the search
    cannot tell whether that vector has a solution; ``depth_reached`` is
    the depth of the first such vector and ``limit`` what it overran."""

    def __init__(self, depth_reached=0, wall_ms=0, limit=None, steps=()):
        super().__init__(depth_reached, wall_ms, steps)
        self.limit = limit  # ResourceLimit


def effective_hole_width(program, cfg):
    """Holes widen beyond the configured bits when the program mentions
    literals that would not fit, to at most 31 bits: only a configured
    width of 32 makes holes signed."""
    need = min(program.max_literal.bit_length(), 31)
    return max(cfg.hole_bits, need, 1)


# -- concrete evaluation ---------------------------------------------------


def eval_harness(program, harness, assignment, cfg, deadline=None):
    """Run one harness under a total concrete assignment."""
    interp = Interp(program, ConcreteUnknowns(assignment.values),
                    assignment.repeat_counts, cfg, deadline)
    try:
        interp.run_harness(harness)
    except HarnessFailure as f:
        return EvalOutcome(interp.steps, f.reason, f.span)
    except ResourceLimit as r:
        return EvalOutcome(interp.steps, str(r))
    return EvalOutcome(interp.steps, objectives={
        name: B.to_signed(B.const_value(v))
        for name, v in interp.objectives.items()})


def replay(program, assignment, objective_values, cfg, deadline=None):
    """Check a model concretely: every harness passes, and every objective
    ends its harness's run with the model's value (0 if its ``minimize``
    never ran).  Raises ``InternalError`` on any mismatch."""
    got = {}
    for h in program.harnesses:
        out = eval_harness(program, h, assignment, cfg, deadline)
        if out.reason is not None:
            raise InternalError(f"replay of harness '{h}' failed: "
                                f"{out.reason}", out.span)
        got.update(out.objectives)
    for name in program.objectives:
        value = got.get(name, 0)
        if value != objective_values[name]:
            raise InternalError(f"replay of objective '{name}' gives {value}, "
                                f"the model {objective_values[name]}")


# -- depth iteration -------------------------------------------------------


def repeat_vectors(repeat_names, unroll_max, total):
    """The vectors whose counts sum to ``total``, in lexicographic order."""
    for combo in _compositions(total, len(repeat_names), unroll_max):
        yield dict(zip(repeat_names, combo))


def _compositions(total, n, cap):
    if n == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, cap) + 1):
        for rest in _compositions(total - first, n - 1, cap):
            yield (first,) + rest


def _switches(paid, last, total, top):
    """Whether the totals past ``total``, whose vectors are all refuted,
    are decided in one formula: the ski-rental rule.  A formula grows about
    linearly with its depth, so one for the rest of the range, which runs
    ``top`` copies, costs about ``last * top / total`` solver variables,
    ``last`` being the largest solver of ``total``; the refuted vectors
    have cost ``paid``.  A total that built no solver never switches."""
    return 0 < total < top and last > 0 and paid * total >= last * top


# -- one formula -----------------------------------------------------------


def _encode(program, counts, cfg, deadline):
    """Symbolic execution of every harness: (constraints, [(objective name,
    term)]), or None if a harness fails on every path."""
    unknowns = SymbolicUnknowns(effective_hole_width(program, cfg))
    constraints = []
    terms = {}
    try:
        for h in program.harnesses:
            it = Interp(program, unknowns, counts, cfg, deadline)
            it.run_harness(h)
            constraints.extend(it.constraints)
            terms.update(it.objectives)
    except HarnessFailure:
        return None
    return constraints, [(name, terms.get(name, B.ZERO))
                         for name in program.objectives]


def _load(program, counts, choice_insts, bounds, ranked, cfg, deadline):
    """(solver, variable bits, bits of each ranked term, [(objective name,
    bits)]) for repeat counts ``counts``: a solver that holds every clause
    of the encoding and of the ``bounds`` terms, in one batch; None if a
    harness fails on every path or the terms blast to false.  The terms and
    the blaster's memos die with this call, before the search."""
    encoded = _encode(program, counts, cfg, deadline)
    if encoded is None:
        return None
    constraints, objectives = encoded
    cb = CnfBuilder(deadline)
    for term in bounds:
        cb.assert_term(term)
    for inst in choice_insts:
        cb.assert_term(B.ult(B.var(inst.name, inst.unknown.bit_width),
                             B.const(inst.unknown.arity)))
    for c in constraints:
        cb.assert_term(c)
    # blasted before the first solve, so every model assigns their bits
    ranked_bits = [cb.blast(term) for term in ranked]
    objective_bits = [(name, cb.blast(term)) for name, term in objectives]
    if cb.contradiction:
        return None
    solver = sat.Solver(deadline=deadline)
    solver.ensure_vars(cb.nvars)
    solver.add_clauses(cb.clauses)
    return solver, cb.var_bits, ranked_bits, objective_bits


def _decide(program, counts, at, bounds, ranked, cfg, deadline):
    """(model, variable bits, objective bits, solver variables) of the
    encoding at repeat counts ``counts``, whose unknowns are instantiated
    at vector ``at``: model None if no candidate passes, variables 0 if no
    solver was built.  A plain VSIDS search decides; a second one on the
    same solver then decides the preferred bits first: each ranked term's
    unsigned minimum, then the objectives' and then the unknown instances'
    signed minimum, in registry order."""
    hole_insts, choice_insts = program.registry.instantiate(at)
    loaded = _load(program, counts, choice_insts, bounds, ranked, cfg,
                   deadline)
    if loaded is None:
        return None, None, None, 0
    solver, var_bits, ranked_bits, objective_bits = loaded
    if solver.solve() is None:
        return None, None, None, solver.nvars
    preferred = [bit ^ 1 for bits in ranked_bits
                 for bit in reversed(bits) if bit > 1]
    for bits in [bits for _, bits in objective_bits] + \
            [var_bits.get(inst.name, []) for inst in hole_insts + choice_insts]:
        preferred += _signed_minimum(bits)
    model = solver.solve(preferred=preferred)
    return model, var_bits, objective_bits, solver.nvars


def _answer(program, vector, model, var_bits, objective_bits):
    """The ``Solution`` that ``model`` gives at repeat vector ``vector``,
    at the depth of its total."""
    hole_insts, choice_insts = program.registry.instantiate(vector)
    values = {inst.name: bits_value(var_bits.get(inst.name, ()), model)
              for inst in hole_insts + choice_insts}
    objective_values = {name: B.to_signed(bits_value(bits, model))
                        for name, bits in objective_bits}
    return Solution(Assignment(values, dict(vector)), objective_values,
                    sum(vector.values()))


def _solve_vector(program, vector, cfg, deadline):
    """(answer, solver variables): answer None if no candidate passes at
    ``vector``, otherwise the ``Solution`` of the canonical minimal
    assignment and its objective values, without steps."""
    model, var_bits, objective_bits, nvars = _decide(
        program, vector, vector, (), (), cfg, deadline)
    if model is None:
        return None, nvars
    return _answer(program, vector, model, var_bits, objective_bits), nvars


def _solve_range(program, lo, cfg, deadline):
    """(answer, solver variables) of every repeat vector whose total is
    ``lo`` or more, decided in one formula in which each repeat count is a
    solver variable named after its repeat; answer None if no candidate
    passes at any of them, otherwise the canonical answer of the first
    vector in search order that has one.

    Each count has the bits of ``unroll_max``, is at most ``unroll_max``,
    and the counts sum to at least ``lo``.  A block runs ``unroll_max``
    copies, copy ``i`` on the paths where ``i`` is below its count, and
    the unknowns are instantiated at ``unroll_max``.  The preferred bits
    are the sum's, then each count's in registry order, then those of
    ``_solve_vector``: so the winning vector is the first in search order
    that has a solution, and its answer the one ``_solve_vector`` gives
    there.  A copy at or past its count runs under a false guard, so its
    unknowns are free and take their minimum; the answer is read at the
    winning vector, which lists no such copy.

    Raises what the encoding raises: ``ResourceLimit`` where more copies
    take more steps, ``EncodingError`` where a copy's guard reaches a
    library call that needs a concrete condition."""
    top = cfg.unroll_max
    names = [r.name for r in program.registry.repeats]
    counts = {name: B.var(name, top.bit_length()) for name in names}
    total = B.ZERO
    for count in counts.values():
        total = B.add(total, count)
    bounds = [B.not_(B.ult(B.const(top), c)) for c in counts.values()]
    bounds.append(B.not_(B.ult(total, B.const(lo))))
    # the copies that every vector of the range runs
    floor = max(0, lo - (len(names) - 1) * top)
    model, var_bits, objective_bits, nvars = _decide(
        program, {name: SymbolicCount(c, floor) for name, c in counts.items()},
        dict.fromkeys(names, top), bounds, [total, *counts.values()], cfg,
        deadline)
    if model is None:
        return None, nvars
    vector = {name: bits_value(var_bits[name], model) for name in names}
    return _answer(program, vector, model, var_bits, objective_bits), nvars


def _signed_minimum(bits):
    """The literals, MSB first, that give ``bits`` (a blasted term, LSB
    first) its signed minimum: 1 on the sign bit, 0 on every other bit.
    Constant bits (codes 0 and 1) are left out."""
    sign = len(bits) - 1
    return [bit if i == sign else bit ^ 1
            for i, bit in reversed(list(enumerate(bits)))
            if bit > 1]


# -- top level -------------------------------------------------------------


def solve(program, cfg):
    """Complete bounded search; Solution, Unsat, Timeout or Overrun, whose
    ``steps`` say what each decision step found."""
    t0 = time.monotonic()
    deadline = t0 + cfg.timeout
    names = [r.name for r in program.registry.repeats]
    top = len(names) * cfg.unroll_max
    steps = []
    overrun = None      # (depth, limit) of the first vector that overran
    paid = 0            # solver variables of the refuted vectors so far
    ranged = False      # the range formula was tried

    def ms():
        return int((time.monotonic() - t0) * 1000)

    def found(solution):
        replay(program, solution.assignment, solution.objective_values, cfg,
               deadline)
        solution.steps = steps
        return solution

    try:
        for depth in range(top + 1):
            last = 0            # the largest solver of this total
            refuted = True      # every vector of this total is refuted
            for vector in repeat_vectors(names, cfg.unroll_max, depth):
                if time.monotonic() > deadline:
                    return Timeout(depth, ms(), steps)
                where = " ".join([f"depth {depth}"] +
                                 [f"{n}={c}" for n, c in vector.items()])
                # an overrun leaves this vector undecided; a later one may
                # still solve, so only a search that ends empty reports it
                try:
                    answer, nvars = _solve_vector(program, vector, cfg,
                                                  deadline)
                except ResourceLimit as limit:
                    steps.append(f"{where}: {limit}")
                    # kept without its traceback, which holds this frame
                    overrun = overrun or (depth, limit.with_traceback(None))
                    refuted = False
                    continue
                steps.append(f"{where}: "
                             f"{'unsat' if answer is None else 'sat'}, "
                             f"{nvars} vars")
                if answer is not None:
                    return found(answer)
                paid += nvars
                last = max(last, nvars)
            if ranged or not refuted or not _switches(paid, last, depth, top):
                continue
            # while the range runs, its last depth is the one reached
            ranged, lo, depth = True, depth + 1, top
            where = f"depths {lo}-{top}: one formula"
            try:
                answer, nvars = _solve_range(program, lo, cfg, deadline)
            except (ResourceLimit, EncodingError) as e:
                steps.append(f"{where} not encoded ({e}); "
                             "one vector at a time")
                continue
            if answer is not None:
                steps.append(f"{where}, sat at depth {answer.depth}, "
                             f"{nvars} vars")
                return found(answer)
            steps.append(f"{where}, unsat, {nvars} vars")
            break
        if overrun is not None:
            return Overrun(overrun[0], ms(), overrun[1], steps)
        return Unsat(depth, ms(), steps)
    except DeadlineExceeded:
        pass
    # read after the handler, which holds the interrupted vector's terms
    # and clauses until it exits
    return Timeout(depth, ms(), steps)
