"""Search engine: complete within the configured bounds.

The outer loop deepens over repeat-count vectors in ascending total order.
For each vector, one call of ``_solve_vector`` executes the program
symbolically once, yielding a constraint system over the hole/choice
variables, blasts it and hands all of its clauses to a fresh SAT solver in
one batch; the terms and the blaster's memos are dropped before the search.
A SAT check decides whether any candidate passes every harness at that
depth.  Nothing of a refuted vector outlives that call.  On the first
satisfiable depth, objectives are minimized lexicographically, then every
unknown is minimized in registry order (canonicalization), making the
reported assignment independent of solver internals.

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
from .errors import DeadlineExceeded, InternalError
from .interp import (
    ConcreteUnknowns, HarnessFailure, Interp, ResourceLimit, SymbolicUnknowns,
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

    def __init__(self, assignment, objective_values, depth=0):
        self.assignment = assignment
        self.objective_values = objective_values  # objective name -> int
        self.depth = depth


class _NoSolution(Record):
    def __init__(self, depth_reached=0, wall_ms=0):
        self.depth_reached = depth_reached
        self.wall_ms = wall_ms


class Unsat(_NoSolution):
    """No candidate passes within the bounds."""


class Timeout(_NoSolution):
    """The wall-clock limit ran out first."""


class Overrun(_NoSolution):
    """No candidate passes, but symbolic execution of at least one repeat
    vector overran a resource limit (steps or call depth), so the search
    cannot tell whether that vector has a solution; ``depth_reached`` is
    the depth of the first such vector and ``limit`` what it overran."""

    def __init__(self, depth_reached=0, wall_ms=0, limit=None):
        self.depth_reached = depth_reached
        self.wall_ms = wall_ms
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


def repeat_vectors(repeat_names, unroll_max):
    """Vectors in ascending total order, lexicographic within a total."""
    n = len(repeat_names)
    if n == 0:
        yield {}
        return
    for total in range(n * unroll_max + 1):
        for combo in _compositions(total, n, unroll_max):
            yield dict(zip(repeat_names, combo))


def _compositions(total, n, cap):
    if n == 1:
        if total <= cap:
            yield (total,)
        return
    for first in range(min(total, cap) + 1):
        for rest in _compositions(total - first, n - 1, cap):
            yield (first,) + rest


# -- one repeat vector -----------------------------------------------------


def _encode(program, vector, cfg, deadline):
    """Symbolic execution of every harness: (constraints, [(objective name,
    term)]), or None if a harness fails on every path."""
    unknowns = SymbolicUnknowns(effective_hole_width(program, cfg))
    constraints = []
    terms = {}
    try:
        for h in program.harnesses:
            it = Interp(program, unknowns, vector, cfg, deadline)
            it.run_harness(h)
            constraints.extend(it.constraints)
            terms.update(it.objectives)
    except HarnessFailure:
        return None
    return constraints, [(name, terms.get(name, B.ZERO))
                         for name in program.objectives]


def _load(program, vector, choice_insts, cfg, deadline):
    """(solver, variable bits, [(objective name, bits)]) for ``vector``:
    a solver that holds every clause of its encoding, in one batch; None if
    a harness fails on every path or the terms blast to false.  The terms
    and the blaster's memos die with this call, before the search."""
    encoded = _encode(program, vector, cfg, deadline)
    if encoded is None:
        return None
    constraints, objectives = encoded
    cb = CnfBuilder(deadline)
    for inst in choice_insts:
        cb.assert_term(B.ult(B.var(inst.name, inst.unknown.bit_width),
                             B.const(inst.unknown.arity)))
    for c in constraints:
        cb.assert_term(c)
    # blasted before the first solve, so every model assigns their bits
    objective_bits = [(name, cb.blast(term)) for name, term in objectives]
    if cb.contradiction:
        return None
    solver = sat.Solver(deadline=deadline)
    solver.ensure_vars(cb.nvars)
    solver.add_clauses(cb.clauses)
    return solver, cb.var_bits, objective_bits


def _solve_vector(program, vector, cfg, deadline):
    """None if no candidate passes at ``vector``; otherwise the canonical
    minimal assignment and its objective values."""
    hole_insts, choice_insts = program.registry.instantiate(vector)
    loaded = _load(program, vector, choice_insts, cfg, deadline)
    if loaded is None:
        return None
    solver, var_bits, objective_bits = loaded
    if solver.solve() is None:
        return None
    # lexicographic objective minimization, then canonicalization
    # (smallest value for every unknown in registry order), in one search
    # that decides the preferred bits first
    insts = hole_insts + choice_insts
    terms = [bits for _, bits in objective_bits] + \
        [var_bits.get(inst.name, []) for inst in insts]
    model = solver.solve(preferred=[lit for bits in terms
                                    for lit in _signed_minimum(bits)])
    objective_values = {name: B.to_signed(bits_value(bits, model))
                        for name, bits in objective_bits}
    values = {inst.name: bits_value(var_bits.get(inst.name, ()), model)
              for inst in insts}
    return Assignment(values, dict(vector)), objective_values


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
    """Complete bounded search; Solution, Unsat, Timeout or Overrun."""
    t0 = time.monotonic()
    deadline = t0 + cfg.timeout
    repeat_names = [r.name for r in program.registry.repeats]
    depth_reached = 0
    overrun = None

    def ms():
        return int((time.monotonic() - t0) * 1000)

    try:
        for vector in repeat_vectors(repeat_names, cfg.unroll_max):
            depth = sum(vector.values())
            depth_reached = max(depth_reached, depth)
            if time.monotonic() > deadline:
                return Timeout(depth_reached, ms())
            # an overrun leaves this vector undecided; a later one may
            # still solve, so only a search that ends empty reports it
            try:
                result = _solve_vector(program, vector, cfg, deadline)
            except ResourceLimit as limit:
                if overrun is None:
                    overrun = Overrun(depth, limit=limit)
                continue
            if result is None:
                continue
            assignment, objective_values = result
            replay(program, assignment, objective_values, cfg, deadline)
            return Solution(assignment=assignment,
                            objective_values=objective_values,
                            depth=depth)
        if overrun is not None:
            overrun.wall_ms = ms()
            return overrun
        return Unsat(depth_reached, ms())
    except DeadlineExceeded:
        pass
    # read after the handler, which holds the interrupted vector's terms
    # and clauses until it exits
    return Timeout(depth_reached, ms())

