"""Search engine: complete within the configured bounds.

The outer loop deepens over repeat-count vectors in ascending total order.
For each vector, one call of ``_solve_vector`` executes the program
symbolically once, yielding a constraint system over the hole/choice
variables, blasts it and hands all of its clauses to a fresh SAT solver in
one batch; a SAT check decides whether any candidate passes every harness at
that depth.  Nothing of a refuted vector outlives that call.  On the first
satisfiable depth, objectives are minimized lexicographically, then every
unknown is minimized in registry order (canonicalization), making the
reported assignment independent of solver internals.

Minimization fixes a term's blasted bits from the MSB down under
assumptions, preferring 1 on the sign bit and 0 on every other bit: that is
the signed 32-bit minimum.  Narrow unknowns have a constant-0 sign bit, so
they come out as their unsigned minimum.  A SAT call is made only when the
current model does not already have the preferred bit.

The winner is replayed concretely before being returned: every harness must
pass and every objective must evaluate to the model's value.  A concrete run
takes one of the paths the symbolic run took, so it fits in the same bounds;
any mismatch contradicts the encoding and is an ``InternalError``.
"""

from __future__ import annotations

import time

from . import bitvec as B
from . import sat
from .cnf import CnfBuilder, bits_value, lit_true
from .errors import InternalError
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
    def __init__(self, steps_used, reason=None, span=None):
        self.steps_used = steps_used
        self.reason = reason  # None if the harness passed
        self.span = span


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


def _concrete_interp(program, assignment, cfg):
    return Interp(program,
                  ConcreteUnknowns(assignment.values),
                  assignment.repeat_counts,
                  loop_bound=cfg.loop_bound, step_limit=cfg.step_limit)


def eval_harness(program, harness, assignment, cfg):
    """Run one harness under a total concrete assignment."""
    interp = _concrete_interp(program, assignment, cfg)
    try:
        interp.run_harness(harness)
    except HarnessFailure as f:
        return EvalOutcome(interp.steps, f.reason, f.span)
    except ResourceLimit as r:
        return EvalOutcome(interp.steps, str(r))
    return EvalOutcome(interp.steps)


def replay(program, assignment, objective_values, cfg):
    """Check a model concretely: every harness passes, and every objective,
    read right after ``init_statics()`` as the encoding reads it, has the
    model's value.  Raises ``InternalError`` on any mismatch."""
    for h in program.harnesses:
        out = eval_harness(program, h, assignment, cfg)
        if out.reason is not None:
            raise InternalError(f"replay of harness '{h}' failed: "
                                f"{out.reason}", out.span)
    if not program.objectives:
        return
    interp = _concrete_interp(program, assignment, cfg)
    interp.init_statics()
    for name, expr in program.objectives:
        got = B.to_signed(B.const_value(interp.eval_objective(expr)))
        if got != objective_values[name]:
            raise InternalError(f"replay of objective '{name}' gives {got}, "
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


def _encode(program, vector, cfg):
    """Symbolic execution of every harness, then of every objective right
    after ``init_statics()``: (constraints, [(objective name, term)]), or
    None if a harness fails on every path."""
    unknowns = SymbolicUnknowns(effective_hole_width(program, cfg))
    constraints = []
    objectives = []

    def interp():
        return Interp(program, unknowns, vector, loop_bound=cfg.loop_bound,
                      step_limit=cfg.step_limit)
    try:
        for h in program.harnesses:
            it = interp()
            it.run_harness(h)
            constraints.extend(it.constraints)
        if program.objectives:
            it = interp()
            it.init_statics()
            for name, expr in program.objectives:
                objectives.append((name, it.eval_objective(expr)))
            constraints.extend(it.constraints)
    except HarnessFailure:
        return None
    return constraints, objectives


def _solve_vector(program, vector, cfg, deadline):
    """None if no candidate passes at ``vector``; otherwise the canonical
    minimal assignment and its objective values.  All clauses reach the
    solver in one batch before the first search."""
    encoded = _encode(program, vector, cfg)
    if encoded is None:
        return None
    constraints, objectives = encoded
    hole_insts, choice_insts = program.registry.instantiate(vector)
    cb = CnfBuilder()
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
    model = solver.solve()
    if model is None:
        return None
    # lexicographic objective minimization, then canonicalization
    # (smallest value for every unknown in registry order)
    assumptions = []
    for _, bits in objective_bits:
        model = _fix_bits(solver, bits, model, assumptions)
    insts = hole_insts + choice_insts
    for inst in insts:
        model = _fix_bits(solver, cb.var_bits.get(inst.name, []), model,
                          assumptions)
    objective_values = {name: B.to_signed(bits_value(bits, model))
                        for name, bits in objective_bits}
    values = {inst.name: cb.model_value(inst.name, model) for inst in insts}
    return Assignment(values, dict(vector)), objective_values


def _fix_bits(solver, bits, model, assumptions):
    """Fix ``bits`` (a blasted term, LSB first) from the MSB down to the
    signed minimum over models satisfying ``assumptions``: 1 preferred on
    the sign bit, 0 on every other bit.  Each chosen literal is appended to
    ``assumptions``; returns a model attaining the minimum."""
    sign = len(bits) - 1
    for i in range(sign, -1, -1):
        bit = bits[i]
        if isinstance(bit, bool):
            continue
        want = bit if i == sign else -bit
        if not lit_true(want, model):
            m = solver.solve(assumptions + [want])
            if m is None:
                want = -want
            else:
                model = m
        assumptions.append(want)
    return model


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
            replay(program, assignment, objective_values, cfg)
            return Solution(assignment=assignment,
                            objective_values=objective_values,
                            depth=depth)
        if overrun is not None:
            overrun.wall_ms = ms()
            return overrun
        return Unsat(depth_reached, ms())
    except sat.Timeout:
        return Timeout(depth_reached, ms())

