"""Search engine: complete within the configured bounds.

The outer loop deepens over repeat-count vectors in ascending total order.
For each vector the program is executed symbolically once, yielding a
constraint system over the hole/choice variables; a SAT check decides whether
any candidate passes every harness at that depth.  On the first satisfiable
depth, objectives are minimized lexicographically, then every unknown is
minimized in registry order (canonicalization), making the reported
assignment independent of solver internals.

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
from dataclasses import dataclass
from itertools import islice

from . import bitvec as B
from . import sat
from .cnf import CnfBuilder, bits_value, lit_true
from .errors import InternalError
from .interp import (
    ConcreteUnknowns, HarnessFailure, Interp, StepLimitExceeded,
    SymbolicUnknowns,
)


@dataclass
class EngineConfig:
    hole_bits: int = 5
    unroll_max: int = 8
    loop_bound: int = 64
    step_limit: int = 100_000
    timeout: float = 600.0


@dataclass
class Assignment:
    values: dict                 # unknown instance name -> int
    repeat_counts: dict          # repeat name -> count


@dataclass
class EvalOutcome:
    steps_used: int
    reason: str = None           # None if the harness passed
    span: object = None


@dataclass
class Solution:
    assignment: Assignment
    objective_values: dict       # objective name -> int
    depth: int = 0
    wall_ms: int = 0
    candidates = 1               # the first canonical model always replays


@dataclass
class _NoSolution:
    depth_reached: int = 0
    wall_ms: int = 0


class Unsat(_NoSolution):
    """No candidate passes within the bounds."""


class Timeout(_NoSolution):
    """The wall-clock limit ran out first."""


class StepLimit(_NoSolution):
    """No candidate passes, but symbolic execution of at least one repeat
    vector ran out of steps, so the search cannot tell whether that vector
    has a solution; ``depth_reached`` is the depth of the first such
    vector."""


def effective_hole_width(program, cfg):
    """Holes widen beyond the configured bits when the program mentions
    literals that would not fit, to at most 31 bits: only a configured
    width of 32 makes holes signed."""
    need = min(program.max_literal.bit_length(), 31)
    return max(cfg.hole_bits, need, 1)


# -- concrete evaluation ---------------------------------------------------


def _concrete_interp(program, assignment, cfg):
    return Interp(program,
                  ConcreteUnknowns(program.registry, assignment.values),
                  assignment.repeat_counts,
                  loop_bound=cfg.loop_bound, step_limit=cfg.step_limit)


def eval_harness(program, harness, assignment, cfg):
    """Run one harness under a total concrete assignment."""
    interp = _concrete_interp(program, assignment, cfg)
    try:
        interp.run_harness(harness)
    except HarnessFailure as f:
        return EvalOutcome(interp.steps, f.reason, f.span)
    except StepLimitExceeded:
        return EvalOutcome(interp.steps, "step limit exceeded")
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


# -- solver wiring ---------------------------------------------------------


class _DepthProblem:
    """One repeat vector: symbolic execution, CNF, incremental SAT."""

    def __init__(self, program, vector, cfg, deadline):
        self.program = program
        self.registry = program.registry
        self.vector = vector
        self.cfg = cfg
        self.unknowns = SymbolicUnknowns(
            self.registry, effective_hole_width(program, cfg))
        self.hole_insts, self.choice_insts = \
            self.registry.instantiate(vector)
        self.cb = CnfBuilder()
        self.solver = sat.Solver(deadline=deadline)
        self._synced = 0
        self.objective_bits = []    # (name, blasted bits) per objective
        self.feasible = self._encode()

    def _encode(self):
        constraints = []
        objectives = []
        try:
            for h in self.program.harnesses:
                interp = Interp(self.program, self.unknowns, self.vector,
                                loop_bound=self.cfg.loop_bound,
                                step_limit=self.cfg.step_limit)
                interp.run_harness(h)
                constraints.extend(interp.constraints)
            if self.program.objectives:
                interp = Interp(self.program, self.unknowns, self.vector,
                                loop_bound=self.cfg.loop_bound,
                                step_limit=self.cfg.step_limit)
                interp.init_statics()
                for name, expr in self.program.objectives:
                    objectives.append((name, interp.eval_objective(expr)))
                constraints.extend(interp.constraints)
        except HarnessFailure:
            return False
        for inst in self.choice_insts:
            self.cb.assert_term(B.ult(B.var(inst.name, inst.info.bit_width),
                                      B.const(inst.info.arity)))
        for c in constraints:
            self.cb.assert_term(c)
        # blasted before the first solve, so every model assigns their bits
        self.objective_bits = [(name, self.cb.blast(term))
                               for name, term in objectives]
        return not self.cb.contradiction

    def _sync(self):
        self.solver.ensure_vars(self.cb.nvars)
        clauses = self.cb.clauses
        if self._synced < len(clauses):
            self.solver.add_clauses(islice(clauses, self._synced, None))
            self._synced = len(clauses)

    def solve(self, assumptions=()):
        if self.cb.contradiction:
            return None
        self._sync()
        return self.solver.solve(assumptions=list(assumptions))

    def model_assignment(self, model):
        values = {}
        for inst in self.hole_insts + self.choice_insts:
            values[inst.name] = self.cb.model_value(inst.name, model)
        return Assignment(values=values, repeat_counts=dict(self.vector))

    def fix_bits(self, bits, model, assumptions):
        """Fix ``bits`` (a blasted term, LSB first) from the MSB down to the
        signed minimum over models satisfying ``assumptions``: 1 preferred on
        the sign bit, 0 on every other bit.  Each chosen literal is appended
        to ``assumptions``; returns a model attaining the minimum."""
        sign = len(bits) - 1
        for i in range(sign, -1, -1):
            bit = bits[i]
            if isinstance(bit, bool):
                continue
            want = bit if i == sign else -bit
            if not lit_true(want, model):
                m = self.solve(assumptions + [want])
                if m is None:
                    want = -want
                else:
                    model = m
            assumptions.append(want)
        return model


# -- top level -------------------------------------------------------------


def solve(program, cfg):
    """Complete bounded search; Solution, Unsat, Timeout or StepLimit."""
    t0 = time.monotonic()
    deadline = t0 + cfg.timeout
    registry = program.registry
    repeat_names = [info.uid.name for info in registry.repeats]
    depth_reached = 0
    overrun_depth = None

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
                prob = _DepthProblem(program, vector, cfg, deadline)
            except StepLimitExceeded:
                if overrun_depth is None:
                    overrun_depth = depth
                continue
            if not prob.feasible:
                continue
            result = _solve_at_depth(prob)
            if result is None:
                continue
            assignment, objective_values = result
            replay(program, assignment, objective_values, cfg)
            return Solution(assignment=assignment,
                            objective_values=objective_values,
                            depth=depth, wall_ms=ms())
        if overrun_depth is not None:
            return StepLimit(overrun_depth, ms())
        return Unsat(depth_reached, ms())
    except sat.Timeout:
        return Timeout(depth_reached, ms())


def _solve_at_depth(prob):
    """None if no candidate passes at this depth; otherwise the canonical
    minimal assignment and its objective values."""
    model = prob.solve()
    if model is None:
        return None
    # lexicographic objective minimization, then canonicalization
    # (smallest value for every unknown in registry order)
    assumptions = []
    for _, bits in prob.objective_bits:
        model = prob.fix_bits(bits, model, assumptions)
    for inst in prob.hole_insts + prob.choice_insts:
        model = prob.fix_bits(prob.cb.var_bits.get(inst.name, []), model,
                              assumptions)
    objective_values = {name: B.to_signed(bits_value(bits, model))
                        for name, bits in prob.objective_bits}
    return prob.model_assignment(model), objective_values
