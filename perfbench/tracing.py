"""In-memory span recording around sketchsynth's public entry points, and
the per-layer metrics derived from the spans.

``install`` replaces module attributes and class methods of an imported
sketchsynth with wrappers that append one span per call: name, layer,
sketch id, pass, start, end, parent span and a few counts read at the
boundary.  Only call boundaries are wrapped (one span per SAT call and per
conflict analysis, never per propagated literal).  A hook point that a later
version of the program no longer has is skipped and reported, so the traced
run degrades to fewer metrics instead of failing.

Layers are the modules under ``src/sketchsynth``; a layer's time is the sum
of the self times of its spans (span duration minus its child spans).
"""

from __future__ import annotations

import statistics
import time

# Spans are lists for cheap in-place completion:
# [name, layer, sketch, pass, start, end, parent, attrs]
NAME, LAYER, SKETCH, PASS, START, END, PARENT, ATTRS = range(8)

PAPER_FIXTURES = ("mult2", "db", "db-two-state", "cadsr", "cadsr-small")

# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "parser.s": "s", "parser.kb_per_s": "KB/s",
    "desugar.s": "s", "desugar.unknowns": "count",
    "classtable.s": "s", "classtable.classes": "count",
    "lowering.s": "s", "lowering.functions": "count",
    "interp.sym_s": "s", "interp.sym_steps": "count",
    "interp.constraints": "count",
    "bitvec.terms": "count",
    "cnf.blast_s": "s", "cnf.vars.max": "count", "cnf.vars.sum": "count",
    "cnf.clauses.max": "count", "cnf.clauses.sum": "count",
    "sat.s": "s", "sat.calls": "count", "sat.unsat_calls": "count",
    "sat.conflicts": "count", "sat.conflicts_per_s": "1/s",
    "engine.self_s": "s", "engine.vectors": "count",
    "engine.search_sat_calls": "count", "engine.canon_sat_calls": "count",
    "engine.canon_s": "s", "engine.canon_improve_ratio": "ratio",
    "engine.candidates": "count",
    "replay.s": "s", "replay.steps": "count",
    "decode.s": "s", "decode.kb_out": "KB",
    "cli.self_s": "s",
    **{f"cli.verdict_s.{f}": "s" for f in PAPER_FIXTURES},
    **{f"sat.calls.{f}": "count" for f in PAPER_FIXTURES},
    "traced.sketches_per_s": "1/s", "traced.verdict_s.p50": "s",
}

# counts that must repeat exactly in every pass over the same sketches
PASS_COUNTS = ("desugar.unknowns", "classtable.classes", "lowering.functions",
               "interp.sym_steps", "interp.constraints", "cnf.vars.sum",
               "cnf.clauses.sum", "sat.calls", "sat.unsat_calls",
               "sat.conflicts", "engine.vectors", "engine.candidates",
               "replay.steps", "decode.kb_out")


class Recorder:
    """Holds every span of one traced run in memory."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.sketch = None
        self.pass_no = 0
        self.replay_depth = 0
        self.pending_builders = []
        self.events = []          # (sketch, pass, kind, value)
        self.missing = []         # hook points the program does not have

    def begin(self, sketch, pass_no):
        self.sketch = sketch
        self.pass_no = pass_no

    def end_sketch(self):
        self._flush_builders()

    def event(self, kind, value):
        self.events.append((self.sketch, self.pass_no, kind, value))

    def _flush_builders(self):
        for b in self.pending_builders:
            self.event("cnf.size", (b.nvars, len(b.clauses)))
        self.pending_builders = []

    def wrap(self, owner, attr, name, layer, after=None, before=None):
        """Replace ``owner.attr`` with a span-recording wrapper.  ``layer``
        is a string or a callable deciding it at call time; ``before(args)``
        returns state handed to ``after(args, result, state)``, whose return
        value becomes the span's attrs."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        rec = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            span = [name, layer() if callable(layer) else layer, rec.sketch,
                    rec.pass_no, 0.0, 0.0,
                    rec.stack[-1] if rec.stack else -1, None]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            result = None
            span[START] = perf()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                span[END] = perf()
                rec.stack.pop()
                if after:
                    span[ATTRS] = after(args, result, state)

        setattr(owner, attr, wrapper)


def install(rec):
    """Wrap the public entry points of every layer of an imported
    sketchsynth; returns the recorder."""
    from sketchsynth import cli, decode, engine, interp, sat
    from sketchsynth.cnf import CnfBuilder

    rec.wrap(cli, "main", "cli.main", "cli")
    rec.wrap(cli, "parse_program", "parse_program", "parser")
    rec.wrap(cli, "desugar", "desugar", "desugar",
             after=lambda a, r, s: _unknowns(r))
    rec.wrap(cli, "build_class_table", "build_class_table", "classtable",
             after=lambda a, r, s: len(r.classes) if r is not None else 0)
    rec.wrap(cli, "lower_program", "lower_program", "lowering",
             after=lambda a, r, s: len(r.functions) if r is not None else 0)
    rec.wrap(engine, "solve", "engine.solve", "engine",
             after=lambda a, r, s: getattr(r, "candidates", 0))

    orig_vectors = getattr(engine, "repeat_vectors", None)
    if orig_vectors is None:
        rec.missing.append("engine.repeat_vectors")
    else:
        def repeat_vectors(*args, **kwargs):
            for v in orig_vectors(*args, **kwargs):
                rec.event("vector", 1)
                yield v
        engine.repeat_vectors = repeat_vectors

    def enter_replay(args):
        rec.replay_depth += 1

    def leave_replay(args, result, state):
        rec.replay_depth -= 1
        return getattr(result, "steps_used", 0)

    rec.wrap(engine, "eval_harness", "eval_harness", "replay",
             before=enter_replay, after=leave_replay)

    # Interp runs outside a replay are the symbolic encoding; nested calls
    # on one interpreter (run_harness -> init_statics) count once
    def interp_before(args):
        parent = rec.spans[rec.stack[-1]] if rec.stack else None
        if parent is not None and parent[NAME].startswith("Interp."):
            return None
        it = args[0]
        return it.steps, len(it.constraints)

    def interp_after(args, result, state):
        if state is None:
            return None
        it = args[0]
        return it.steps - state[0], len(it.constraints) - state[1]

    def interp_layer():
        return "replay" if rec.replay_depth else "interp"

    for meth in ("run_harness", "init_statics", "eval_objective"):
        rec.wrap(interp.Interp, meth, f"Interp.{meth}", interp_layer,
                 before=interp_before, after=interp_after)

    orig_init = CnfBuilder.__init__

    def builder_init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        rec.pending_builders.append(self)
    CnfBuilder.__init__ = builder_init
    rec.wrap(CnfBuilder, "assert_term", "CnfBuilder.assert_term", "cnf")

    def solve_before(args):
        rec._flush_builders()

    rec.wrap(sat.Solver, "solve", "Solver.solve", "sat", before=solve_before,
             after=lambda a, r, s: r is not None)
    rec.wrap(sat.Solver, "analyze", "Solver.analyze", "sat")
    rec.wrap(decode, "apply_solution", "apply_solution", "decode")
    rec.wrap(decode, "unparse_program", "unparse_program", "decode",
             after=lambda a, r, s: sum(len(t.encode())
                                       for t in (r or {}).values()))
    return rec


def _unknowns(result):
    if not result:
        return 0
    registry = result[2]
    return (len(registry.holes) + len(registry.choices)
            + len(registry.repeats))


# -- derivation --------------------------------------------------------------


def derive(spans, events, calls, input_bytes, terms):
    """Per-layer metrics of one traced run.

    ``calls`` are the worker's (sketch, pass, exit code, seconds) records,
    ``input_bytes`` maps sketch id to source size and ``terms`` is the
    interned term count after the first pass.  Times are per pass over the
    workload's sketch set (mean over passes); counts are those of the
    first pass.  Returns (metrics, problems).
    """
    passes = sorted({c[1] for c in calls})
    per_pass = {p: _pass_metrics(spans, events, p, input_bytes)
                for p in passes}
    problems = []
    first = per_pass[passes[0]]
    for p in passes[1:]:
        for key in PASS_COUNTS:
            if per_pass[p][key] != first[key]:
                problems.append(f"{key} differs between pass {passes[0]} "
                                f"({first[key]}) and pass {p} "
                                f"({per_pass[p][key]})")
    out = dict(first)
    for key, unit in LAYER_METRICS.items():
        if unit == "s" and key in first:
            out[key] = statistics.fmean(per_pass[p][key] for p in passes)
    sat_s = out["sat.s"]
    out["sat.conflicts_per_s"] = out["sat.conflicts"] / sat_s if sat_s else 0.0
    parser_s = out["parser.s"]
    out["parser.kb_per_s"] = (first["parser.kb"] / parser_s
                              if parser_s else 0.0)
    del out["parser.kb"]
    out["bitvec.terms"] = terms
    return {k: out[k] for k in LAYER_METRICS if k in out}, problems


def _pass_metrics(spans, events, pass_no, input_bytes):
    mine = [i for i, s in enumerate(spans) if s[PASS] == pass_no]
    child_time = {}
    for i in mine:
        parent = spans[i][PARENT]
        if parent >= 0:
            child_time[parent] = (child_time.get(parent, 0.0)
                                  + spans[i][END] - spans[i][START])
    self_time = {}
    for i in mine:
        s = spans[i]
        d = s[END] - s[START] - child_time.get(i, 0.0)
        self_time[s[LAYER]] = self_time.get(s[LAYER], 0.0) + d

    m = {key: 0 for key in LAYER_METRICS}
    m["parser.kb"] = 0.0
    m["_canon_models"] = 0
    for layer, key in (("parser", "parser.s"), ("desugar", "desugar.s"),
                       ("classtable", "classtable.s"),
                       ("lowering", "lowering.s"), ("interp", "interp.sym_s"),
                       ("cnf", "cnf.blast_s"), ("sat", "sat.s"),
                       ("engine", "engine.self_s"), ("replay", "replay.s"),
                       ("decode", "decode.s"), ("cli", "cli.self_s")):
        m[key] = self_time.get(layer, 0.0)

    by_sketch = {}
    for i in mine:
        by_sketch.setdefault(spans[i][SKETCH], []).append(i)
    for sketch, idxs in by_sketch.items():
        _sketch_metrics(spans, idxs, m)
        if any(spans[i][NAME] == "parse_program" for i in idxs):
            m["parser.kb"] += input_bytes.get(sketch, 0) / 1024

    sizes = [v for sk, p, kind, v in events
             if p == pass_no and kind == "cnf.size"]
    m["cnf.vars.max"] = max((v for v, c in sizes), default=0)
    m["cnf.vars.sum"] = sum(v for v, c in sizes)
    m["cnf.clauses.max"] = max((c for v, c in sizes), default=0)
    m["cnf.clauses.sum"] = sum(c for v, c in sizes)
    m["engine.vectors"] = sum(1 for sk, p, kind, v in events
                              if p == pass_no and kind == "vector")
    m["decode.kb_out"] /= 1024
    canon_models = m.pop("_canon_models")
    canon_calls = m["engine.canon_sat_calls"]
    m["engine.canon_improve_ratio"] = (canon_models / canon_calls
                                       if canon_calls else 0.0)
    return m


def _sketch_metrics(spans, idxs, m):
    """Accumulate one sketch's counts into ``m``."""
    sketch = spans[idxs[0]][SKETCH]
    first_model_end = None
    engine_end = None
    replay_after = 0.0
    for i in idxs:
        name, layer, _, _, start, end, parent, attrs = spans[i]
        if name == "desugar":
            m["desugar.unknowns"] += attrs or 0
        elif name == "build_class_table":
            m["classtable.classes"] += attrs or 0
        elif name == "lower_program":
            m["lowering.functions"] += attrs or 0
        elif name.startswith("Interp.") and attrs and layer == "interp":
            m["interp.sym_steps"] += attrs[0]
            m["interp.constraints"] += attrs[1]
        elif name == "eval_harness":
            m["replay.steps"] += attrs or 0
            if first_model_end is not None:
                replay_after += end - start
        elif name == "Solver.solve":
            m["sat.calls"] += 1
            if sketch in PAPER_FIXTURES:
                m[f"sat.calls.{sketch}"] += 1
            if not attrs:
                m["sat.unsat_calls"] += 1
            if first_model_end is None:
                m["engine.search_sat_calls"] += 1
                if attrs:
                    first_model_end = end
            else:
                m["engine.canon_sat_calls"] += 1
                m["_canon_models"] += 1 if attrs else 0
        elif name == "Solver.analyze":
            m["sat.conflicts"] += 1
        elif name == "engine.solve":
            m["engine.candidates"] += attrs or 0
            engine_end = end
        elif name == "unparse_program":
            m["decode.kb_out"] += attrs or 0
    if first_model_end is not None and engine_end is not None:
        m["engine.canon_s"] += engine_end - first_model_end - replay_after

