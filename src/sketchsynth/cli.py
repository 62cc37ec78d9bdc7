"""Command-line driver.

Runs the full pipeline (parse, desugar, class table, lowering, solve,
decode) over the given source files, writing the output tree::

    <out>/java/*.java     concrete sources (only when a solution is found)
    <out>/solution.txt    unknown values, objectives, search stats
    <out>/log/log.txt     staged log plus per-unknown replacement echoes

Exit codes: 0 solved, 1 no solution within bounds, 2 input error,
3 timeout, step limit or call depth limit, 4 internal error.
"""

from __future__ import annotations

import argparse
import gc
import shutil
import sys
import time
from pathlib import Path

from . import bitvec as B
from . import decode, engine
from .classtable import build_class_table
from .desugar import desugar
from .errors import InternalError, SketchError
from .interp import StepLimitExceeded
from .lowering import lower_program
from .parser import parse_program

EXIT_SOLVED = 0
EXIT_UNSAT = 1
EXIT_INPUT = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL = 4


class _Log:
    """Timestamped stage log, mirrored to stdout and kept for log.txt."""

    def __init__(self):
        self.lines = []

    def stage(self, text):
        line = time.strftime("%H:%M:%S") + " " + text
        self.lines.append(line)
        print(line)

    def debug(self, text):
        self.lines.append(text)

    def write(self, out_dir):
        log_dir = out_dir / "log"
        log_dir.mkdir(parents=True, exist_ok=True)
        (log_dir / "log.txt").write_text(
            "\n".join(self.lines) + "\n", encoding="utf-8", newline="\n")


def build_arg_parser():
    p = argparse.ArgumentParser(
        prog="sketchsynth",
        description="Synthesize concrete programs from sketches with holes, "
                    "expression choices and minrepeat blocks.")
    p.add_argument("files", nargs="+", help="sketch source files")
    p.add_argument("--out", default="result", help="output directory")
    p.add_argument("--hole-bits", type=int, default=5,
                   help="bit width of integer holes, 1 to 32 (widened to "
                        "cover program literals, up to 31 bits)")
    p.add_argument("--unroll-max", type=int, default=8,
                   help="maximum unrolling of any single minrepeat block")
    p.add_argument("--loop-bound", type=int, default=64,
                   help="iteration cap per loop during evaluation")
    p.add_argument("--step-limit", type=int, default=100000,
                   help="evaluation step cap per harness")
    p.add_argument("--timeout", type=float, default=600.0,
                   help="overall wall-clock limit in seconds")
    p.add_argument("--seed", type=int, default=0,
                   help="accepted and ignored (the search is deterministic)")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored (the search is sequential)")
    p.add_argument("--emit-ir", action="store_true",
                   help="dump the lowered IR under <out>/ir/")
    p.add_argument("--emit-tables", action="store_true",
                   help="dump the class table under <out>/tables/")
    p.add_argument("--emit-desugared", action="store_true",
                   help="dump the desugared sources under <out>/desugared/")
    return p


def main(argv=None):
    # A run builds large, long-lived, acyclic trees and leaves no cyclic
    # garbage of its own, so the cyclic collector would only rescan them
    # as they grow; it is paused for the run and then left as it was.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if was_enabled:
            gc.enable()


def _main(argv):
    args = build_arg_parser().parse_args(argv)
    log = _Log()
    out_dir = Path(args.out)
    # a stale java/ tree from a previous run must not survive a failing run
    shutil.rmtree(out_dir / "java", ignore_errors=True)
    try:
        code = _run(args, log, out_dir)
    except SketchError as e:
        if isinstance(e, InternalError):
            print(f"internal error: {e}", file=sys.stderr)
            code = EXIT_INTERNAL
        else:
            print(f"error: {e}", file=sys.stderr)
            code = EXIT_INPUT
    except Exception as e:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        code = EXIT_INTERNAL
    try:
        log.write(out_dir)
    except OSError as e:
        print(f"error: cannot write log: {e}", file=sys.stderr)
    return code


def _run(args, log, out_dir):
    if not 1 <= args.hole_bits <= 32:
        raise SketchError(
            f"--hole-bits must be between 1 and 32, got {args.hole_bits}")
    ast = parse_program(args.files)
    log.stage("rewriting syntax sugar")
    log.stage("specializing class-level generator")
    ast, spec_map, registry = desugar(ast)
    log.stage("building class hierarchy")
    table = build_class_table(ast)
    log.stage("encoding")
    program = lower_program(ast, table, registry)

    if args.emit_desugared:
        _dump_tree(out_dir / "desugared", decode.unparse_program(ast))
    if args.emit_tables:
        _dump_text(out_dir / "tables" / "classes.txt", _format_tables(table))
    if args.emit_ir:
        _dump_text(out_dir / "ir" / "ir.txt", _format_ir(program))

    cfg = engine.EngineConfig(
        hole_bits=args.hole_bits, unroll_max=args.unroll_max,
        loop_bound=args.loop_bound, step_limit=args.step_limit,
        timeout=args.timeout)
    log.stage("solving")
    result = engine.solve(program, cfg)

    if isinstance(result, engine.Timeout):
        log.stage("synthesis timed out")
        print(f"timeout after {result.wall_ms} ms "
              f"(depth reached {result.depth_reached})", file=sys.stderr)
        return EXIT_TIMEOUT
    if isinstance(result, engine.Overrun):
        log.stage("synthesis stopped: step limit exceeded")
        hint = ("; raise --step-limit"
                if isinstance(result.limit, StepLimitExceeded) else "")
        print(f"{result.limit} while encoding depth {result.depth_reached}"
              f"{hint}", file=sys.stderr)
        return EXIT_TIMEOUT
    if isinstance(result, engine.Unsat):
        log.stage("synthesis failed: no solution within bounds")
        print(f"no solution within bounds (depth <= {args.unroll_max}, "
              f"{result.wall_ms} ms)", file=sys.stderr)
        return EXIT_UNSAT

    log.stage("replacing holes")
    log.stage("replacing generators")
    for kind, name, value, owner in _solution_records(registry, result):
        if owner is not None:
            log.debug(f"replaced: {owner}.{name} = {value}")
    log.stage("decoding")
    texts = decode.unparse_program(ast, result.assignment)
    _dump_tree(out_dir / "java", texts)
    _write_solution(out_dir / "solution.txt", registry, result)
    log.stage("synthesis done")
    return EXIT_SOLVED


# -- output files ----------------------------------------------------------


def _solution_records(registry, solution):
    """(kind, name, value, owner) in registry order; ``owner`` is the
    top-level class declaring a hole or choice, None otherwise."""
    hole_insts, choice_insts = registry.instantiate(solution.assignment.repeat_counts)
    out = []
    for inst in hole_insts:
        out.append(("hole", inst.name,
                    B.to_signed(solution.assignment.values[inst.name]),
                    inst.unknown.owner.split(".")[0]))
    for inst in choice_insts:
        out.append(("choice", inst.name, solution.assignment.values[inst.name],
                    inst.unknown.owner.split(".")[0]))
    for r in registry.repeats:
        out.append(("repeat", r.name,
                    solution.assignment.repeat_counts[r.name], None))
    for name, value in solution.objective_values.items():
        out.append(("objective", name, value, None))
    return out


def _write_solution(path, registry, solution):
    lines = [f"{kind} {name} = {value}"
             for kind, name, value, _ in _solution_records(registry, solution)]
    # wall time is deliberately excluded from the deterministic record; the
    # measured time lives in the log
    lines.append(f"stats candidates={solution.candidates} "
                 f"depth={solution.depth} ms=0")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _dump_tree(directory, texts):
    directory.mkdir(parents=True, exist_ok=True)
    for file_id, text in texts.items():
        name = Path(file_id).name or "unit.java"
        (directory / name).write_text(text, encoding="utf-8", newline="\n")


def _dump_text(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


# -- debug dumps -----------------------------------------------------------


def _format_tables(table):
    lines = []
    for ci in table.classes:
        kind = "interface" if ci.is_interface else "class"
        flags = " builtin" if ci.is_builtin else ""
        lines.append(f"{ci.cid}: {kind} {ci.name}"
                     f"{' extends ' + ci.superclass if ci.superclass else ''}"
                     f"{' implements ' + ', '.join(ci.interfaces) if ci.interfaces else ''}"
                     f"{flags}")
        for name, tag, is_static in ci.fields:
            lines.append(f"    {'static ' if is_static else ''}field {name}: {tag}")
        for mi in ci.methods:
            lines.append(f"    method {mi.mangled}")
    return "\n".join(lines) + "\n"


def _format_ir(program):
    lines = []
    for name, fn in program.functions.items():
        head = "harness " if fn.is_harness else ""
        lines.append(f"{head}function {name}({', '.join(fn.params)})")
        _format_instrs(fn.body, 1, lines)
        lines.append("")
    for name, expr in program.objectives:
        lines.append(f"objective {name} = {expr}")
    return "\n".join(lines) + "\n"


def _format_instrs(instrs, depth, lines):
    pad = "    " * depth
    for ins in instrs:
        label = type(ins).__name__
        parts = []
        for k, v in vars(ins).items():
            if k in ("span",):
                continue
            if isinstance(v, list):
                continue
            parts.append(f"{k}={v}")
        lines.append(f"{pad}{label} {' '.join(parts)}")
        for k, v in vars(ins).items():
            if isinstance(v, list) and v and not isinstance(v[0], str):
                lines.append(f"{pad}  {k}:")
                _format_instrs(v, depth + 1, lines)


if __name__ == "__main__":
    sys.exit(main())
