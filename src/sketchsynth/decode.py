"""Solution substitution and source emission.

``apply_solution`` rewrites the desugared AST into a concrete program:
holes become literals, each choice keeps only its selected alternative, and
every ``minrepeat`` block is replaced by its unrolled copies with the
per-iteration unknown values substituted.  ``unparse_unit`` renders an AST
back to source text (it can also render un-decoded sketches, which backs the
``--emit-desugared`` dump).
"""

from __future__ import annotations

import copy

from . import ast_nodes as A
from . import bitvec as B
from .errors import IncompleteSolutionError


def apply_solution(ast, registry, assignment):
    """Concrete AST for ``assignment`` (an engine Assignment)."""
    out = copy.deepcopy(ast)
    for unit in out.units:
        unit.types = [_subst(d, registry, assignment, None) for d in unit.types]
    return out


def _value_for(registry, assignment, uid, iteration):
    name = registry.instance_name(uid, iteration)
    if name not in assignment.values:
        raise IncompleteSolutionError(f"solution has no value for '{name}'")
    return assignment.values[name]


def _subst(node, registry, assignment, iteration):
    """Copy ``node`` with unknowns replaced; ``iteration`` is the current
    minrepeat iteration (None outside any repeat)."""
    if isinstance(node, A.Hole):
        info = registry.hole_info(node.uid)
        it = iteration if info.template_of is not None else None
        v = _value_for(registry, assignment, node.uid, it)
        if info.is_bool:
            return A.BoolLit(value=bool(v), span=node.span)
        return A.IntLit(value=B.to_signed(v), span=node.span)
    if isinstance(node, A.Choice):
        info = registry.choice_info(node.uid)
        it = iteration if info.template_of is not None else None
        idx = _value_for(registry, assignment, node.uid, it)
        if not 0 <= idx < len(node.alternatives):
            raise IncompleteSolutionError(
                f"choice index {idx} out of range for '{node.uid.name}'")
        return _subst(node.alternatives[idx], registry, assignment, iteration)
    if isinstance(node, A.MinRepeat):
        count = assignment.repeat_counts.get(node.uid.name)
        if count is None:
            raise IncompleteSolutionError(
                f"solution has no count for '{node.uid.name}'")
        stmts = []
        for i in range(count):
            for s in node.body.stmts:
                stmts.append(_subst(copy.deepcopy(s), registry, assignment, i))
        return A.Block(stmts=stmts, span=node.span)
    for name, value in vars(node).items():
        if isinstance(value, A.Node):
            setattr(node, name, _subst(value, registry, assignment, iteration))
        elif isinstance(value, list):
            setattr(node, name,
                    [_subst(v, registry, assignment, iteration)
                     if isinstance(v, A.Node) else v for v in value])
    return node


# --------------------------------------------------------------------------
# unparsing


INDENT = "    "

# binding strength, loosest first; unary and primary bind tighter
_PREC = {
    "=": 1, "||": 2, "&&": 3,
    "==": 4, "!=": 4, "<": 5, "<=": 5, ">": 5, ">=": 5,
    "+": 6, "-": 6, "*": 7, "/": 7, "%": 7,
}
_UNARY_PREC = 8


def unparse_unit(unit, concrete=True):
    """Source text for one unit.  In concrete mode (solved output) the
    sketch-only ``harness``/``generator`` modifiers and ``minimize`` calls
    are dropped; with ``concrete=False`` the unit is rendered faithfully,
    which backs the desugared-AST dump."""
    parts = [_fmt_type(d, 0, concrete)
             for d in unit.types if not _is_synthetic_root(d)]
    return "\n".join(parts) + "\n"


def _is_synthetic_root(d):
    """The desugarer injects an empty ``Object`` root class; emitted source
    leaves it implicit again."""
    return (isinstance(d, A.ClassDecl) and d.name == "Object"
            and not d.members and d.superclass is None)


def unparse_program(ast, concrete=True):
    """{file id: source text} for every unit."""
    return {unit.file: unparse_unit(unit, concrete) for unit in ast.units}


def _fmt_type(d, depth, concrete=True):
    pad = INDENT * depth
    head = []
    head.extend(m for m in d.modifiers if m not in ("generator",))
    if d.is_generator and not concrete:
        head.append("generator")
    head.append("interface" if d.is_interface else "class")
    head.append(d.name)
    if d.superclass is not None and d.superclass.name != "Object":
        head.append("extends")
        head.append(_fmt_typeref(d.superclass))
    if d.interfaces:
        head.append("implements")
        head.append(", ".join(_fmt_typeref(i) for i in d.interfaces))
    lines = [pad + " ".join(head) + " {"]
    for m in d.members:
        if isinstance(m, A.ClassDecl):
            lines.append(_fmt_type(m, depth + 1, concrete))
        elif isinstance(m, A.FieldDecl):
            lines.append(_fmt_field(m, depth + 1))
        else:
            lines.append(_fmt_method(m, d, depth + 1, concrete))
    lines.append(pad + "}")
    return "\n".join(lines)


def _fmt_field(f, depth):
    pad = INDENT * depth
    words = list(f.modifiers)
    words.append(_fmt_typeref(f.type))
    words.append(f.name)
    text = pad + " ".join(words)
    if f.init is not None:
        text += " = " + _fmt_expr(f.init, 0)
    return text + ";"


def _fmt_method(m, cls, depth, concrete=True):
    pad = INDENT * depth
    words = [w for w in m.modifiers
             if not (concrete and w in ("harness", "generator"))]
    if not m.is_constructor:
        words.append(_fmt_typeref(m.return_type))
    words.append(m.name)
    params = ", ".join(f"{_fmt_typeref(p.type)} {p.name}" for p in m.params)
    head = pad + " ".join(words) + f"({params})"
    if m.body is None:
        return head + ";"
    return head + " " + _fmt_block(m.body, depth, concrete).lstrip()


def _fmt_typeref(t):
    if t.args:
        return f"{t.name}<{', '.join(_fmt_typeref(a) for a in t.args)}>"
    return t.name


def _fmt_block(b, depth, concrete=True):
    pad = INDENT * depth
    lines = [pad + "{"]
    for s in b.stmts:
        if concrete and _is_minimize(s):
            continue
        lines.append(_fmt_stmt(s, depth + 1, concrete))
    lines.append(pad + "}")
    return "\n".join(lines)


def _is_minimize(s):
    return (isinstance(s, A.ExprStmt) and isinstance(s.expr, A.MethodCall)
            and s.expr.target is None and s.expr.name == "minimize")


def _fmt_stmt(s, depth, concrete=True):
    pad = INDENT * depth
    if isinstance(s, A.Block):
        return _fmt_block(s, depth, concrete)
    if isinstance(s, A.LocalDecl):
        text = f"{pad}{_fmt_typeref(s.type)} {s.name}"
        if s.init is not None:
            text += " = " + _fmt_expr(s.init, 0)
        return text + ";"
    if isinstance(s, A.IfStmt):
        text = (f"{pad}if ({_fmt_expr(s.cond, 0)}) "
                + _fmt_embedded(s.then, depth, concrete))
        if s.els is not None:
            text += " else " + _fmt_embedded(s.els, depth, concrete)
        return text
    if isinstance(s, A.WhileStmt):
        return (f"{pad}while ({_fmt_expr(s.cond, 0)}) "
                + _fmt_embedded(s.body, depth, concrete))
    if isinstance(s, A.ReturnStmt):
        if s.value is None:
            return pad + "return;"
        return f"{pad}return {_fmt_expr(s.value, 0)};"
    if isinstance(s, A.AssertStmt):
        return f"{pad}assert {_fmt_expr(s.cond, 0)};"
    if isinstance(s, A.ExprStmt):
        return f"{pad}{_fmt_expr(s.expr, 0)};"
    if isinstance(s, A.MinRepeat):
        return f"{pad}minrepeat " + _fmt_embedded(s.body, depth, concrete)
    raise AssertionError(f"unknown statement {type(s).__name__}")


def _fmt_embedded(s, depth, concrete=True):
    """Statement used as an if/while/minrepeat body, without leading pad."""
    if isinstance(s, A.Block):
        return _fmt_block(s, depth, concrete).lstrip()
    return "\n" + _fmt_stmt(s, depth + 1, concrete)


def _fmt_expr(e, parent_prec):
    if isinstance(e, A.IntLit):
        return str(e.value)
    if isinstance(e, A.BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, A.CharLit):
        ch = chr(e.value)
        if ch == "'":
            ch = "\\'"
        elif ch == "\\":
            ch = "\\\\"
        elif ch == "\n":
            ch = "\\n"
        elif ch == "\t":
            ch = "\\t"
        return f"'{ch}'"
    if isinstance(e, A.StringLit):
        text = (e.value.replace("\\", "\\\\").replace('"', '\\"')
                .replace("\n", "\\n").replace("\t", "\\t"))
        return f'"{text}"'
    if isinstance(e, A.NullLit):
        return "null"
    if isinstance(e, A.Name):
        return e.ident
    if isinstance(e, A.ThisExpr):
        return "this"
    if isinstance(e, A.Hole):
        return "??"
    if isinstance(e, A.Choice):
        alts = ", ".join(_fmt_expr(a, 0) for a in e.alternatives)
        return f"{{| {alts} |}}"
    if isinstance(e, A.FieldAccess):
        return f"{_fmt_expr(e.target, _UNARY_PREC)}.{e.name}"
    if isinstance(e, A.MethodCall):
        args = ", ".join(_fmt_expr(a, 0) for a in e.args)
        if e.target is None:
            return f"{e.name}({args})"
        return f"{_fmt_expr(e.target, _UNARY_PREC)}.{e.name}({args})"
    if isinstance(e, A.NewObject):
        args = ", ".join(_fmt_expr(a, 0) for a in e.args)
        text = f"new {_fmt_typeref(e.type)}({args})"
        if e.anon_members:
            body = " ".join(
                _fmt_method(m, None, 0).strip() if isinstance(m, A.MethodDecl)
                else _fmt_field(m, 0).strip()
                for m in e.anon_members)
            text += " { " + body + " }"
        return text
    if isinstance(e, A.Assign):
        text = f"{_fmt_expr(e.target, _PREC['='] + 1)} = {_fmt_expr(e.value, _PREC['='])}"
        return f"({text})" if parent_prec > _PREC["="] else text
    if isinstance(e, A.BinOp):
        p = _PREC[e.op]
        text = f"{_fmt_expr(e.left, p)} {e.op} {_fmt_expr(e.right, p + 1)}"
        return f"({text})" if parent_prec > p else text
    if isinstance(e, A.UnOp):
        operand = _fmt_expr(e.operand, _UNARY_PREC)
        if e.op == "-" and operand.startswith("-"):
            operand = f"({operand})"        # not "--5", a decrement
        text = f"{e.op}{operand}"
        return f"({text})" if parent_prec > _UNARY_PREC else text
    raise AssertionError(f"unknown expression {type(e).__name__}")
