"""Source emission: desugared sketches and their solutions back to text.

``unparse_program`` walks the desugared AST once.  Given an assignment (an
engine Assignment) it prints the solved program as it goes: a hole prints
as its value, a choice as its selected alternative, and a ``minrepeat`` as a
block of its unrolled copies, each reading its own iteration's values; the
sketch-only ``harness``/``generator`` modifiers and ``minimize`` calls are
dropped.  Without an assignment it prints the AST faithfully, which backs the
``--emit-desugared`` dump.
"""

from __future__ import annotations

from . import ast_nodes as A
from . import bitvec as B
from .errors import IncompleteSolutionError
from .stdlib import ROOT_CLASS

INDENT = "    "

# binding strength, loosest first; unary and primary bind tighter
_PREC = {"=": 1, **A.BINARY_PREC}
_UNARY_PREC = max(_PREC.values()) + 1


def unparse_program(ast, assignment=None):
    """{file id: source text} for every unit; the concrete program for
    ``assignment`` when one is given."""
    printer = _Printer(assignment)
    return {unit.file: printer.unit(unit) for unit in ast.units}


def _is_synthetic_root(d):
    """The desugarer injects an empty root class; emitted source leaves it
    implicit again."""
    return (isinstance(d, A.ClassDecl) and d.name == ROOT_CLASS
            and not d.members and d.superclass is None)


def _is_minimize(s):
    return (isinstance(s, A.ExprStmt) and isinstance(s.expr, A.MethodCall)
            and s.expr.target is None and s.expr.name == "minimize")


class _Printer:
    def __init__(self, assignment):
        self.assignment = assignment
        self.concrete = assignment is not None
        self.iteration = None   # current minrepeat iteration

    def _value(self, uid):
        it = self.iteration if uid.template_of is not None else None
        name = uid.instance_name(it)
        if name not in self.assignment.values:
            raise IncompleteSolutionError(f"solution has no value for '{name}'")
        return self.assignment.values[name]

    def unit(self, unit):
        parts = [self.type_decl(d, 0)
                 for d in unit.types if not _is_synthetic_root(d)]
        return "\n".join(parts) + "\n"

    def type_decl(self, d, depth):
        pad = INDENT * depth
        head = [m for m in d.modifiers if m != "generator"]
        if d.is_generator and not self.concrete:
            head.append("generator")
        head.append("interface" if d.is_interface else "class")
        head.append(d.name)
        if d.superclass is not None and d.superclass.name != ROOT_CLASS:
            head.append("extends")
            head.append(d.superclass.name)
        if d.interfaces:
            head.append("implements")
            head.append(", ".join(i.name for i in d.interfaces))
        lines = [pad + " ".join(head) + " {"]
        for m in d.members:
            if isinstance(m, A.ClassDecl):
                lines.append(self.type_decl(m, depth + 1))
            elif isinstance(m, A.FieldDecl):
                lines.append(self.field(m, depth + 1))
            else:
                lines.append(self.method(m, depth + 1))
        lines.append(pad + "}")
        return "\n".join(lines)

    def field(self, f, depth):
        words = [*f.modifiers, f.type.name, f.name]
        text = INDENT * depth + " ".join(words)
        if f.init is not None:
            text += " = " + self.expr(f.init, 0)
        return text + ";"

    def method(self, m, depth):
        words = [w for w in m.modifiers
                 if not (self.concrete and w in ("harness", "generator"))]
        if not m.is_constructor:
            words.append(m.return_type.name)
        words.append(m.name)
        params = ", ".join(f"{p.type.name} {p.name}" for p in m.params)
        head = INDENT * depth + " ".join(words) + f"({params})"
        if m.body is None:
            return head + ";"
        return head + " " + self.stmt(m.body, depth).lstrip()

    def stmts(self, stmts, depth):
        return [self.stmt(s, depth) for s in stmts
                if not (self.concrete and _is_minimize(s))]

    def unrolled(self, r, depth):
        """A solved minrepeat: a block of its copies, one per iteration."""
        count = self.assignment.repeat_counts.get(r.uid.name)
        if count is None:
            raise IncompleteSolutionError(
                f"solution has no count for '{r.uid.name}'")
        lines = [INDENT * depth + "{"]
        for i in range(count):
            self.iteration = i
            lines.extend(self.stmts(r.body.stmts, depth + 1))
        self.iteration = None   # the desugarer rejects nested minrepeats
        lines.append(INDENT * depth + "}")
        return "\n".join(lines)

    def stmt(self, s, depth):
        pad = INDENT * depth
        if isinstance(s, A.Block):
            return "\n".join([pad + "{", *self.stmts(s.stmts, depth + 1),
                              pad + "}"])
        if isinstance(s, A.LocalDecl):
            text = f"{pad}{s.type.name} {s.name}"
            if s.init is not None:
                text += " = " + self.expr(s.init, 0)
            return text + ";"
        if isinstance(s, A.IfStmt):
            text = (f"{pad}if ({self.expr(s.cond, 0)})"
                    + self.embedded(s.then, depth))
            if s.els is not None:
                text += ((" " if self._braced(s.then) else "\n" + pad)
                         + "else" + self.embedded(s.els, depth))
            return text
        if isinstance(s, A.WhileStmt):
            return (f"{pad}while ({self.expr(s.cond, 0)})"
                    + self.embedded(s.body, depth))
        if isinstance(s, A.ReturnStmt):
            if s.value is None:
                return pad + "return;"
            return f"{pad}return {self.expr(s.value, 0)};"
        if isinstance(s, A.AssertStmt):
            return f"{pad}assert {self.expr(s.cond, 0)};"
        if isinstance(s, A.ExprStmt):
            return f"{pad}{self.expr(s.expr, 0)};"
        if isinstance(s, A.MinRepeat):
            if self.concrete:
                return self.unrolled(s, depth)
            return f"{pad}minrepeat" + self.embedded(s.body, depth)
        raise AssertionError(f"unknown statement {type(s).__name__}")

    def _braced(self, s):
        """Prints as a ``{ ... }`` block (a solved minrepeat does too)."""
        return isinstance(s, A.Block) or (self.concrete
                                          and isinstance(s, A.MinRepeat))

    def embedded(self, s, depth):
        """Statement used as an if/while/minrepeat body, with the text that
        separates it from its header: a block opens on the header's line,
        any other statement goes on the next line, one level deeper."""
        if self._braced(s):
            return " " + self.stmt(s, depth).lstrip()
        return "\n" + self.stmt(s, depth + 1)

    def expr(self, e, parent_prec):
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
            if not self.concrete:
                return "??"
            v = self._value(e.uid)
            if e.uid.is_bool:
                return "true" if v else "false"
            return str(B.to_signed(v))
        if isinstance(e, A.Choice):
            if not self.concrete:
                alts = ", ".join(self.expr(a, 0) for a in e.alternatives)
                return f"{{| {alts} |}}"
            idx = self._value(e.uid)
            if not 0 <= idx < len(e.alternatives):
                raise IncompleteSolutionError(
                    f"choice index {idx} out of range for '{e.uid.name}'")
            return self.expr(e.alternatives[idx], parent_prec)
        if isinstance(e, A.FieldAccess):
            return f"{self.expr(e.target, _UNARY_PREC)}.{e.name}"
        if isinstance(e, A.MethodCall):
            args = ", ".join(self.expr(a, 0) for a in e.args)
            if e.target is None:
                return f"{e.name}({args})"
            return f"{self.expr(e.target, _UNARY_PREC)}.{e.name}({args})"
        if isinstance(e, A.NewObject):
            args = ", ".join(self.expr(a, 0) for a in e.args)
            text = f"new {e.type.name}({args})"
            if e.anon_members:
                body = " ".join(
                    self.method(m, 0).strip() if isinstance(m, A.MethodDecl)
                    else self.field(m, 0).strip()
                    for m in e.anon_members)
                text += " { " + body + " }"
            return text
        if isinstance(e, A.Assign):
            text = (f"{self.expr(e.target, _PREC['='] + 1)} = "
                    f"{self.expr(e.value, _PREC['='])}")
            return f"({text})" if parent_prec > _PREC["="] else text
        if isinstance(e, A.BinOp):
            p = _PREC[e.op]
            text = f"{self.expr(e.left, p)} {e.op} {self.expr(e.right, p + 1)}"
            return f"({text})" if parent_prec > p else text
        if isinstance(e, A.UnOp):
            operand = self.expr(e.operand, _UNARY_PREC)
            if e.op == "-" and operand.startswith("-"):
                operand = f"({operand})"        # not "--5", a decrement
            text = f"{e.op}{operand}"
            return f"({text})" if parent_prec > _UNARY_PREC else text
        raise AssertionError(f"unknown expression {type(e).__name__}")
