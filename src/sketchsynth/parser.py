"""Recursive-descent parser producing a SketchAst.

Grammar is the Java-like subset appearing in the tool's documentation:
classes, interfaces, inner/anonymous classes, fields, methods, constructors,
and the sketch constructs ``??``, ``{| e, e |}`` and ``minrepeat { ... }``.
Operator precedence follows the conventional C-family table.
"""

from __future__ import annotations

from pathlib import Path

from . import ast_nodes as A
from .ast_nodes import SourceSpan
from .errors import SketchError
from .lexer import Token, tokenize

MODIFIER_KINDS = {
    "public", "private", "protected", "static", "final", "abstract",
    "harness", "generator",
}

PRIMITIVE_TYPES = {"int", "boolean", "char"}
TYPE_START = PRIMITIVE_TYPES | {"void"}

# expressions that may stand as a statement (JLS 14.8)
STATEMENT_EXPRESSIONS = (A.Assign, A.MethodCall, A.NewObject)

# the largest int literal; 2^31 itself is legal only as the operand of
# unary minus, so that -2147483648 parses
INT_LITERAL_MAX = 2**31 - 1

# deepest nesting accepted: each nested expression (in parentheses, an
# argument list or a choice), each unary operator, each binary operator of
# a left-associative chain, each nested statement (the body of an
# ``if``, ``else``, ``while`` or ``minrepeat``, or a block inside a block)
# and each ``<`` of a type's arguments is one level; the parser and the
# later tree passes recurse on this depth
MAX_NESTING = 160

# Java statements outside the subset; their keywords scan as identifiers
UNSUPPORTED_STATEMENTS = {
    "break", "continue", "for", "do", "switch", "try", "throw"}


class _Parser:
    def __init__(self, tokens, file_id="<input>"):
        self.file_id = str(file_id)
        self.toks = list(tokens)
        # the EOF sentinel ends every scan, so no read needs a bounds
        # check: the parser never consumes it, and each lookahead stops
        # at it
        eof_span = (self.toks[-1].span if self.toks
                    else SourceSpan(self.file_id, 1, 1, 0))
        self.toks.append(Token("EOF", "", eof_span))
        self.pos = 0
        self.level = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset=0):
        return self.toks[self.pos + offset]

    def at(self, *kinds):
        return self.toks[self.pos].kind in kinds

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.toks[self.pos]
        if tok.kind != kind:
            self.error(repr(kind))
        self.pos += 1
        return tok

    def nest(self, what="an expression"):
        """Enter one level of nesting; the caller leaves it by lowering
        ``self.level`` again."""
        self.level += 1
        if self.level > MAX_NESTING:
            self.error(f"{what} nested at most {MAX_NESTING} deep")

    def error(self, expected):
        tok = self.peek()
        raise SketchError(
            f"expected {expected}, found {tok.text or tok.kind!r}", tok.span)

    # -- declarations ------------------------------------------------------

    def parse_unit(self):
        types = []
        while not self.at("EOF"):
            if self.at(";"):        # an empty declaration (JLS 7.6)
                self.next()
                continue
            types.append(self.parse_type_decl())
        return A.CompilationUnit(file=self.file_id, types=types)

    def parse_type_decl(self):
        mods = self.parse_modifiers()
        if not self.at("class", "interface"):
            self.error("'class' or 'interface'")
        return self.parse_class(mods)

    def parse_modifiers(self):
        mods = []
        while self.peek().kind in MODIFIER_KINDS:
            mods.append(self.next().kind)
        return mods

    def parse_class(self, mods):
        kw = self.next()  # class | interface
        is_interface = kw.kind == "interface"
        name = self.expect("IDENT")
        superclass = None
        interfaces = []
        if self.at("extends"):
            self.next()
            if is_interface:
                interfaces = self.parse_class_types()
            else:
                superclass = self.parse_type_ref(())
        if self.at("implements"):
            self.next()
            interfaces += self.parse_class_types()
        members = self.parse_class_body(name.text, is_interface)
        return A.ClassDecl(
            name=name.text,
            is_interface=is_interface,
            is_generator="generator" in mods,
            superclass=superclass,
            interfaces=interfaces,
            members=members,
            modifiers=mods,
            span=kw.span,
        )

    def parse_class_body(self, class_name, is_interface=False):
        """The members of a class body; an anonymous one, without a
        ``class_name``, has no constructor (JLS 15.9.5)."""
        self.expect("{")
        members = []
        while not self.at("}"):
            if self.at(";"):        # an empty member (JLS 8.1.6, 9.1.4)
                self.next()
                continue
            members.append(self.parse_member(class_name, is_interface))
        self.expect("}")
        return members

    def parse_member(self, class_name, in_interface):
        start = self.pos
        mods = self.parse_modifiers()
        if self.at("class", "interface"):
            return self.parse_class(mods)
        if "generator" in mods:
            # Sketch gives each call of a generator function fresh holes;
            # here every call would share them
            raise SketchError("'generator' on a method, field or constructor "
                              "is outside the supported subset (only "
                              "'generator class' is supported)",
                              self.toks[start + mods.index("generator")].span)
        # constructor: ClassName '('
        if self.at("IDENT") and self.peek(1).kind == "(":
            name = self.next()
            if name.text != class_name:
                raise SketchError(
                    "invalid method declaration; return type required",
                    name.span)
            params = self.parse_params()
            body = self.parse_block()
            return A.MethodDecl(
                name=name.text,
                return_type=None,
                params=params,
                body=body,
                is_constructor=True,
                modifiers=mods,
                span=name.span,
            )
        rtype = self.parse_type_ref(TYPE_START)
        name = self.expect("IDENT")
        if self.at("("):
            params = self.parse_params()
            if self.at(";"):
                self.next()
                body = None  # abstract / interface method
            else:
                body = self.parse_block()
            return A.MethodDecl(
                name=name.text,
                return_type=rtype,
                params=params,
                body=body,
                is_static="static" in mods,
                is_harness="harness" in mods,
                modifiers=mods,
                span=name.span,
            )
        if rtype.name == "void":
            raise SketchError("expected a type, found 'void'", rtype.span)
        return A.FieldDecl(
            type=rtype,
            name=name.text,
            init=self.parse_init(),
            # every interface field is static (JLS 9.3)
            is_static="static" in mods or in_interface,
            modifiers=mods,
            span=name.span,
        )

    def parse_params(self):
        self.expect("(")
        params = []
        while not self.at(")"):
            if params:
                self.expect(",")
            ptype = self.parse_type_ref()
            pname = self.expect("IDENT")
            params.append(A.Param(type=ptype, name=pname.text, span=pname.span))
        self.expect(")")
        return params

    def parse_type_ref(self, keywords=PRIMITIVE_TYPES):
        """A type named by one of ``keywords`` or a class type.  A class
        type's arguments are class types (JLS 4.5.1), parsed and erased;
        each ``<`` is one level of nesting."""
        tok = self.peek()
        if tok.kind in keywords:
            self.next()
            return A.TypeRef(tok.kind, span=tok.span)
        if tok.kind != "IDENT":
            self.error("a type" if keywords else "a class type")
        self.next()
        if self.at("<"):
            self.nest("a type")
            self.next()
            self.parse_class_types()
            self.expect(">")
            self.level -= 1
        return A.TypeRef(tok.text, span=tok.span)

    def parse_class_types(self):
        """A comma-separated list of class types."""
        refs = [self.parse_type_ref(())]
        while self.at(","):
            self.next()
            refs.append(self.parse_type_ref(()))
        return refs

    def parse_init(self):
        """The ``= e`` of a field or a local, if any, and its ``;``."""
        init = None
        if self.at("="):
            self.next()
            init = self.parse_expr()
        self.expect(";")
        return init

    # -- statements --------------------------------------------------------

    def parse_block(self):
        lbrace = self.expect("{")
        stmts = []
        while not self.at("}"):
            stmts.append(self.parse_stmt())
        self.expect("}")
        return A.Block(stmts=stmts, span=lbrace.span)

    def parse_stmt(self):
        tok = self.peek()
        if tok.kind == ";":
            # the empty statement (JLS 14.6) is an empty block: both do
            # nothing and complete normally iff reachable (JLS 14.22)
            self.next()
            return A.Block(stmts=[], span=tok.span)
        if tok.kind == "{":
            self.nest("a statement")
            block = self.parse_block()
            self.level -= 1
            return block
        if tok.kind == "if":
            self.next()
            cond = self.parse_cond()
            then = self.parse_body()
            els = None
            if self.at("else"):
                self.next()
                els = self.parse_body()
            return A.IfStmt(cond=cond, then=then, els=els, span=tok.span)
        if tok.kind == "while":
            self.next()
            cond = self.parse_cond()
            body = self.parse_body()
            return A.WhileStmt(cond=cond, body=body, span=tok.span)
        if tok.kind == "return":
            self.next()
            value = None
            if not self.at(";"):
                value = self.parse_expr()
            self.expect(";")
            return A.ReturnStmt(value=value, span=tok.span)
        if tok.kind == "assert":
            self.next()
            cond = self.parse_expr()
            self.expect(";")
            return A.AssertStmt(cond=cond, span=tok.span)
        if tok.kind == "minrepeat":
            self.next()
            self.nest("a statement")
            body = self.parse_block()
            self.level -= 1
            return A.MinRepeat(body=body, span=tok.span)
        if tok.kind == "IDENT" and tok.text in UNSUPPORTED_STATEMENTS:
            raise SketchError(f"unsupported statement '{tok.text}'", tok.span)
        if self.looks_like_local_decl():
            vtype = self.parse_type_ref()
            name = self.expect("IDENT")
            return A.LocalDecl(type=vtype, name=name.text,
                               init=self.parse_init(), span=name.span)
        expr = self.parse_expr()
        if not isinstance(expr, STATEMENT_EXPRESSIONS):
            raise SketchError("not a statement", expr.span)
        self.expect(";")
        return A.ExprStmt(expr=expr, span=tok.span)

    def parse_cond(self):
        """The parenthesized condition of an ``if`` or a ``while``."""
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return cond

    def parse_body(self):
        """The statement under an ``if``, ``else`` or ``while``: one level
        of nesting, which a block standing as the body shares, and no
        local declaration (JLS 14.5)."""
        self.nest("a statement")
        body = self.parse_block() if self.at("{") else self.parse_stmt()
        self.level -= 1
        if type(body) is A.LocalDecl:
            raise SketchError("variable declaration not allowed here",
                              body.span)
        return body

    def looks_like_local_decl(self):
        """Whether the statement starts with a type and a name, as in
        ``int x``, ``Monitor m`` or ``Map<K, List<V>> m``; only a statement
        starting ``IDENT IDENT`` or ``IDENT <`` needs the type parsed."""
        if self.peek().kind in TYPE_START:
            return True
        if not self.at("IDENT") or self.peek(1).kind not in ("IDENT", "<"):
            return False
        pos, level = self.pos, self.level
        try:
            self.parse_type_ref()
            return self.at("IDENT")
        except SketchError:
            return False
        finally:
            self.pos, self.level = pos, level

    # -- expressions -------------------------------------------------------

    def parse_expr(self):
        self.nest()
        expr = self.parse_binary(1)
        if self.at("="):
            if not isinstance(expr, (A.Name, A.FieldAccess)):
                self.error("assignable target")
            eq = self.next()
            expr = A.Assign(target=expr, value=self.parse_expr(), span=eq.span)
        self.level -= 1
        return expr

    def parse_binary(self, min_prec):
        """Precedence climbing over ``A.BINARY_PREC``: operators binding at
        least ``min_prec``, each level left-associative.  Each operator of
        a chain counts as one level of nesting until the chain ends."""
        left = self.parse_unary()
        chain = 0
        prec = A.BINARY_PREC.get(self.peek().kind, 0)
        while prec >= min_prec:
            op = self.next()
            chain += 1
            self.nest()
            right = self.parse_binary(prec + 1)
            left = A.BinOp(op=op.kind, left=left, right=right, span=op.span)
            prec = A.BINARY_PREC.get(self.peek().kind, 0)
        self.level -= chain
        return left

    def parse_unary(self):
        """Prefix ``!``/``-`` operators, each one level of nesting, over a
        primary with its member accesses."""
        ops = []
        while self.at("!", "-"):
            ops.append(self.next())
            self.nest()
        lit = self.peek()
        if ops and ops[-1].kind == "-" and lit.kind == "INT" and \
                int(lit.text) == INT_LITERAL_MAX + 1:
            self.next()
            expr = A.IntLit(value=INT_LITERAL_MAX + 1, span=lit.span)
        else:
            expr = self.parse_primary()
            while self.at("."):
                dot = self.next()
                name = self.expect("IDENT")
                if self.at("("):
                    args = self.parse_args()
                    expr = A.MethodCall(target=expr, name=name.text, args=args,
                                        span=dot.span)
                else:
                    expr = A.FieldAccess(target=expr, name=name.text, span=dot.span)
        for tok in reversed(ops):
            expr = A.UnOp(op=tok.kind, operand=expr, span=tok.span)
        self.level -= len(ops)
        return expr

    def parse_args(self):
        self.expect("(")
        args = []
        while not self.at(")"):
            if args:
                self.expect(",")
            args.append(self.parse_expr())
        self.expect(")")
        return args

    def parse_primary(self):
        tok = self.peek()
        if tok.kind == "IDENT":
            self.next()
            if self.at("("):
                args = self.parse_args()
                return A.MethodCall(target=None, name=tok.text, args=args, span=tok.span)
            return A.Name(ident=tok.text, span=tok.span)
        if tok.kind == "INT":
            value = int(tok.text)
            if value > INT_LITERAL_MAX:
                self.error(f"an int literal of at most {INT_LITERAL_MAX}")
            self.next()
            return A.IntLit(value=value, span=tok.span)
        if tok.kind == "STRING":
            self.next()
            return A.StringLit(value=tok.text, span=tok.span)
        if tok.kind == "CHAR":
            self.next()
            return A.CharLit(value=ord(tok.text), span=tok.span)
        if tok.kind in ("true", "false"):
            self.next()
            return A.BoolLit(value=tok.kind == "true", span=tok.span)
        if tok.kind == "null":
            self.next()
            return A.NullLit(span=tok.span)
        if tok.kind == "this":
            self.next()
            return A.ThisExpr(span=tok.span)
        if tok.kind == "??":
            self.next()
            return A.Hole(span=tok.span)
        if tok.kind == "{|":
            self.next()
            alts = [self.parse_expr()]
            while self.at(","):
                self.next()
                alts.append(self.parse_expr())
            self.expect("|}")
            return A.Choice(alternatives=alts, span=tok.span)
        if tok.kind == "new":
            self.next()
            tref = self.parse_type_ref()
            args = self.parse_args()
            anon = self.parse_class_body(None) if self.at("{") else None
            return A.NewObject(type=tref, args=args, anon_members=anon, span=tok.span)
        if tok.kind == "(":
            self.next()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        self.error("an expression")


def parse_unit(tokens, file_id="<input>"):
    """Parse one token stream into a CompilationUnit."""
    return _Parser(tokens, file_id).parse_unit()


def parse_source(text, file_id="<input>"):
    return parse_unit(tokenize(text, file_id), file_id)


def parse_program(files):
    """Parse and merge ≥1 source files, rejecting duplicate type names."""
    if not files:
        raise ValueError("at least one input file is required")
    return parse_program_texts(
        (path, _read_source(path)) for path in map(Path, files))


def _read_source(path):
    """The text of ``path``; an input error naming it when it cannot be
    read or is not UTF-8."""
    try:
        return path.read_text(encoding="utf-8")
    except OSError as e:
        raise SketchError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise SketchError(
            f"cannot read {path}: not UTF-8 at byte {e.start}") from None


def parse_program_texts(named_texts):
    """Like parse_program but over (name, text) pairs."""
    units = [parse_source(text, name) for name, text in named_texts]
    seen = {}
    for unit in units:
        for decl in unit.types:
            if decl.name in seen:
                raise SketchError(f"duplicate top-level type '{decl.name}' "
                                  f"(first at {seen[decl.name]})", decl.span)
            seen[decl.name] = decl.span
    return A.SketchAst(units=units)
