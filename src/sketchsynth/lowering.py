"""AST-to-IR translation.

Every method body becomes a flat function named by the mangling scheme,
and every constructor one function, ``init_`` and its mangled name, that
initializes the record its ``self`` holds.  Every callee is resolved
through the class table, the library's included, by one overload rule:
an instance-method call becomes one ``VirtualCall`` node that the
interpreter resolves through the vtable, any other call a ``Call`` of the
method it names, and ``new`` a ``New`` of the constructor it picks.  Each
``minimize(e)`` harness statement becomes a ``MinimizeInstr`` that sets
one named objective of the program.  Lowering type-checks as it goes and
rejects what javac rejects in its reach: among others an unreachable
statement (JLS 14.22) and ``new`` of an abstract class or an interface.
"""

from __future__ import annotations

from . import ast_nodes as A
from . import bitvec as B
from . import ir as I
from . import typetags as T
from .classtable import pick_overload
from .errors import SketchError

ARITH_OPS = {"+", "-", "*", "/", "%"}
REL_OPS = {"<", "<=", ">", ">="}
EQ_OPS = {"==", "!="}
LOGIC_OPS = {"&&", "||"}


def lower_program(table, registry):
    """Translate the desugared program that ``table`` was built from into
    an IrProgram; lowering reaches each declaration through ``table``."""
    lw = _Lowerer(table, registry)
    return lw.run()


class _Lowerer:
    def __init__(self, table, registry):
        self.table = table
        self.prog = I.IrProgram(registry=registry, table=table)

    # -- driver ------------------------------------------------------------

    def run(self):
        self._build_static_init()
        for ci in self.table.classes:
            for mi in ci.methods:
                if not mi.is_abstract and mi.builtin is None:
                    self._lower_method(ci, mi)
        return self.prog

    def _build_static_init(self):
        body = []
        for ci in self.table.classes:
            if ci.is_builtin:
                continue
            for f in ci.decl.fields():
                if f.is_static and f.init is not None:
                    env = _Env(self, ci, None, static=True)
                    owner, ftag, _ = self.table.resolve_field(ci.name, f.name)
                    expr = env.lower_value(f.init, ftag)
                    body.append(I.AssignStatic(owner, f.name, expr))
        fn = I.IrFunction(I.STATIC_INIT, [], body, ret_tag=T.VOID)
        self.prog.functions[fn.name] = fn

    # -- methods -----------------------------------------------------------

    def _lower_method(self, ci, mi):
        """The one function of method or constructor ``mi`` of ``ci``; a
        constructor's first runs the superclass's zero-argument one."""
        decl = mi.decl
        if mi.is_harness:
            if not mi.is_static or mi.params or mi.ret != T.VOID:
                raise SketchError(
                    f"harness '{ci.name}.{mi.plain_name}' must be static, void "
                    "and parameterless", decl.span)
        env = _Env(self, ci, mi, static=mi.is_static)
        params = ([] if mi.is_static else ["self"]) + [p for p, _ in mi.params]
        body = []
        sup = ci.superclass
        if mi.is_constructor and sup not in (None, self.table.root):
            sup_ci = self.table.info(sup)
            if sup_ci.is_builtin:
                raise SketchError(
                    f"class '{ci.name}' may not extend builtin '{sup}'",
                    ci.decl.span)
            body.append(I.EvalInstr(I.Call(self._zero_arg_ctor(sup_ci, decl),
                                           [I.LocalRead("self")])))
        body += env.lower_block(decl.body)
        _require(not (env.completes and env.returns_value()),
                 "missing return statement", decl.span)
        fn = I.IrFunction(mi.function, params, body, ret_tag=mi.ret,
                          is_harness=mi.is_harness)
        self.prog.functions[fn.name] = fn
        if mi.is_harness:
            self.prog.harnesses.append(fn.name)
            self.prog.objectives.extend(env.objectives)

    def _zero_arg_ctor(self, ci, ctor):
        """The constructor of superclass ``ci`` that ``ctor``, a
        subclass's, calls; as javac, its absence is reported at the body of
        ``ctor``, an implicit one's at its class."""
        for m in ci.methods:
            if m.is_constructor and not m.params:
                return m
        raise SketchError(
            f"class '{ci.name}' needs a zero-argument constructor "
            "(implicit super call)", ctor.body.span)


# --------------------------------------------------------------------------
# per-function environment


class _Env:
    def __init__(self, lw, ci, mi, static):
        self.lw = lw
        self.table = lw.table
        self.ci = ci
        self.mi = mi
        self.static = static
        # slot -> TypeTag of each parameter and local lowered so far; desugar
        # bound each Name to its slot
        self.tags = dict(mi.params) if mi is not None else {}
        self.objectives = []        # names of this harness's objectives
        # whether the statements lowered so far can complete normally
        # (JLS 14.22, without labels or break)
        self.completes = True
        # (owner, name) of each field that its initializer has assigned
        self.initialized = set()

    # -- statements --------------------------------------------------------

    def lower_block(self, block):
        out = []
        for s in block.stmts:
            _require(self.completes, "unreachable statement", s.span)
            out.extend(self.lower_stmt(s))
        return out

    def lower_stmt(self, s):
        return _LOWER_STMT[type(s)](self, s)

    def _lower_local(self, s):
        tag = self.table.tag_from_typeref(s.type)
        value = (I.Const(T.default(tag), tag) if s.init is None
                 else self.lower_value(s.init, tag))
        self.tags[s.slot] = tag
        return [I.AssignLocal(s.slot, value)]

    def _lower_if(self, s):
        cond, ctag = self.lower_expr(s.cond, expected=T.BOOL)
        _require(ctag == T.BOOL, "if condition must be boolean", s.span)
        reachable = self.completes
        then = self.lower_stmt(s.then)
        then_completes, self.completes = self.completes, reachable
        els = self.lower_stmt(s.els) if s.els is not None else []
        self.completes = self.completes or then_completes
        return [I.IfInstr(cond, then, els)]

    def _lower_while(self, s):
        cond, ctag = self.lower_expr(s.cond, expected=T.BOOL)
        _require(ctag == T.BOOL, "while condition must be boolean", s.span)
        # the body of a loop on a constant false condition never runs, and
        # a loop on a constant true one never exits
        value = _fold(cond)
        _require(value is not B.FALSE, "unreachable statement", s.body.span)
        reachable = self.completes
        body = self.lower_stmt(s.body)
        self.completes = reachable and value is not B.TRUE
        return [I.WhileInstr(cond, body)]

    def _lower_return(self, s):
        self.completes = False
        if s.value is None:
            _require(not self.returns_value(), "missing return value",
                     self.mi.decl.span)
            return [I.ReturnInstr(None)]
        return [I.ReturnInstr(self.lower_value(s.value, self.mi.ret))]

    def _lower_assert(self, s):
        cond, ctag = self.lower_expr(s.cond, expected=T.BOOL)
        _require(ctag == T.BOOL, "assert condition must be boolean", s.span)
        return [I.AssertInstr(cond, span=s.span)]

    def _lower_repeat(self, s):
        reachable = self.completes
        body = self.lower_block(s.body)
        self.completes = reachable     # the body may run no times
        return [I.RepeatInstr(s.uid, body)]

    def _lower_expr_stmt(self, s):
        e = s.expr
        if isinstance(e, A.Assign):
            return self.lower_assign(e)
        if isinstance(e, A.MethodCall) and e.target is None and e.name == "minimize":
            return [self.lower_minimize(e)]
        expr, _ = self.lower_expr(e)
        return [I.EvalInstr(expr)]

    def returns_value(self):
        """Whether each return must give a value: the method is neither
        void nor a constructor."""
        return not self.mi.is_constructor and self.mi.ret.kind != "void"

    def lower_assign(self, e):
        """The instructions of assignment statement ``e``."""
        target, tag = self.lower_variable(e.target)
        value = self.lower_value(e.value, tag)
        kind = type(target)
        if kind is I.LocalRead:
            return [I.AssignLocal(target.name, value)]
        first = []
        if kind is I.Seq:       # a static reached through an expression
            first, target = [I.EvalInstr(target.first)], target.value
        field = type(target) is I.FieldRead
        owner = target.owner if field else target.cls
        key = (owner, target.name)
        if e.initializer:
            self.initialized.add(key)
        # as javac: a final field is assigned by its initializer, and an
        # instance one that has none by its class's constructors, by
        # simple name or through this (JLS 8.3.1.2)
        _require(e.initializer or key not in self.table.final_fields
                 or field and self.mi.is_constructor
                 and owner == self.ci.name and key not in self.initialized
                 and (type(e.target) is A.Name
                      or type(e.target.target) is A.ThisExpr),
                 "cannot assign a value to final variable {}", e.target.span,
                 target.name)
        if field:
            return [I.AssignField(target.obj, owner, target.name, value)]
        return first + [I.AssignStatic(owner, target.name, value)]

    def lower_minimize(self, e):
        _require(self.mi is not None and self.mi.is_harness,
                 "minimize(...) may appear only inside harness bodies", e.span)
        _require(len(e.args) == 1, "minimize takes exactly one argument", e.span)
        expr, tag = self.lower_expr(e.args[0])
        _require(tag.is_numeric, "minimize objective must be an integer", e.span)
        name = self.mi.mangled
        if self.objectives:
            name = f"{name}_{len(self.objectives) + 1}"
        self.objectives.append(name)
        return I.MinimizeInstr(name, expr)

    # -- expressions -------------------------------------------------------

    def lower_value(self, e, slot):
        """``e`` lowered to be stored in (or returned as) a ``slot``-typed
        value: it must be assignable there, as an argument to a parameter
        of that type is."""
        expr, tag = self.lower_expr(e, expected=slot)
        _require(T.compatible(tag, slot),
                 "{} cannot be converted to {}", e.span, tag, slot)
        return expr

    def lower_expr(self, e, expected=None):
        """(IR expression, type tag) of ``e``; ``expected`` is the type
        its context wants, which decides the type of a bare ``??``."""
        return _LOWER_EXPR[type(e)](self, e, expected)

    def _lower_int(self, e, expected):
        return self.literal(e.value, T.INT, abs(e.value))

    def _lower_char(self, e, expected):
        return self.literal(e.value, T.CHAR, e.value)

    def _lower_string(self, e, expected):
        # a literal is a java.lang.String, which javac assigns to no
        # variable of the program's own class String; object types are
        # not told apart here, so the literal itself is rejected
        _require(self.table.info("String").is_builtin,
                 "a String literal needs the library class String, which "
                 "the program's own class 'String' hides", e.span)
        return self.literal(e.value, T.STR, max(map(ord, e.value), default=0))

    def _lower_bool(self, e, expected):
        return I.Const(e.value, T.BOOL), T.BOOL

    def _lower_null(self, e, expected):
        return I.Const(None, T.NULL), T.NULL

    def _lower_hole(self, e, expected):
        tag = expected if expected in (T.INT, T.BOOL, T.CHAR) else T.INT
        if tag == T.BOOL:
            e.uid.is_bool = True
        return I.HoleRead(e.uid), tag

    def _lower_choice(self, e, expected):
        alts = []
        tag = None
        for alt in e.alternatives:
            ex, t = self.lower_expr(alt, expected=expected if expected else tag)
            if tag is None:
                tag = t
            else:
                _require(T.compatible(t, tag) or T.compatible(tag, t),
                         "choice alternatives must share a type", e.span)
            alts.append(ex)
        return I.ChoiceRead(e.uid, alts), tag

    def _lower_this(self, e, expected):
        _require(not self.static, "'this' in static context", e.span)
        return I.LocalRead("self"), T.obj(self.ci.name)

    def _lower_unop(self, e, expected):
        op, tag = self.lower_expr(
            e.operand, expected=T.BOOL if e.op == "!" else None)
        if e.op == "!":
            _require(tag == T.BOOL, "'!' needs a boolean operand", e.span)
            return I.Un("!", op), T.BOOL
        _require(tag.is_numeric, "unary '-' needs a numeric operand", e.span)
        return I.Un("-", op), T.INT

    def _lower_assign_expr(self, e, expected):
        raise SketchError("assignment is only supported as a statement", e.span)

    def literal(self, value, tag, magnitude):
        """A literal's ``Const``; holes widen to hold ``magnitude`` (see
        ``engine.effective_hole_width``)."""
        prog = self.lw.prog
        prog.max_literal = max(prog.max_literal, magnitude)
        return I.Const(value, tag), tag

    def lower_variable(self, e, expected=None):
        """(read, type tag) of the variable that Name or FieldAccess ``e``
        denotes, as desugar bound it: a LocalRead, StaticRead or FieldRead."""
        kind = type(e)
        if kind is A.Name:
            name, slot = e.ident, e.slot
            _require(slot != A.CLASS, "class name '{}' cannot be used as a value",
                     e.span, name)
            if slot is not None:
                _require(slot in self.tags, "variable '{}' might not have been "
                         "initialized", e.span, name)
                return I.LocalRead(slot), self.tags[slot]
            cls, recv = self.ci.name, None if self.static else I.LocalRead("self")
        elif kind is A.FieldAccess:
            name, cls, recv = e.name, _class_of(e.target), None
            if cls is None:
                recv, rtag = self.lower_expr(e.target)
                _require(rtag.kind == "obj", "field access on non-object", e.span)
                cls = rtag.cls
        else:
            raise SketchError("unsupported assignment target", e.span)
        try:
            owner, tag, is_static = self.table.resolve_field(cls, name)
        except SketchError as err:
            message = f"unknown name '{name}'" if kind is A.Name else err.message
            raise SketchError(message, e.span) from None
        if is_static:
            return _after(recv, I.StaticRead(owner, name)), tag
        _require(recv is not None, "non-static field '{}' cannot be referenced "
                 "from a static context", e.span, name)
        return I.FieldRead(recv, owner, name), tag

    def _lower_call(self, e, expected):
        lowered, tags = self.lower_args(e.args)
        recv = None
        cls = _class_of(e.target)
        if e.target is None:
            _require(e.name != "minimize",
                     "minimize(...) may appear only as a harness statement", e.span)
            m = self.table.resolve_method(self.ci.name, e.name, tags, e.span)
            if not m.is_static:
                _require(not self.static, "instance method '{}' called "
                         "from static context", e.span, e.name)
                recv = I.LocalRead("self")
        elif cls is not None:
            m = self.table.resolve_method(cls, e.name, tags, e.span)
            _require(m.is_static, "'{}.{}' is not static", e.span, cls, e.name)
        else:
            recv, rtag = self.lower_expr(e.target)
            _require(rtag.kind == "obj", "method call on non-object", e.span)
            m = self.table.resolve_method(rtag.cls, e.name, tags, e.span)
        args = self.bind_args(e.args, lowered, m)
        if m.is_static:
            return _after(recv, I.Call(m, args, e.span)), m.ret
        # an instance call; the interpreter picks the override per receiver
        return I.VirtualCall(m.plain_sig, recv, args, m.ret, e.span), m.ret

    def _lower_new(self, e, expected):
        name = e.type.name
        _require(self.table.has_class(name), "unknown type '{}'", e.type.span,
                 name)
        ci = self.table.info(name)
        _require(not ci.is_abstract,
                 "'{}' is abstract; cannot be instantiated", e.span, name)
        lowered, tags = self.lower_args(e.args)
        m = pick_overload([m for m in ci.methods if m.is_constructor], tags,
                          f"constructor of '{name}'", e.span)
        return (I.New(name, m, self.bind_args(e.args, lowered, m), e.span),
                T.obj(name))

    def lower_args(self, args):
        """The arguments lowered before overload resolution, as (expr, tag)
        pairs, and their tags; a bare ``??`` is None in both, as its type
        is that of the parameter it binds."""
        lowered = [None if isinstance(a, A.Hole) else self.lower_expr(a)
                   for a in args]
        return lowered, [x and x[1] for x in lowered]

    def bind_args(self, args, lowered, method):
        """The argument expressions of a call resolved to ``method``."""
        return [x[0] if x else self.lower_expr(a, expected=p)[0]
                for a, x, p in zip(args, lowered, method.param_tags)]

    def _lower_binop(self, e, expected):
        left, ltag = self.lower_expr(
            e.left, expected=T.BOOL if e.op in LOGIC_OPS else None)
        right, rtag = self.lower_expr(e.right, expected=ltag)
        op = e.op
        if op in ARITH_OPS:
            _require(ltag.is_numeric and rtag.is_numeric,
                     "'{}' needs numeric operands", e.span, op)
            return I.Bin(op, left, right), T.INT
        if op in REL_OPS:
            _require(ltag.is_numeric and rtag.is_numeric,
                     "'{}' needs numeric operands", e.span, op)
            return I.Bin(op, left, right), T.BOOL
        if op in EQ_OPS:
            okay = ((ltag.is_numeric and rtag.is_numeric)
                    or (ltag == T.BOOL and rtag == T.BOOL)
                    or (ltag.is_object and rtag.is_object))
            _require(okay, "'{}' on incompatible types {} and {}", e.span,
                     op, ltag, rtag)
            return I.Bin(op, left, right), T.BOOL
        if op in LOGIC_OPS:
            _require(ltag == T.BOOL and rtag == T.BOOL,
                     "'{}' needs boolean operands", e.span, op)
            return I.Bin(op, left, right), T.BOOL
        raise SketchError(f"unknown operator '{op}'", e.span)


def _after(first, value):
    """IR expression ``value``, after ``first`` (or None) is evaluated for
    its effects; reading a local has none."""
    if first is None or type(first) is I.LocalRead:
        return value
    return I.Seq(first, value)


def _class_of(target):
    """The class a call or field access ``target`` names, or None."""
    if type(target) is A.Name and target.slot == A.CLASS:
        return target.ident
    return None


def _require(cond, message, span, *args):
    """Raise SketchError at ``span`` unless ``cond``; the message is
    ``message.format(*args)``, built only then."""
    if not cond:
        raise SketchError(message.format(*args), span)


def _fold(e):
    """The constant term of IR expression ``e`` when it is built from int,
    char and boolean literals and operators only, a constant expression
    (JLS 15.29); None otherwise."""
    kind = type(e)
    if kind is I.Const:
        return e.term
    if kind is I.Un:
        v = _fold(e.operand)
        if v is None:
            return None
        return I.UN_OPS[e.op](v)
    if kind is I.Bin:
        left, right = _fold(e.left), _fold(e.right)
        if left is None or right is None:
            return None
        if e.op in ("/", "%") and right.payload == 0:
            return None    # it completes abruptly, so it is no constant
        return I.BIN_OPS[e.op](left, right)
    return None


# The handler of each statement and expression class.
_LOWER_STMT = {
    A.Block: _Env.lower_block,
    A.LocalDecl: _Env._lower_local,
    A.IfStmt: _Env._lower_if,
    A.WhileStmt: _Env._lower_while,
    A.ReturnStmt: _Env._lower_return,
    A.AssertStmt: _Env._lower_assert,
    A.MinRepeat: _Env._lower_repeat,
    A.ExprStmt: _Env._lower_expr_stmt,
}
_LOWER_EXPR = {
    A.IntLit: _Env._lower_int,
    A.CharLit: _Env._lower_char,
    A.StringLit: _Env._lower_string,
    A.BoolLit: _Env._lower_bool,
    A.NullLit: _Env._lower_null,
    A.Hole: _Env._lower_hole,
    A.Choice: _Env._lower_choice,
    A.ThisExpr: _Env._lower_this,
    A.Name: _Env.lower_variable,
    A.FieldAccess: _Env.lower_variable,
    A.MethodCall: _Env._lower_call,
    A.NewObject: _Env._lower_new,
    A.BinOp: _Env._lower_binop,
    A.UnOp: _Env._lower_unop,
    A.Assign: _Env._lower_assign_expr,
}
