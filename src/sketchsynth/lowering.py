"""AST-to-IR translation.

Every method body becomes a flat function named by the mangling scheme;
every instance-method call site becomes one ``VirtualCall`` node that the
interpreter resolves through the class table's vtable; constructors become
``new_*`` factory functions returning a fresh object record; ``minimize(e)``
harness statements become program-level objectives.
"""

from __future__ import annotations

from . import ast_nodes as A
from . import bitvec as B
from . import ir as I
from . import stdlib
from . import typetags as T
from .classtable import pick_overload
from .errors import HarnessShapeError, TypeLoweringError

ARITH_OPS = {"+", "-", "*", "/", "%"}
REL_OPS = {"<", "<=", ">", ">="}
EQ_OPS = {"==", "!="}
LOGIC_OPS = {"&&", "||"}


def lower_program(ast, table, registry):
    """Translate a desugared SketchAst into an IrProgram.  Lowering reaches
    each declaration of ``ast`` through ``table``, which was built from
    it."""
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
            if ci.is_builtin or ci.is_interface:
                continue
            for mi in ci.methods:
                if mi.is_abstract:
                    continue
                if mi.is_constructor:
                    self._lower_constructor(ci, mi)
                else:
                    self._lower_method(ci, mi)
        return self.prog

    def _build_static_init(self):
        body = []
        for ci in self.table.classes:
            if ci.is_builtin or not isinstance(ci.decl, A.ClassDecl):
                continue
            for f in ci.decl.fields():
                if f.is_static and f.init is not None:
                    env = _Env(self, ci, None, static=True)
                    owner, ftag, _ = self.table.resolve_field(ci.name, f.name)
                    expr = env.lower_value(f.init, ftag)
                    body.append(I.AssignStatic(owner, f.name, expr))
        fn = I.IrFunction(self.prog.static_init, [], body, ret_tag=T.VOID)
        self.prog.functions[fn.name] = fn

    # -- methods -----------------------------------------------------------

    def _lower_method(self, ci, mi):
        decl = mi.decl
        if mi.is_harness:
            if not mi.is_static or mi.params or mi.ret != T.VOID:
                raise HarnessShapeError(
                    f"harness '{ci.name}.{mi.plain_name}' must be static, void "
                    "and parameterless", decl.span)
        env = _Env(self, ci, mi, static=mi.is_static)
        params = ([] if mi.is_static else ["self"]) + [p for p, _ in mi.params]
        body = env.lower_block(decl.body)
        _require(not (env.completes and env.returns_value()),
                 "missing return statement", decl.span)
        fn = I.IrFunction(mi.mangled, params, body, ret_tag=mi.ret,
                          is_harness=mi.is_harness)
        self.prog.functions[fn.name] = fn
        if mi.is_harness:
            self.prog.harnesses.append(fn.name)
            for name, expr in env.objectives:
                self.prog.objectives.append((name, expr))
        elif env.objectives:
            raise TypeLoweringError(
                "minimize(...) may appear only inside harness bodies", decl.span)

    def _lower_constructor(self, ci, mi):
        env = _Env(self, ci, mi, static=False)
        init_body = []
        sup = ci.superclass
        if sup is not None and sup != stdlib.ROOT_CLASS:
            sup_ci = self.table.info(sup)
            if sup_ci.is_builtin:
                raise TypeLoweringError(
                    f"class '{ci.name}' may not extend builtin '{sup}'", ci.decl.span)
            sup_ctor = self._zero_arg_ctor(sup_ci)
            init_body.append(I.EvalInstr(
                I.Call("init_" + sup_ctor.mangled, [I.LocalRead("self")])))
        init_body.extend(env.lower_block(mi.decl.body))
        init_fn = I.IrFunction("init_" + mi.mangled,
                               ["self"] + [p for p, _ in mi.params], init_body,
                               ret_tag=T.VOID)
        self.prog.functions[init_fn.name] = init_fn
        factory_body = [
            I.AssignLocal("self", I.AllocObj(ci.name)),
            I.EvalInstr(I.Call(init_fn.name,
                               [I.LocalRead("self")] +
                               [I.LocalRead(p) for p, _ in mi.params])),
            I.ReturnInstr(I.LocalRead("self")),
        ]
        factory = I.IrFunction("new_" + mi.mangled, [p for p, _ in mi.params],
                               factory_body, ret_tag=T.obj(ci.name))
        self.prog.functions[factory.name] = factory

    def _zero_arg_ctor(self, ci):
        for m in ci.methods:
            if m.is_constructor and not m.params:
                return m
        raise TypeLoweringError(
            f"class '{ci.name}' needs a zero-argument constructor "
            "(implicit super call)", getattr(ci.decl, "span", None))


# --------------------------------------------------------------------------
# per-function environment


class _Env:
    def __init__(self, lw, ci, mi, static):
        self.lw = lw
        self.table = lw.table
        self.ci = ci
        self.mi = mi
        self.static = static
        self.locals = {}
        self.objectives = []
        # whether the statements lowered so far can complete normally
        # (JLS 14.22, without labels or break)
        self.completes = True
        if mi is not None and not static:
            self.locals["self"] = T.obj(ci.name)
        if mi is not None:
            for pname, ptag in mi.params:
                self.locals[pname] = ptag

    # -- statements --------------------------------------------------------

    def lower_block(self, block):
        out = []
        for s in block.stmts:
            out.extend(self.lower_stmt(s))
        return out

    def lower_stmt(self, s):
        return _LOWER_STMT[type(s)](self, s)

    def _lower_local(self, s):
        tag = self.table.tag_from_typeref(s.type)
        self.locals[s.name] = tag
        if s.init is None:
            return [I.AssignLocal(s.name, I.Const(T.default(tag), tag))]
        return [I.AssignLocal(s.name, self.lower_value(s.init, tag))]

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
        reachable = self.completes
        body = self.lower_stmt(s.body)
        # a loop on a constant true condition never exits
        self.completes = reachable and _fold(cond) is not B.TRUE
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
            return [self.lower_assign(e)]
        if isinstance(e, A.MethodCall) and e.target is None and e.name == "minimize":
            return [self.lower_minimize(e)]
        expr, _ = self.lower_expr(e)
        return [I.EvalInstr(expr)]

    def returns_value(self):
        """Whether each return must give a value: the method is neither
        void nor a constructor."""
        return not self.mi.is_constructor and self.mi.ret.kind != "void"

    def lower_assign(self, e):
        value_of = lambda tag: self.lower_value(e.value, tag)
        t = e.target
        if isinstance(t, A.Name):
            if t.ident in self.locals:
                return I.AssignLocal(t.ident, value_of(self.locals[t.ident]))
            owner, tag, is_static = self.table.resolve_field(self.ci.name, t.ident)
            if is_static:
                return I.AssignStatic(owner, t.ident, value_of(tag))
            _require(not self.static, "instance field '{}' in static context",
                     t.span, t.ident)
            return I.AssignField(I.LocalRead("self"), owner, t.ident, value_of(tag))
        if isinstance(t, A.FieldAccess):
            cls = self._class_ref(t.target)
            if cls is not None:
                owner, tag, is_static = self.table.resolve_field(cls, t.name)
                _require(is_static, "'{}.{}' is not a static field", t.span,
                         cls, t.name)
                return I.AssignStatic(owner, t.name, value_of(tag))
            recv, rtag = self.lower_expr(t.target)
            _require(rtag.kind == "obj", "field assignment on non-object", t.span)
            owner, tag, is_static = self.table.resolve_field(rtag.cls, t.name)
            if is_static:
                return I.AssignStatic(owner, t.name, value_of(tag))
            return I.AssignField(recv, owner, t.name, value_of(tag))
        raise TypeLoweringError("unsupported assignment target", e.span)

    def lower_minimize(self, e):
        _require(self.mi is not None and self.mi.is_harness,
                 "minimize(...) may appear only inside harness bodies", e.span)
        _require(len(e.args) == 1, "minimize takes exactly one argument", e.span)
        expr, tag = self.lower_expr(e.args[0])
        _require(tag.is_numeric, "minimize objective must be an integer", e.span)
        for n in I.walk_ir(expr):
            if isinstance(n, I.LocalRead):
                raise TypeLoweringError(
                    "minimize objective may not read locals or parameters", e.span)
        name = self.mi.mangled
        if any(n == name for n, _ in self.objectives):
            name = f"{name}_{len(self.objectives) + 1}"
        self.objectives.append((name, expr))
        return I.EvalInstr(I.Const(0, T.INT))

    # -- expressions -------------------------------------------------------

    def lower_value(self, e, slot):
        """``e`` lowered to be stored in (or returned as) a ``slot``-typed
        value: it must be assignable there, as an argument to a parameter
        of that type is, and ``null`` also fits a String."""
        expr, tag = self.lower_expr(e, expected=slot)
        _require(T.compatible(tag, slot) or (tag == T.NULL and slot == T.STR),
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
        raise TypeLoweringError("assignment is only supported as a statement",
                                e.span)

    def literal(self, value, tag, magnitude):
        """A literal's ``Const``; holes widen to hold ``magnitude`` (see
        ``engine.effective_hole_width``)."""
        prog = self.lw.prog
        prog.max_literal = max(prog.max_literal, magnitude)
        return I.Const(value, tag), tag

    def _lower_name(self, e, expected):
        if e.ident in self.locals:
            return I.LocalRead(e.ident), self.locals[e.ident]
        try:
            owner, tag, is_static = self.table.resolve_field(self.ci.name, e.ident)
        except TypeLoweringError:
            if self.table.has_class(e.ident):
                raise TypeLoweringError(
                    f"class name '{e.ident}' cannot be used as a value", e.span)
            raise TypeLoweringError(f"unknown name '{e.ident}'", e.span)
        if is_static:
            return I.StaticRead(owner, e.ident), tag
        _require(not self.static, "instance field '{}' in static context",
                 e.span, e.ident)
        return I.FieldRead(I.LocalRead("self"), owner, e.ident), tag

    def _class_ref(self, target):
        """Class name used as a qualifier, or None."""
        if (isinstance(target, A.Name) and target.ident not in self.locals
                and self.table.has_class(target.ident)):
            try:
                self.table.resolve_field(self.ci.name, target.ident)
            except TypeLoweringError:
                return target.ident
        return None

    def _lower_field_access(self, e, expected):
        cls = self._class_ref(e.target)
        if cls is not None:
            owner, tag, is_static = self.table.resolve_field(cls, e.name)
            _require(is_static, "'{}.{}' is not a static field", e.span,
                     cls, e.name)
            return I.StaticRead(owner, e.name), tag
        recv, rtag = self.lower_expr(e.target)
        _require(rtag.kind == "obj", "field access on non-object", e.span)
        owner, tag, is_static = self.table.resolve_field(rtag.cls, e.name)
        if is_static:
            return I.StaticRead(owner, e.name), tag
        return I.FieldRead(recv, owner, e.name), tag

    def _lower_call(self, e, expected):
        lowered, tags = self.lower_args(e.args)
        recv = None
        cls = self._class_ref(e.target)
        if e.target is None:
            _require(e.name != "minimize",
                     "minimize(...) may appear only as a harness statement", e.span)
            free = [m for m in stdlib.FREE_FUNCTIONS if m.name == e.name]
            if free:
                m = pick_overload(free, tags, f"function '{e.name}'", e.span)
            else:
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
            if rtag == T.STR:
                m = pick_overload(
                    [m for m in stdlib.STRING_METHODS if m.name == e.name],
                    tags, f"String method '{e.name}'", e.span)
            else:
                _require(rtag.kind == "obj", "method call on non-object", e.span)
                m = self.table.resolve_method(rtag.cls, e.name, tags, e.span)
        args = self.bind_args(e.args, lowered, m)
        if isinstance(m, stdlib.BuiltinMethod):
            return I.CallBuiltin(m, recv, args, span=e.span), m.ret
        if m.is_static:
            return I.Call(m.mangled, args, span=e.span), m.ret
        if m.plain_sig not in self.table.implemented:
            raise TypeLoweringError(f"no implementation of '{m.plain_name}'",
                                    e.span)
        # an instance call; the interpreter picks the override per receiver
        return I.VirtualCall(m.plain_sig, recv, args, m.ret, span=e.span), m.ret

    def _lower_new(self, e, expected):
        name = e.type.name
        ci = self.table.info(name)
        if ci.is_builtin:
            _require(ci.decl.ctor is not None,
                     "builtin '{}' cannot be instantiated", e.span, name)
            ctors = [ci.decl.ctor]
        else:
            _require(not ci.is_interface,
                     "cannot instantiate interface '{}'", e.span, name)
            ctors = [m for m in ci.methods if m.is_constructor]
        lowered, tags = self.lower_args(e.args)
        m = pick_overload(ctors, tags, f"constructor of '{name}'", e.span)
        args = self.bind_args(e.args, lowered, m)
        if ci.is_builtin:
            return I.CallBuiltin(m, None, args, span=e.span), T.obj(name)
        return I.Call("new_" + m.mangled, args, span=e.span), T.obj(name)

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
                    or (ltag.is_object and rtag.is_object)
                    or (ltag == T.STR and rtag == T.STR))
            _require(okay, "'{}' on incompatible types {} and {}", e.span,
                     op, ltag, rtag)
            return I.Bin(op, left, right), T.BOOL
        if op in LOGIC_OPS:
            _require(ltag == T.BOOL and rtag == T.BOOL,
                     "'{}' needs boolean operands", e.span, op)
            return I.Bin(op, left, right), T.BOOL
        raise TypeLoweringError(f"unknown operator '{op}'", e.span)


def _require(cond, message, span, *args):
    """Raise TypeLoweringError at ``span`` unless ``cond``; the message is
    ``message.format(*args)``, built only then."""
    if not cond:
        raise TypeLoweringError(message.format(*args), span)


# the operators of a constant expression, each folding two constant terms
# as the interpreter evaluates it
_FOLD = {
    "+": B.add, "-": B.sub, "*": B.mul, "/": B.sdiv, "%": B.srem,
    "<": B.slt, "<=": B.sle, ">": lambda l, r: B.slt(r, l),
    ">=": lambda l, r: B.sle(r, l), "==": B.eq, "!=": B.ne,
    "&&": B.and_, "||": B.or_,
}


def _fold(e):
    """The constant term of IR expression ``e`` when it is built from int,
    char and boolean literals and operators only, a constant expression
    (JLS 15.29); None otherwise."""
    kind = type(e)
    if kind is I.Const:
        if type(e.value) is bool:
            return B.bconst(e.value)
        return B.const(e.value) if type(e.value) is int else None
    if kind is I.Un:
        v = _fold(e.operand)
        if v is None:
            return None
        return B.not_(v) if e.op == "!" else B.neg(v)
    if kind is I.Bin:
        left, right = _fold(e.left), _fold(e.right)
        if left is None or right is None:
            return None
        if e.op in ("/", "%") and right.payload == 0:
            return None    # it completes abruptly, so it is no constant
        return _FOLD[e.op](left, right)
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
    A.Name: _Env._lower_name,
    A.FieldAccess: _Env._lower_field_access,
    A.MethodCall: _Env._lower_call,
    A.NewObject: _Env._lower_new,
    A.BinOp: _Env._lower_binop,
    A.UnOp: _Env._lower_unop,
    A.Assign: _Env._lower_assign_expr,
}
