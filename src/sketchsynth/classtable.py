"""Class table: the hierarchy, mangled method names and the vtable.

Built once from the desugared AST (inner classes already flattened, anonymous
classes already lifted).  Builtin library classes are registered after user
classes so that dispatch over e.g. ``Iterator`` receivers works uniformly.
Every library class is in the table, whatever the program names its own:
a program's class of a library class's name shadows it only in the
program's references (JLS 6.4.1), and the library class goes by its
qualified name, ``java.lang.String``, instead.  ``ClassTable.library``
maps each library class's simple name to its name in the program, and
library code reaches library classes only through it: the tags of their
methods, their interfaces and the interpreter's allocations.  So the
root, the library's ``Object``, is the superclass of every class that
names none but itself and the interfaces, beside a program's own
``Object``, and a String literal or ``StringBuilder.toString`` makes a
library String beside a program's own ``String``.
Every callee is a :class:`MethodInfo` here: the library's methods and
constructors are members of their classes, ``convertToIterator`` a static
method of the root, so a program's own method of that name hides it as a
subclass's static hides its superclass's.  The vtable maps each (class id,
plain signature) to the override that an instance call on that class runs.
"""

from __future__ import annotations

from . import ast_nodes as A
from . import stdlib
from . import typetags as T
from .errors import SketchError
from .records import Record

PRIMITIVE_TAGS = {
    "int": T.INT, "boolean": T.BOOL, "char": T.CHAR, "void": T.VOID,
}


def mangle_param(tag):
    return tag.cls if tag.kind == "obj" else tag.kind


def mangle_method(method, cls, param_tags):
    """``Mtd_Cls_Params`` naming rule; zero params contribute nothing."""
    parts = [method, cls] + [mangle_param(t) for t in param_tags]
    return "_".join(parts)


class MethodInfo(Record):
    _hidden = ("param_tags", "plain_sig", "function")

    def __init__(self, plain_name, mangled, params, ret, is_static=False,
                 is_harness=False, is_constructor=False, is_abstract=False,
                 builtin=None, decl=None):
        self.plain_name = plain_name
        self.mangled = mangled
        self.params = params  # [(IR local, TypeTag)]
        self.ret = ret  # TypeTag
        self.is_static = is_static
        self.is_harness = is_harness
        self.is_constructor = is_constructor
        self.is_abstract = is_abstract
        # the stdlib.BuiltinMethod of a library method or constructor,
        # which runs natively
        self.builtin = builtin
        self.decl = decl  # MethodDecl for user methods
        # derived from ``params``, which never changes after construction
        self.param_tags = tuple(t for _, t in params)
        self.plain_sig = (plain_name,  # (name, mangled params)
                          tuple(map(mangle_param, self.param_tags)))
        self.function = None  # its IR function's name, set with ``mangled``

    def __repr__(self):
        return repr(self.mangled)


class ClassInfo(Record):
    def __init__(self, cid, name, is_interface=False, is_abstract=False,
                 is_builtin=False, superclass=None, interfaces=None,
                 methods=None, fields=None, decl=None):
        self.cid = cid
        self.name = name
        self.is_interface = is_interface
        self.is_abstract = is_abstract  # an interface is abstract, too
        self.is_builtin = is_builtin
        self.superclass = superclass
        self.interfaces = [] if interfaces is None else interfaces
        # declared MethodInfo
        self.methods = [] if methods is None else methods
        # [(name, TypeTag, is_static)]
        self.fields = [] if fields is None else fields
        self.decl = decl  # ClassDecl, or BuiltinClassSpec


class ClassTable:
    def __init__(self):
        self.classes = []           # ClassInfo, index == cid
        self.by_name = {}
        self.static_fields = []     # [(owner, name, TypeTag)]
        self.field_tags = {}        # (owner, name) -> TypeTag
        self.final_fields = set()   # (owner, name) of each final field
        self.vtable = {}            # (cid, plain_sig) -> MethodInfo
        self.library = {}           # library class's simple name -> its name
        self.root = None            # the library root's name

    # -- queries -----------------------------------------------------------

    def has_class(self, name):
        return name in self.by_name

    def info(self, name):
        try:
            return self.by_name[name]
        except KeyError:
            raise SketchError(f"unknown type '{name}'") from None

    def id_of(self, name):
        return self.info(name).cid

    def tag_from_typeref(self, tref):
        if tref.name in PRIMITIVE_TAGS:
            return PRIMITIVE_TAGS[tref.name]
        if not self.has_class(tref.name):
            raise SketchError(f"unknown type '{tref.name}'", tref.span)
        return T.obj(tref.name)

    def superclass_chain(self, name):
        """[name, superclass, ...] up to the root."""
        chain = []
        cur = name
        while cur is not None:
            chain.append(cur)
            cur = self.info(cur).superclass
        return chain

    def all_interfaces(self, name):
        """Interfaces of ``name`` and its superclasses, closed upward: a
        class's own interfaces, then its superclass's list, then the
        superinterfaces of both, breadth first."""
        out = []
        for cur in reversed(self.superclass_chain(name)):
            queue = list(self.info(cur).interfaces) + out
            out = []
            for i in queue:
                if i not in out:
                    out.append(i)
                    queue.extend(self.info(i).interfaces)
        return out

    def resolve_field(self, cls_name, fname):
        """Walk up the chain, then the interfaces, whose fields are all
        static; returns (owner, TypeTag, is_static)."""
        for scope in (self.superclass_chain, self.all_interfaces):
            for cur in scope(cls_name):
                for name, tag, is_static in self.info(cur).fields:
                    if name == fname:
                        return cur, tag, is_static
        raise SketchError(f"no field '{fname}' in class '{cls_name}'")

    def resolve_method(self, cls_name, name, arg_tags, span=None):
        """Overload resolution over the class chain and its interfaces,
        and for an interface the root class, whose members an interface
        has too (JLS 9.2): ``convertToIterator`` among them."""
        scope = self.superclass_chain(cls_name) + self.all_interfaces(cls_name)
        if self.info(cls_name).is_interface:
            scope.append(self.root)
        return pick_overload(
            [m for cur in scope for m in self.info(cur).methods
             if m.plain_name == name],
            arg_tags, f"method '{name}' in class '{cls_name}'", span)


# A bare ``??`` argument has the tag None: it is an int in the first two
# phases and may also be a boolean in the last one.
_PHASES = (
    lambda arg, param: (arg or T.INT) == param,
    lambda arg, param: T.compatible(arg or T.INT, param),
    lambda arg, param: T.compatible(arg or T.INT, param)
    or (arg is None and param == T.BOOL),
)


def pick_overload(cands, arg_tags, what, span):
    """The overload among ``cands`` (methods, constructors or library
    methods, each with ``param_tags``) that a call with ``arg_tags`` picks.

    As in Java, it is one procedure for every call: candidates of the
    call's arity are tried in phases, an exact match first, then one
    whose parameters accept the arguments; the first phase with a match
    decides, and matches of distinct signatures there are ambiguous.
    """
    cands = [m for m in cands if len(m.param_tags) == len(arg_tags)]
    for fits in _PHASES:
        ok = [m for m in cands
              if all(map(fits, arg_tags, m.param_tags))]
        if ok:
            if len({m.param_tags for m in ok}) > 1:
                raise SketchError(f"ambiguous call to {what}", span)
            return ok[0]
    shown = ", ".join(str(a or T.INT) for a in arg_tags)
    raise SketchError(f"no {what} takes ({shown})", span)


# --------------------------------------------------------------------------
# construction


def build_class_table(ast):
    table = ClassTable()
    user_decls = [d for d in ast.top_level_types() if isinstance(d, A.ClassDecl)]
    user_names = {d.name for d in user_decls}

    for decl in user_decls:
        ci = ClassInfo(
            cid=len(table.classes), name=decl.name,
            is_interface=decl.is_interface, decl=decl,
            is_abstract=decl.is_interface or "abstract" in decl.modifiers,
            superclass=decl.superclass.name if decl.superclass else None,
            interfaces=[i.name for i in decl.interfaces],
        )
        table.classes.append(ci)
        table.by_name[ci.name] = ci

    for spec in stdlib.BUILTIN_CLASSES:
        simple = spec.name.rpartition(".")[2]
        name = spec.name if simple in user_names else simple
        table.library[simple] = name
        ci = ClassInfo(
            cid=len(table.classes), name=name,
            is_interface=spec.is_interface, is_abstract=spec.is_interface,
            is_builtin=True, decl=spec,
            interfaces=[table.library[i] for i in spec.interfaces],
        )
        table.classes.append(ci)
        table.by_name[ci.name] = ci

    table.root = table.library[stdlib.ROOT_CLASS]
    for ci in table.classes:
        if (ci.superclass is None and not ci.is_interface
                and ci.name != table.root):
            ci.superclass = table.root
    _check_hierarchy(table)
    _build_members(table)
    _build_vtable(table)
    return table


def _check_hierarchy(table):
    for ci in table.classes:
        for ref in _supertypes(ci):
            if ref not in table.by_name:
                raise SketchError(
                    f"class '{ci.name}' references unknown type '{ref}'",
                    _span_of(ci))
    # cycle detection over extends + implements edges: depth-first, with an
    # explicit stack of (class, iterator over its supertypes)
    done, on_path = set(), set()
    for ci in table.classes:
        if ci.name in done:
            continue
        on_path.add(ci.name)
        stack = [(ci.name, iter(_supertypes(ci)))]
        while stack:
            name, rest = stack[-1]
            nxt = next(rest, None)
            if nxt is None:
                stack.pop()
                on_path.discard(name)
                done.add(name)
            elif nxt in on_path:
                raise SketchError(f"inheritance cycle through '{nxt}'",
                                  _span_of(table.by_name[nxt]))
            elif nxt not in done:
                on_path.add(nxt)
                stack.append((nxt, iter(_supertypes(table.by_name[nxt]))))


def _span_of(ci):
    """Where class ``ci`` is declared; None for a library class."""
    return ci.decl.span if isinstance(ci.decl, A.ClassDecl) else None


def _supertypes(ci):
    return ([ci.superclass] if ci.superclass else []) + list(ci.interfaces)


def _new_method(taken, info):
    """Registers ``info``'s mangled name, suffixing ``_2``, ``_3``, ... on a
    collision, and names its IR function: a constructor's is its mangled
    name after ``init_``."""
    if info.mangled in taken:
        base = info.mangled
        k = 2
        while f"{base}_{k}" in taken:
            k += 1
        info.mangled = f"{base}_{k}"
    taken.add(info.mangled)
    info.function = ("init_" if info.is_constructor else "") + info.mangled
    return info


def _library_method(taken, library, ci, bm, is_constructor=False):
    """The MethodInfo of library record ``bm`` as a member of ``ci``; each
    of its tags names a library class by its name in ``library``."""
    def own(t):
        return T.obj(library[t.cls]) if t.kind == "obj" else t
    name = ci.name if is_constructor else bm.name
    params = [own(t) for t in bm.param_tags]
    return _new_method(taken, MethodInfo(
        plain_name=name, mangled=mangle_method(name, ci.name, params),
        params=[(f"a{i}", t) for i, t in enumerate(params)],
        ret=own(bm.ret),
        is_static=bm.is_static, is_constructor=is_constructor,
        is_abstract=ci.is_interface, builtin=bm))


def _build_members(table):
    taken, library = set(), table.library
    for ci in table.classes:
        if ci.is_builtin:
            for bm in ci.decl.methods:
                ci.methods.append(_library_method(taken, library, ci, bm))
            if ci.decl.ctor is not None:
                ci.methods.append(_library_method(
                    taken, library, ci, ci.decl.ctor, is_constructor=True))
            continue
        decl = ci.decl
        for f in decl.fields():
            tag = table.tag_from_typeref(f.type)
            ci.fields.append((f.name, tag, f.is_static))
            table.field_tags[(ci.name, f.name)] = tag
            # every interface field is final (JLS 9.3)
            if "final" in f.modifiers or decl.is_interface:
                table.final_fields.add((ci.name, f.name))
            if f.is_static:
                table.static_fields.append((ci.name, f.name, tag))
        sigs = set()
        for m in decl.methods():
            # as javac: a method has a body unless it is abstract, as an
            # interface's public instance methods are (JLS 8.4.3.1, 9.4)
            abstract = "abstract" in m.modifiers or decl.is_interface and not (
                m.is_static or "private" in m.modifiers)
            if abstract and m.body is not None and decl.is_interface:
                raise SketchError(
                    "interface abstract methods cannot have body", m.body.span)
            if abstract and m.body is not None:
                raise SketchError(
                    "abstract methods cannot have a body", m.span)
            if not abstract and m.body is None:
                raise SketchError(
                    "missing method body, or declare abstract", m.span)
            params = [(p.slot, table.tag_from_typeref(p.type)) for p in m.params]
            ret = (T.obj(ci.name) if m.is_constructor
                   else table.tag_from_typeref(m.return_type))
            mi = MethodInfo(
                plain_name=m.name,
                mangled=mangle_method(m.name, ci.name, [t for _, t in params]),
                params=params, ret=ret,
                is_static=m.is_static, is_harness=m.is_harness,
                is_constructor=m.is_constructor,
                is_abstract=abstract, decl=m,
            )
            if mi.plain_sig in sigs and not m.is_constructor:
                raise SketchError(
                    f"duplicate signature '{m.name}' in class '{ci.name}'", m.span)
            sigs.add(mi.plain_sig)
            ci.methods.append(_new_method(taken, mi))


def _build_vtable(table):
    """Inheritance from the root down: each concrete method overrides the
    entry for its signature, so a class gets the first concrete method up
    its superclass chain.  As javac, a program's concrete class leaves no
    abstract method of its chain or its interfaces without one (JLS
    8.1.1.1)."""
    for ci in table.classes:
        if ci.is_interface:
            continue
        # each signature that is abstract in ``ci`` so far -> the type
        # that declares it so
        left = {m.plain_sig: i for i in table.all_interfaces(ci.name)
                for m in table.info(i).methods if m.is_abstract}
        for cur in reversed(table.superclass_chain(ci.name)):
            for m in table.by_name[cur].methods:
                if m.is_abstract:
                    left[m.plain_sig] = cur
                elif not m.is_constructor:
                    table.vtable[(ci.cid, m.plain_sig)] = m
                    left.pop(m.plain_sig, None)
        if left and not (ci.is_abstract or ci.is_builtin):
            (name, params), owner = next(iter(left.items()))
            raise SketchError(
                f"'{ci.name}' is not abstract and does not override abstract "
                f"method '{name}({','.join(params)})' in '{owner}'", ci.decl.span)
