"""Class table: the hierarchy, mangled method names and the vtable.

Built once from the desugared AST (inner classes already flattened, anonymous
classes already lifted).  Builtin library classes are registered after user
classes so that dispatch over e.g. ``Iterator`` receivers works uniformly.
The vtable maps each (class id, plain signature) to the override that an
instance call on that class runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ast_nodes as A
from . import stdlib
from . import typetags as T
from .errors import (
    InheritanceCycleError, SignatureClashError, TypeLoweringError,
    UnresolvedTypeError,
)

PRIMITIVE_TAGS = {
    "int": T.INT, "boolean": T.BOOL, "char": T.CHAR,
    "String": T.STR, "void": T.VOID,
}


def mangle_param(tag):
    return tag.cls if tag.kind == "obj" else tag.kind


def mangle_method(method, cls, param_tags):
    """``Mtd_Cls_Params`` naming rule; zero params contribute nothing."""
    parts = [method, cls] + [mangle_param(t) for t in param_tags]
    return "_".join(parts)


@dataclass
class MethodInfo:
    plain_name: str
    mangled: str
    params: list                  # [(name, TypeTag)]
    ret: object                   # TypeTag
    is_static: bool = False
    is_harness: bool = False
    is_constructor: bool = False
    is_abstract: bool = False
    is_builtin: bool = False
    builtin_key: str = None
    decl: object = None           # MethodDecl for user methods

    @property
    def plain_sig(self):
        return (self.plain_name, tuple(mangle_param(t) for _, t in self.params))

    @property
    def arg_tags(self):
        return [t for _, t in self.params]


@dataclass
class ClassInfo:
    cid: int
    name: str
    is_interface: bool = False
    is_builtin: bool = False
    superclass: str = None
    interfaces: list = field(default_factory=list)
    methods: list = field(default_factory=list)   # declared MethodInfo
    fields: list = field(default_factory=list)    # [(name, TypeTag, is_static)]
    decl: object = None
    constructible: bool = True


class ClassTable:
    def __init__(self):
        self.classes = []           # ClassInfo, index == cid
        self.by_name = {}
        self.static_fields = []     # [(owner, name, TypeTag)]
        self.vtable = {}            # (cid, plain_sig) -> MethodInfo
        self.implemented = set()    # plain_sigs with an override in some class

    # -- queries -----------------------------------------------------------

    def has_class(self, name):
        return name in self.by_name

    def info(self, name):
        try:
            return self.by_name[name]
        except KeyError:
            raise UnresolvedTypeError(f"unknown type '{name}'") from None

    def id_of(self, name):
        return self.info(name).cid

    def tag_from_typeref(self, tref):
        if tref.name in PRIMITIVE_TAGS:
            return PRIMITIVE_TAGS[tref.name]
        if not self.has_class(tref.name):
            raise UnresolvedTypeError(f"unknown type '{tref.name}'", tref.span)
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
        """Walk up the chain; returns (owner, TypeTag, is_static)."""
        for cur in self.superclass_chain(cls_name):
            for name, tag, is_static in self.info(cur).fields:
                if name == fname:
                    return cur, tag, is_static
        raise TypeLoweringError(f"no field '{fname}' in class '{cls_name}'")

    def resolve_method(self, cls_name, name, arg_tags, span=None):
        """Overload resolution over the class chain and its interfaces."""
        seen = []
        scope = self.superclass_chain(cls_name) + self.all_interfaces(cls_name)
        for cur in scope:
            for m in self.info(cur).methods:
                if m.plain_name == name and len(m.params) == len(arg_tags):
                    seen.append(m)
        exact = [m for m in seen if m.arg_tags == list(arg_tags)]
        if exact:
            return exact[0]
        ok = [m for m in seen
              if all(T.compatible(a, p) for a, p in zip(arg_tags, m.arg_tags))]
        if not ok:
            raise TypeLoweringError(
                f"no method '{name}({', '.join(map(str, arg_tags))})' "
                f"in class '{cls_name}'", span)
        # distinct plain signatures that are all compatible: ambiguous
        sigs = {m.plain_sig for m in ok}
        if len(sigs) > 1:
            raise TypeLoweringError(
                f"ambiguous call to '{name}' in class '{cls_name}'", span)
        return ok[0]


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
            superclass=decl.superclass.name if decl.superclass else None,
            interfaces=[i.name for i in decl.interfaces],
        )
        table.classes.append(ci)
        table.by_name[ci.name] = ci

    for spec in stdlib.BUILTIN_CLASSES:
        if spec.name in user_names:
            continue  # user declaration shadows the builtin
        interfaces = [i for i in spec.interfaces]
        for i in spec.implements_if_declared:
            if i in table.by_name and table.by_name[i].is_interface:
                interfaces.append(i)
        sup = spec.superclass
        if sup is None and not spec.is_interface and stdlib.ROOT_CLASS in table.by_name:
            sup = stdlib.ROOT_CLASS
        ci = ClassInfo(
            cid=len(table.classes), name=spec.name,
            is_interface=spec.is_interface, is_builtin=True,
            superclass=sup, interfaces=interfaces,
            constructible=spec.constructible, decl=spec,
        )
        table.classes.append(ci)
        table.by_name[ci.name] = ci

    _check_hierarchy(table)
    _build_members(table)
    _build_vtable(table)
    return table


def _check_hierarchy(table):
    for ci in table.classes:
        for ref in _supertypes(ci):
            if ref not in table.by_name:
                span = ci.decl.span if isinstance(ci.decl, A.ClassDecl) else None
                raise UnresolvedTypeError(
                    f"class '{ci.name}' references unknown type '{ref}'", span)
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
                raise InheritanceCycleError(f"inheritance cycle through '{nxt}'")
            elif nxt not in done:
                on_path.add(nxt)
                stack.append((nxt, iter(_supertypes(table.by_name[nxt]))))


def _supertypes(ci):
    return ([ci.superclass] if ci.superclass else []) + list(ci.interfaces)


def _new_method(taken, info):
    """Registers ``info``'s mangled name, suffixing ``_2``, ``_3``, ... on a
    collision."""
    if info.mangled in taken:
        base = info.mangled
        k = 2
        while f"{base}_{k}" in taken:
            k += 1
        info.mangled = f"{base}_{k}"
    taken.add(info.mangled)
    return info


def _build_members(table):
    taken = set()
    for ci in table.classes:
        if ci.is_builtin:
            for spec in ci.decl.methods:
                params = [(f"a{i}", t) for i, t in enumerate(spec.params)]
                mi = MethodInfo(
                    plain_name=spec.name,
                    mangled=mangle_method(spec.name, ci.name, spec.params),
                    params=params, ret=spec.ret,
                    is_abstract=ci.is_interface, is_builtin=True,
                    builtin_key=spec.key,
                )
                ci.methods.append(_new_method(taken, mi))
            continue
        decl = ci.decl
        for f in decl.fields():
            tag = table.tag_from_typeref(f.type)
            ci.fields.append((f.name, tag, f.is_static))
            if f.is_static:
                table.static_fields.append((ci.name, f.name, tag))
        sigs = set()
        for m in decl.methods():
            params = [(p.name, table.tag_from_typeref(p.type)) for p in m.params]
            ret = (T.obj(ci.name) if m.is_constructor
                   else table.tag_from_typeref(m.return_type))
            mi = MethodInfo(
                plain_name=m.name,
                mangled=mangle_method(m.name, ci.name, [t for _, t in params]),
                params=params, ret=ret,
                is_static=m.is_static, is_harness=m.is_harness,
                is_constructor=m.is_constructor,
                is_abstract=m.body is None, decl=m,
            )
            if mi.plain_sig in sigs and not m.is_constructor:
                raise SignatureClashError(
                    f"duplicate signature '{m.name}' in class '{ci.name}'", m.span)
            sigs.add(mi.plain_sig)
            ci.methods.append(_new_method(taken, mi))


def _build_vtable(table):
    """Inheritance from the root down: each concrete method overrides the
    entry for its signature, so a class gets the first concrete method up
    its superclass chain."""
    for ci in table.classes:
        if ci.is_interface:
            continue
        for cur in reversed(table.superclass_chain(ci.name)):
            for m in table.by_name[cur].methods:
                if not m.is_abstract and not m.is_constructor:
                    table.vtable[(ci.cid, m.plain_sig)] = m
                    table.implemented.add(m.plain_sig)
