"""Normalization of the parsed sketch into the core form the lowering expects.

Every simple name is bound here by Java's scoping rules (JLS 6.3-6.5), and
nowhere else.  Each parameter and local declaration gets its own slot, the
IR local it declares; each ``Name`` records the slot it denotes, the mark
``ast_nodes.CLASS``, or None for a field.  Each class reference (a
``TypeRef`` or a ``Name`` used as a class) is bound to its declaration, so
a rename sets only the declaration's name, from one allocator
(``_Binder.fresh``); each reference takes its declaration's final name at
the end of :func:`desugar`.

1. ``_Binder.specialize`` — class scopes, the types of each header and
   member, and a copy of each ``generator`` class per extending context.
2. ``_Binder.visit_class`` — one walk over every body: an UnknownId record
   (``e_h<n>`` / ``e_c<n>`` / ``e_r<n>``) for every Hole/Choice/minrepeat,
   shared by the node and the UnknownRegistry; slots; class references;
   anonymous bodies; and ``Outer.x`` for a nested class's use of a static
   member ``x`` of its enclosing class ``Outer``.
3. normalization — member classes hoisted (``Inner_Outer``), anonymous
   classes lifted (``Base_<n>``), constructors named after their class and
   given the field initializers, each an ``Assign`` marked ``initializer``.

A class that names no superclass keeps none here; the class table makes
the root class ``Object`` its superclass.
"""

from __future__ import annotations

from . import ast_nodes as A
from .errors import SketchError
from .unknowns import CHOICE, HOLE, REPEAT, UnknownId, UnknownRegistry


_PREFIX = {HOLE: "e_h", CHOICE: "e_c", REPEAT: "e_r"}
# a local of an enclosing method, seen from an anonymous body
_CAPTURED = object()


def _declare(var, names, taken):
    """Put parameter or local ``var`` in ``names`` with its slot, its IR
    local: its name, or else the first name ``<name>_<k>`` not in
    ``taken``, its function's slots.  As in javac, it may not share its
    name with a variable of ``names`` but an enclosing method's."""
    name = slot = var.name
    if names.get(name, _CAPTURED) is not _CAPTURED:
        raise SketchError(f"variable '{name}' is already defined", var.span)
    k = 0
    while slot in taken:
        k += 1
        slot = f"{name}_{k}"
    taken.add(slot)
    names[name] = var.slot = slot


class _Binder:
    """Passes 1 and 2.  A scope is a tuple, innermost first, of one ``(class,
    {member class name: declaration})`` per enclosing class body (a ClassDecl
    or an anonymous body's NewObject), then ``(None, {top-level names})``."""

    def __init__(self, ast):
        self.top = ((None, {d.name: d for d in ast.top_level_types()}),)
        self.taken = set(self.top[0][1])  # top-level names, then all given
        self.next = {}        # (stem, k) -> the k from which fresh(stem, k) looks
        self.bound = {}       # id(node) -> (node, attribute, declaration)
        self.scopes = {}      # id(named ClassDecl) -> scope of its body
        self.generators = {}  # id(generator) -> scope it is declared in
        self.spec_map = {}    # (generator, context) -> its copy's name
        self.registry = UnknownRegistry()
        self.counts = {HOLE: 0, CHOICE: 0, REPEAT: 0}
        self.anonymous = {}   # id(named ClassDecl) -> [NewObject with a body]

    def fresh(self, stem, k=1):
        """The first of ``stem<k>``, ``stem<k+1>``, ... not taken, now taken."""
        key = stem, k
        k = self.next.get(key, k)
        while f"{stem}{k}" in self.taken:
            k += 1
        self.next[key] = k + 1
        self.taken.add(f"{stem}{k}")
        return f"{stem}{k}"

    # -- pass 1: declarations and class generators --------------------------

    def bind(self, node, scope, attr="name", extends=False):
        """Bind the class name ``getattr(node, attr)`` by ``scope``; returns
        the declaration, or None (a library class, a primitive, unknown)."""
        name = getattr(node, attr)
        for _, types in scope:
            decl = types.get(name)
            if decl is not None:
                if decl.is_generator and not extends:
                    raise SketchError(
                        f"generator class '{name}' may only appear in 'extends'",
                        node.span)
                self.bound[id(node)] = (node, attr, decl)
                return decl
        return None

    def declare(self, decl, outer, own=None):
        """Bind the header of class ``decl``, declared in scope ``outer``,
        and build the scope of its body; ``own`` is the name that denotes
        ``decl`` there when it is not ``decl.name`` (a generator's copy)."""
        sup = decl.superclass and self.bind(decl.superclass, outer, extends=True)
        for ref in decl.interfaces:
            self.bind(ref, outer)
        if decl.is_generator:
            if decl.is_interface:
                raise SketchError(f"interface '{decl.name}' cannot be a generator",
                                  decl.span)
            if sup is not None and sup.is_generator:
                raise SketchError(f"generator class '{decl.name}' may not extend "
                                  "another generator", decl.span)
            self.generators[id(decl)] = outer
            return
        types = {m.name: m for m in decl.inner_classes()}
        if own is not None:
            types[own] = decl
        self.scopes[id(decl)] = scope = ((decl, types),) + outer
        self.declare_members(decl.members, scope)

    def declare_members(self, members, scope):
        """Bind the types of ``members``, declare their classes, drop generators."""
        for m in members:
            kind = type(m)
            if kind is A.ClassDecl:
                self.declare(m, scope)
            elif kind is A.FieldDecl:
                self.bind(m.type, scope)
            else:
                for p in m.params:
                    self.bind(p.type, scope)
                if m.return_type is not None:
                    self.bind(m.return_type, scope)
        members[:] = [m for m in members
                      if type(m) is not A.ClassDecl or not m.is_generator]

    def specialize(self, ast):
        for decl in ast.top_level_types():
            self.declare(decl, self.top)
        # contexts in file order, then pre-order; appended copies are reached
        for unit in ast.units:
            for decl in unit.types:
                if not decl.is_generator:
                    self.specialize_in(decl, decl.name, unit)
            unit.types = [d for d in unit.types if not d.is_generator]

    def specialize_in(self, decl, context, unit):
        entry = self.bound.get(id(decl.superclass))
        if entry is not None and entry[2].is_generator:
            gen = entry[2]
            copy = gen.clone()
            copy.is_generator = False
            copy.modifiers = [m for m in copy.modifiers if m != "generator"]
            copy.name = self.fresh(gen.name)
            self.declare(copy, self.generators[id(gen)], own=gen.name)
            self.bound[id(decl.superclass)] = (decl.superclass, "name", copy)
            self.spec_map[(gen.name, context)] = copy.name
            # the copy joins the compilation unit of its extending context
            unit.types.append(copy)
        for inner in decl.inner_classes():
            self.specialize_in(inner, f"{context}.{inner.name}", unit)

    # -- pass 2: bodies -----------------------------------------------------

    def unknown(self, kind, owner, node, entries, **extra):
        self.counts[kind] = n = self.counts[kind] + 1
        node.uid = UnknownId(kind, n, f"{_PREFIX[kind]}{n}", owner, **extra)
        entries.append(node.uid)
        return node.uid

    def visit_class(self, decl, prefix=""):
        qual = f"{prefix}{decl.name}"
        sites = self.anonymous[id(decl)] = []
        self.visit_members(decl.members, f"{qual}.", qual, sites,
                           self.scopes[id(decl)], {}, None)

    def visit_members(self, members, prefix, owner, sites, scope, names, template):
        """The bodies among ``members``, ``names`` mapping each local of an
        enclosing method to _CAPTURED; in an anonymous body ``prefix`` is
        None: its classes keep its owner.  An instance method's receiver
        takes the slot ``self``."""
        for m in members:
            kind = type(m)
            if kind is A.ClassDecl:
                if prefix is None:
                    self.visit_members(m.members, None, owner, sites,
                                       self.scopes[id(m)], names, template)
                else:
                    self.visit_class(m, prefix)
            elif kind is A.FieldDecl:
                if m.init is not None:
                    self.visit(m.init, owner, sites, scope, names, template, set())
            else:
                taken = set() if m.is_static else {"self"}
                params = dict(names)
                for p in m.params:
                    _declare(p, params, taken)
                if m.body is not None:
                    self.visit(m.body, owner, sites, scope, params, template, taken)

    def visit(self, root, owner, sites, scope, names, template, taken):
        """Pre-order over ``root``, with an explicit stack of (node, enclosing
        minrepeat's record, {source name: slot} of the locals in scope).
        A local is in scope from its own initializer to the end of its
        block, and takes a slot not in ``taken``, its function's.  A Name is
        a local, parameter or field before a class (JLS 6.4.2)."""
        registry = self.registry
        stack = [(root, template, names)]
        pop, push = stack.pop, stack.append
        while stack:
            node, template, names = pop()
            kind = type(node)
            if kind is A.Name:
                ident = node.ident
                slot = names.get(ident)
                if slot is _CAPTURED:
                    if self.member(scope[0][0], ident, A.FieldDecl) is None:
                        raise SketchError(
                            f"an anonymous class uses '{ident}', a local or "
                            "parameter of an enclosing method; captures are "
                            "not supported",
                            node.span)
                elif slot is not None:
                    node.slot = slot
                elif ((len(scope) > 2 or any(ident in t for _, t in scope))
                        and not self.member_in_scope(node, ident, A.FieldDecl, scope)
                        and self.bind(node, scope, "ident")):
                    node.slot = A.CLASS
                continue
            if kind is A.TypeRef:
                self.bind(node, scope)
                continue
            if kind is A.LocalDecl:
                _declare(node, names, taken)
            elif kind is A.Block:
                names = dict(names)
            elif kind is A.Hole:
                self.unknown(HOLE, owner, node, registry.holes, template_of=template)
            elif kind is A.Choice:
                self.unknown(CHOICE, owner, node, registry.choices,
                             template_of=template, arity=len(node.alternatives))
            elif kind is A.MinRepeat:
                if template is not None:
                    raise SketchError("nested minrepeat is not supported", node.span)
                template = self.unknown(REPEAT, owner, node, registry.repeats)
            elif kind is A.MethodCall:
                if node.target is None and len(scope) > 2:
                    self.member_in_scope(node, node.name, A.MethodDecl, scope)
            elif kind is A.NewObject and node.anon_members is not None:
                sites.append(node)
                for part in (node.type, *node.args):
                    self.visit(part, owner, sites, scope, names, template, taken)
                members = node.anon_members
                inner = ((node, {m.name: m for m in members
                                 if type(m) is A.ClassDecl}),) + scope
                self.declare_members(members, inner)
                self.visit_members(members, None, owner, sites, inner,
                                   dict.fromkeys(names, _CAPTURED), template)
                continue
            for f in reversed(vars(node).values()):
                if isinstance(f, A.Node):
                    push((f, template, names))
                elif type(f) is list:
                    for item in reversed(f):
                        if isinstance(item, A.Node):
                            push((item, template, names))

    def member_in_scope(self, node, name, kind, scope):
        """Whether a class of ``scope`` has a ``kind`` member ``name``; the
        innermost such class is the one meant (JLS 6.5.6.1, 15.12.1)."""
        for depth, (cls, _) in enumerate(scope[:-1]):
            member = self.member(cls, name, kind)
            if member is not None:
                if depth:
                    self.enclosing(node, cls, member)
                return True
        return False

    def member(self, cls, name, kind):
        """The ``kind`` member ``name`` that ``cls`` (a ClassDecl or a
        NewObject) declares or inherits from an input class, or None."""
        todo, seen = [cls], set()
        while todo:
            cls = todo.pop()
            if id(cls) in seen:
                continue      # an inheritance cycle; the class table rejects it
            seen.add(id(cls))
            anon = type(cls) is A.NewObject
            for m in cls.anon_members if anon else cls.members:
                if type(m) is kind and m.name == name:
                    return m
            supers = [cls.type] if anon else [cls.superclass, *cls.interfaces]
            todo.extend(self.bound[id(s)][2] for s in reversed(supers)
                        if id(s) in self.bound)
        return None

    def enclosing(self, node, cls, member):
        """``node``, in a nested class, uses ``member`` of its enclosing
        class ``cls``: a static member becomes ``Cls.member``."""
        if not member.is_static or type(cls) is not A.ClassDecl:
            raise SketchError(
                f"a nested class uses '{member.name}', an instance member of "
                "an enclosing class; only static ones are supported", node.span)
        qualifier = A.Name(cls.name, span=node.span, slot=A.CLASS)
        self.bound[id(qualifier)] = (qualifier, "ident", cls)
        if type(node) is A.MethodCall:
            node.target = qualifier
        else:     # a Name has no link to its parent: it becomes a FieldAccess
            ident = node.ident
            vars(node).clear()
            node.__class__ = A.FieldAccess
            node.__init__(qualifier, ident, qualifier.span)


# -- pass 3: normalization --------------------------------------------------


def _flatten(decl, binder):
    """[decl, then each member class hoisted as ``Inner_Outer`` and followed
    by its own]; a hoisted class keeps the modifiers legal in any file."""
    out = [decl]
    inners = decl.inner_classes()
    if inners:
        decl.members = [m for m in decl.members if type(m) is not A.ClassDecl]
    for inner in inners:
        name = f"{inner.name}_{decl.name}"
        inner.name = binder.fresh(f"{name}_", 2) if name in binder.taken else name
        binder.taken.add(inner.name)
        inner.modifiers = [m for m in inner.modifiers if m in ("abstract", "final")]
        out.extend(_flatten(inner, binder))
    return out


def _lift_anonymous_classes(ast, binder):
    """Lift the bodies found by pass 2, class by class in the flattened order,
    so each base's numbers follow a pre-order walk of the flattened unit; the
    ``new`` type, bound to the base, becomes the lifted class's supertype."""
    for unit in ast.units:
        lifted = []
        for owner in unit.types:
            for n in binder.anonymous.get(id(owner), ()):
                ref = n.type
                _, _, base = binder.bound.get(id(ref), (None, None, None))
                name = binder.fresh(f"{(base or ref).name}_")
                is_iface = base is not None and base.is_interface
                lifted.append(A.ClassDecl(
                    name=name, superclass=None if is_iface else ref,
                    interfaces=[ref] if is_iface else [],
                    members=n.anon_members, span=n.span))
                n.type, n.anon_members = A.TypeRef(name, span=ref.span), None
        # an anonymous body may declare member classes of its own
        unit.types.extend(d for decl in lifted for d in _flatten(decl, binder))


def _finish_constructors(ast):
    """Constructors named after their class, one at least in each class,
    each first running field initializers."""
    for decl in ast.top_level_types():
        if decl.is_interface:
            continue
        ctors = [m for m in decl.methods() if m.is_constructor]
        for ctor in ctors:
            ctor.name = decl.name
        if not ctors:
            ctors = [A.MethodDecl(name=decl.name, is_constructor=True,
                                  body=A.Block([], span=decl.span), span=decl.span)]
            decl.members += ctors
        inits = [f for f in decl.fields() if f.init is not None and not f.is_static]
        for ctor in ctors:
            ctor.body.stmts[:0] = [
                A.ExprStmt(A.Assign(A.Name(f.name, f.span), f.init.clone(),
                                    f.span, initializer=True),
                           f.span) for f in inits]
        for f in inits:
            f.init = None


def desugar(ast):
    """Run all three passes; returns (ast, {(generator, context): name of
    its copy}, UnknownRegistry)."""
    binder = _Binder(ast)
    binder.specialize(ast)
    for decl in ast.top_level_types():
        binder.visit_class(decl)
    for unit in ast.units:
        unit.types = [d for decl in unit.types for d in _flatten(decl, binder)]
    _lift_anonymous_classes(ast, binder)
    # every class reference takes its declaration's final name
    for node, attr, decl in binder.bound.values():
        setattr(node, attr, decl.name)
    _finish_constructors(ast)
    return ast, binder.spec_map, binder.registry
