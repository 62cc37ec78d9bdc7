"""Normalization of the parsed sketch into the core form the lowering expects.

Three passes, run in this order by :func:`desugar`:

1. ``specialize_class_generators`` — one fresh copy of each ``generator``
   class per extending context, with the original generator removed.
2. ``assign_unknown_ids`` — one UnknownId record, with a stable ``e_h<n>`` /
   ``e_c<n>`` / ``e_r<n>`` name, for every Hole/Choice/minrepeat; the node
   and the UnknownRegistry hold the same record.  The same walk notes each
   anonymous class body, so no later pass walks the trees again.
3. ``normalize`` — inner classes flattened (``Inner_Outer``), anonymous
   classes lifted to named top-level classes, implicit root superclass,
   field initializers hoisted into constructors.  Generic type arguments
   never reach the tree: the parser drops them.
"""

from __future__ import annotations

from . import ast_nodes as A
from .stdlib import ROOT_CLASS
from .errors import DirectGeneratorUseError, EncodingError, SketchError
from .records import Record
from .unknowns import CHOICE, HOLE, REPEAT, UnknownId, UnknownRegistry


class SpecializationMap(Record):
    def __init__(self, entries=None):
        # (generator, context) -> fresh name
        self.entries = {} if entries is None else entries


# --------------------------------------------------------------------------
# pass 1: class generators


def specialize_class_generators(ast):
    generators = {}
    for decl in ast.top_level_types():
        _collect_generators(decl, generators)

    for gen in generators.values():
        if gen.superclass is not None and gen.superclass.name in generators:
            raise SketchError(
                f"generator class '{gen.name}' may not extend another generator",
                gen.span,
            )

    spec_map = SpecializationMap()
    if not generators:
        _strip_generator_decls(ast, generators)
        return ast, spec_map

    _check_direct_generator_use(ast, generators)

    taken = {d.name for d in ast.top_level_types()}
    counters = {name: 0 for name in generators}
    # deterministic context order: file order, then pre-order over nesting
    for unit in ast.units:
        for decl in unit.types:
            _specialize_in(decl, decl.name, generators, counters, taken, spec_map, unit)

    _strip_generator_decls(ast, generators)
    return ast, spec_map


def _collect_generators(decl, out):
    if not isinstance(decl, A.ClassDecl):
        return
    if decl.is_generator:
        if decl.is_interface:
            raise SketchError(f"interface '{decl.name}' cannot be a generator", decl.span)
        out[decl.name] = decl
    for inner in decl.inner_classes():
        _collect_generators(inner, out)


def _specialize_in(decl, context, generators, counters, taken, spec_map, unit):
    if not isinstance(decl, A.ClassDecl) or decl.is_generator:
        return
    if decl.superclass is not None and decl.superclass.name in generators:
        gen = generators[decl.superclass.name]
        counters[gen.name] += 1
        fresh = f"{gen.name}{counters[gen.name]}"
        while fresh in taken:
            counters[gen.name] += 1
            fresh = f"{gen.name}{counters[gen.name]}"
        taken.add(fresh)
        copy = gen.clone()
        copy.is_generator = False
        copy.modifiers = [m for m in copy.modifiers if m != "generator"]
        _rename_type(copy, gen.name, fresh)
        copy.name = fresh
        decl.superclass = A.TypeRef(fresh, span=decl.superclass.span)
        spec_map.entries[(gen.name, context)] = fresh
        # the specialized copy joins the generator's compilation unit
        unit.types.append(copy)
    for inner in decl.inner_classes():
        _specialize_in(inner, f"{context}.{inner.name}", generators, counters, taken,
                       spec_map, unit)


def _rename_type(node, old, new):
    """Rename type ``old`` within ``node``, except in a nested class body,
    named or anonymous, that declares a member class ``old`` of its own."""
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, list):
            stack.extend(n)
            continue
        if not isinstance(n, A.Node):
            continue
        if isinstance(n, A.TypeRef) and n.name == old:
            n.name = new
        elif isinstance(n, A.Name) and n.ident == old:
            n.ident = new
        elif isinstance(n, A.MethodDecl) and n.is_constructor and n.name == old:
            n.name = new
        body = (n.members if isinstance(n, A.ClassDecl) and n is not node
                else n.anon_members if isinstance(n, A.NewObject) else None)
        if body and any(isinstance(m, A.ClassDecl) and m.name == old for m in body):
            stack.extend(f for f in vars(n).values() if f is not body)
        else:
            stack.extend(vars(n).values())


def _check_direct_generator_use(ast, generators):
    allowed = set()
    for n in A.walk(ast):
        if isinstance(n, A.ClassDecl) and n.superclass is not None:
            allowed.add(id(n.superclass))
    for n in A.walk(ast):
        if isinstance(n, A.TypeRef) and n.name in generators and id(n) not in allowed:
            raise DirectGeneratorUseError(
                f"generator class '{n.name}' may only appear in 'extends'", n.span)
        if isinstance(n, A.Name) and n.ident in generators:
            raise DirectGeneratorUseError(
                f"generator class '{n.ident}' may only appear in 'extends'", n.span)


def _strip_generator_decls(ast, generators):
    for unit in ast.units:
        unit.types = [d for d in unit.types if not getattr(d, "is_generator", False)]
        for decl in unit.types:
            _strip_inner_generators(decl)


def _strip_inner_generators(decl):
    if not isinstance(decl, A.ClassDecl):
        return
    decl.members = [m for m in decl.members
                    if not (isinstance(m, A.ClassDecl) and m.is_generator)]
    for inner in decl.inner_classes():
        _strip_inner_generators(inner)


# --------------------------------------------------------------------------
# pass 2: unknown identifiers


_PREFIX = {HOLE: "e_h", CHOICE: "e_c", REPEAT: "e_r"}


class _IdAssigner:
    def __init__(self):
        self.registry = UnknownRegistry()
        self.counts = {HOLE: 0, CHOICE: 0, REPEAT: 0}
        self.anonymous = {}   # id(named ClassDecl) -> [NewObject with a body]

    def fresh(self, kind, owner, node, entries, **extra):
        self.counts[kind] += 1
        n = self.counts[kind]
        node.uid = UnknownId(kind, n, f"{_PREFIX[kind]}{n}", owner, **extra)
        entries.append(node.uid)
        return node.uid

    def visit_class(self, decl, prefix=""):
        qual = f"{prefix}{decl.name}"
        sites = self.anonymous[id(decl)] = []
        for member in decl.members:
            if isinstance(member, A.ClassDecl):
                self.visit_class(member, f"{qual}.")
            elif isinstance(member, A.FieldDecl):
                if member.init is not None:
                    self.visit(member.init, qual, sites)
            elif isinstance(member, A.MethodDecl):
                if member.body is not None:
                    self.visit(member.body, qual, sites)

    def visit(self, root, owner, sites):
        """Pre-order over ``root``, anonymous class bodies included, with
        an explicit stack of (node, enclosing minrepeat's record)."""
        registry = self.registry
        stack = [(root, None)]
        pop, push = stack.pop, stack.append
        while stack:
            node, template = pop()
            kind = type(node)
            if kind is A.Hole:
                self.fresh(HOLE, owner, node, registry.holes,
                           template_of=template)
            elif kind is A.Choice:
                self.fresh(CHOICE, owner, node, registry.choices,
                           template_of=template, arity=len(node.alternatives))
            elif kind is A.MinRepeat:
                if template is not None:
                    raise EncodingError("nested minrepeat is not supported",
                                        node.span)
                template = self.fresh(REPEAT, owner, node, registry.repeats)
            elif kind is A.NewObject and node.anon_members is not None:
                sites.append(node)
            for f in reversed(vars(node).values()):
                if isinstance(f, A.Node):
                    push((f, template))
                elif type(f) is list:
                    for item in reversed(f):
                        if isinstance(item, A.Node):
                            push((item, template))


def assign_unknown_ids(ast):
    """Deterministically label every unknown, in one walk that also finds
    each anonymous class body.  Returns (registry, anonymous), where
    ``anonymous`` maps id() of each named class to the ``NewObject`` nodes
    with a body among its own members (not those of its member classes),
    in pre-order."""
    assigner = _IdAssigner()
    for unit in ast.units:
        for decl in unit.types:
            if isinstance(decl, A.ClassDecl):
                assigner.visit_class(decl)
    return assigner.registry, assigner.anonymous


# --------------------------------------------------------------------------
# pass 3: normalization


def normalize(ast, anonymous):
    # flattening first renames an inner base type (``new Inner() { … }``)
    # before the anonymous class that extends it is lifted out of its scope
    _flatten_inner_classes(ast)
    _lift_anonymous_classes(ast, anonymous)
    _add_root_superclass(ast)
    _hoist_field_initializers(ast)
    return ast


def _type_names(ast):
    return {d.name for d in ast.top_level_types()}


def _lift_anonymous_classes(ast, anonymous):
    """Lift the bodies that ``assign_unknown_ids`` found, class by class
    in the flattened order, so that each base's counter follows a
    pre-order walk of the flattened unit."""
    types = {d.name: d for d in ast.top_level_types()}
    taken = set(types)
    counters = {}
    for unit in ast.units:
        lifted = []
        for owner in unit.types:
            for n in anonymous.get(id(owner), ()):
                base = n.type.name
                counters[base] = counters.get(base, 0) + 1
                fresh = f"{base}_{counters[base]}"
                while fresh in taken:
                    counters[base] += 1
                    fresh = f"{base}_{counters[base]}"
                taken.add(fresh)
                base_decl = types.get(base)
                is_iface = base_decl is not None and base_decl.is_interface
                lifted.append(A.ClassDecl(
                    name=fresh,
                    superclass=None if is_iface else A.TypeRef(base, span=n.span),
                    interfaces=[A.TypeRef(base, span=n.span)] if is_iface else [],
                    members=n.anon_members,
                    span=n.span,
                ))
                n.type = A.TypeRef(fresh, span=n.type.span)
                n.anon_members = None
        # an anonymous body may declare member classes of its own
        unit.types.extend(d for decl in lifted for d in _flatten_one(decl, taken))


def _flatten_inner_classes(ast):
    taken = _type_names(ast)
    for unit in ast.units:
        out = []
        for decl in unit.types:
            out.extend(_flatten_one(decl, taken))
        unit.types = out


def _flatten_one(decl, taken):
    """Return [decl, *hoisted inner classes], innermost classes last."""
    if not isinstance(decl, A.ClassDecl):
        return [decl]
    hoisted = []
    inners = decl.inner_classes()
    decl.members = [m for m in decl.members if not isinstance(m, A.ClassDecl)]
    for inner in inners:
        mangled = mangle_inner(inner.name, decl.name, taken)
        taken.add(mangled)
        _rename_type(decl, inner.name, mangled)
        _rename_type(inner, inner.name, mangled)
        inner.name = mangled
        hoisted.extend(_flatten_one(inner, taken))
    return [decl] + hoisted


def mangle_inner(inner, outer, taken=()):
    """``Inner_Outer`` naming; numeric suffix on collision."""
    name = f"{inner}_{outer}"
    k = 1
    while name in taken:
        k += 1
        name = f"{inner}_{outer}_{k}"
    return name


def _add_root_superclass(ast):
    names = _type_names(ast)
    if ROOT_CLASS not in names:
        root = A.ClassDecl(name=ROOT_CLASS, span=A.synthetic_span("<root>"))
        ast.units[0].types.insert(0, root)
    for decl in ast.top_level_types():
        if (isinstance(decl, A.ClassDecl) and not decl.is_interface
                and decl.name != ROOT_CLASS and decl.superclass is None):
            decl.superclass = A.TypeRef(ROOT_CLASS, span=decl.span)


def _hoist_field_initializers(ast):
    for decl in ast.top_level_types():
        if not isinstance(decl, A.ClassDecl) or decl.is_interface:
            continue
        ctors = [m for m in decl.methods() if m.is_constructor]
        if not ctors and decl.name != ROOT_CLASS:
            ctor = A.MethodDecl(name=decl.name, is_constructor=True,
                                body=A.Block([], span=decl.span), span=decl.span)
            decl.members.append(ctor)
            ctors = [ctor]
        inits = []
        for f in decl.fields():
            if f.init is not None and not f.is_static:
                inits.append(A.ExprStmt(
                    expr=A.Assign(target=A.Name(f.name, span=f.span),
                                  value=f.init, span=f.span),
                    span=f.span))
                f.init = None
        if inits:
            for ctor in ctors:
                ctor.body.stmts[:0] = [s.clone() for s in inits]


# --------------------------------------------------------------------------
# driver


def desugar(ast):
    """Run all three passes; returns (ast, SpecializationMap, UnknownRegistry)."""
    ast, spec_map = specialize_class_generators(ast)
    registry, anonymous = assign_unknown_ids(ast)
    ast = normalize(ast, anonymous)
    return ast, spec_map, registry
