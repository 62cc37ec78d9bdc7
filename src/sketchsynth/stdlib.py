"""Native models of the small library surface the subject language needs.

Each library method is one :class:`BuiltinMethod` record: its name,
parameter and return tags, whether it mutates its receiver, and the Python
function that runs it.  The class table, the IR and the interpreter hold
that record itself, so no layer looks a method up by name or key.  The
library is Iterator, List/LinkedList, StringBuilder, the methods of String
values and the string-to-token bridge ``convertToIterator``; its calls are
run natively by the interpreter and consume no unknowns.  Out-of-bounds
access and iterator overrun raise :class:`BuiltinTrap`, which the
interpreter turns into candidate rejection.
"""

from __future__ import annotations

from . import typetags as T
from .records import Frozen, Record

ROOT_CLASS = "Object"


class BuiltinTrap(Exception):
    """Abnormal builtin outcome; rejects the current candidate."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class BuiltinMethod(Frozen):
    """One library method; identity is equality."""

    def __init__(self, owner, name, param_tags, ret, run, mutates=False):
        # owner: the declaring class, or None for a free function;
        # param_tags and ret: TypeTags; run: (ctx, receiver, args) -> value,
        # where ctx allocates; mutates: changes its receiver or consumes an
        # iterator
        object.__setattr__(self, "owner", owner)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "param_tags", param_tags)
        object.__setattr__(self, "ret", ret)
        object.__setattr__(self, "run", run)
        object.__setattr__(self, "mutates", mutates)

    def __repr__(self):
        return repr(f"{self.owner}.{self.name}" if self.owner else self.name)


class BuiltinClassSpec(Frozen, Record):
    def __init__(self, name, methods=(), is_interface=False, interfaces=(),
                 implements_if_declared=(), ctor=None):
        # implements_if_declared: interfaces attached only when the user
        # program declares them; ctor: a BuiltinMethod, or None when the
        # class cannot be instantiated
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "is_interface", is_interface)
        object.__setattr__(self, "interfaces", interfaces)
        object.__setattr__(self, "implements_if_declared",
                           implements_if_declared)
        object.__setattr__(self, "ctor", ctor)


# --------------------------------------------------------------------------
# native evaluation
#
# ``ctx`` is the calling interpreter; it provides ``alloc_builtin(cls,
# payload)``.  Receivers of builtin classes are object records with a
# ``payload`` attribute; String receivers are plain str values.


def char_tokens(ctx, s):
    """One token object per character of ``s``; getId is the code point."""
    if not isinstance(s, str):
        raise BuiltinTrap("convertToIterator argument must be a string value")
    items = [ctx.alloc_builtin("CharToken", ord(ch)) for ch in s]
    return ctx.alloc_builtin("CharTokenIterator", {"items": items, "pos": 0})


def _iter_next(ctx, recv, args):
    p = recv.payload
    if p["pos"] >= len(p["items"]):
        raise BuiltinTrap("iterator exhausted")
    item = p["items"][p["pos"]]
    p["pos"] += 1
    return item


def _require_int(v, what):
    if not isinstance(v, int) or isinstance(v, bool):
        raise BuiltinTrap(f"{what} must be a concrete integer")
    return v


def _list_get(ctx, recv, args):
    index = _require_int(args[0], "list index")
    items = recv.payload["items"]
    if not 0 <= index < len(items):
        raise BuiltinTrap("list index out of bounds")
    return items[index]


def _sb_append(recv, text):
    if not isinstance(text, str):
        raise BuiltinTrap("append argument must be a string value")
    recv.payload["parts"].append(text)
    return recv


def _char_at(ctx, s, args):
    index = _require_int(args[0], "charAt index")
    if not 0 <= index < len(s):
        raise BuiltinTrap("charAt index out of bounds")
    return ord(s[index])


_OBJECT = T.obj(ROOT_CLASS)
_SB = T.obj("StringBuilder")

ITERATOR_METHODS = (
    BuiltinMethod("Iterator", "hasNext", (), T.BOOL,
                  lambda ctx, r, a: r.payload["pos"] < len(r.payload["items"])),
    BuiltinMethod("Iterator", "next", (), _OBJECT, _iter_next, mutates=True),
)

LIST_METHODS = (
    BuiltinMethod("List", "add", (_OBJECT,), T.BOOL,
                  lambda ctx, r, a: (r.payload["items"].append(a[0]), True)[1],
                  mutates=True),
    BuiltinMethod("List", "get", (T.INT,), _OBJECT, _list_get),
    BuiltinMethod("List", "size", (), T.INT,
                  lambda ctx, r, a: len(r.payload["items"])),
    BuiltinMethod("List", "iterator", (), T.obj("Iterator"),
                  lambda ctx, r, a: ctx.alloc_builtin(
                      "CharTokenIterator",
                      {"items": list(r.payload["items"]), "pos": 0})),
)

BUILTIN_CLASSES = (
    BuiltinClassSpec("Iterator", ITERATOR_METHODS, is_interface=True),
    BuiltinClassSpec("List", LIST_METHODS, is_interface=True),
    BuiltinClassSpec(
        "LinkedList", LIST_METHODS, interfaces=("List",),
        ctor=BuiltinMethod("LinkedList", "new", (), T.obj("LinkedList"),
                           lambda ctx, r, a: ctx.alloc_builtin(
                               "LinkedList", {"items": []}))),
    BuiltinClassSpec(
        "StringBuilder", (
            BuiltinMethod("StringBuilder", "append", (T.STR,), _SB,
                          lambda ctx, r, a: _sb_append(r, a[0]), mutates=True),
            BuiltinMethod("StringBuilder", "append", (T.INT,), _SB,
                          lambda ctx, r, a: _sb_append(
                              r, str(_require_int(a[0], "append argument"))),
                          mutates=True),
            BuiltinMethod("StringBuilder", "append", (T.CHAR,), _SB,
                          lambda ctx, r, a: _sb_append(r, chr(
                              _require_int(a[0], "append argument") & 0x10FFFF)),
                          mutates=True),
            BuiltinMethod("StringBuilder", "toString", (), T.STR,
                          lambda ctx, r, a: "".join(r.payload["parts"])),
            BuiltinMethod("StringBuilder", "length", (), T.INT,
                          lambda ctx, r, a: len("".join(r.payload["parts"]))),
        ),
        ctor=BuiltinMethod("StringBuilder", "new", (), _SB,
                           lambda ctx, r, a: ctx.alloc_builtin(
                               "StringBuilder", {"parts": []}))),
    BuiltinClassSpec("CharTokenIterator", ITERATOR_METHODS,
                     interfaces=("Iterator",)),
    BuiltinClassSpec(
        "CharToken", (
            BuiltinMethod("CharToken", "getId", (), T.INT,
                          lambda ctx, r, a: r.payload),
        ),
        implements_if_declared=("Token",)),
)

# methods on String values (String is a value type, not an object record)
STRING_METHODS = (
    BuiltinMethod("String", "length", (), T.INT, lambda ctx, r, a: len(r)),
    BuiltinMethod("String", "charAt", (T.INT,), T.CHAR, _char_at),
)

FREE_FUNCTIONS = (
    BuiltinMethod(None, "convertToIterator", (T.STR,), T.obj("Iterator"),
                  lambda ctx, r, a: char_tokens(ctx, a[0])),
)
