"""Built-in models of the small library surface the subject language needs.

The catalog covers Iterator, List/LinkedList, String, StringBuilder and the
string-to-token bridge ``convertToIterator``; entries are evaluated natively
by the interpreter and never consume unknowns.  Out-of-bounds access and
iterator overrun raise :class:`BuiltinTrap`, which the interpreter turns into
candidate rejection.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import typetags as T

ROOT_CLASS = "Object"


class BuiltinTrap(Exception):
    """Abnormal builtin outcome; rejects the current candidate."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class BuiltinMethodSpec:
    name: str
    params: tuple        # TypeTags
    ret: object          # TypeTag
    key: str             # catalog key


@dataclass
class BuiltinClassSpec:
    name: str
    is_interface: bool = False
    superclass: str = None
    interfaces: tuple = ()
    methods: tuple = ()
    # interfaces attached only when the user program declares them
    implements_if_declared: tuple = ()
    constructible: bool = True


def _m(name, params, ret, key):
    return BuiltinMethodSpec(name, tuple(params), ret, key)


BUILTIN_CLASSES = (
    BuiltinClassSpec(
        "Iterator", is_interface=True,
        methods=(
            _m("hasNext", [], T.BOOL, "Iterator.hasNext"),
            _m("next", [], T.obj(ROOT_CLASS), "Iterator.next"),
        )),
    BuiltinClassSpec(
        "List", is_interface=True,
        methods=(
            _m("add", [T.obj(ROOT_CLASS)], T.BOOL, "List.add"),
            _m("get", [T.INT], T.obj(ROOT_CLASS), "List.get"),
            _m("size", [], T.INT, "List.size"),
            _m("iterator", [], T.obj("Iterator"), "List.iterator"),
        )),
    BuiltinClassSpec(
        "LinkedList", interfaces=("List",),
        methods=(
            _m("add", [T.obj(ROOT_CLASS)], T.BOOL, "List.add"),
            _m("get", [T.INT], T.obj(ROOT_CLASS), "List.get"),
            _m("size", [], T.INT, "List.size"),
            _m("iterator", [], T.obj("Iterator"), "List.iterator"),
        )),
    BuiltinClassSpec(
        "StringBuilder",
        methods=(
            _m("append", [T.STR], T.obj("StringBuilder"), "StringBuilder.appendStr"),
            _m("append", [T.INT], T.obj("StringBuilder"), "StringBuilder.appendInt"),
            _m("append", [T.CHAR], T.obj("StringBuilder"), "StringBuilder.appendChar"),
            _m("toString", [], T.STR, "StringBuilder.toString"),
            _m("length", [], T.INT, "StringBuilder.length"),
        )),
    BuiltinClassSpec(
        "CharTokenIterator", interfaces=("Iterator",), constructible=False,
        methods=(
            _m("hasNext", [], T.BOOL, "Iterator.hasNext"),
            _m("next", [], T.obj(ROOT_CLASS), "Iterator.next"),
        )),
    BuiltinClassSpec(
        "CharToken", constructible=False,
        implements_if_declared=("Token",),
        methods=(
            _m("getId", [], T.INT, "CharToken.getId"),
        )),
)

# constructors, keyed by class name
BUILTIN_CTORS = {
    "LinkedList": "LinkedList.new",
    "StringBuilder": "StringBuilder.new",
}

# methods on String values (String is a value type, not an object record)
STRING_METHODS = {
    "length": _m("length", [], T.INT, "String.length"),
    "charAt": _m("charAt", [T.INT], T.CHAR, "String.charAt"),
}

# free functions
FREE_FUNCTIONS = {
    "convertToIterator": _m("convertToIterator", [T.STR], T.obj("Iterator"),
                            "convertToIterator"),
}


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


def _iter_has_next(ctx, recv, args):
    p = recv.payload
    return p["pos"] < len(p["items"])


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


CATALOG = {
    "Iterator.hasNext": _iter_has_next,
    "Iterator.next": _iter_next,
    "List.add": lambda ctx, r, a: (r.payload["items"].append(a[0]), True)[1],
    "List.size": lambda ctx, r, a: len(r.payload["items"]),
    "List.get": lambda ctx, r, a: _list_get(r, a[0]),
    "List.iterator": lambda ctx, r, a: ctx.alloc_builtin(
        "CharTokenIterator", {"items": list(r.payload["items"]), "pos": 0}),
    "LinkedList.new": lambda ctx, r, a: ctx.alloc_builtin("LinkedList", {"items": []}),
    "StringBuilder.new": lambda ctx, r, a: ctx.alloc_builtin("StringBuilder", {"parts": []}),
    "StringBuilder.appendStr": lambda ctx, r, a: _sb_append(r, a[0]),
    "StringBuilder.appendInt": lambda ctx, r, a: _sb_append(r, str(_require_int(a[0], "append argument"))),
    "StringBuilder.appendChar": lambda ctx, r, a: _sb_append(r, chr(_require_int(a[0], "append argument") & 0x10FFFF)),
    "StringBuilder.toString": lambda ctx, r, a: "".join(r.payload["parts"]),
    "StringBuilder.length": lambda ctx, r, a: len("".join(r.payload["parts"])),
    "String.length": lambda ctx, r, a: len(r),
    "String.charAt": lambda ctx, r, a: _char_at(r, a[0]),
    "CharToken.getId": lambda ctx, r, a: r.payload,
    "convertToIterator": lambda ctx, r, a: char_tokens(ctx, a[0]),
}


def _list_get(recv, index):
    index = _require_int(index, "list index")
    items = recv.payload["items"]
    if not 0 <= index < len(items):
        raise BuiltinTrap("list index out of bounds")
    return items[index]


def _sb_append(recv, text):
    if not isinstance(text, str):
        raise BuiltinTrap("append argument must be a string value")
    recv.payload["parts"].append(text)
    return recv


def _char_at(s, index):
    index = _require_int(index, "charAt index")
    if not 0 <= index < len(s):
        raise BuiltinTrap("charAt index out of bounds")
    return ord(s[index])


def builtin_eval(key, ctx, receiver, args):
    """Evaluate one catalog entry; raises KeyError for unknown keys."""
    return CATALOG[key](ctx, receiver, args)
