"""Native models of the small library surface the subject language needs.

Each library method and constructor is one :class:`BuiltinMethod` record:
its name, parameter and return tags, whether it mutates its receiver or is
static, and the Python function that runs it.  Only the class table reads
this module's tables: it makes each record a method of its class.  The
library is the root class ``Object``, Iterator, List/LinkedList,
StringBuilder and String; ``Object``'s constructor does nothing, and its
one static method is the string-to-token bridge ``convertToIterator``,
which every class inherits.  The records name library classes by their
simple names, and so does the code here; the class table keeps every
library class beside a program's own class of its name and maps each
simple name to the class's name in the program, which the tags and
``ctx.alloc_builtin`` go through.  Library
calls are run natively by the interpreter and consume no unknowns.  A
constructor fills the payload of the record that ``new`` allocated.
Out-of-bounds access and iterator overrun raise :class:`BuiltinTrap`,
which the interpreter turns into candidate rejection.
"""

from __future__ import annotations

from collections import namedtuple

from . import typetags as T
from .errors import EncodingError

ROOT_CLASS = "Object"


class BuiltinTrap(Exception):
    """Abnormal builtin outcome; rejects the current candidate."""

    def __init__(self, reason):
        super().__init__(reason)
        self.reason = reason


class BuiltinMethod(namedtuple(
        "BuiltinMethod", "owner name param_tags ret run mutates is_static",
        defaults=(False, False))):
    """One library method or constructor.  owner: the declaring class;
    param_tags and ret: TypeTags; run: (ctx, receiver, args) -> value,
    where ctx allocates, a constructor's receiver is the new record and a
    static method's is None; mutates: changes its receiver or consumes an
    iterator."""

    __slots__ = ()

    def __repr__(self):
        return repr(self.name if self.is_static
                    else f"{self.owner}.{self.name}")


class BuiltinClassSpec(namedtuple(
        "BuiltinClassSpec",
        "name methods is_interface interfaces ctor",
        defaults=((), False, (), None))):
    """One library class.  name: its qualified name, which no program class
    can take, and which the class goes by where a program class takes its
    simple name, the part after the last dot; ctor: a
    BuiltinMethod, or None when the class cannot be instantiated."""

    __slots__ = ()


# --------------------------------------------------------------------------
# native evaluation
#
# ``ctx`` is the calling interpreter; it provides ``alloc_builtin(cls,
# payload)``, a record of the library class of simple name ``cls``.
# Values of library classes are object records with a ``payload``
# attribute; a String's payload is its text.  Int and char arguments
# arrive as Python ints.


def char_tokens(ctx, s):
    """One token object per character of ``s``; getId is the code point."""
    items = [ctx.alloc_builtin("CharToken", ord(ch)) for ch in s]
    return ctx.alloc_builtin("CharTokenIterator", {"items": items, "pos": 0})


def _iter_next(ctx, recv, args):
    p = recv.payload
    if p["pos"] >= len(p["items"]):
        raise BuiltinTrap("iterator exhausted")
    item = p["items"][p["pos"]]
    p["pos"] += 1
    return item


def _text(s):
    """The text of String argument ``s``; null traps.  Object tags are
    mutually compatible, so the type check lets a record of another class
    through, where Java would call its ``toString``: unsupported, and the
    interpreter reports it at the call."""
    if s is None:
        raise BuiltinTrap("String argument is null")
    if type(s.payload) is not str:
        raise EncodingError(f"an object of class '{s.class_name}' passed as "
                            "a java.lang.String is not supported")
    return s.payload


def _list_get(ctx, recv, args):
    index, items = args[0], recv.payload["items"]
    if not 0 <= index < len(items):
        raise BuiltinTrap("list index out of bounds")
    return items[index]


def _sb_append(recv, text):
    recv.payload["parts"].append(text)
    return recv


def _char_at(ctx, s, args):
    index, text = args[0], s.payload
    if not 0 <= index < len(text):
        raise BuiltinTrap("charAt index out of bounds")
    return ord(text[index])


# the root class's tag; a library method only stores an argument of this
# type, so that argument may be a case split over references
OBJECT = T.obj(ROOT_CLASS)
_SB = T.obj("StringBuilder")

ITERATOR_METHODS = (
    BuiltinMethod("Iterator", "hasNext", (), T.BOOL,
                  lambda ctx, r, a: r.payload["pos"] < len(r.payload["items"])),
    BuiltinMethod("Iterator", "next", (), OBJECT, _iter_next, mutates=True),
)

LIST_METHODS = (
    BuiltinMethod("List", "add", (OBJECT,), T.BOOL,
                  lambda ctx, r, a: (r.payload["items"].append(a[0]), True)[1],
                  mutates=True),
    BuiltinMethod("List", "get", (T.INT,), OBJECT, _list_get),
    BuiltinMethod("List", "size", (), T.INT,
                  lambda ctx, r, a: len(r.payload["items"])),
    BuiltinMethod("List", "iterator", (), T.obj("Iterator"),
                  lambda ctx, r, a: ctx.alloc_builtin(
                      "CharTokenIterator",
                      {"items": list(r.payload["items"]), "pos": 0})),
)

BUILTIN_CLASSES = (
    # the root class, the superclass of every class that names none
    BuiltinClassSpec(
        "java.lang.Object", (
            BuiltinMethod(ROOT_CLASS, "convertToIterator", (T.STR,),
                          T.obj("Iterator"),
                          lambda ctx, r, a: char_tokens(ctx, _text(a[0])),
                          is_static=True),
        ),
        ctor=BuiltinMethod(ROOT_CLASS, "new", (), OBJECT,
                           lambda ctx, r, a: None)),
    BuiltinClassSpec("java.util.Iterator", ITERATOR_METHODS,
                     is_interface=True),
    BuiltinClassSpec("java.util.List", LIST_METHODS, is_interface=True),
    BuiltinClassSpec(
        "java.util.LinkedList", LIST_METHODS, interfaces=("List",),
        ctor=BuiltinMethod("LinkedList", "new", (), T.obj("LinkedList"),
                           lambda ctx, r, a: setattr(r, "payload",
                                                     {"items": []}))),
    BuiltinClassSpec(
        "java.lang.StringBuilder", (
            # Java appends a null String as "null"
            BuiltinMethod("StringBuilder", "append", (T.STR,), _SB,
                          lambda ctx, r, a: _sb_append(
                              r, "null" if a[0] is None else _text(a[0])),
                          mutates=True),
            BuiltinMethod("StringBuilder", "append", (T.INT,), _SB,
                          lambda ctx, r, a: _sb_append(r, str(a[0])),
                          mutates=True),
            BuiltinMethod("StringBuilder", "append", (T.CHAR,), _SB,
                          lambda ctx, r, a: _sb_append(r, chr(a[0] & 0x10FFFF)),
                          mutates=True),
            BuiltinMethod("StringBuilder", "toString", (), T.STR,
                          lambda ctx, r, a: ctx.alloc_builtin(
                              "String", "".join(r.payload["parts"]))),
            BuiltinMethod("StringBuilder", "length", (), T.INT,
                          lambda ctx, r, a: len("".join(r.payload["parts"]))),
        ),
        ctor=BuiltinMethod("StringBuilder", "new", (), _SB,
                           lambda ctx, r, a: setattr(r, "payload",
                                                     {"parts": []}))),
    BuiltinClassSpec("sketchsynth.CharTokenIterator", ITERATOR_METHODS,
                     interfaces=("Iterator",)),
    BuiltinClassSpec(
        "sketchsynth.CharToken", (
            BuiltinMethod("CharToken", "getId", (), T.INT,
                          lambda ctx, r, a: r.payload),
        )),
    BuiltinClassSpec(
        "java.lang.String", (
            BuiltinMethod("String", "length", (), T.INT,
                          lambda ctx, r, a: len(r.payload)),
            BuiltinMethod("String", "charAt", (T.INT,), T.CHAR, _char_at),
        )),
)
