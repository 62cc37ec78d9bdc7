"""Closed set of type tags used by the class table, lowering and interpreter."""

from __future__ import annotations

from collections import namedtuple


class TypeTag(namedtuple("TypeTag", "kind cls", defaults=(None,))):
    """``kind`` is int, boolean, char, void, null or obj; ``cls``
    names the class or interface of an obj tag and is None otherwise."""

    __slots__ = ()

    def __str__(self):
        return self.cls if self.kind == "obj" else self.kind

    @property
    def is_numeric(self):
        return self.kind in ("int", "char")

    @property
    def is_object(self):
        return self.kind in ("obj", "null")


def obj(cls_name):
    return TypeTag("obj", cls_name)


INT = TypeTag("int")
BOOL = TypeTag("boolean")
CHAR = TypeTag("char")
STR = obj("String")
VOID = TypeTag("void")
NULL = TypeTag("null")


# payload of each kind's default; the others (obj, null, void) default to None
_DEFAULTS = {"int": 0, "char": 0, "boolean": False}


def default(tag):
    """The value a slot of type ``tag`` holds before its first write, as
    the payload of an IR ``Const``."""
    return _DEFAULTS.get(tag.kind)


def compatible(arg, param):
    """Assignment compatibility of an argument tag to a parameter tag.

    Object types are mutually compatible: object identity distinctions are
    collapsed by the uniform object record, so only the coarse kind matters.
    int and char interconvert.
    """
    if arg == param:
        return True
    if arg.is_numeric and param.is_numeric:
        return True
    if arg.is_object and param.is_object:
        return True
    return False
