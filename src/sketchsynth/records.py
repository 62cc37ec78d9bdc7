"""Bases for the plain record classes of the syntax tree, the IR, the
tables and the engine.

A record's fields are its instance attributes, in the order its
``__init__`` assigns them; the tree walkers read them with ``vars()``.
"""


class Record:
    """The repr lists every field not named in ``_hidden``; two records of
    the same class are equal when all their fields are, and a record is
    unhashable.  A ``Frozen`` record defines its own ``==`` and hash."""

    _hidden = ()
    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items()
                           if k not in self._hidden)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)


class Frozen:
    """No field is set or deleted after ``__init__``, which assigns them
    with ``object.__setattr__``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
