"""Base for the plain record classes of the syntax tree, the IR, the
tables and the engine.

A record's fields are its instance attributes, in the order its
``__init__`` assigns them; the tree walkers read them with ``vars()``.
"""


class Record:
    """``_hidden`` names the fields derived from the others.  The repr
    lists every other field; two records of the same class are equal when
    all their other fields are, and a record is unhashable."""

    _hidden = ()
    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items()
                           if k not in self._hidden)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        theirs = vars(other)
        return all(theirs[k] == v for k, v in vars(self).items()
                   if k not in self._hidden)
