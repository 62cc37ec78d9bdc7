"""Base for the plain record classes of the syntax tree, the IR, the
tables and the engine.

A record's fields are its instance attributes, in the order its
``__init__`` assigns them; the tree walkers read them with ``vars()``.
"""


class Record:
    """``_hidden`` names the fields derived from the others; the repr
    lists every other field."""

    _hidden = ()

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items()
                           if k not in self._hidden)
        return f"{type(self).__qualname__}({fields})"
