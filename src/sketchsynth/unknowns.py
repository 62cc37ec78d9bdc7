"""The record of every unknown in a sketch, and the registry that lists them.

Holes are named ``e_h<n>``, expression-generator choices ``e_c<n>`` and
minrepeat counts ``e_r<n>``, with ordinals dense per kind.  The desugarer
creates one :class:`UnknownId` per unknown and appends it to the registry;
the ``Hole``/``Choice``/``MinRepeat`` nodes, the IR nodes and the registry
all hold that same object, so no layer looks an unknown up.  Unknowns inside
a minrepeat body are *templates*: they are instantiated once per unrolled
iteration, the instance of template ``e_h3`` at iteration ``i`` being named
``e_h3_<i>``.
"""

from __future__ import annotations

from collections import namedtuple

from .records import Record

HOLE = "hole"
CHOICE = "choice"
REPEAT = "repeat"


class UnknownId:
    """One unknown; identity is equality.  The fields after ``owner`` are
    left out of the repr, which ``--emit-ir`` prints."""

    def __init__(self, kind, ordinal, name, owner, template_of=None, arity=1,
                 is_bool=False):
        self.kind = kind          # hole | choice | repeat
        self.ordinal = ordinal    # dense per kind, starting at 1
        self.name = name          # e_h1 / e_c1 / e_r1
        self.owner = owner        # "Class.member" of the site that declares it
        # the enclosing minrepeat's record, for a template
        self.template_of = template_of
        self.arity = arity        # choice alternatives
        self.is_bool = is_bool    # hole; set by lowering

    def __repr__(self):
        return (f"UnknownId(kind={self.kind!r}, ordinal={self.ordinal!r}, "
                f"name={self.name!r}, owner={self.owner!r})")

    def __str__(self):
        return self.name

    @property
    def bit_width(self):
        """Bits of the solver variable that selects a choice's
        alternative."""
        return max(1, (self.arity - 1).bit_length())

    def instance_name(self, iteration=None):
        return self.name if iteration is None else f"{self.name}_{iteration}"


class UnknownInstance(namedtuple("UnknownInstance", "unknown name")):
    """A solver variable: an unknown (an UnknownId) at a concrete
    iteration, and its name (``e_h3`` or ``e_h3_2``)."""

    __slots__ = ()


class UnknownRegistry(Record):
    def __init__(self, holes=None, choices=None, repeats=None):
        self.holes = [] if holes is None else holes
        self.choices = [] if choices is None else choices
        self.repeats = [] if repeats is None else repeats

    def instantiate(self, repeat_counts):
        """Expand templates for the given ``{repeat name: count}`` vector.

        Returns (hole_instances, choice_instances) in registry order with
        template entries expanded per iteration in place.
        """
        hole_insts = []
        choice_insts = []
        for entries, out in ((self.holes, hole_insts), (self.choices, choice_insts)):
            for u in entries:
                if u.template_of is None:
                    out.append(UnknownInstance(u, u.name))
                else:
                    count = repeat_counts[u.template_of.name]
                    for i in range(count):
                        out.append(UnknownInstance(u, u.instance_name(i)))
        return hole_insts, choice_insts
