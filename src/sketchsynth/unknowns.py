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

from dataclasses import dataclass, field
from typing import Optional

HOLE = "hole"
CHOICE = "choice"
REPEAT = "repeat"


@dataclass(eq=False)
class UnknownId:
    """One unknown; identity is equality.  The fields after ``owner`` are
    left out of the repr, which ``--emit-ir`` prints."""
    kind: str          # hole | choice | repeat
    ordinal: int       # dense per kind, starting at 1
    name: str          # e_h1 / e_c1 / e_r1
    owner: str         # "Class.member" of the site that declares it
    # the enclosing minrepeat's record, for a template
    template_of: Optional[UnknownId] = field(default=None, repr=False)
    arity: int = field(default=1, repr=False)         # choice alternatives
    is_bool: bool = field(default=False, repr=False)  # hole; set by lowering

    def __str__(self):
        return self.name

    @property
    def bit_width(self):
        """Bits of the solver variable that selects a choice's
        alternative."""
        return max(1, (self.arity - 1).bit_length())

    def instance_name(self, iteration=None):
        return self.name if iteration is None else f"{self.name}_{iteration}"


@dataclass(frozen=True)
class UnknownInstance:
    """A solver variable: an unknown at a concrete iteration."""
    unknown: UnknownId
    name: str                # e_h3 or e_h3_2


@dataclass
class UnknownRegistry:
    holes: list = field(default_factory=list)
    choices: list = field(default_factory=list)
    repeats: list = field(default_factory=list)

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
