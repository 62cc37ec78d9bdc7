"""Identifiers and registry for every unknown in a sketch.

Holes are named ``e_h<n>``, expression-generator choices ``e_c<n>`` and
minrepeat counts ``e_r<n>``, with ordinals dense per kind.  Unknowns inside a
minrepeat body are *templates*: they are instantiated once per unrolled
iteration, the instance of template ``e_h3`` at iteration ``i`` being named
``e_h3_<i>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

HOLE = "hole"
CHOICE = "choice"
REPEAT = "repeat"


@dataclass(frozen=True)
class UnknownId:
    kind: str          # hole | choice | repeat
    ordinal: int       # dense per kind, starting at 1
    name: str          # e_h1 / e_c1 / e_r1
    owner: str         # "Class.member" of the site that declares it

    def __str__(self):
        return self.name


@dataclass
class HoleInfo:
    uid: UnknownId
    is_bool: bool = False             # set during lowering from context
    template_of: Optional[UnknownId] = None


@dataclass
class ChoiceInfo:
    uid: UnknownId
    arity: int = 1
    template_of: Optional[UnknownId] = None

    @property
    def bit_width(self):
        """Bits of the solver variable that selects an alternative."""
        return max(1, (self.arity - 1).bit_length())


@dataclass
class RepeatInfo:
    uid: UnknownId


@dataclass(frozen=True)
class UnknownInstance:
    """A solver variable: a registry entry at a concrete iteration."""
    info: object             # HoleInfo | ChoiceInfo
    name: str                # e_h3 or e_h3_2
    iteration: Optional[int] = None

    @property
    def uid(self):
        return self.info.uid


@dataclass
class UnknownRegistry:
    holes: list = field(default_factory=list)
    choices: list = field(default_factory=list)
    repeats: list = field(default_factory=list)

    def __len__(self):
        return len(self.holes) + len(self.choices) + len(self.repeats)

    def hole_info(self, uid):
        return self._find(self.holes, uid)

    def choice_info(self, uid):
        return self._find(self.choices, uid)

    @staticmethod
    def _find(entries, uid):
        for e in entries:
            if e.uid == uid:
                return e
        raise KeyError(uid)

    @staticmethod
    def instance_name(uid, iteration=None):
        return uid.name if iteration is None else f"{uid.name}_{iteration}"

    def instantiate(self, repeat_counts):
        """Expand templates for the given ``{repeat name: count}`` vector.

        Returns (hole_instances, choice_instances) in registry order with
        template entries expanded per iteration in place.
        """
        hole_insts = []
        choice_insts = []
        for entries, out in ((self.holes, hole_insts), (self.choices, choice_insts)):
            for info in entries:
                if info.template_of is None:
                    out.append(UnknownInstance(info, info.uid.name))
                else:
                    count = repeat_counts[info.template_of.name]
                    for i in range(count):
                        out.append(UnknownInstance(info, self.instance_name(info.uid, i), i))
        return hole_insts, choice_insts
