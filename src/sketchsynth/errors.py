"""Error types raised across the pipeline.

Every rejected input is one :class:`SketchError`, whichever stage rejects
it: the CLI reports each the same way, exit 2 with its message and, when
the error is about a place in the input, its span as ``file:line:col``.
Two subclasses stay apart because code tells them apart:
:class:`EncodingError`, which the engine catches to leave the depths past
the switch to one vector at a time, and :class:`InternalError`, a fault
of the tool rather than of its input, which exits 4.
"""

from __future__ import annotations

import time


class SketchError(Exception):
    """An input the tool rejects, at ``span`` (None: at no one place)."""

    def __init__(self, message, span=None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self):
        if self.span is not None:
            return f"{self.span}: {self.message}"
        return self.message


class EncodingError(SketchError):
    """The symbolic encoder met a construct outside the supported fragment."""


class InternalError(SketchError):
    """Invariant violation inside the tool itself; maps to exit code 4."""


class DeadlineExceeded(Exception):
    """The search's wall-clock deadline has passed; ``engine.solve`` reports
    it as a ``Timeout`` verdict."""


def check_deadline(deadline):
    """Raises ``DeadlineExceeded`` once ``time.monotonic()`` is past
    ``deadline`` (None: no deadline).  A clock read costs about as much as
    a few dozen bytecodes, so each caller reads it once per batch of its
    own work."""
    if deadline is not None and time.monotonic() > deadline:
        raise DeadlineExceeded()
