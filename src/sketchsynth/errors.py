"""Error types raised across the pipeline.

Every user-facing error carries a source span when one is available so the
CLI can print ``file:line:col`` diagnostics.
"""

from __future__ import annotations

import time


class SketchError(Exception):
    """Base class for all tool errors."""

    def __init__(self, message, span=None):
        super().__init__(message)
        self.message = message
        self.span = span

    def __str__(self):
        if self.span is not None:
            return f"{self.span}: {self.message}"
        return self.message


class LexError(SketchError):
    pass


class ParseError(SketchError):
    def __init__(self, span, expected, found, message=None):
        super().__init__(message or f"expected {expected}, found {found}", span)
        self.expected = expected
        self.found = found


class DuplicateTypeError(SketchError):
    def __init__(self, name, span1, span2):
        super().__init__(f"duplicate top-level type '{name}' (first at {span1})", span2)
        self.name = name
        self.span1 = span1
        self.span2 = span2


class DirectGeneratorUseError(SketchError):
    pass


class UnresolvedTypeError(SketchError):
    pass


class InheritanceCycleError(SketchError):
    pass


class SignatureClashError(SketchError):
    pass


class TypeLoweringError(SketchError):
    pass


class HarnessShapeError(SketchError):
    """Harness is not static/void/parameterless."""


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
