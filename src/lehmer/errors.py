"""Exception hierarchy.

Every library error derives from LehmerError so callers can catch one base.
Domain errors signal invalid mathematical input, usage errors signal a call
that violates an operation's contract (wrong arity, bad option), and the
range-exhausted error signals a scan whose certified window could not be
used; it carries whatever partial results were gathered.
"""

from __future__ import annotations


class LehmerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LehmerError, ValueError):
    """Input outside the mathematical domain (negative value, non-finite p, ...)."""


class InvalidSpecError(DomainError):
    """No usable values remain after construction filtering."""


class NoInflectionError(DomainError):
    """The mean is constant, so its second derivative has no sign change."""


class DegenerateError(DomainError):
    """A closed form is undefined for these inputs (e.g. equal pair values)."""


class UsageError(LehmerError, ValueError):
    """Operation called outside its contract (wrong n, bad order, bad flag)."""


class RangeExhaustedError(LehmerError, RuntimeError):
    """A scan window end lies past the half-width cap (1e6), or doubles
    cannot certify it (values a few ulps apart).

    The ``report`` attribute holds an InflectionReport with whatever roots
    a budget-limited pass over [-1e6, 1e6] found, and a warning that names
    the reason; ``report`` may be None when nothing was scanned at all.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
