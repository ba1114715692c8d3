"""Exception hierarchy for the :mod:`repro` library.

All library errors derive from :class:`ReproError` so callers can catch
everything the library raises with a single ``except`` clause while
still being able to distinguish model problems from algorithmic
failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` library."""


class ConfigError(ReproError, ValueError):
    """A configuration value is invalid.

    Examples: an unknown strategy name, a malformed ``SA@k`` portfolio
    variant, a ``jobs`` value other than 1.  Also a :class:`ValueError`,
    so callers that catch the built-in keep working.
    """


class InvalidModelError(ReproError):
    """An application or architecture model violates a structural rule.

    Examples: a process graph with a cycle, a deadline larger than the
    period, a process with an empty set of allowed nodes, a message
    whose endpoints belong to different process graphs.
    """


class MappingError(ReproError):
    """A mapping is structurally invalid or cannot be constructed.

    Examples: a process mapped to a node not in its allowed set, a
    strategy that cannot find any valid mapping for the current
    application (requirement (a) of the paper is unsatisfiable).
    """


class SchedulingError(ReproError):
    """A schedule could not be constructed or violates its constraints.

    Examples: a deadline miss during static cyclic scheduling, a
    message that does not fit in any TDMA slot occurrence before its
    deadline, an attempt to place a process on top of a frozen
    reservation.
    """
