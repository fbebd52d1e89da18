"""Domain errors shared across the package.

Every error subclasses :class:`DomainError`, which the CLI catches: it
prints ``<ClassName>: <message>`` on one line and exits with code 2. A
message quotes at most 20 characters of an input and names every number by
:func:`_size`, so it stays short whatever the interpreter's limit on int to str.
"""

from __future__ import annotations

from collections.abc import Callable

_EXCERPT = 20  # characters of an input quoted in a diagnostic


def _excerpt(text: str, show: Callable[[str], str] = str) -> str:
    """``show(text)``; past 20 characters, ``show`` of the first 20 and the length."""
    if len(text) <= _EXCERPT:
        return show(text)
    return f"{show(text[:_EXCERPT])}... ({len(text)} characters)"


def _size(size: int | None, exponent: int = 0) -> str:
    """A number as a diagnostic names it: decimal below 10^20, else ``at least 2^k``, k its bit length less one;
    a negative one by its sign and the name of its absolute value, and ``None``, a count never computed, as
    ``more than 2^`` and the name of ``exponent``."""
    if size is None or size < 0:
        name = _size(exponent if size is None else -size)
        name = name if name.isdigit() else f"({name})"
        return f"more than 2^{name}" if size is None else f"-{name}"
    return str(size) if size < 10**_EXCERPT else f"at least 2^{size.bit_length() - 1}"


class DomainError(Exception):
    """Base of every domain error; each also keeps a builtin base."""


class OutOfRange(DomainError, ValueError):
    """A rational argument lies outside the unit interval [0, 1]."""


class DisjointnessViolation(DomainError, ValueError):
    """Strict disjoint union received sets that share labels."""

    def __init__(self, common: tuple[str, ...]):
        self.common = tuple(common)
        super().__init__(f"sets share labels: {_excerpt(', '.join(self.common))}")


class DomainViolation(DomainError, ValueError):
    """A stream was passed to a map whose domain excludes it."""


class ParseError(DomainError, ValueError):
    """Malformed literal. ``position`` is the offset of the failure."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at position {position})")


class BudgetExceeded(DomainError, RuntimeError):
    """An enumeration would exceed the configured item budget."""
