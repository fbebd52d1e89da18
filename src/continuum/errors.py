"""Domain errors shared across the package.

Every error subclasses :class:`DomainError`, which the CLI catches: it
prints ``<ClassName>: <message>`` on one line and exits with code 2.
"""

from __future__ import annotations

from typing import Callable

_EXCERPT = 20  # characters of an input quoted in a diagnostic


def _excerpt(text: str, show: Callable[[str], str] = str) -> str:
    """``show(text)``; past 20 characters, ``show`` of the first 20 and the length."""
    if len(text) <= _EXCERPT:
        return show(text)
    return f"{show(text[:_EXCERPT])}... ({len(text)} characters)"


def _quantity(count: int | None, exponent: int) -> str:
    """``count`` in decimal if given and str() may write it, else ``more than 2^exponent``."""
    if count is not None:
        try:
            return str(count)
        except ValueError:  # more decimal digits than str() may write
            pass
    return f"more than 2^{exponent}"


def _size(size: int) -> str:
    """``size`` in decimal up to 20 digits, else ``at least 2^k`` with k its bit length less one."""
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
