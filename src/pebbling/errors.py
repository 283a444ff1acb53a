"""Exception types shared across the package.

A class exists only when some caller handles it differently from its
base, or when it carries data; every other failure raises the kept class
whose meaning it has, with its own message. ``pebble`` maps
ResourceLimitError to exit 3, InternalError to exit 4 and every other
PebblingError to exit 2.
"""


class PebblingError(Exception):
    """Base class for every error raised by this package."""


class BadParameterError(PebblingError, ValueError):
    """Invalid graph, family parameters, embedding or other argument."""


class MoveError(PebblingError, ValueError):
    """A pebbling move between non-adjacent vertices or from fewer than 2 pebbles.

    ``index`` is the illegal move's place in the moves applied, 0 for one.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class ResourceLimitError(PebblingError, RuntimeError):
    """A configured node or size cap was exceeded, or memory ran out or an
    interrupt came during a down-set build; not a verdict.

    ``pi_lower`` is set when it stopped a down-set build: that many
    levels were complete, so the rooted pebbling number is at least it.
    """

    pi_lower: int | None = None


class InternalError(PebblingError, RuntimeError):
    """A result failed its own re-check: a fault in this package, not a verdict."""


class NotATreeError(PebblingError, ValueError):
    """Positive-weight support plus the root does not induce a tree."""


class WeightNotPositiveError(PebblingError, ValueError):
    """weight_function_bound met a non-root vertex of zero weight; such a
    function still bounds as a row of the strategy LP."""


class UncertifiedWeightError(PebblingError, ValueError):
    """A weight function or component lacks a certificate, or fails its check."""


class LpError(PebblingError, ValueError):
    """A malformed linear program or strategy set."""


class ParseError(PebblingError, ValueError):
    """A malformed text file; the message starts with the offending line."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
