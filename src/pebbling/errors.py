"""Exception types shared across the package."""


class PebblingError(Exception):
    """Base class for every error raised by this package."""


class GraphError(PebblingError, ValueError):
    """Invalid graph construction or family parameters."""


class SelfLoopError(GraphError):
    pass


class DuplicateEdgeError(GraphError):
    pass


class DisconnectedError(GraphError):
    pass


class RootOutOfRangeError(GraphError):
    pass


class UnknownFamilyError(GraphError):
    pass


class BadParameterError(GraphError):
    pass


class GraphMismatchError(PebblingError, ValueError):
    """An object bound to one graph was used with another."""


class MoveError(PebblingError, ValueError):
    pass


class NotAdjacentError(MoveError):
    pass


class InsufficientPebblesError(MoveError):
    pass


class ResourceLimitError(PebblingError, RuntimeError):
    """A configured node or size cap was exceeded; not a verdict.

    ``pi_lower`` is set when the cap stopped a down-set build: that many
    levels were complete, so the rooted pebbling number is at least it.
    """

    pi_lower: int | None = None


class InternalError(PebblingError, RuntimeError):
    """A result failed its own re-check: a fault in this package, not a verdict."""


class NotATreeError(PebblingError, ValueError):
    """Positive-weight support plus the root does not induce a tree."""


class WeightNotPositiveError(PebblingError, ValueError):
    """A validity check requires every non-root weight to be positive."""


class CertificateError(PebblingError, ValueError):
    pass


class UncertifiedComponentError(CertificateError):
    pass


class UncertifiedWeightError(CertificateError):
    pass


class NegativeCoefficientError(CertificateError):
    pass


class UncoveredVertexError(CertificateError):
    """Some non-root vertex received zero total weight in a combination."""


class BadEmbeddingError(CertificateError):
    pass


class LpError(PebblingError, ValueError):
    pass


class DimensionMismatchError(LpError):
    pass


class EmptyStrategySetError(LpError):
    pass


class UnboundedCoverageError(LpError):
    """Some variable appears in no constraint, so the program is unbounded."""


class FormatError(PebblingError, ValueError):
    pass


class ParseError(FormatError):
    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class VersionMismatchError(FormatError):
    pass
