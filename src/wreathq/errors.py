"""Exception types shared across the package."""


class WreathqError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(WreathqError):
    """Malformed input: bad scalar syntax, bad JSON layout, bad shapes."""


class OrderMismatchError(WreathqError):
    """Two scalars (or matrices) from different cyclotomic fields were mixed."""


class EdgeLoopError(WreathqError):
    """An operation that requires a loop-free vertex was given a vertex with an edge-loop."""


class NotInSpanError(WreathqError):
    """A vector expected to lie in the span of a basis does not."""


class ResourceLimitError(WreathqError):
    """A request exceeds the built-in desk-scale resource caps."""
