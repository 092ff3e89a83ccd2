"""Exception hierarchy shared across the package."""


class RcfoldError(Exception):
    """Base class for all package errors."""


class AllZero(RcfoldError, ValueError):
    """Every weight in a vector to be normalized is zero."""


class SpaceMismatch(RcfoldError, ValueError):
    """Two objects that must live on the same space do not."""


class CapExceeded(RcfoldError, ValueError):
    """An exhaustive enumeration was requested above its size cap."""


class FoldingUndefined(RcfoldError):
    """A folding whose weight vector is identically zero."""


class NoCompatiblePair(RcfoldError):
    """A cluster base under which no configuration is compatible."""


class NonBinaryAlphabet(RcfoldError, ValueError):
    """A binary-only operation was applied to a non-binary space."""


class PreconditionFailed(RcfoldError):
    """A documented precondition of an operation does not hold.

    The message names the specific condition that failed.
    """


class InvalidParams(RcfoldError, ValueError):
    """Malformed parameters handed to a generator or CLI entry point."""


class InvariantViolated(RcfoldError):
    """A theorem-level self-check failed: a library bug, not an input error."""
