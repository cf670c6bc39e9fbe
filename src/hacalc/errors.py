"""Exception types shared across the package."""


class HacalcError(Exception):
    """Base class for all package-specific errors."""


class WrongDegree(HacalcError):
    """A form of unexpected degree was passed."""


class DomainError(HacalcError):
    """The input lies outside the domain of the requested routine."""


class NotCommutative(DomainError):
    """A commutative presentation was required."""


class Unstable(HacalcError):
    """Truncated homology dimensions did not agree across windows."""


class BadReduction(DomainError):
    """The plane curve is not smooth modulo the chosen prime."""


class InvalidConnection(DomainError):
    """The given connection data is inconsistent with the relations."""


class NotApproxIdempotent(DomainError):
    """The input matrix is not idempotent modulo p."""


class Mismatch(HacalcError):
    """Two independent computations of the same invariant disagree."""
