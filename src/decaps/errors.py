"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for all decaps errors."""


class NodeOutOfRange(GraphError):
    pass


class SelfLoop(GraphError):
    pass


class DuplicateEdge(GraphError):
    pass


class EdgeAbsent(GraphError):
    pass


class EdgePresent(GraphError):
    pass


class NonIncreasingWeight(GraphError):
    pass


class InvalidEpsilon(GraphError):
    pass


class InvalidParameters(GraphError):
    pass


class InvalidRange(GraphError):
    pass


class OrderViolation(GraphError):
    """A non-insert event preceded an insert event inside one batch."""


class UnknownEdge(GraphError):
    pass


class UnknownCenter(GraphError):
    pass


class InvariantViolation(GraphError):
    """An internal invariant of a data structure does not hold."""


class RateViolation(GraphError):
    """More than one open/move for a center between consecutive deletions."""


class InvalidPhaseLength(GraphError):
    pass


class ShapeMismatch(GraphError):
    pass


class TooLarge(GraphError):
    pass


class ConfigInvalid(GraphError):
    pass


class AuditFailure(GraphError):
    """An audit found a violated invariant.

    Carries a replay bundle (dict) so the failing step can be reproduced
    with one command.
    """

    def __init__(self, message, bundle=None):
        super().__init__(message)
        self.bundle = bundle or {}
