"""Exception types shared across the library."""


class WForestError(Exception):
    """Base class for all validation errors raised by this package."""


class InvariantViolation(WForestError):
    """An internal consistency check failed; indicates a bug, not bad input."""


# input documents

class MalformedDocument(WForestError):
    """A graph, weight, fixed-edge or manifest JSON document has the wrong shape."""


class InputDrift(WForestError):
    """An input file changed since the manifest recorded its hash."""


class UsageError(WForestError):
    """The command line does not parse."""


# graph construction / queries

class SelfLoop(WForestError):
    pass


class DanglingEndpoint(WForestError):
    pass


class DuplicateVertexId(WForestError):
    pass


class DuplicateEdge(WForestError):
    pass


class UnknownId(WForestError):
    pass


class NotConnected(WForestError):
    pass


# weights

class NonPositiveWeight(WForestError):
    pass


class MissingVertex(WForestError):
    pass


class InvalidCocycle(WForestError):
    pass


class CrossComponent(WForestError):
    pass


# forest

class FixedSetCyclic(WForestError):
    pass


class NotCycleInvariant(WForestError):
    pass


# ends / quotient

class OverlappingBlocks(WForestError):
    pass


# percolation

class BadProbability(WForestError):
    pass


class NotAutomorphism(WForestError):
    pass


class NotWeightPreserving(WForestError):
    pass


# generators

class BadParams(WForestError):
    pass
