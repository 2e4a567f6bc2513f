"""Exception types shared across the package."""


class TreemorseError(Exception):
    """Base class for every error raised by this package."""


class NotConnectedError(TreemorseError):
    """The edge set does not connect the declared vertices."""


class CycleDetectedError(TreemorseError):
    """The edge set contains a cycle."""


class LoopEdgeError(TreemorseError):
    """An edge joins a vertex to itself."""


class MultiEdgeError(TreemorseError):
    """The same endpoint pair appears more than once."""


class UnknownVertexError(TreemorseError):
    """A vertex name was used without being declared."""


class MalformedVertexError(TreemorseError, ValueError):
    """The vertices are not iterable, or a vertex name cannot be hashed or is not a str."""


class MalformedEdgeError(TreemorseError, ValueError):
    """An edge item does not unpack into two vertex names, or the edges are not iterable."""


class MorseValidationError(TreemorseError):
    """A value assignment violates the discrete Morse conditions."""


class MissingValueError(MorseValidationError):
    """A simplex has no value, or a value names an unknown simplex."""


class NotWeaklyIncreasingError(MorseValidationError):
    """An edge carries a smaller value than one of its endpoints."""


class ValueSharedByNonIncidentError(MorseValidationError):
    """Two simplices share a value but neither is a face of the other."""


class MoreThanTwoShareValueError(MorseValidationError):
    """Three or more simplices share a value."""


class NotFiniteRealError(MorseValidationError):
    """A value is a boolean, a non-number, NaN or an infinity rather than a finite real."""


class UnprintableValueError(TreemorseError, ValueError):
    """A value has more digits than sys.get_int_max_str_digits() lets Python print."""


class DomainMismatchError(TreemorseError):
    """A comparison that needs a common tree got two different ones."""


class NotThinError(TreemorseError):
    """The merge tree does not have exactly one impasse."""


class MalformedSequenceError(TreemorseError):
    """An LR string contains characters other than L and R."""


class MalformedMergeTreeError(TreemorseError, ValueError):
    """A shape code is not a str or is malformed, or a merge tree's values do not match its node count."""


class NonPositiveSizeError(TreemorseError, ValueError):
    """A count that must be a positive integer, such as a star's edge count, is not."""


class BudgetExceededError(TreemorseError):
    """The tree is too large for exhaustive enumeration."""


class ParseError(TreemorseError):
    """An input document is not well-formed."""
