"""Exception hierarchy shared by the whole package."""


class PosetkitError(Exception):
    """Base class for all errors raised on purpose by this package."""


class IndexOutOfRange(PosetkitError):
    """An element id lies outside the ground set 1..n."""


class CycleDetected(PosetkitError):
    """The given relations are not acyclic, so no strict order exists."""


class PosetFormatError(PosetkitError):
    """A poset text file does not follow the expected format."""


class NotAnAntichain(PosetkitError):
    """A set expected to be pairwise incomparable contains a comparable pair."""


class NotADownset(PosetkitError):
    """A set expected to be downward closed is missing a smaller element."""


class NotALinearExtension(PosetkitError):
    """A sequence is not a linear extension of the poset at hand."""


class SeparatingExtension(PosetkitError):
    """The linear extension separates a comparable pair, so the counting
    recurrences do not apply to it."""


class NotTwoDimensional(PosetkitError):
    """The poset admits no realizer by two linear orders."""


class ContractViolation(PosetkitError):
    """An internal invariant of a computation failed; the result would be
    wrong, so none is returned."""


class CapExceeded(PosetkitError):
    """An enumeration grew past the configured cap."""


class EqualSets(PosetkitError):
    """Two sets expected to differ are equal."""


class MismatchedGroundSets(PosetkitError):
    """Two lattice extensions do not order the same collection of downsets."""
