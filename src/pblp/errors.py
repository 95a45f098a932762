"""Exception hierarchy shared across the package.

Everything raised deliberately derives from PblpError so CLI code can map
failures to exit codes in one place.
"""


class PblpError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PblpError):
    """Problem text or a rational token could not be parsed."""


class NotRational(PblpError):
    """A row entry to scale to integers is neither an int nor a Fraction."""


class DimensionMismatch(PblpError):
    """Declared dimensions disagree with the data that follows them."""


class BadCase(PblpError):
    """Case tag is neither 1 nor 2."""


class NegativeParameter(PblpError):
    """A parameter value that must be nonnegative was negative."""


class InfeasibleProblem(PblpError):
    """The feasible set is empty."""


class UnboundedScalarization(PblpError):
    """A weighted-sum scalarization is unbounded below, so the
    decomposition is undefined."""


class EmptyComponent(PblpError):
    """A weight-set component turned out empty; the image it came from is
    not extreme nondominated."""


class DegenerateOperands(PblpError):
    """Two polygons to intersect are both points or segments, so
    neither one's edges bound the region to clip the other by."""


class NoFiniteVertex(PblpError):
    """Every vertex of the component maps to an infinite or undefined
    parameter value, so no finite interval bound exists."""


class TooLarge(PblpError):
    """A size limit was passed: the vertex oracle would hold more rays
    than its budget allows, or an exact result has more digits than
    Python converts to text (sys.get_int_max_str_digits)."""


class SystemMismatch(PblpError):
    """An LP was solved on a FeasibleSystem built from other constraints,
    or priced on a face, which keeps no column off the face."""


class InvariantViolation(PblpError):
    """A result the theory rules out: phase one unbounded, a tiling that
    admits a known image again, an interval end outside its range.  It
    signals a defect in this package, not in the input."""
