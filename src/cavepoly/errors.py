"""Exception hierarchy shared by all cavepoly modules."""


class CavepolyError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(CavepolyError):
    """Vectors or polynomials of incompatible lengths were combined."""


class EmptyInput(CavepolyError):
    """An operation requiring a nonempty set received an empty one."""


class NotMConvex(CavepolyError):
    """A point set failed homogeneity or the exchange property.

    ``witness`` is the ``(u, v, i)`` of ``is_m_convex``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class AxiomViolation(CavepolyError):
    """A candidate rank function violates one or more polymatroid axioms.

    ``violations`` lists every failure as ``(axiom, subsets)`` where
    ``axiom`` is one of ``"empty"``, ``"cage"``, ``"monotone"``,
    ``"submodular"`` and ``subsets`` is a tuple of witnessing subsets,
    each given as a sorted tuple of 1-based indices.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        parts = ["%s at %s" % (axiom, list(subs)) for axiom, subs in self.violations]
        super().__init__("rank axioms violated: " + "; ".join(parts))


class NotInIndependence(CavepolyError):
    """A truncation point lies outside the independence region."""


class NegativeExponent(CavepolyError):
    """A polynomial that must have nonnegative exponents has a negative one."""


class NotComparable(CavepolyError):
    """Interval endpoints are not componentwise comparable."""


class InternalInvariantFailure(CavepolyError):
    """A property guaranteed by the theory failed; indicates a library bug."""


class GenerationExhausted(CavepolyError):
    """Random instance generation hit the rejection limit."""


class UnknownFamily(CavepolyError):
    """Unrecognized named polymatroid family."""


class ParseError(CavepolyError):
    """Malformed instance or polynomial document."""
