"""Exception hierarchy shared by all modules.

Validation errors (bad user input) derive from :class:`ValidationError`;
:class:`MismatchError` signals a failed internal certification and is never
the caller's fault.
"""


class PosetahedraError(Exception):
    """Base class for all library errors."""


class ValidationError(PosetahedraError):
    """Input violates a documented precondition."""


class SchemaError(ValidationError):
    """JSON data does not fit its shipped schema (``serialize``)."""


# -- poset construction ------------------------------------------------------

class CycleError(ValidationError):
    """Cover relations contain a directed cycle (antisymmetry violation)."""


class DisconnectedError(ValidationError):
    """The Hasse diagram is not connected."""


class TooSmallError(ValidationError):
    """Fewer than two elements."""


class NotAPartitionError(ValidationError):
    """Blocks do not partition the ground set."""


class NotATubeError(ValidationError):
    """Subset is not convex, connected and nonempty."""


class NotATubingError(ValidationError):
    """Tube family crosses or has a cyclic dependency digraph."""


class MalformedTreeError(ValidationError):
    """Plane rooted tree violates the degree or labeling conventions."""


# -- exact geometry ----------------------------------------------------------

class DegenerateError(PosetahedraError):
    """A normalization hit a zero scale factor (or a dimension check failed)."""


class NotGradedError(PosetahedraError):
    """Face lattice is not graded; f/h-vectors are undefined."""


class OriginNotInteriorError(PosetahedraError):
    """Polar duality requires the origin strictly inside the polytope."""


class NotAFaceError(ValidationError):
    """Vertex set does not span a face of the polytope."""


class EpsilonInfeasibleError(PosetahedraError):
    """No positive pull-out factor exists for a stellar subdivision."""


class MismatchError(PosetahedraError):
    """Certified geometry disagrees with the combinatorial face lattice."""


class BitBudgetError(PosetahedraError):
    """Rational coordinate sizes exceeded POSETAHEDRA_MAX_BITS."""


class ElementBudgetError(PosetahedraError):
    """The poset has more elements than tube enumeration takes."""


# -- compactification --------------------------------------------------------

class NotStrictError(ValidationError):
    """Vector is not strictly order-preserving."""


class IncoherentError(ValidationError):
    """Tuple of per-tube points violates the nested-projection condition."""


class WrongFaceError(ValidationError):
    """Supplied point does not lie in the required open face."""


class RegimeError(ValidationError):
    """Scale vector is not positive or breaks the nested-scale guard."""


class NotAdjacentError(ValidationError):
    """Tubes are not a child/parent pair in the stratum tree."""


class RangeError(ValidationError):
    """Expansion parameter outside [0, t_max)."""


class NotInCollError(ValidationError):
    """Point violates the collapse-domain separation inequalities."""


class NotExpandableError(ValidationError):
    """Iterated expansion left its domain at some step."""


class NotCollapsibleError(ValidationError):
    """Iterated collapse left its domain at some step."""


# -- affine posets -----------------------------------------------------------

class NotStronglyConnectedError(ValidationError):
    """Affine poset axioms hold but some residue is unreachable."""


class OverlapError(ValidationError):
    """Signed index sets overlap."""


class EmptyError(ValidationError):
    """Signed index sets are both empty."""
