"""Exception types shared across the toolkit."""


class BoundaryKitError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateTuple(BoundaryKitError):
    """Two points of a tuple coincide within the distinctness tolerance."""


class DegenerateArguments(BoundaryKitError):
    """Scalar arguments hit (or produce) an excluded value such as 0, 1 or infinity."""


class SingularMatrix(BoundaryKitError):
    """A matrix that must be invertible is numerically singular."""


class MixedModels(BoundaryKitError):
    """Points from incompatible boundary models were combined."""


class SignatureError(BoundaryKitError):
    """A restricted bilinear form does not have the expected signature."""


class NotOpposite(BoundaryKitError):
    """A pair of flags required to be opposite is not."""


class NotGeneric(BoundaryKitError):
    """A tuple required to be generic fails a transversality condition."""


class ArityTooLarge(BoundaryKitError):
    """Cochain arity exceeds the factorial-cost guard."""


class SamplerExhausted(BoundaryKitError):
    """Rejection sampling exceeded its draw budget."""


class UnboundedDefect(BoundaryKitError):
    """The empirical defect exceeded the blowup threshold; no certificate issued."""


class IterationOverflow(BoundaryKitError):
    """The squaring iteration exceeded its safety cap."""


class MissingAlternation(BoundaryKitError):
    """A symmetry extension was requested without declaring alternating provenance."""


class UnknownInvariant(BoundaryKitError):
    """An invariant name is not defined for the requested model."""


class EvaluationError(BoundaryKitError):
    """A user-supplied evaluator failed on a point of its stated domain."""


class UnencodableReport(BoundaryKitError, ValueError):
    """A report holds a value its format cannot represent, such as NaN in JSON."""
