"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Operator shape is wrong (not square, not a qubit, not a two-qubit operator)."""


class ValidationError(ValueError):
    """An operator fails a structural requirement (Hermiticity, density-matrix conditions)."""


class DomainError(ValueError):
    """A mathematical domain violation (Bloch vector outside the unit ball, ...)."""


class PreparationDomainError(DomainError):
    """A reduced state is outside the domain of the requested blow-up map."""


class UnreachableStateError(PreparationDomainError):
    """The target Bloch component cannot be produced by any finite field."""

    def __init__(self, message, supremum):
        super().__init__(message)
        self.supremum = supremum


class NonInvertiblePropagatorError(ValueError):
    """The Bloch block of a reduced propagator is singular or too ill conditioned to invert."""

    def __init__(self, message, condition_number):
        super().__init__(message)
        self.condition_number = condition_number


class NonInvertibleSusceptibilityError(ValueError):
    """The response matrix is singular or too ill conditioned to invert."""

    def __init__(self, message, condition_number):
        super().__init__(message)
        self.condition_number = condition_number


class InsufficientSpanError(ValueError):
    """Too few or too degenerate samples to fit an affine map."""


class ExtrapolationWarning(UserWarning):
    """A linear-response construction was evaluated outside its trust region."""
