"""Exception hierarchy shared across the package."""


class QazbError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(QazbError, ValueError):
    """A parameter violates a precondition (bad q, odd grid size, ...)."""


class DomainError(QazbError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class DimensionError(QazbError, ValueError):
    """Operand shapes are incompatible."""


class KernelConditionError(QazbError, ValueError):
    """An operator required to be injective has (numerical) kernel."""


class ExtractionError(QazbError, RuntimeError):
    """Representation decomposition failed (non-lattice data, degeneracy)."""


class AmbiguityError(QazbError, RuntimeError):
    """Two candidates fit the data equally well; result would be arbitrary."""
