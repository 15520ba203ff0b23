"""Exception types shared across the package."""


class CapacityError(ValueError):
    """A requested enumeration or campaign exceeds the supported size."""


class SearchBudgetExceeded(RuntimeError):
    """A search ran out of its node budget before finishing.

    Distinct from a negative answer: the search was cut off, not exhausted.
    """


class InternalInconsistencyError(RuntimeError):
    """Two decision routes that must agree produced different answers."""
