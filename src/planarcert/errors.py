"""Exception types shared across the package."""


class CapacityError(ValueError):
    """A requested enumeration or campaign exceeds the supported size."""


class SearchBudgetExceeded(RuntimeError):
    """A search ran out of its node budget before finishing.

    Distinct from a negative answer: the search was cut off, not exhausted.
    """


class InternalInconsistencyError(RuntimeError):
    """An invariant of the decision failed: two routes that must agree
    produced different answers, or a certificate or face count came out
    malformed."""
