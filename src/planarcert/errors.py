"""Exception types shared across the package, and the step budget whose
exhaustion raises SearchBudgetExceeded."""

from __future__ import annotations


class CapacityError(ValueError):
    """A requested enumeration or campaign exceeds the supported size."""


class SearchBudgetExceeded(RuntimeError):
    """A search ran out of its node budget before finishing.

    Distinct from a negative answer: the search was cut off, not exhausted.
    """


class StepBudget:
    """A count of search steps that several searches can draw on together;
    a limit of None never runs out."""

    __slots__ = ("remaining",)

    def __init__(self, limit: int | None) -> None:
        self.remaining = limit

    def tick(self) -> None:
        if self.remaining is None:
            return
        self.remaining -= 1
        if self.remaining < 0:
            raise SearchBudgetExceeded("search budget exhausted")

    def spend(self, steps: int) -> None:
        """Charge `steps` steps at once: what as many ticks would charge,
        raising iff the last of them would."""
        if self.remaining is None:
            return
        self.remaining -= steps
        if self.remaining < 0:
            raise SearchBudgetExceeded("search budget exhausted")


class InternalInconsistencyError(RuntimeError):
    """An invariant of the decision failed: two routes that must agree
    produced different answers, or a certificate or face count came out
    malformed."""
