"""Exception types shared across the package."""

from __future__ import annotations


class ClusterEvalError(Exception):
    """Base class for every error this package raises deliberately."""


class ParseError(ClusterEvalError):
    """A clustering or report file could not be parsed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class ValidationError(ClusterEvalError):
    """An input clustering violates a structural requirement."""


class DuplicateInstance(ValidationError):
    """An instance id appears in more than one cluster of a single clustering."""

    def __init__(self, instance, first_line: int | None = None, second_line: int | None = None):
        self.instance = instance
        self.first_line = first_line
        self.second_line = second_line
        msg = f"instance {instance!r} appears in more than one cluster"
        if first_line is not None and second_line is not None:
            msg += f" (lines {first_line} and {second_line})"
        super().__init__(msg)


class EmptyClustering(ValidationError):
    """A clustering with no clusters cannot be evaluated."""


def _listed(ids: list) -> str:
    """The first five of the sorted ``ids`` as reprs, and the total when there are more."""
    shown = ", ".join(repr(x) for x in ids[:5])
    return shown if len(ids) <= 5 else f"{shown}, ... ({len(ids)} total)"


class MissingFromPredicted(ValidationError):
    """A truth instance does not occur anywhere in the predicted clustering."""

    def __init__(self, missing):
        self.missing = sorted(missing, key=str)
        super().__init__(f"truth instance(s) absent from predicted clustering: {_listed(self.missing)}")


class ExtraInPredicted(ValidationError):
    """A predicted instance does not occur in the truth clustering (strict mode)."""

    def __init__(self, extra):
        self.extra = sorted(extra, key=str)
        super().__init__(
            f"predicted instance(s) absent from truth clustering: {_listed(self.extra)} "
            "(use lenient coverage to accept them)"
        )


class PairBudgetExceeded(ClusterEvalError):
    """The brute-force oracle would visit more pairs than the configured budget.

    It counts the same-cluster instance pairs that Pairwise-F enumerates and
    the truth × predicted cluster pairs that every other measure tests.
    """

    def __init__(self, needed: int, budget: int):
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"pair enumeration needs {needed} pairs (same-cluster instance pairs and truth x predicted "
            f"cluster pairs), budget is {budget}; raise the budget or use the single-pass engine"
        )


class InfeasibleConfig(ClusterEvalError):
    """A synthetic-generation config that cannot produce a valid clustering pair."""
