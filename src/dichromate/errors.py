"""Shared exception types."""

from __future__ import annotations


class PreconditionViolation(ValueError):
    """A structural precondition does not hold (e.g. strong connectivity)."""


class OracleUnavailable(Exception):
    """A mu oracle cannot answer for the queried vertex set."""

    def __init__(self, subset, oracle_name: str):
        self.subset = frozenset(subset)
        self.oracle_name = oracle_name
        super().__init__(f"oracle {oracle_name!r} has no value for {sorted(self.subset)}")


class MuBoundExceeded(Exception):
    """Exact solving was abandoned: the value is provably above the caller's limit.

    Carries the lower bound that proved it: the limit plus one, or the size
    of a digon clique when that is larger.
    """

    def __init__(self, lower_bound: int):
        super().__init__(f"mu is at least {lower_bound}")
        self.lower_bound = lower_bound


class ConstructionFailed(Exception):
    """A constructive stage could not complete on the given input.

    ``stage`` names the failing step and ``message`` says what went wrong;
    ``step`` and ``depth`` locate it in the gadget iteration and the peel
    order when applicable.  A pipeline sets those two on a caught failure and
    re-raises it; the text is built from all four when it is shown.
    """

    def __init__(self, stage: str, message: str = "", step: int | None = None,
                 depth: int | None = None):
        self.stage = stage
        self.message = message
        self.step = step
        self.depth = depth

    def __str__(self) -> str:
        where = self.stage
        if self.step is not None:
            where += f" (step {self.step})"
        if self.depth is not None:
            where += f" (depth {self.depth})"
        return f"{where}: {self.message}" if self.message else where


class ParseError(ValueError):
    """Malformed instance, pattern, or witness text."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")
