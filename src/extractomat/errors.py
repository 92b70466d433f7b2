"""Exception types shared across the package.

Exit-code mapping used by the CLI: InvalidInputError and config-validation
failures map to 4, ConstraintViolatedError to 5, BudgetExceededError to 3,
TargetUnreachableError to 2.
"""

import operator


class InvalidInputError(ValueError):
    """An operation was called with inputs violating its preconditions."""


def _integer(v, what: str) -> int:
    """``v`` as an int if it is one of any integer type, numpy's included;
    a float, a string or None is invalid input."""
    try:
        return operator.index(v)
    except TypeError:
        raise InvalidInputError(
            f"{what} must be an integer, got {v!r}") from None


class SizeLimitError(InvalidInputError):
    """A requested outcome space exceeds the desk-scale cap (2^24 states)."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured step budget.

    Attributes
    ----------
    required : int
        Number of enumeration steps the request would have needed.
    budget : int
        The configured limit that was exceeded.
    """

    def __init__(self, required: int, budget: int, what: str = "enumeration"):
        self.required = required
        self.budget = budget
        super().__init__(
            f"{what} needs {required} steps, budget is {budget}")


class TargetUnreachableError(RuntimeError):
    """A search or certification failed to reach its target after retries."""

    def __init__(self, message: str, attempts: int = 0):
        self.attempts = attempts
        super().__init__(message)


class ConstraintViolatedError(ValueError):
    """A theorem's stated precondition does not hold for the given inputs.

    Attributes
    ----------
    violations : list of str
        Names of every violated inequality, in the order they are checked.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("constraint violated: " + "; ".join(self.violations))
