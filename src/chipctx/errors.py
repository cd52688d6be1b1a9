"""Exception types, and the one rule for a real and for an integer parameter.

Every door, a CLI flag or an API argument, checks a real parameter with
:func:`check_number` and an integer one with :func:`check_integer`, so a flag
and the argument it feeds accept the same values.  Each raises a one-line
ValueError naming the parameter, never a TypeError or an OverflowError.
"""

import math
import numbers


def check_number(value, name: str, low: float = -math.inf, high: float = math.inf) -> float:
    """A real number that is not a bool (numpy scalars included) as a float in [low, high]."""
    number = value
    if type(value) is not float:  # the common case skips the abstract-class check
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise ValueError(f"{name} must lie in the float range, got a larger integer") from None
    if not (math.isfinite(number) and low <= number <= high):
        if high < math.inf:
            limit = f"in [{low:g}, {high:g}]"
        else:
            limit = {-math.inf: "finite", 0.0: "finite and non-negative"}.get(
                low, f"finite and at least {low:g}")
        raise ValueError(f"{name} must be {limit}, got {value!r}")
    return number


def check_integer(value, name: str, low: float = -math.inf, below: float = math.inf) -> int:
    """An integer that is not a bool (numpy integers included) as an int in [low, below)."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < low:
        limit = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {limit}, got {value}")
    if value >= below:
        raise ValueError(f"{name} must be below {below}, got {value}")
    return value


class CalibrationError(RuntimeError):
    """Phase calibration did not reach the requested residual.

    Attributes:
        residual: Best residual achieved before giving up.
        starts: Number of starting points tried.
        evaluations: Number of residual evaluations made.
    """

    def __init__(self, message: str, residual: float, *, starts: int, evaluations: int):
        super().__init__(f"{message} (residual={residual:.3e}) "
                         f"after {starts} starts and {evaluations} evaluations")
        self.residual = float(residual)
        self.starts = starts
        self.evaluations = evaluations


class ConsistencyError(RuntimeError):
    """An internally assembled quantity violated one of its invariants.

    Raised for defects in assembled circuits (for example a non-unitary
    context matrix), never for bad user input.
    """
