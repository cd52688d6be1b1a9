"""Exception types, and the one rule for each kind of parameter.

Every door, a CLI flag or an API argument, checks a real parameter with
:func:`check_number` and an integer one with :func:`check_integer`, so a flag
and the argument it feeds accept the same values.  A vector of a fixed
length, such as four probabilities or a mode pair, is checked by
:func:`check_vector`, each entry by one of those two rules, and any other
collection of items by :func:`check_iterable`.  Each raises a one-line
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


def check_vector(value, length: int, name: str, check, *limits) -> tuple:
    """A list, tuple or 1-d array of ``length`` entries, each checked by ``check``.

    ``check`` is a scalar rule, :func:`check_number` or :func:`check_integer`,
    called with ``limits``; the checked entries are returned as a tuple.
    """
    if hasattr(value, "tolist"):  # a numpy array: a 0-d one becomes a scalar, a 2-d one lists
        value = value.tolist()
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list of {length} entries, got {value!r}")
    if len(value) != length:
        raise ValueError(f"{name} must have {length} entries, got {len(value)}")
    entry = f"{name} entry"
    return tuple([check(x, entry, *limits) for x in value])


def check_iterable(value, name: str):
    """An iterator over ``value``; a one-line ValueError naming it if it is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise ValueError(f"{name} must be iterable, got {value!r}") from None


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
