"""Exception types shared across the package."""


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
