"""Statistics core: expectations, S, epsilon, the bound and the report.

Each formula is written once over arrays whose last two axes are (context in
``CONTEXTS`` order, detector); the scalar path, the sweep, the count
estimators and the classical board all reduce their data through it.  The
sweep and ``chipctx analyze`` both report through :func:`report_table`, the
one place that turns E, epsilon and sigma_S columns into S, the bound and the
significance; :func:`build_report` is its scalar reference.

Outcome signs follow the detector formula E = p1 - p2 - p3 + p4: the product
of the two measurement outcomes is +1 on modes 1 and 4 and -1 on modes 2 and
3.  That product factorizes as letter outcome +1 on the left half (modes 1
and 2) and digit outcome +1 on the odd modes (1 and 3); any consistent
factorization leaves S and epsilon unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

CONTEXTS = ("XX", "XZ", "ZX", "ZZ")

# Input probability vectors may come from empirically normalized counts, so
# the sum check is looser than the internal 1e-12 unitarity tolerance.
PROB_SUM_TOL = 1e-9


def check_context(context: str) -> str:
    """The context tag itself; ValueError unless it is one of CONTEXTS."""
    if context not in CONTEXTS:
        raise ValueError(f"unknown context {context!r}, expected one of {CONTEXTS}")
    return context


@dataclass(frozen=True)
class ContextProbabilities:
    """Outcome probabilities of the four detectors in one context."""

    context: str
    p: tuple[float, float, float, float]

    def __post_init__(self):
        check_context(self.context)
        p = tuple(float(x) for x in self.p)
        if len(p) != 4:
            raise ValueError(f"need exactly four probabilities, got {len(p)}")
        if any(x < -PROB_SUM_TOL or x > 1.0 + PROB_SUM_TOL for x in p):
            raise ValueError(f"probabilities must lie in [0, 1], got {p!r}")
        if abs(sum(p) - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"probabilities must sum to 1 within {PROB_SUM_TOL}, got sum {sum(p)!r}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class InequalityReport:
    """One complete evaluation of the inequality.

    ``sigma_s`` is zero for analytic inputs; ``significance`` is None
    whenever ``sigma_s`` is not positive.
    """

    expectations: Mapping[str, float]
    s: float
    epsilon: float
    bound: float
    sigma_s: float = 0.0
    significance: float | None = None

    def __post_init__(self):
        for ctx, e in self.expectations.items():
            check_context(ctx)
            if abs(e) > 1.0 + PROB_SUM_TOL:
                raise ValueError(f"expectation for {ctx} out of [-1, 1]: {e!r}")
        if abs(self.s) > 4.0 + PROB_SUM_TOL:
            raise ValueError(f"|S| cannot exceed 4, got {self.s!r}")
        if self.epsilon < -PROB_SUM_TOL:
            raise ValueError(f"epsilon must be non-negative, got {self.epsilon!r}")
        if self.sigma_s < 0.0:
            raise ValueError(f"sigma_s must be non-negative, got {self.sigma_s!r}")
        object.__setattr__(self, "expectations", dict(self.expectations))

    def to_json_dict(self) -> dict:
        return {
            "expectations": {c: self.expectations[c] for c in CONTEXTS if c in self.expectations},
            "S": self.s,
            "epsilon": self.epsilon,
            "bound": self.bound,
            "sigma_S": self.sigma_s,
            "significance": self.significance,
        }


def sign_sum(x: np.ndarray) -> np.ndarray:
    """x1 - x2 - x3 + x4 over the last axis: E of probabilities, N*E of counts."""
    return x[..., 0] - x[..., 1] - x[..., 2] + x[..., 3]


def s_value(e: np.ndarray) -> np.ndarray:
    """S = E_XX + E_XZ + E_ZX - E_ZZ over the last (context) axis."""
    return e[..., 0] + e[..., 1] + e[..., 2] - e[..., 3]


def _marginals(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(letter, digit) marginals over the last (detector) axis."""
    letter = (p[..., 0] + p[..., 1]) - (p[..., 2] + p[..., 3])
    digit = (p[..., 0] + p[..., 2]) - (p[..., 1] + p[..., 3])
    return letter, digit


def epsilon_value(p: np.ndarray) -> np.ndarray:
    """Compatibility correction over (..., context, detector) probabilities.

    For each single measurement, the marginal taken in the context whose
    partner is X is compared with the one whose partner is Z; the four
    absolute differences are summed.
    """
    letter, digit = _marginals(p)
    xx, xz, zx, zz = range(4)
    return (
        np.abs(digit[..., xx] - digit[..., xz])      # digit X measurement
        + np.abs(digit[..., zx] - digit[..., zz])    # digit Z measurement
        + np.abs(letter[..., xx] - letter[..., zx])  # letter X measurement
        + np.abs(letter[..., xz] - letter[..., zz])  # letter Z measurement
    )


def corrected_bound(eps):
    """The compatibility-corrected non-contextual bound 2 + epsilon."""
    return 2.0 + eps


def significance(s, eps, sigma_s):
    """Violation z-score (s - (2 + eps)) / sigma_s, elementwise; negative: no violation."""
    sigma = np.asarray(sigma_s)
    if not ((sigma > 0.0) & np.isfinite(sigma)).all():
        raise ValueError(f"sigma_s must be positive, got {sigma_s!r}")
    return (s - corrected_bound(eps)) / sigma_s


def in_context_order(items: Iterable, what: str) -> list:
    """The items, one per ``context`` tag, in CONTEXTS order; ``what`` names them in errors."""
    seen: dict = {}
    for item in items:
        if item.context in seen:
            raise ValueError(f"duplicate {what} for context {item.context}")
        seen[item.context] = item
    missing = [c for c in CONTEXTS if c not in seen]
    if missing:
        raise ValueError(f"missing {what} for context(s) {missing}")
    return [seen[c] for c in CONTEXTS]


def build_report(e: Sequence[float], eps: float, sigma_s: float = 0.0) -> InequalityReport:
    """Report from E (CONTEXTS order), epsilon and sigma_S; significance only if sigma_S > 0."""
    e = np.asarray(e, dtype=float)
    s = float(s_value(e))
    eps, sigma_s = float(eps), float(sigma_s)
    return InequalityReport(
        expectations=dict(zip(CONTEXTS, e.tolist())), s=s, epsilon=eps,
        bound=corrected_bound(eps), sigma_s=sigma_s,
        significance=significance(s, eps, sigma_s) if sigma_s > 0.0 else None,
    )


@dataclass(frozen=True, eq=False)
class ReportTable:
    """Columnar report, one array per column in row order (a sweep's grid, or phi groups).

    ``expectations`` has one column per context in CONTEXTS order and
    ``significance`` is NaN where it is undefined (sigma_S not positive).  A
    sampled sweep also carries its counts, shaped (row, context, detector),
    and the seed of every record.
    """

    phi: np.ndarray
    expectations: np.ndarray
    s: np.ndarray
    epsilon: np.ndarray
    bound: np.ndarray
    sigma_s: np.ndarray
    significance: np.ndarray
    counts: np.ndarray | None = None
    seeds: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.phi)

    def tolist(self) -> list[tuple]:
        """(phi, E list, S, epsilon, bound, sigma_S, significance) of each row, as Python floats."""
        columns = (self.phi, self.expectations, self.s, self.epsilon, self.bound, self.sigma_s,
                   self.significance)
        return list(zip(*(column.tolist() for column in columns)))


def report_table(phi: np.ndarray, e: np.ndarray, eps: np.ndarray, sigma_s: np.ndarray,
                 counts: np.ndarray | None = None, seeds: np.ndarray | None = None) -> ReportTable:
    """The report of E (row, context), epsilon and sigma_S columns, row for row as build_report."""
    s = s_value(e)
    positive = sigma_s > 0.0
    z = np.full(len(s), np.nan)
    with np.errstate(over="ignore"):  # an overflow gives inf silently, as float division does
        z[positive] = significance(s[positive], eps[positive], sigma_s[positive])
    return ReportTable(phi, e, s, eps, corrected_bound(eps), sigma_s, z, counts, seeds)


def _probability_array(cps: Iterable[ContextProbabilities]) -> np.ndarray:
    return np.array([cp.p for cp in in_context_order(cps, "probabilities")])


def epsilon(cps: Iterable[ContextProbabilities]) -> float:
    """Compatibility correction of one probability vector per context."""
    return float(epsilon_value(_probability_array(cps)))


def report_from_probabilities(
    cps: Iterable[ContextProbabilities], sigma_s: float = 0.0
) -> InequalityReport:
    """Bundle expectations, S, epsilon, bound and significance into a report."""
    p = _probability_array(cps)
    return build_report(sign_sum(p), epsilon_value(p), sigma_s)


def assignment_values() -> np.ndarray:
    """S on all 16 deterministic +-1 assignments of (digit X, digit Z, letter X, letter Z)."""
    a = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
    digit = a[:, [0 if c[0] == "X" else 1 for c in CONTEXTS]]
    letter = a[:, [2 if c[1] == "X" else 3 for c in CONTEXTS]]
    return s_value(digit * letter)


def classical_bound_enumeration() -> float:
    """Maximum of S over every deterministic outcome assignment (equals 2)."""
    return float(np.max(assignment_values()))
