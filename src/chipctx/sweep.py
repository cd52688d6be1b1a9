"""Phase-sweep engine: evaluates the full pipeline over a grid of phases.

The grid is evaluated in blocks of ``_BLOCK`` phases.  For each block the
prepared states are built as one array, pushed through the four context
circuits with one stacked matrix product, and reduced to E, S, epsilon, the
bound and the significance by the statistics core of :mod:`chipctx.analysis`
and the count estimators of :mod:`chipctx.sampling`.  Analytic mode reports
the exact probabilities; sampled mode draws one multinomial record per
(phase, context) from its own derived seed and reports estimates with
uncertainties.  Results fill preallocated per-grid columns in grid order;
every value equals the one the scalar path (:func:`report_from_probabilities`,
:func:`report_from_counts`) gives at that phase, bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .analysis import (
    CONTEXTS, PROB_SUM_TOL, InequalityReport, build_report, corrected_bound, epsilon_value,
    s_value, sign_sum, significance,
)
from .chips import DeviceConfig, context_unitaries, prepare_states
from .errors import ConsistencyError
from .optics import TransferMatrix, is_unitary
from .sampling import (
    CountRecord, derive_seed, estimate_s, expectation_estimates, propagated_sigma_s,
)

SWEEP_CSV_COLUMNS = (
    "phi", "E_XX", "E_XZ", "E_ZX", "E_ZZ", "S", "epsilon", "bound", "sigma_S", "significance",
)

FIGURE3_CSV_COLUMNS = ("phi", "S_ideal", "S_device", "epsilon_device", "bound_device")

# Phases evaluated at a time: bounds the engine's temporaries to a few hundred
# kB whatever the grid size.
_BLOCK = 1024


@dataclass(frozen=True)
class SweepSpec:
    """Grid and evaluation mode of one sweep."""

    phi_start: float
    phi_end: float
    steps: int
    mode: str = "analytic"  # or "sampled"
    shots: int = 100_000
    master_seed: int = 0
    device: DeviceConfig = field(default_factory=DeviceConfig.ideal)
    bootstrap: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.phi_start) and math.isfinite(self.phi_end)):
            raise ValueError("phase limits must be finite")
        if not self.phi_start < self.phi_end:
            raise ValueError(f"phi_start must be below phi_end, got {self.phi_start} >= {self.phi_end}")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
        if self.mode not in ("analytic", "sampled"):
            raise ValueError(f"mode must be 'analytic' or 'sampled', got {self.mode!r}")
        if self.shots < 1:
            raise ValueError(f"shots must be positive, got {self.shots}")

    def phis(self) -> np.ndarray:
        return np.linspace(self.phi_start, self.phi_end, self.steps)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated sweep point, with the sampled counts when present."""

    phi: float
    report: InequalityReport
    counts: tuple[CountRecord, ...] | None = None


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Columnar result of a sweep, one array per output column in grid order.

    ``expectations`` has one column per context in CONTEXTS order and
    ``significance`` is NaN where it is undefined (sigma_S = 0).  A sampled
    sweep also carries its counts, shaped (steps, context, detector), and the
    seed of every record.  Indexing and iterating yield :class:`SweepRow`
    objects, built on demand.
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

    @classmethod
    def allocate(cls, phis: np.ndarray, sampled: bool) -> "SweepTable":
        n = len(phis)
        return cls(
            phi=phis,
            expectations=np.empty((n, len(CONTEXTS))),
            s=np.empty(n), epsilon=np.empty(n), bound=np.empty(n),
            sigma_s=np.zeros(n), significance=np.full(n, np.nan),
            counts=np.empty((n, len(CONTEXTS), 4), dtype=np.int64) if sampled else None,
            seeds=np.empty((n, len(CONTEXTS)), dtype=np.uint64) if sampled else None,
        )

    def __len__(self) -> int:
        return len(self.phi)

    def __iter__(self) -> Iterator[SweepRow]:
        return (self[i] for i in range(len(self)))

    def record(self, i: int, c: int) -> CountRecord:
        """Count record of grid point ``i`` and context index ``c``."""
        counts = self.counts[i, c].tolist()
        return CountRecord(context=CONTEXTS[c], counts=tuple(counts), total=sum(counts),
                           seed=int(self.seeds[i, c]))

    def __getitem__(self, i: int) -> SweepRow:
        report = build_report(self.expectations[i], self.epsilon[i], self.sigma_s[i])
        counts = None
        if self.counts is not None:
            counts = tuple(self.record(i, c) for c in range(len(CONTEXTS)))
        return SweepRow(phi=float(self.phi[i]), report=report, counts=counts)


def _checked_unitaries(device: DeviceConfig) -> dict[str, TransferMatrix]:
    unitaries = context_unitaries(device)
    for ctx, u in unitaries.items():
        if not is_unitary(u):
            raise ConsistencyError(f"assembled circuit for context {ctx} is not unitary")
    return unitaries


def _context_probabilities(unitaries: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Outcome probabilities shaped (phase, context, detector).

    One matrix-vector product per (phase, context), as in
    :func:`outcome_probabilities`; an einsum would differ in the last ulp.
    """
    amps = (unitaries @ states[:, None, :, None])[..., 0]
    p = np.abs(amps) ** 2
    if np.any(np.abs(p.sum(axis=-1) - 1.0) > PROB_SUM_TOL):
        raise ConsistencyError("context outcome probabilities do not sum to 1")
    return p


def _draw_counts(table: SweepTable, block: slice, p: np.ndarray, spec: SweepSpec) -> np.ndarray:
    """One multinomial record per (phase, context), each on its own derived seed."""
    # the renormalization sample_counts applies to each record
    p = np.clip(p, 0.0, None)
    p = p / p.sum(axis=-1, keepdims=True)
    counts, seeds = table.counts[block], table.seeds[block]
    for i, point in enumerate(range(block.start, block.stop)):
        for c in range(len(CONTEXTS)):
            seed = derive_seed(spec.master_seed, point, c)
            counts[i, c] = np.random.default_rng(seed).multinomial(spec.shots, p[i, c])
            seeds[i, c] = seed
    return counts


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate every grid point, in grid order."""
    unitaries = _checked_unitaries(spec.device)
    stacked = np.stack([unitaries[ctx] for ctx in CONTEXTS])
    sampled = spec.mode == "sampled"
    table = SweepTable.allocate(spec.phis(), sampled)
    for start in range(0, spec.steps, _BLOCK):
        block = slice(start, min(start + _BLOCK, spec.steps))
        states = prepare_states(spec.device.preparation, table.phi[block])
        p = _context_probabilities(stacked, states)
        if sampled:
            counts = _draw_counts(table, block, p, spec)
            e, sigma = expectation_estimates(counts)
            table.sigma_s[block] = propagated_sigma_s(sigma)
            if spec.bootstrap is not None:
                for i in range(block.start, block.stop):
                    records = [table.record(i, c) for c in range(len(CONTEXTS))]
                    table.sigma_s[i] = estimate_s(records, bootstrap=spec.bootstrap)[1]
            p = counts / float(spec.shots)
        else:
            e = sign_sum(p)
        table.expectations[block] = e
        table.s[block] = s_value(e)
        table.epsilon[block] = epsilon_value(p)
    table.bound[:] = corrected_bound(table.epsilon)
    positive = table.sigma_s > 0.0
    table.significance[positive] = significance(
        table.s[positive], table.epsilon[positive], table.sigma_s[positive]
    )
    return table


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else repr(x)


def _csv_rows(columns: Sequence[np.ndarray]) -> Iterator[list[str]]:
    """Format columns row by row, one block at a time; NaN cells are empty."""
    for start in range(0, len(columns[0]), _BLOCK):
        block = [col[start:start + _BLOCK].tolist() for col in columns]
        for values in zip(*block):
            yield [_fmt(x) for x in values]


def write_sweep_csv(path: str | Path, table: SweepTable) -> None:
    """Write sweep rows; the significance cell is empty when undefined."""
    columns = [table.phi, *table.expectations.T, table.s, table.epsilon, table.bound,
               table.sigma_s, table.significance]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_CSV_COLUMNS)
        writer.writerows(_csv_rows(columns))


def counts_rows(table: SweepTable) -> list[tuple[float, CountRecord]]:
    """Flatten a sampled sweep into (phi, record) pairs for the counts CSV."""
    if table.counts is None:
        return []
    return [(phi, table.record(i, c))
            for i, phi in enumerate(table.phi.tolist()) for c in range(len(CONTEXTS))]


def write_figure_curves_csv(
    path: str | Path, spec: SweepSpec, device: DeviceConfig
) -> None:
    """Write the ideal curve and a device curve side by side (analytic mode).

    Columns: phi, S of the ideal pipeline, S of the device pipeline, the
    device epsilon and the corrected bound 2 + epsilon.
    """
    ideal = run_sweep(replace(spec, mode="analytic", device=DeviceConfig.ideal()))
    dev = run_sweep(replace(spec, mode="analytic", device=device))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(FIGURE3_CSV_COLUMNS)
        writer.writerows(_csv_rows([ideal.phi, ideal.s, dev.s, dev.epsilon, dev.bound]))
