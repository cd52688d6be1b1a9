"""Phase-sweep engine: evaluates the full pipeline over a grid of phases.

The grid is evaluated in blocks of ``_BLOCK`` phases.  For each block the
prepared states are built as one array, pushed through the four context
circuits with one stacked matrix product, and reduced to E and epsilon by the
statistics core of :mod:`chipctx.analysis`.  Analytic mode reports the exact
probabilities; sampled mode draws one multinomial record per (phase, context)
from its own derived seed and reduces the block's counts to E, epsilon and
sigma_S with :func:`chipctx.sampling.count_statistics`, the one count
reduction ``chipctx analyze`` also uses.  Once the grid is done, one call of
:func:`chipctx.analysis.report_table` adds S, the bound and the significance,
as it does for ``analyze``; every analytic value equals the one
:func:`report_from_probabilities` gives at that phase, bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .analysis import CONTEXTS, PROB_SUM_TOL, ReportTable, epsilon_value, report_table, sign_sum
from .chips import DeviceConfig, context_unitaries, prepare_states
from .errors import ConsistencyError
from .optics import TransferMatrix, is_unitary
from .sampling import count_statistics, derive_seeds, seeded_generators

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


def _draw_counts(counts: np.ndarray, seeds: np.ndarray, start: int, p: np.ndarray,
                 spec: SweepSpec) -> np.ndarray:
    """One multinomial record per (phase, context) of a block, each on its own derived seed.

    Fills the block's ``counts`` and ``seeds``, whose first point is grid
    point ``start``.  The seeds are ``derive_seed(master_seed, point,
    context)`` and each record's generator is ``default_rng(seed)``; the
    seeds and the generators' state words are computed for the whole block
    at once.
    """
    # the renormalization sample_counts applies to each record
    p = np.clip(p, 0.0, None)
    p = p / p.sum(axis=-1, keepdims=True)
    n_contexts = len(CONTEXTS)
    points = np.arange(start, start + len(counts), dtype=np.uint64)
    seeds[:] = derive_seeds(spec.master_seed, np.repeat(points, n_contexts),
                            np.tile(np.arange(n_contexts, dtype=np.uint64), len(points)),
                            ).reshape(seeds.shape)
    for rng, probabilities, out in zip(seeded_generators(seeds.ravel()), p.reshape(-1, 4),
                                       counts.reshape(-1, 4)):
        out[:] = rng.multinomial(spec.shots, probabilities)
    return counts


def run_sweep(spec: SweepSpec) -> ReportTable:
    """Evaluate every grid point, in grid order."""
    unitaries = _checked_unitaries(spec.device)
    stacked = np.stack([unitaries[ctx] for ctx in CONTEXTS])
    phi = spec.phis()
    e, eps = np.empty((spec.steps, len(CONTEXTS))), np.empty(spec.steps)
    sigma_s = np.zeros(spec.steps)
    counts = seeds = None
    if spec.mode == "sampled":
        counts = np.empty((spec.steps, len(CONTEXTS), 4), dtype=np.int64)
        seeds = np.empty((spec.steps, len(CONTEXTS)), dtype=np.uint64)
    for start in range(0, spec.steps, _BLOCK):
        block = slice(start, min(start + _BLOCK, spec.steps))
        p = _context_probabilities(stacked, prepare_states(spec.device.preparation, phi[block]))
        if counts is not None:
            e[block], eps[block], sigma_s[block] = count_statistics(
                _draw_counts(counts[block], seeds[block], start, p, spec), seeds[block],
                spec.bootstrap)
        else:
            e[block], eps[block] = sign_sum(p), epsilon_value(p)
    return report_table(phi, e, eps, sigma_s, counts, seeds)


def _fmt(x: float) -> str:
    return "" if math.isnan(x) else repr(x)


def _csv_rows(columns: Sequence[np.ndarray]) -> Iterator[list[str]]:
    """Format columns row by row, one block at a time; NaN cells are empty."""
    for start in range(0, len(columns[0]), _BLOCK):
        block = [col[start:start + _BLOCK].tolist() for col in columns]
        for values in zip(*block):
            yield [_fmt(x) for x in values]


def write_sweep_csv(path: str | Path, table: ReportTable) -> None:
    """Write sweep rows; the significance cell is empty when undefined."""
    columns = [table.phi, *table.expectations.T, table.s, table.epsilon, table.bound,
               table.sigma_s, table.significance]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_CSV_COLUMNS)
        writer.writerows(_csv_rows(columns))


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
