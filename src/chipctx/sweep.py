"""Phase-sweep engine: evaluates the full pipeline over a grid of phases.

A :class:`SweepSpec` holds the grid, the mode and the device.  The grid is
evaluated in blocks of ``_BLOCK`` phases.  For each block the prepared states
are built as one array, pushed through the four context circuits with one
stacked matrix product, and reduced to E and epsilon by the statistics core
of :mod:`chipctx.analysis`.  Analytic mode reports the exact probabilities;
sampled mode draws one multinomial record per (phase, context) from its own
derived seed and reduces the block's counts to E, epsilon and sigma_S with
``chipctx.sampling._count_statistics``, the one count reduction
``chipctx analyze`` also uses; the spec's shot count makes each draw a valid
record, so the draws are not checked again.  Once the grid is done, one call of
:func:`chipctx.analysis.report_table` adds S, the bound and the significance,
as it does for ``analyze``; every analytic value equals the one
:func:`report_from_probabilities` gives at that phase, bit for bit.  The
sweep CSV and the ``--emit-figure3`` CSV (the ideal curve beside the spec
device's) are written by :func:`chipctx.text.write_csv`, a block at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import CONTEXTS, PROB_SUM_TOL, ReportTable, epsilon_value, report_table, sign_sum
from .chips import DeviceConfig, context_unitaries, prepare_states
from .errors import ConsistencyError, check_instance, check_integer, check_number
from .optics import TransferMatrix, is_unitary
from .sampling import (
    BOOTSTRAP_LIMIT, SHOTS_LIMIT, _count_statistics, _renormalized, derive_seeds,
    seeded_generators,
)
from .text import write_csv

SWEEP_CSV_COLUMNS = (
    "phi", "E_XX", "E_XZ", "E_ZX", "E_ZZ", "S", "epsilon", "bound", "sigma_S", "significance",
)

FIGURE3_CSV_COLUMNS = ("phi", "S_ideal", "S_device", "epsilon_device", "bound_device")

# Grid size limit: float64 phases, and np.linspace fails just below 2**63 points.
STEPS_LIMIT = 2**60

# Phases evaluated at a time: bounds the engine's temporaries to a few hundred
# kB whatever the grid size.
_BLOCK = 1024


def _check_grid(start: float, end: float, start_name: str, end_name: str) -> None:
    """Raise a one-line ValueError naming the limits unless start < end with a finite span."""
    if not start < end:
        raise ValueError(f"{start_name} must be below {end_name}, got {start!r} >= {end!r}")
    if not math.isfinite(end - start):
        raise ValueError(f"{start_name} to {end_name} spans more than a float holds, "
                         f"got {start!r} to {end!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Grid, evaluation mode and device of one sweep; each field is checked as its CLI flag is."""

    phi_start: float
    phi_end: float
    steps: int
    mode: str = "analytic"  # or "sampled"
    shots: int = 100_000
    master_seed: int = 0
    device: DeviceConfig = field(default_factory=DeviceConfig.ideal)
    bootstrap: int | None = None

    def __post_init__(self):
        start = check_number(self.phi_start, "phi_start")
        end = check_number(self.phi_end, "phi_end")
        _check_grid(start, end, "phi_start", "phi_end")
        check_instance(self.device, DeviceConfig, "device")
        if self.mode not in ("analytic", "sampled"):
            raise ValueError(f"mode must be 'analytic' or 'sampled', got {self.mode!r}")
        checked = {"phi_start": start, "phi_end": end,
                   "steps": check_integer(self.steps, "steps", 2, STEPS_LIMIT),
                   "shots": check_integer(self.shots, "shots", 1, SHOTS_LIMIT),
                   "master_seed": check_integer(self.master_seed, "master_seed", 0)}
        if self.bootstrap is not None:
            if self.mode != "sampled":
                raise ValueError("bootstrap applies only to sampled mode")
            checked["bootstrap"] = check_integer(self.bootstrap, "bootstrap", 2, BOOTSTRAP_LIMIT)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

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
    p = _renormalized(p)
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
    unitaries = _checked_unitaries(check_instance(spec, SweepSpec, "spec").device)
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
            e[block], eps[block], sigma_s[block] = _count_statistics(
                _draw_counts(counts[block], seeds[block], start, p, spec), seeds[block],
                spec.bootstrap)
        else:
            e[block], eps[block] = sign_sum(p), epsilon_value(p)
    return replace(report_table(phi, e, eps, sigma_s), counts=counts, seeds=seeds)


def write_sweep_csv(path: str | Path, table: ReportTable) -> None:
    """Write sweep rows; the significance cell is empty when undefined."""
    write_csv(path, SWEEP_CSV_COLUMNS, [table.phi, *table.expectations.T, table.s, table.epsilon,
                                        table.bound, table.sigma_s, table.significance])


def write_figure_curves_csv(path: str | Path, spec: SweepSpec) -> None:
    """Write the ideal curve and the curve of ``spec.device`` side by side (analytic mode).

    Columns: phi, S of the ideal pipeline, S of the device pipeline, the
    device epsilon and the corrected bound 2 + epsilon.
    """
    ideal = run_sweep(replace(spec, mode="analytic", bootstrap=None, device=DeviceConfig.ideal()))
    dev = run_sweep(replace(spec, mode="analytic", bootstrap=None))
    write_csv(path, FIGURE3_CSV_COLUMNS, [ideal.phi, ideal.s, dev.s, dev.epsilon, dev.bound])
