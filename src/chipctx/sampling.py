"""Heralded-count statistics: multinomial sampling, estimators, CSV records.

Randomness comes from numpy's PCG64 generator (``np.random.default_rng``).
Substreams for a (sweep point, context) pair are derived by seeding a
``SeedSequence`` with the tuple (master_seed, point_index, context_index) and
collapsing it to a 64-bit child seed, so the drawn counts never depend on
evaluation order or on how a sweep is split into blocks.  The child seed is
stored in each record, which makes any record reproducible in isolation.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .analysis import (
    PROB_SUM_TOL, InequalityReport, build_report, check_context, epsilon_value, in_context_order,
    s_value, sign_sum,
)

COUNTS_CSV_COLUMNS = ("phi", "context", "n1", "n2", "n3", "n4", "N", "seed")

DEFAULT_BOOTSTRAP_REPLICATES = 1000


@dataclass(frozen=True)
class CountRecord:
    """Detector counts for one context at one sweep point."""

    context: str
    counts: tuple[int, int, int, int]
    total: int
    seed: int

    def __post_init__(self):
        check_context(self.context)
        counts, total, seed = tuple(int(n) for n in self.counts), int(self.total), int(self.seed)
        if len(counts) != 4 or any(n < 0 for n in counts):
            raise ValueError(f"counts must be four non-negative integers, got {self.counts!r}")
        if sum(counts) != total:
            raise ValueError(f"counts sum {sum(counts)} != total {total}")
        if total >= 2**63:  # the estimators count in int64
            raise ValueError(f"total must be below 2**63, got {total}")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "seed", seed)

    def fractions(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / float(self.total)


@dataclass(frozen=True)
class EstimatedExpectation:
    """Point estimate of a +-1 observable with its standard error."""

    value: float
    sigma: float


def derive_seed(master_seed: int, *key: int) -> int:
    """Collapse (master_seed, *key) to a reproducible 64-bit child seed."""
    ss = np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def _check_probabilities(probabilities: Sequence[float]) -> np.ndarray:
    p = np.asarray(probabilities, dtype=float)
    if p.shape != (4,):
        raise ValueError(f"need exactly four probabilities, got shape {p.shape}")
    if np.any(p < -PROB_SUM_TOL) or abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"invalid probability vector {probabilities!r}")
    # renormalize away the tolerance slack so multinomial sampling is exact
    p = np.clip(p, 0.0, None)
    return p / p.sum()


def sample_counts(
    probabilities: Sequence[float], n_events: int, seed: int, context: str = "ZZ"
) -> CountRecord:
    """Draw one multinomial sample of detector counts.

    Deterministic for fixed (probabilities, n_events, seed).
    """
    if n_events < 1:
        raise ValueError(f"need at least one event, got {n_events}")
    p = _check_probabilities(probabilities)
    rng = np.random.default_rng(int(seed))
    counts = rng.multinomial(int(n_events), p)
    return CountRecord(context=context, counts=tuple(int(c) for c in counts),
                       total=int(n_events), seed=int(seed))


def expectation_estimates(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E = (n1 - n2 - n3 + n4)/N over the last axis of counts, and its standard error.

    The observable takes values +-1, so Var = (1 - E^2)/N exactly.
    """
    total = counts.sum(axis=-1)
    if (total < 1).any():
        raise ValueError("record holds no events")
    e = sign_sum(counts) / total
    return e, np.sqrt(np.maximum(1.0 - e * e, 0.0) / total)


def propagated_sigma_s(sigma: np.ndarray) -> np.ndarray:
    """sigma_S = sqrt(sum sigma_i^2) over the last (context) axis."""
    # np.float_power squares with the C pow, as the pinned outputs were computed;
    # np.square can differ from it in the last ulp
    return np.sqrt(np.float_power(sigma, 2.0).sum(axis=-1))


def _count_array(records: Iterable[CountRecord]) -> tuple[list[CountRecord], np.ndarray]:
    """The records in context order and their counts shaped (context, detector)."""
    ordered = in_context_order(records, "record")
    return ordered, np.array([rec.counts for rec in ordered], dtype=np.int64)


def estimate_expectation(record: CountRecord) -> EstimatedExpectation:
    """Estimate (n1 - n2 - n3 + n4)/N and its multinomial standard error."""
    value, sigma = expectation_estimates(np.array(record.counts, dtype=np.int64))
    return EstimatedExpectation(value=float(value), sigma=float(sigma))


def estimate_s(
    records: Iterable[CountRecord],
    *,
    bootstrap: int | None = None,
    bootstrap_seed: int | None = None,
) -> tuple[float, float]:
    """Estimate S and sigma_S from one count record per context.

    The default uncertainty is analytic propagation over independent
    contexts, sigma_S = sqrt(sum sigma_i^2).  With ``bootstrap=B`` each
    context is resampled B times from its empirical fractions and the
    standard deviation of the replicated S is reported instead; the
    replicate stream is seeded from the records' own seeds unless
    ``bootstrap_seed`` is given.
    """
    ordered, counts = _count_array(records)
    e, sigma = expectation_estimates(counts)
    return float(s_value(e)), _sigma_s(ordered, sigma, bootstrap, bootstrap_seed)


def _sigma_s(ordered: list[CountRecord], sigma: np.ndarray, bootstrap: int | None,
             bootstrap_seed: int | None) -> float:
    """Propagated sigma_S, or the bootstrap one when ``bootstrap`` is given."""
    if bootstrap is None:
        return float(propagated_sigma_s(sigma))
    if bootstrap < 2:
        raise ValueError(f"bootstrap needs at least 2 replicates, got {bootstrap}")
    if bootstrap_seed is None:
        bootstrap_seed = derive_seed(*(rec.seed for rec in ordered))
    rng = np.random.default_rng(int(bootstrap_seed))
    replicated = np.stack([sign_sum(rng.multinomial(rec.total, rec.fractions(), size=bootstrap))
                           / rec.total for rec in ordered], axis=-1)
    return float(np.std(s_value(replicated), ddof=1))


def report_from_counts(
    records: Iterable[CountRecord], bootstrap: int | None = None
) -> InequalityReport:
    """The inequality report of one count record per context; sigma_S as in estimate_s."""
    ordered, counts = _count_array(records)
    e, sigma = expectation_estimates(counts)
    eps = epsilon_value(counts / counts.sum(axis=-1, keepdims=True))
    return build_report(e, eps, _sigma_s(ordered, sigma, bootstrap, None))


# --- CSV serialization -------------------------------------------------------


def write_counts_csv(path: str | Path, rows: Iterable[tuple[float, CountRecord]]) -> None:
    """Write (phi, record) rows in the fixed column layout, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COUNTS_CSV_COLUMNS)
        for phi, rec in rows:
            writer.writerow([repr(float(phi)), rec.context, *rec.counts, rec.total, rec.seed])


def read_counts_csv(path: str | Path) -> list[tuple[float, CountRecord]]:
    """Read count records written by :func:`write_counts_csv`."""
    rows: list[tuple[float, CountRecord]] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != COUNTS_CSV_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(COUNTS_CSV_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(COUNTS_CSV_COLUMNS):
                raise ValueError(f"{path}:{lineno}: expected {len(COUNTS_CSV_COLUMNS)} fields")
            try:
                phi = float(row[0])
                if not math.isfinite(phi):
                    raise ValueError(f"phi must be finite, got {row[0].strip()!r}")
                rec = CountRecord(
                    context=row[1].strip(),
                    counts=tuple(int(x) for x in row[2:6]),
                    total=int(row[6]),
                    seed=int(row[7]),
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            rows.append((phi, rec))
    return rows
