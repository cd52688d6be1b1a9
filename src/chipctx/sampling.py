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

from .analysis import CONTEXTS, PROB_SUM_TOL

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
        if self.context not in CONTEXTS:
            raise ValueError(f"unknown context {self.context!r}")
        counts = tuple(int(n) for n in self.counts)
        if len(counts) != 4 or any(n < 0 for n in counts):
            raise ValueError(f"counts must be four non-negative integers, got {self.counts!r}")
        if sum(counts) != int(self.total):
            raise ValueError(f"counts sum {sum(counts)} != total {self.total}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", int(self.total))
        object.__setattr__(self, "seed", int(self.seed))

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


def estimate_expectation(record: CountRecord) -> EstimatedExpectation:
    """Estimate (n1 - n2 - n3 + n4)/N and its multinomial standard error.

    The observable takes values +-1, so Var = (1 - E^2)/N exactly.
    """
    if record.total < 1:
        raise ValueError("record holds no events")
    n = record.counts
    value = (n[0] - n[1] - n[2] + n[3]) / record.total
    sigma = math.sqrt(max(1.0 - value * value, 0.0) / record.total)
    return EstimatedExpectation(value=value, sigma=sigma)


def _records_by_context(records: Iterable[CountRecord]) -> dict[str, CountRecord]:
    seen: dict[str, CountRecord] = {}
    for rec in records:
        if rec.context in seen:
            raise ValueError(f"duplicate record for context {rec.context}")
        seen[rec.context] = rec
    missing = [c for c in CONTEXTS if c not in seen]
    if missing:
        raise ValueError(f"missing record for context(s) {missing}")
    return seen


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
    by_ctx = _records_by_context(records)
    est = {c: estimate_expectation(by_ctx[c]) for c in CONTEXTS}
    s = est["XX"].value + est["XZ"].value + est["ZX"].value - est["ZZ"].value
    if bootstrap is None:
        sigma = math.sqrt(sum(e.sigma**2 for e in est.values()))
        return s, sigma
    if bootstrap < 2:
        raise ValueError(f"bootstrap needs at least 2 replicates, got {bootstrap}")
    if bootstrap_seed is None:
        bootstrap_seed = derive_seed(by_ctx["XX"].seed, by_ctx["XZ"].seed,
                                     by_ctx["ZX"].seed, by_ctx["ZZ"].seed)
    rng = np.random.default_rng(int(bootstrap_seed))
    replicated = np.zeros(bootstrap)
    for sign, ctx in zip((1.0, 1.0, 1.0, -1.0), CONTEXTS):
        rec = by_ctx[ctx]
        draws = rng.multinomial(rec.total, rec.fractions(), size=bootstrap)
        values = (draws[:, 0] - draws[:, 1] - draws[:, 2] + draws[:, 3]) / rec.total
        replicated += sign * values
    return s, float(np.std(replicated, ddof=1))


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
