"""Heralded-count statistics: multinomial sampling, estimators, CSV records.

Randomness comes from numpy's PCG64 generator (``np.random.default_rng``).
Substreams for a (sweep point, context) pair are derived by seeding a
``SeedSequence`` with the tuple (master_seed, point_index, context_index) and
collapsing it to a 64-bit child seed, so the drawn counts never depend on
evaluation order or on how a sweep is split into blocks.  The child seed is
stored in each record, which makes any record reproducible in isolation.

That seed contract is what :func:`derive_seed` and :func:`sample_counts`
compute one record at a time.  The sweep computes the same values a block at
a time: :func:`seed_sequence_state` runs numpy's ``SeedSequence`` hash over
many keys at once, once for a block's child seeds (:func:`derive_seeds`) and
once for the PCG64 state words that ``default_rng`` would derive from each of
them (:func:`seeded_generators`).

Counts become statistics in one place, :func:`count_statistics`: E, epsilon
and sigma_S (propagated, or bootstrapped on each group's seeds) of any stack
of (context, detector) count arrays.  The sampled sweep calls it once per
block, ``chipctx analyze`` once per counts CSV, and :func:`estimate_s` once
per record group.  Its bootstrap draws blocks of groups on one thread per
available CPU; each group draws from its own seed, so the output does not
depend on the thread count, and there is no flag to set it.  A counts CSV is
read as columns (:class:`CountColumns`)
and grouped by phase with :func:`group_counts`, both checked a whole array
at a time.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .analysis import (
    CONTEXTS, PROB_SUM_TOL, check_context, epsilon_value, in_context_order, s_value, sign_sum,
)
from .errors import ConsistencyError

COUNTS_CSV_COLUMNS = ("phi", "context", "n1", "n2", "n3", "n4", "N", "seed")

DEFAULT_BOOTSTRAP_REPLICATES = 1000

# Rows formatted at a time when a counts CSV is written, and parsed at a time when one is read.
_CSV_BLOCK = 1024

# Bytes of bootstrap replicates held at once: a block of groups is drawn into
# one (group, replicate, context) float64 array of at most this size, or of
# one group when a group alone needs more.
_BOOTSTRAP_BLOCK_BYTES = 1 << 18

_CONTEXT_INDEX = {context: i for i, context in enumerate(CONTEXTS)}


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


def derive_seed(master_seed: int, *key: int) -> int:
    """Collapse (master_seed, *key) to a reproducible 64-bit child seed."""
    ss = np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words mixed from the entropy words, then hashed into the state words.
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
_MASK32 = 0xFFFFFFFF


def seed_sequence_state(entropy: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy[:, k]).generate_state(n_words, np.uint64)`` for every column k.

    ``entropy`` is a (words, K) uint32 matrix whose columns are the entropy
    words ``SeedSequence`` makes of each key; the result is shaped
    (K, n_words).  All arithmetic is uint32, modulo 2**32, as in numpy.
    """
    entropy = np.asarray(entropy, dtype=np.uint32)
    if len(entropy) < POOL_SIZE:  # a short entropy is padded with zero words
        padding = np.zeros((POOL_SIZE - len(entropy), entropy.shape[1]), dtype=np.uint32)
        entropy = np.concatenate([entropy, padding])
    hash_const = INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
        return result ^ (result >> XSHIFT)

    pool = [hashmix(entropy[i]) for i in range(POOL_SIZE)]
    for i_src in range(POOL_SIZE):
        for i_dst in range(POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(POOL_SIZE, len(entropy)):  # entropy longer than the pool
        for i_dst in range(POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[i_src]))

    hash_const = INIT_B
    state = np.empty((entropy.shape[1], 2 * n_words), dtype=np.uint32)
    for i_dst in range(2 * n_words):
        value = pool[i_dst % POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i_dst] = value ^ (value >> XSHIFT)
    # each uint64 word is a pair of uint32 words, low word first, as numpy reads them
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _int_words(n: int) -> list[int]:
    """The uint32 words SeedSequence makes of a non-negative int, low word first."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _key_state(key: Sequence[int | np.ndarray], n_words: int) -> np.ndarray:
    """``SeedSequence(key).generate_state(n_words, np.uint64)`` for every column of ``key``.

    Each part of ``key`` is a non-negative int, shared by every column, or an
    array of values in [0, 2**64), one per column; at least one part is an
    array.  ``SeedSequence`` makes one word of a value below 2**32 and two of
    any other, so the columns are hashed in groups that share one word
    layout.  Returns shape (K, n_words).
    """
    size = len(next(part for part in key if not isinstance(part, int)))
    rows, high_words = [], []  # entropy words; (row, columns that have it) of each high word
    for part in key:
        if isinstance(part, int):
            rows += [np.full(size, word, dtype=np.uint32) for word in _int_words(part)]
        else:
            part = np.asarray(part, dtype=np.uint64)
            high = part >> np.uint64(32)
            high_words.append((len(rows) + 1, high != 0))
            rows += [(part & np.uint64(_MASK32)).astype(np.uint32), high.astype(np.uint32)]
    entropy = np.array(rows)
    layout = np.zeros(size, dtype=np.int64)  # bit b: the b-th high word is present
    for bit, (_, has_word) in enumerate(high_words):
        layout |= has_word.astype(np.int64) << bit
    state = np.empty((size, n_words), dtype=np.uint64)
    for code in set(layout.tolist()):  # not np.unique, which imports numpy.ma (about 1.5 MB)
        columns = layout == code
        dropped = [row for bit, (row, _) in enumerate(high_words) if not code >> bit & 1]
        state[columns] = seed_sequence_state(np.delete(entropy[:, columns], dropped, axis=0),
                                             n_words)
    return state


def derive_seeds(*key: int | np.ndarray) -> np.ndarray:
    """``derive_seed(*column)`` for every column of ``key``, as a uint64 array.

    A part of ``key`` is an int shared by every column, of any size, or an
    array of values in [0, 2**64), one per column.
    """
    return _key_state(key, 1)[:, 0]


class _PresetState(ISeedSequence):
    """Seed sequence that hands PCG64 state words computed in advance."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def seeded_generators(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    """``np.random.default_rng(seed)`` for every seed of a uint64 array, in order."""
    words = _key_state([seeds], 4)  # the four uint64 words PCG64 asks of SeedSequence(seed)
    return (np.random.Generator(np.random.PCG64(_PresetState(w))) for w in words)


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


def count_statistics(
    counts: np.ndarray, seeds: np.ndarray, bootstrap: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E (..., context), epsilon (...) and sigma_S (...) of (..., context, detector) counts.

    The default sigma_S is analytic propagation over independent contexts,
    sqrt(sum sigma_i^2).  With ``bootstrap=B`` it is instead the standard
    deviation of S over B replicates of each group, drawn from
    ``default_rng(derive_seed(*seeds of the group))``; ``seeds`` is shaped
    (..., context) and only read for the bootstrap.
    """
    e, sigma = expectation_estimates(counts)
    eps = epsilon_value(counts / counts.sum(axis=-1, keepdims=True))
    if bootstrap is None:
        return e, eps, propagated_sigma_s(sigma)
    group_seeds = derive_seeds(*seeds.reshape(-1, seeds.shape[-1]).T)
    sigma_s = _bootstrap_sigma_s(counts.reshape(-1, *counts.shape[-2:]), group_seeds, bootstrap)
    return e, eps, sigma_s.reshape(counts.shape[:-2])


def estimate_s(
    records: Iterable[CountRecord], *, bootstrap: int | None = None
) -> tuple[float, float]:
    """Estimate S and sigma_S from one count record per context.

    sigma_S is propagated, or with ``bootstrap=B`` drawn from the records'
    own seeds, as in :func:`count_statistics`.
    """
    ordered = in_context_order(records, "record")
    counts = np.array([rec.counts for rec in ordered], dtype=np.int64)
    seeds = np.array([rec.seed for rec in ordered], dtype=np.uint64)
    e, _, sigma_s = count_statistics(counts, seeds, bootstrap)
    return float(s_value(e)), float(sigma_s)


def _bootstrap_workers() -> int:
    """Threads that draw the bootstrap, the calling one included: one per CPU this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        return os.cpu_count() or 1


def _bootstrap_sigma_s(counts: np.ndarray, seeds: np.ndarray, bootstrap: int) -> np.ndarray:
    """Standard deviation of S over ``bootstrap`` replicates of each (context, detector) group.

    ``counts`` is shaped (group, context, detector).  Group g is redrawn from
    ``default_rng(seeds[g])``: each context from its empirical fractions, in
    context order.  Groups are drawn a block at a time, and S and its
    standard deviation are reduced over the whole block.

    The blocks are shared out among :func:`_bootstrap_workers` threads, whose
    blocks together hold at most ``_BOOTSTRAP_BLOCK_BYTES`` of replicates;
    when one group needs more than a thread's share, one thread draws.  The
    draws release the GIL, and each group's draws depend on its seed alone,
    so sigma_S is the same whatever the thread count.  An exception raised in
    any thread is raised here once every thread has stopped.
    """
    if bootstrap < 2:
        raise ValueError(f"bootstrap needs at least 2 replicates, got {bootstrap}")
    n_groups, n_contexts = counts.shape[:2]
    totals = counts.sum(axis=-1)
    fractions = counts / totals[..., None]
    words = _key_state([seeds], 4)  # the PCG64 state words of each group, as in seeded_generators
    group_bytes = 8 * n_contexts * bootstrap
    workers = _bootstrap_workers()
    block = _BOOTSTRAP_BLOCK_BYTES // (workers * group_bytes)
    if block == 0:  # a group alone exceeds a thread's share, so it gets the whole budget
        workers, block = 1, max(1, _BOOTSTRAP_BLOCK_BYTES // group_bytes)
    sigma_s = np.empty(n_groups)
    block_starts = range(0, n_groups, block)
    starts, lock, errors = iter(block_starts), threading.Lock(), []

    def draw_blocks():
        try:
            while not errors:
                with lock:
                    start = next(starts, None)
                if start is None:
                    return
                stop = min(start + block, n_groups)
                replicated = np.empty((stop - start, bootstrap, n_contexts))
                for out, state, group_fractions, group_totals in zip(
                        replicated, words[start:stop], fractions[start:stop],
                        totals[start:stop].tolist()):
                    rng = np.random.Generator(np.random.PCG64(_PresetState(state)))
                    for c, (p, total) in enumerate(zip(group_fractions, group_totals)):
                        out[:, c] = sign_sum(rng.multinomial(total, p, size=bootstrap)) / total
                sigma_s[start:stop] = np.std(s_value(replicated), axis=1, ddof=1)
        except BaseException as exc:  # raised below once every thread has stopped
            errors.append(exc)

    threads = []
    try:
        for _ in range(min(workers, len(block_starts)) - 1):  # none for a single block
            thread = threading.Thread(target=draw_blocks, name="chipctx-bootstrap")
            thread.start()
            threads.append(thread)
        draw_blocks()
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return sigma_s


# --- CSV serialization -------------------------------------------------------


def write_counts_csv(path: str | Path, rows: Iterable[tuple[float, CountRecord]]) -> None:
    """Write (phi, record) rows in the fixed column layout, LF line endings."""
    rows = list(rows)
    write_counts_columns(
        path,
        np.array([phi for phi, _ in rows], dtype=float),
        [rec.context for _, rec in rows],
        np.array([rec.counts for _, rec in rows], dtype=np.int64).reshape(-1, 4),
        np.array([rec.seed for _, rec in rows], dtype=np.uint64),
    )


def write_counts_columns(path: str | Path, phi: np.ndarray, contexts: Sequence[str],
                         counts: np.ndarray, seeds: np.ndarray) -> None:
    """Write the counts CSV from columns; row r holds phi[r], contexts[r], counts[r] and seeds[r].

    ``counts`` is shaped (rows, detector) and N is each row's sum.  Every row
    meets the conditions of :class:`CountRecord`, checked once per array.
    """
    counts, seeds = np.asarray(counts, dtype=np.int64), np.asarray(seeds)
    if not len(phi) == len(contexts) == len(counts) == len(seeds) or counts.shape[1:] != (4,):
        raise ValueError("counts columns differ in length or shape")
    for context in set(contexts):
        check_context(context)
    bad, totals = _bad_count_rows(counts)
    if bad.any():
        raise ValueError("counts must be non-negative integers whose total is below 2**63")
    if not ((seeds >= 0) & (seeds < 2**64)).all():
        raise ValueError("seeds must lie in [0, 2**64)")
    phi = np.asarray(phi, dtype=float)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(COUNTS_CSV_COLUMNS)
        for start in range(0, len(counts), _CSV_BLOCK):  # bounds the Python objects alive at once
            block = slice(start, start + _CSV_BLOCK)
            writer.writerows(
                [repr(x), context, *n, total, seed] for x, context, n, total, seed
                in zip(phi[block].tolist(), contexts[block], counts[block].tolist(),
                       totals[block].tolist(), seeds[block].tolist()))


def _bad_count_rows(counts: np.ndarray,
                    totals: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Which rows of (rows, detector) int64 counts break a CountRecord condition, and their sums.

    A row is bad if a count is negative, if its running int64 sum wraps past
    2**63 - 1, or if its sum differs from its entry of ``totals`` when given.
    """
    partial = np.cumsum(counts, axis=-1)  # a sum past 2**63 - 1 wraps negative
    sums = partial[:, -1]
    bad = (counts < 0).any(axis=-1) | (partial < 0).any(axis=-1)
    if totals is not None:
        bad |= sums != totals
    return bad, sums


@dataclass(frozen=True, eq=False)
class CountColumns:
    """Count records as columns: record r is phi[r], CONTEXTS[context[r]], counts[r], seeds[r].

    ``context`` holds int64 indices into CONTEXTS, ``counts`` is an (records,
    detector) int64 array, ``seeds`` a uint64 array; N is each row's sum.
    """

    phi: list[float]
    context: np.ndarray
    counts: np.ndarray
    seeds: np.ndarray

    def __len__(self) -> int:
        return len(self.phi)


def read_counts_csv(path: str | Path) -> CountColumns:
    """Read the count records written by :func:`write_counts_csv`, as columns.

    Every row is checked as a :class:`CountRecord` would check it, a block of
    rows at a time; the first bad row, in file order, raises its
    ``path:line:`` error.  So does a read error of the csv module, after every
    row before it has been checked.
    """
    read_errors: list[Exception] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)

        def numbered_rows():  # each row numbered by the line it starts on
            try:
                lineno = reader.line_num + 1
                for row in reader:
                    yield lineno, row
                    lineno = reader.line_num + 1
            except csv.Error as exc:  # e.g. a field longer than the csv module allows
                error = ValueError(f"{path}:{reader.line_num}: {exc}")
                error.__cause__ = exc
                read_errors.append(error)
            except UnicodeDecodeError as exc:
                read_errors.append(exc)

        rows = numbered_rows()
        _, header = next(rows, (1, None))
        if header is None and read_errors:
            raise read_errors[0]
        if header is None or tuple(h.strip() for h in header) != COUNTS_CSV_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(COUNTS_CSV_COLUMNS)}")
        records = ((lineno, row) for lineno, row in rows if row)
        blocks = [([], np.zeros(0, dtype=np.int64), np.zeros((0, 4), dtype=np.int64),
                   np.zeros(0, dtype=np.uint64))]
        blocks += [_parse_rows(path, block)
                   for block in iter(lambda: list(itertools.islice(records, _CSV_BLOCK)), [])]
    if read_errors:
        raise read_errors[0]
    phi, context, counts, seeds = zip(*blocks)
    return CountColumns(list(itertools.chain.from_iterable(phi)), np.concatenate(context),
                        np.concatenate(counts), np.concatenate(seeds))


def _parse_rows(path: str | Path, block: list[tuple[int, list[str]]]):
    """phi, context, counts and seed columns of (line number, row) pairs, checked as arrays."""
    rows = [row for _, row in block]
    first = 0  # unless the rows parse, they are checked one by one from the start
    if all(len(row) == len(COUNTS_CSV_COLUMNS) for row in rows):
        try:
            phi = [float(row[0]) for row in rows]
            context = np.array([_CONTEXT_INDEX.get(row[1].strip(), -1) for row in rows],
                               dtype=np.int64)
            # OverflowError for a number outside int64, or a seed outside uint64
            numbers = np.array([[int(x) for x in row[2:7]] for row in rows], dtype=np.int64)
            seeds = np.array([int(row[7]) for row in rows], dtype=np.uint64)
        except (ValueError, OverflowError):
            pass
        else:
            counts = numbers[:, :4]
            bad = ~np.isfinite(phi) | (context < 0) | _bad_count_rows(counts, numbers[:, 4])[0]
            if not bad.any():
                return phi, context, counts, seeds
            first = int(bad.argmax())
    for lineno, row in block[first:]:
        _check_row(path, lineno, row)  # raises at the first bad row
    raise ConsistencyError(f"{path}: the array checks reject a row that the row checks accept")


def _check_row(path: str | Path, lineno: int, row: list[str]) -> None:
    """ValueError with the row's ``path:line:`` if it is not a finite phi and a CountRecord."""
    if len(row) != len(COUNTS_CSV_COLUMNS):
        raise ValueError(f"{path}:{lineno}: expected {len(COUNTS_CSV_COLUMNS)} fields")
    try:
        phi = float(row[0])
        if not math.isfinite(phi):
            raise ValueError(f"phi must be finite, got {row[0].strip()!r}")
        CountRecord(
            context=row[1].strip(),
            counts=tuple(int(x) for x in row[2:6]),
            total=int(row[6]),
            seed=int(row[7]),
        )
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from exc


def group_counts(columns: CountColumns) -> tuple[list[float], np.ndarray, np.ndarray]:
    """Records grouped by phi, in the order each phi first appears: phi, counts and seeds.

    ``counts`` is shaped (group, context, detector) and ``seeds`` (group,
    context), in CONTEXTS order.  Each group must hold one record per context;
    the first group that does not raises the error of :func:`in_context_order`.
    """
    index: dict[float, int] = {}
    group = np.array([index.setdefault(phi, len(index)) for phi in columns.phi], dtype=np.intp)
    occupancy = np.zeros((len(index), len(CONTEXTS)), dtype=np.int64)
    np.add.at(occupancy, (group, columns.context), 1)
    bad = (occupancy != 1).any(axis=-1)
    if bad.any():  # in_context_order raises for a group that misses or repeats a context
        rows = columns.context[group == bad.argmax()].tolist()
        in_context_order([SimpleNamespace(context=CONTEXTS[c]) for c in rows], "record")
    counts = np.empty((len(index), len(CONTEXTS), 4), dtype=np.int64)
    seeds = np.empty((len(index), len(CONTEXTS)), dtype=np.uint64)
    counts[group, columns.context] = columns.counts
    seeds[group, columns.context] = columns.seeds
    return list(index), counts, seeds
