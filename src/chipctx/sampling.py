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

Counts become statistics in one place, the core ``_count_statistics``: E,
epsilon and sigma_S (propagated, or bootstrapped on each group's seeds) of
any stack of (context, detector) count arrays, in one pass that sums each
record into its N once; E, the fractions behind epsilon and the share
(n1 + n4)/N behind the bootstrap all read it.  The core checks nothing.  The
sampled sweep calls it once per block, ``chipctx analyze`` once per counts
CSV, and :func:`estimate_s` and the classical board once per record group;
the public :func:`count_statistics` checks an API caller's arrays and then
calls it.  The bootstrap redraws each context's E from one binomial draw,
a block of groups at a time, and the classical board draws each context's
record with :func:`sample_counts`; both run on the calling thread, as their
draws are short and threads would only queue for the GIL between them.
:func:`read_counts_csv` reads a counts CSV straight into phase groups,
checking its rows a block at a time and then its groups.
Each count record is checked once, where it enters: an API caller's by
:class:`CountRecord`, or in count arrays by :func:`count_statistics`; a
file's by :func:`read_counts_csv`; the sweep's draws by its
:class:`~chipctx.sweep.SweepSpec`, as a multinomial draw of 1 <= shots <
2**63 events is a valid record.  The record rules live in two places:
CountRecord, which checks one record and words every message, and the array
predicate ``_bad_records``, which the reader and :func:`count_statistics`
share; either door raises CountRecord's message for the first bad record.
The CSV's one writer, ``_write_counts`` (behind :func:`write_counts_csv` and
``chipctx sweep``), checks nothing again and formats with
:func:`chipctx.text.write_csv`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .analysis import (
    CONTEXTS, PROB_SUM_TOL, check_context, check_distribution, epsilon_value, in_context_order,
    s_value, sign_sum,
)
from .errors import ConsistencyError, check_integer, check_iterable, check_vector
from .text import write_csv

COUNTS_CSV_COLUMNS = ("phi", "context", "n1", "n2", "n3", "n4", "N", "seed")

DEFAULT_BOOTSTRAP_REPLICATES = 1000

# Size limits keep every array within numpy's 2**63 bytes, so that numpy can
# shape it and an allocation that fails is its one-line MemoryError, a data error.
SHOTS_LIMIT = 2**63  # a record's int64 total; neither sampler nor board holds anything per event
SEED_LIMIT = 2**64  # a record's seed is stored as uint64
BOOTSTRAP_LIMIT = 2**58  # a replicate holds four float64 expectations, drawn one int64 at a time

# Records checked at a time: rows parsed when a counts CSV is read, or records
# of the count arrays that enter count_statistics.
_RECORD_BLOCK = 1024

# Bytes of bootstrap replicates held at once: a block of groups is drawn into
# one (group, replicate, context) float64 array of E of at most this size, or
# of one group when a group alone needs more.
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
        counts = check_vector(self.counts, 4, "counts", check_integer)
        total, seed = check_integer(self.total, "total"), check_integer(self.seed, "seed")
        if any(n < 0 for n in counts):
            raise ValueError(f"counts must be four non-negative integers, got {counts!r}")
        if sum(counts) != total:
            raise ValueError(f"counts sum {sum(counts)} != total {total}")
        if total < 1:  # a record without events has no estimate
            raise ValueError(f"total must be at least 1, got {total}")
        if total >= SHOTS_LIMIT:  # the estimators count in int64
            raise ValueError(f"total must be below 2**63, got {total}")
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total)
        object.__setattr__(self, "seed", seed)


def derive_seed(master_seed: int, *key: int) -> int:
    """Collapse (master_seed, *key), non-negative integers, to a reproducible 64-bit child seed."""
    ss = np.random.SeedSequence((check_integer(master_seed, "master_seed", 0),
                                 *(check_integer(k, "key", 0) for k in key)))
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

    A part of ``key`` is a non-negative integer shared by every column, of
    any size, or a 1-d integer array of non-negative values, one per column.
    At least one part is an array, and every array part has the same length.
    """
    parts = [check_integer(part, "key", 0) if np.ndim(part) == 0 else np.asarray(part)
             for part in key]
    arrays = [part for part in parts if not isinstance(part, int)]
    for part in arrays:
        if part.ndim != 1 or part.dtype.kind not in "iu":
            raise ValueError(f"key arrays must be 1-d integers, "
                             f"got {part.dtype} shaped {part.shape}")
        if part.dtype.kind == "i" and (part < 0).any():
            raise ValueError(f"key must be non-negative, got {part.min()}")
    if len({len(part) for part in arrays}) != 1:
        raise ValueError(f"key must hold one or more arrays of one length, "
                         f"got lengths {[len(part) for part in arrays]}")
    return _key_state(parts, 1)[:, 0]


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


def _renormalized(p: np.ndarray) -> np.ndarray:
    """(..., detector) probabilities clipped at 0 and renormalized: exact multinomial weights."""
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def sample_counts(
    probabilities: Sequence[float], n_events: int, seed: int, context: str = "ZZ"
) -> CountRecord:
    """Draw one multinomial sample of detector counts.

    Deterministic for fixed (probabilities, n_events, seed).
    """
    n_events = check_integer(n_events, "n_events", 1, SHOTS_LIMIT)
    p = _renormalized(np.array(check_distribution(probabilities, "probabilities",
                                                  -PROB_SUM_TOL)))
    seed = check_integer(seed, "seed", 0, SEED_LIMIT)
    counts = np.random.default_rng(seed).multinomial(n_events, p)
    return CountRecord(context=context, counts=counts, total=n_events, seed=seed)


def count_statistics(
    counts: np.ndarray, seeds: np.ndarray, bootstrap: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E (..., context), epsilon (...) and sigma_S (...) of (..., context, detector) counts.

    The door for an API caller's count arrays.  ``counts`` must be integers
    shaped (..., context, detector) and ``seeds`` integers shaped (...,
    context), and every record (counts[i], context i[-1], seeds[i]) must be
    one that :class:`CountRecord` accepts.  Otherwise it raises a one-line
    ValueError: a shape or dtype message, or CountRecord's own message for the
    first bad record, after ``record [i]:``.  The records are checked a block
    at a time, with the predicate the counts CSV reader uses; no dtype
    conversion copies an int64 count or any seed array.

    E = (n1 - n2 - n3 + n4)/N and epsilon come from each record's N and
    fractions n_i/N, each computed once.  The default sigma_S is analytic
    propagation over independent contexts, sqrt(sum sigma_i^2), where
    sigma_i^2 = (1 - E_i^2)/N_i exactly, since the observable takes values
    +-1.  With ``bootstrap=B`` it is instead the standard deviation of S over
    B replicates of each group, drawn by
    ``default_rng(derive_seed(*seeds of the group))``: each context in turn
    as ``k = rng.binomial(N, (n1 + n4)/N, size=B)``, and E = (k - (N - k))/N.
    That k has the law of n1 + n4 under a multinomial redraw of the record,
    and E reads nothing else.
    """
    counts, seeds = np.asarray(counts), np.asarray(seeds)
    if counts.dtype.kind not in "iu" or counts.shape[-2:] != (len(CONTEXTS), 4):
        raise ValueError(f"counts must be integers shaped (..., {len(CONTEXTS)}, 4), "
                         f"got {counts.dtype} shaped {counts.shape}")
    if seeds.dtype.kind not in "iu" or seeds.shape != counts.shape[:-1]:
        raise ValueError(f"seeds must be integers shaped {counts.shape[:-1]}, "
                         f"got {seeds.dtype} shaped {seeds.shape}")
    # a uint64 count of 2**63 or more reads negative as int64, which the predicate rejects
    checked = (counts.view(np.int64) if counts.dtype == np.uint64
               else counts.astype(np.int64, copy=False))
    _check_records(counts, checked, seeds)
    return _count_statistics(checked, seeds, bootstrap)


def _check_records(counts: np.ndarray, checked: np.ndarray, seeds: np.ndarray) -> None:
    """Raise CountRecord's message for the first bad record of the arrays, after its index.

    ``checked`` is ``counts`` as int64, checked a block at a time; the
    message quotes ``counts`` itself.  The flat view of a non-contiguous
    array is a copy, freed on return, before the statistics allocate theirs.
    """
    records, record_seeds = checked.reshape(-1, 4), seeds.reshape(-1)
    for start in range(0, len(records), _RECORD_BLOCK):
        block = records[start:start + _RECORD_BLOCK]
        bad = (_bad_records(block, block.sum(axis=-1))
               | (record_seeds[start:start + _RECORD_BLOCK] < 0))
        if bad.any():
            index = np.unravel_index(start + int(bad.argmax()), seeds.shape)
            values = counts[index].tolist()
            try:
                CountRecord(CONTEXTS[index[-1]], tuple(values), sum(values), int(seeds[index]))
            except ValueError as exc:
                raise ValueError(f"record [{', '.join(map(str, index))}]: {exc}") from None
            raise ConsistencyError("the array checks reject a record that CountRecord accepts")


def _bad_records(counts: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Which records of (record, detector) int64 counts and their int64 totals CountRecord rejects.

    A record is bad if a count is negative, its running sum passes 2**63 - 1
    (and wraps negative), the sum is not its total, or it holds no events.
    """
    bad, partial = totals < 1, np.zeros_like(totals)
    for column in counts.T:  # column by column: a reduction over 4 detectors is slow in numpy
        partial += column
        bad |= (column < 0) | (partial < 0)
    return bad | (partial != totals)


def _count_statistics(
    counts: np.ndarray, seeds: np.ndarray, bootstrap: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`count_statistics` of records already checked where they entered, unchecked.

    ``counts`` is int64 and every record one that CountRecord accepts;
    ``seeds`` is only read for the bootstrap.
    """
    totals = counts.sum(axis=-1)
    e = sign_sum(counts) / totals
    eps = epsilon_value(counts / totals[..., None])
    if bootstrap is None:
        sigma = np.sqrt(np.maximum(1.0 - e * e, 0.0) / totals)
        # np.float_power squares with the C pow, as the pinned outputs were computed;
        # np.square can differ from it in the last ulp
        return e, eps, np.sqrt(np.float_power(sigma, 2.0).sum(axis=-1))
    group_seeds = derive_seeds(*seeds.reshape(-1, seeds.shape[-1]).T)
    plus = (counts[..., 0] + counts[..., 3]) / totals  # the events that sign_sum counts +1
    sigma_s = _bootstrap_sigma_s(plus.reshape(-1, plus.shape[-1]),
                                 totals.reshape(-1, totals.shape[-1]), group_seeds, bootstrap)
    return e, eps, sigma_s.reshape(counts.shape[:-2])


def estimate_s(
    records: Iterable[CountRecord], *, bootstrap: int | None = None
) -> tuple[float, float]:
    """Estimate S and sigma_S from one count record per context.

    sigma_S is propagated, or with ``bootstrap=B`` drawn from the records'
    own seeds, as in :func:`count_statistics`.
    """
    ordered = in_context_order(records, "record", CountRecord)
    counts = np.array([rec.counts for rec in ordered], dtype=np.int64)
    seeds = np.array([rec.seed for rec in ordered], dtype=np.uint64)
    e, _, sigma_s = _count_statistics(counts, seeds, bootstrap)
    return float(s_value(e)), float(sigma_s)


def _bootstrap_sigma_s(plus: np.ndarray, totals: np.ndarray, seeds: np.ndarray,
                       bootstrap: int) -> np.ndarray:
    """Standard deviation of S over ``bootstrap`` replicates of each group of records.

    ``plus`` is the share (n1 + n4)/N of each record's events that count +1
    in E, and ``totals`` its N, both shaped (group, context), as
    :func:`count_statistics` computes them.  Group g is redrawn from
    ``default_rng(seeds[g])``: each context, in context order, as
    ``k = binomial(N, plus)`` events that count +1, so E = (k - (N - k))/N.
    That k has the law of n1 + n4 under a multinomial redraw of the record,
    and E reads nothing else.  Groups are drawn on the calling thread, a
    block at a time, and S and its standard deviation are reduced over the
    whole block.
    """
    bootstrap = check_integer(bootstrap, "bootstrap", 2, BOOTSTRAP_LIMIT)
    n_groups, n_contexts = totals.shape
    words = _key_state([seeds], 4)  # the PCG64 state words of each group, as in seeded_generators
    block = max(1, _BOOTSTRAP_BLOCK_BYTES // (8 * n_contexts * bootstrap))
    replicated = np.empty((min(block, n_groups), bootstrap, n_contexts))  # reused by each block
    sigma_s = np.empty(n_groups)
    for start in range(0, n_groups, block):
        group = slice(start, min(start + block, n_groups))
        drawn = replicated[:group.stop - start]
        for args in zip(drawn, words[group], plus[group].tolist(), totals[group].tolist()):
            _redraw_group(*args)
        sigma_s[group] = np.std(s_value(drawn), axis=1, ddof=1)
    return sigma_s


def _redraw_group(out: np.ndarray, state: np.ndarray, plus: list, totals: list) -> None:
    """Draw one group's E into ``out`` (replicate, context); its draws are freed on return."""
    rng = np.random.Generator(np.random.PCG64(_PresetState(state)))
    for c, (p, total) in enumerate(zip(plus, totals)):
        k = rng.binomial(total, p, size=len(out))
        k -= total - k  # k - (N - k) stays within int64; 2k passes it once N >= 2**62
        out[:, c] = k / total


# --- CSV serialization -------------------------------------------------------


def write_counts_csv(path: str | Path, rows: Iterable[tuple[float, CountRecord]]) -> None:
    """Write (phi, CountRecord) pairs as a counts CSV; a record was checked when it was made."""
    rows = list(check_iterable(rows, "rows"))
    for row in rows:
        if not (isinstance(row, (tuple, list)) and len(row) == 2
                and isinstance(row[1], CountRecord)):
            raise ValueError(f"rows entry must be a (phi, CountRecord) pair, got {row!r}")
    phi = np.array([phi for phi, _ in rows], dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError("phi must be finite")
    _write_counts(path, phi, [rec.context for _, rec in rows],
                  np.array([rec.counts for _, rec in rows], dtype=np.int64).reshape(-1, 4),
                  np.array([rec.seed for _, rec in rows], dtype=np.uint64))


def _write_counts(path: str | Path, phi: np.ndarray, contexts: Sequence[str],
                  counts: np.ndarray, seeds: np.ndarray) -> None:
    """Write checked records as a counts CSV: phi[r], contexts[r], counts[r], its N and seeds[r]."""
    write_csv(path, COUNTS_CSV_COLUMNS, [phi, contexts, *counts.T, counts.sum(axis=-1), seeds])


def read_counts_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The records of a counts CSV grouped by phi: phi, counts and seeds.

    ``phi`` is float64, in the order each phi first appears; ``counts`` is
    shaped (group, context, detector) and ``seeds`` (group, context), in
    CONTEXTS order.  The rows are checked by :func:`_count_blocks`, then the
    groups: the first that misses or repeats a context raises the error of
    :func:`in_context_order`, after ``path: phi=<repr>:``.
    """
    index: dict[float, int] = {}
    blocks = []  # (group * 4 + context, counts, seeds) of each block of records
    for phi, context, counts, seeds in _count_blocks(path):
        group = np.array([index.setdefault(x, len(index)) for x in phi], dtype=np.intp)
        blocks.append((group * len(CONTEXTS) + context, counts, seeds))
    slots = np.concatenate([np.zeros(0, dtype=np.intp)] + [slot for slot, _, _ in blocks])
    occupancy = np.bincount(slots, minlength=len(index) * len(CONTEXTS))
    bad = (occupancy.reshape(-1, len(CONTEXTS)) != 1).any(axis=-1)
    if bad.any():  # in_context_order raises for a group that misses or repeats a context
        first = int(bad.argmax())
        rows = (slots[slots // len(CONTEXTS) == first] % len(CONTEXTS)).tolist()
        try:
            in_context_order([SimpleNamespace(context=CONTEXTS[c]) for c in rows], "record")
        except ValueError as exc:
            raise ValueError(f"{path}: phi={list(index)[first]!r}: {exc}") from None
    counts = np.empty((len(index), len(CONTEXTS), 4), dtype=np.int64)
    seeds = np.empty((len(index), len(CONTEXTS)), dtype=np.uint64)
    for slot, block_counts, block_seeds in blocks:
        counts.reshape(-1, 4)[slot] = block_counts
        seeds.reshape(-1)[slot] = block_seeds
    return np.array(list(index), dtype=float), counts, seeds


def _count_blocks(path: str | Path) -> Iterator[tuple]:
    """phi, context, counts and seed columns of a counts CSV's records, a block at a time.

    ``phi`` is a list of floats, ``context`` int64 indices into CONTEXTS,
    ``counts`` an (records, detector) int64 array and ``seeds`` a uint64
    array.  Every row is checked as a :class:`CountRecord` would check it, a
    block at a time; the first bad row, in file order, raises its
    ``path:line:`` error, where the line is the one the row starts on.  A
    byte that is not UTF-8 is decoded to a lone surrogate (``surrogateescape``),
    which no field parses, so it fails its own row.  A read error of the csv
    module raises once the rows before it have been checked.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        block = []  # (line number, row) of the records not yet checked
        try:
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != COUNTS_CSV_COLUMNS:
                raise ValueError(f"{path}: expected header {','.join(COUNTS_CSV_COLUMNS)}")
            lineno = reader.line_num + 1
            for row in reader:
                if row:
                    block.append((lineno, row))
                if len(block) == _RECORD_BLOCK:
                    yield _parse_rows(path, block)
                    block = []
                lineno = reader.line_num + 1  # the line the next row starts on
        except csv.Error as exc:  # e.g. a field past the csv module's limit
            if block:
                _parse_rows(path, block)
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    if block:
        yield _parse_rows(path, block)


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
            bad = ~np.isfinite(phi) | (context < 0) | _bad_records(counts, numbers[:, 4])
            if not bad.any():
                return phi, context, counts, seeds
            first = int(bad.argmax())
    for lineno, row in block[first:]:
        _check_row(path, lineno, row)  # raises at the first bad row
    raise ConsistencyError(f"{path}: the array checks reject a row that the row checks accept")


def _check_row(path: str | Path, lineno: int, row: list[str]) -> None:
    """ValueError with the row's ``path:line:`` unless it is UTF-8, a finite phi and CountRecord."""
    try:
        "".join(row).encode("utf-8")
    except UnicodeEncodeError as exc:  # a byte that surrogateescape decoded to U+DC80..U+DCFF
        byte = ord(exc.object[exc.start]) - 0xDC00
        raise ValueError(f"{path}:{lineno}: 'utf-8' codec can't decode byte {byte:#04x}") from None
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
