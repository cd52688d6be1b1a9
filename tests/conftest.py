"""Shared test helpers.

The oracle functions here are written from first principles with raw numpy
so they stay independent of the package implementation they check.
"""

import csv
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chipctx import sampling
from chipctx.analysis import CONTEXTS, in_context_order, s_value
from chipctx.chips import PhaseSkeleton
from chipctx.sampling import COUNTS_CSV_COLUMNS, CountRecord

SQRT2 = np.sqrt(2.0)
K = 1.0 + SQRT2                 # amplitude ratio of the target state
NORM = 2.0 * np.sqrt(2.0 + SQRT2)

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / SQRT2
EYE2 = np.eye(2, dtype=complex)

# Ideal context unitaries in (letter x digit) ordering, index = 2*letter+digit.
ORACLE_CONTEXT_UNITARIES = {
    "XX": np.kron(HADAMARD, HADAMARD),
    "XZ": np.kron(EYE2, HADAMARD),
    "ZX": np.kron(HADAMARD, EYE2),
    "ZZ": np.eye(4, dtype=complex),
}


def oracle_state(phi: float) -> np.ndarray:
    """Target amplitudes evaluated directly from their closed form."""
    return np.array([np.exp(1j * phi), K * np.exp(1j * phi), K, -1.0], dtype=complex) / NORM


def oracle_s(phi: float) -> float:
    """Closed form of the ideal pipeline's S."""
    return float(SQRT2 * (1.0 + np.cos(phi)))


def oracle_pipeline_s(phi: float) -> float:
    """S via a raw matrix simulation, independent of the package."""
    state = oracle_state(phi)
    e = {}
    for ctx, u in ORACLE_CONTEXT_UNITARIES.items():
        p = np.abs(u @ state) ** 2
        e[ctx] = p[0] - p[1] - p[2] + p[3]
    return e["XX"] + e["XZ"] + e["ZX"] - e["ZZ"]


def expectation(cp) -> float:
    """Product expectation p1 - p2 - p3 + p4 of one context's probabilities."""
    p = np.asarray(cp.p)
    return float(p[0] - p[1] - p[2] + p[3])


def marginals(cp) -> tuple[float, float]:
    """Single-measurement marginals (letter, digit) of one context's probabilities."""
    p = np.asarray(cp.p)
    return float((p[0] + p[1]) - (p[2] + p[3])), float((p[0] + p[2]) - (p[1] + p[3]))


def json_leaves(node, prefix=()) -> dict:
    """{key path: value} of every number, string, bool and null in a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return {path: leaf for key, child in items
                for path, leaf in json_leaves(child, prefix + (key,)).items()}
    return {prefix: node}


def random_states(n: int, seed: int) -> np.ndarray:
    """n normalized complex 4-vectors, rows of the returned array."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def ideal_context_unitary(context: str) -> np.ndarray:
    """Ideal unitary of one context tag, (letter op) kron (digit op)."""
    return ORACLE_CONTEXT_UNITARIES[context]


def is_normalized(state: np.ndarray, atol: float = 1e-12) -> bool:
    return abs(float(np.sum(np.abs(state) ** 2)) - 1.0) <= atol


def align_global_phase(state: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """``state`` rotated so that its largest-|reference| component has the reference's phase."""
    state, reference = np.asarray(state, dtype=complex), np.asarray(reference, dtype=complex)
    k = int(np.argmax(np.abs(reference)))
    return state * np.exp(1j * (np.angle(reference[k]) - np.angle(state[k])))


# Board channel index 2*letter_bit + digit_bit: a digit flip swaps channels
# (0, 1) and (2, 3), a letter flip swaps (0, 2) and (1, 3).
DIGIT_FLIP = np.array([1, 0, 3, 2])
LETTER_FLIP = np.array([2, 3, 0, 1])


def board_counts(preparation, m12, nab, shots, flip, seed) -> tuple[int, ...]:
    """Counts of one board run, drawn ball by ball with ``Generator.choice``.

    The channel of each ball comes from ``rng.choice`` on the preparation,
    then each X section (digit, then letter) remaps the balls whose uniform
    falls below ``flip`` through its flip table.
    """
    rng = np.random.default_rng(seed)
    channels = rng.choice(4, size=shots, p=np.asarray(preparation, dtype=float))
    for section, table in ((m12, DIGIT_FLIP), (nab, LETTER_FLIP)):
        if section == "X":
            flips = rng.random(shots) < flip
            channels = np.where(flips, table[channels], channels)
    return tuple(int(c) for c in np.bincount(channels, minlength=4))


def traced_peak(function, *args):
    """tracemalloc peak, in bytes, of one call of ``function``."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def calibration_residual(phases, target, skeleton: PhaseSkeleton, n_probe: int = 100) -> float:
    """Largest deviation of the skeleton's circuit at ``phases`` from ``target``.

    For a 4x4 target: outcome probabilities on random probe states.  For a
    state target: the real and imaginary parts of the circuit's output for an
    injection into mode 1, up to a global phase.
    """
    u = skeleton.build(np.asarray(phases, dtype=float))
    target = np.asarray(target, dtype=complex)
    if target.shape == (4, 4):
        probes = random_states(n_probe, seed=20260101)
        return float(np.max(np.abs(np.abs(probes @ u.T) ** 2 - np.abs(probes @ target.T) ** 2)))
    diff = align_global_phase(u[:, 0], target) - target
    return float(np.max(np.abs(np.concatenate([diff.real, diff.imag]))))


def two_mode_skeleton(transmissivity: float = 0.5) -> PhaseSkeleton:
    """A (1, 2) coupler between pre and post phases on modes 1 and 2."""
    t, r = np.sqrt(transmissivity), 1j * np.sqrt(1.0 - transmissivity)
    coupler = np.eye(4, dtype=complex)
    coupler[:2, :2] = [[t, r], [r, t]]

    def build(phases):
        pre1, pre2, post1, post2 = phases
        pre = np.exp(1j * np.array([pre1, pre2, 0.0, 0.0]))
        post = np.exp(1j * np.array([post1, post2, 0.0, 0.0]))
        return post[:, None] * coupler * pre[None, :]

    return PhaseSkeleton(n_phases=4, build=build)


def counting(skeleton: PhaseSkeleton) -> tuple[PhaseSkeleton, list]:
    """The skeleton with a build that also appends a copy of its phases to the returned list."""
    calls = []

    def build(phases):
        calls.append(np.array(phases))
        return skeleton.build(phases)

    return replace(skeleton, build=build), calls


def bootstrap_sigma_s(counts: np.ndarray, rng: np.random.Generator, bootstrap: int) -> float:
    """Standard deviation of S over ``bootstrap`` replicates of (context, detector) counts.

    Each context, in context order and from the one generator ``rng``, is
    redrawn as k ~ Binomial(N, (n1 + n4)/N) events that count +1, so that
    E = (k - (N - k))/N: the scalar reference of the bootstrap kernel in
    ``count_statistics``.
    """
    if bootstrap < 2:
        raise ValueError(f"bootstrap needs at least 2 replicates, got {bootstrap}")
    columns = []
    for (n1, _, _, n4), total in zip(counts.tolist(), counts.sum(axis=-1).tolist()):
        k = rng.binomial(total, (n1 + n4) / total, size=bootstrap)
        columns.append((k - (total - k)) / total)
    return float(np.std(s_value(np.stack(columns, axis=-1)), ddof=1))


def reference_read_counts_csv(path) -> list[tuple[float, CountRecord]]:
    """(phi, record) rows of a counts CSV, read and checked one row at a time.

    The row-by-row reference of ``read_counts_csv``: the same checks, in the
    same order, with the same ``path:line:`` errors.  A byte that is not
    UTF-8 fails the row it is in.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            return _reference_rows(path, reader)
        except csv.Error as exc:  # e.g. a field longer than the csv module allows
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc


def _reference_rows(path, reader) -> list[tuple[float, CountRecord]]:
    rows: list[tuple[float, CountRecord]] = []
    header = next(reader, None)
    if header is None or tuple(h.strip() for h in header) != COUNTS_CSV_COLUMNS:
        raise ValueError(f"{path}: expected header {','.join(COUNTS_CSV_COLUMNS)}")
    while True:
        lineno = reader.line_num + 1  # a row is numbered by the line it starts on
        row = next(reader, None)
        if row is None:
            break
        if not row:
            continue
        escaped = [ch for ch in "".join(row) if "\udc80" <= ch <= "\udcff"]
        if escaped:
            raise ValueError(f"{path}:{lineno}: 'utf-8' codec can't decode byte "
                             f"{ord(escaped[0]) - 0xDC00:#04x}")
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


def count_arrays(groups) -> tuple[np.ndarray, np.ndarray]:
    """Counts shaped (group, context, detector) and seeds (group, context) of record groups.

    Each group holds one record per context; every group is checked, and put
    in CONTEXTS order, by ``in_context_order``.
    """
    ordered = [in_context_order(records, "record") for records in groups]
    counts = np.array([[rec.counts for rec in recs] for recs in ordered], dtype=np.int64)
    seeds = np.array([[rec.seed for rec in recs] for recs in ordered], dtype=np.uint64)
    return counts.reshape(-1, len(CONTEXTS), 4), seeds.reshape(-1, len(CONTEXTS))


def reference_group_counts(path, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi, counts and seeds of (phi, record) rows grouped by phi: the reference of read_counts_csv.

    A group that misses or repeats a context raises the error of
    ``in_context_order`` prefixed with ``path: phi=<repr>:``.
    """
    groups: dict[float, list] = {}
    for phi, rec in rows:
        groups.setdefault(phi, []).append(rec)
    for phi, records in groups.items():
        try:
            in_context_order(records, "record")
        except ValueError as exc:
            raise ValueError(f"{path}: phi={phi!r}: {exc}") from None
    counts, seeds = count_arrays(groups.values())
    return np.array(list(groups), dtype=float), counts, seeds


def record_rows(path) -> list[tuple[float, CountRecord]]:
    """The (phi, record) rows of a counts CSV, from the checked blocks read_counts_csv groups."""
    return [(phi, CountRecord(CONTEXTS[c], tuple(n), sum(n), seed))
            for block_phi, context, counts, seeds in sampling._count_blocks(path)
            for phi, c, n, seed in zip(block_phi, context.tolist(), counts.tolist(),
                                       seeds.tolist())]


def read_outcome(path, reference=False):
    """("ok", rows, groups) of the counts CSV at ``path``, or ("error", message) of its rows.

    The rows are (repr(phi), record) pairs in file order.  The groups are
    phi, counts and seeds with their dtypes, phi again as reprs, or ("error",
    message) of the group check.  They are read by ``read_counts_csv`` and its
    blocks, or with ``reference`` by ``reference_read_counts_csv`` and
    ``reference_group_counts``.
    """
    try:
        rows = reference_read_counts_csv(path) if reference else record_rows(path)
    except ValueError as exc:
        return "error", str(exc)
    try:
        if reference:
            phi, counts, seeds = reference_group_counts(path, rows)
        else:
            phi, counts, seeds = sampling.read_counts_csv(path)
    except ValueError as exc:
        groups = ("error", str(exc))
    else:
        groups = (phi.dtype, [repr(x) for x in phi.tolist()], counts.dtype, counts.tolist(),
                  seeds.dtype, seeds.tolist())
    return "ok", [(repr(x), rec) for x, rec in rows], groups


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
