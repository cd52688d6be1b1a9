"""Classical stochastic board: the non-contextual baseline.

Balls drop into one of four channels, indexed like the optical modes
(channel = 2*letter_bit + digit_bit + 1).  A Z section leaves its bit alone;
an X section flips its bit with probability 1/2 (a biased flip probability is
exposed for robustness checks, the bound argument only needs that the ball's
channel is defined at every stage).  The digit section acts first, then the
letter section; the two commute because they touch different bits.

A run draws its balls in chunks of ``_CHUNK`` into one reused set of
buffers, so its memory does not grow with the shot count.  Each draw (the
channels, then each X section) reads its own run of the seed's PCG64 stream
from a generator advanced to it, so the counts are those of drawing every
ball at once.  The four contexts of a sampled board (:func:`galton_s`,
``chipctx hv``) run on one thread per available CPU; each runs on its own
seed, so the output does not depend on the thread count.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import CONTEXTS, check_distribution, s_value, sign_sum
from .errors import check_integer, check_number
from .sampling import (
    SEED_LIMIT, SHOTS_LIMIT, CountRecord, _count_statistics, _share_out, _worker_threads,
    derive_seed,
)

MEASUREMENTS = ("Z", "X")

# Balls drawn at a time: one float64 uniform and three bytes each in reused buffers.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class GaltonConfig:
    """One board run: channel distribution, section choices, shot count, checked as hv's flags."""

    preparation: tuple[float, float, float, float]
    m12: str = "Z"
    nab: str = "Z"
    shots: int = 100_000
    x_flip_probability: float = 0.5

    def __post_init__(self):
        prep = check_distribution(self.preparation, "preparation", 0.0)
        if self.m12 not in MEASUREMENTS or self.nab not in MEASUREMENTS:
            raise ValueError(f"sections must be 'Z' or 'X', got {self.m12!r}, {self.nab!r}")
        object.__setattr__(self, "preparation", prep)
        object.__setattr__(self, "shots", check_integer(self.shots, "shots", 1, SHOTS_LIMIT))
        object.__setattr__(self, "x_flip_probability",
                           check_number(self.x_flip_probability, "flip probability", 0.0, 1.0))

    @property
    def context(self) -> str:
        return self.m12 + self.nab


def galton_run(config: GaltonConfig, seed: int,
               stop: threading.Event | None = None) -> CountRecord | None:
    """Sample one counting run of the board, ``_CHUNK`` balls at a time.

    One uniform per ball picks its channel index ``2*letter_bit + digit_bit``
    from the preparation, then each X section (digit, then letter) draws one
    uniform per ball and flips its bit where that falls below the flip
    probability.  The stream is read exactly as by
    ``rng.choice(4, size=shots, p=preparation)`` followed by one
    ``rng.random(shots) < f`` per X section, so the counts equal those of
    that draw.  ``Generator.random`` takes one PCG64 output per float64, so
    the k-th of these draws reads outputs [k*shots, (k+1)*shots) of the
    seed's stream; each draw reads them from its own generator, advanced by
    k*shots, a chunk at a time.  Deterministic per seed.

    With ``stop``, the run checks it before each chunk and returns None
    once it is set.  ``seed`` is an integer in [0, 2**64), checked before any draw.
    """
    seed = check_integer(seed, "seed", 0, SEED_LIMIT)
    shots = config.shots
    cdf = np.cumsum(config.preparation)
    cdf /= cdf[-1]  # as Generator.choice normalizes it
    flip_bits = [bit for section, bit in ((config.m12, 1), (config.nab, 2)) if section == "X"]
    draws = [np.random.Generator(np.random.PCG64(seed).advance(k * shots))
             for k in range(1 + len(flip_bits))]
    size = min(shots, _CHUNK)
    u, channels, hits, flips = (np.empty(size), np.empty(size, dtype=np.uint8),
                                np.empty(size, dtype=bool), np.empty(size, dtype=np.uint8))
    counts = [0, 0, 0]
    for start in range(0, shots, _CHUNK):
        if stop is not None and stop.is_set():
            return None
        n = min(_CHUNK, shots - start)
        u_n, channels_n, hits_n, flips_n = u[:n], channels[:n], hits[:n], flips[:n]
        # Generator.choice returns cdf.searchsorted(u, side="right"), which for a
        # non-decreasing cdf is the number of cdf entries at or below u.
        draws[0].random(out=u_n)
        np.greater_equal(u_n, cdf[0], out=channels_n.view(bool))
        for edge in cdf[1:3]:
            channels_n += np.greater_equal(u_n, edge, out=hits_n).view(np.uint8)
        for draw, bit in zip(draws[1:], flip_bits):
            draw.random(out=u_n)
            np.less(u_n, config.x_flip_probability, out=hits_n)
            channels_n ^= np.multiply(hits_n.view(np.uint8), np.uint8(bit), out=flips_n)
        for k in range(3):
            counts[k] += int(np.count_nonzero(np.equal(channels_n, k, out=hits_n)))
    counts.append(shots - sum(counts))
    return CountRecord(context=config.context, counts=counts, total=shots, seed=seed)


def galton_s(
    preparation: Sequence[float],
    shots: int,
    master_seed: int,
    x_flip_probability: float = 0.5,
) -> tuple[float, float]:
    """Sampled S and its propagated sigma_S of the board over all four section configurations."""
    e, _, sigma_s = _count_statistics(
        *_board_counts(preparation, shots, master_seed, x_flip_probability))
    return float(s_value(e)), float(sigma_s)


def _board_counts(
    preparation: Sequence[float],
    shots: int,
    master_seed: int,
    x_flip_probability: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Sampled (context, detector) int64 counts and (context,) uint64 seeds of the board.

    Each configuration runs on its own seed substream derived from the
    master seed and the context index.  The runs are shared out among
    :func:`~chipctx.sampling._worker_threads` threads, the calling one
    included; their draws release the GIL.  An exception raised in any
    run stops the others before their next chunk, and is raised here once
    every thread has stopped.  Each run's record is a checked
    :class:`~chipctx.sampling.CountRecord`, in CONTEXTS order.
    """
    configs = [
        GaltonConfig(preparation=preparation, m12=ctx[0], nab=ctx[1], shots=shots,
                     x_flip_probability=x_flip_probability)
        for ctx in CONTEXTS
    ]
    seeds = [derive_seed(master_seed, idx) for idx in range(len(configs))]
    records: list[CountRecord | None] = [None] * len(configs)

    def run(idx: int, stop: threading.Event) -> None:
        records[idx] = galton_run(configs[idx], seeds[idx], stop)

    _share_out(run, range(len(configs)), _worker_threads())
    return (np.array([rec.counts for rec in records], dtype=np.int64),
            np.array([rec.seed for rec in records], dtype=np.uint64))


def galton_s_exact(
    preparation: Sequence[float], x_flip_probability: float = 0.5
) -> float:
    """Exact (no sampling) S of the board.

    Each X section scales the signed channel sum by exactly (1 - 2f), since
    flipping a bit negates that bit's outcome sign; Z sections leave it
    alone.  At the default f = 1/2 every context containing an X therefore
    contributes exactly zero and S reduces bit-exactly to the negated
    ZZ-context expectation of the preparation.
    """
    zz = zz_expectation(check_distribution(preparation, "preparation", 0.0))
    scale = 1.0 - 2.0 * check_number(x_flip_probability, "flip probability", 0.0, 1.0)
    e = [zz * (scale if digit == "X" else 1.0) * (scale if letter == "X" else 1.0)
         for digit, letter in CONTEXTS]
    return float(s_value(np.array(e)))


def zz_expectation(preparation: Sequence[float]) -> float:
    """Signed sum of the preparation itself (the ZZ-context expectation)."""
    return float(sign_sum(np.asarray(preparation, dtype=float)))


__all__ = [
    "GaltonConfig",
    "MEASUREMENTS",
    "galton_run",
    "galton_s",
    "galton_s_exact",
    "zz_expectation",
]
