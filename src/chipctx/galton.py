"""Classical stochastic board: the non-contextual baseline.

Balls drop into one of four channels, indexed like the optical modes
(channel = 2*letter_bit + digit_bit + 1).  A Z section leaves its bit alone;
an X section flips its bit with probability 1/2 (a biased flip probability is
exposed for robustness checks, the bound argument only needs that the ball's
channel is defined at every stage).  The digit section acts first, then the
letter section; the two commute because they touch different bits.

Each ball picks its channel and flips its bits on its own, so the counts of
one run are exactly Multinomial(shots, q), where q is the preparation pushed
through the X sections; a run is that one draw, on the seed's generator.
The four contexts of a sampled board (:func:`galton_s`, ``chipctx hv``) run
one after another, each on its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import CONTEXTS, check_distribution, s_value, sign_sum
from .errors import check_integer, check_number
from .sampling import SHOTS_LIMIT, CountRecord, _count_statistics, derive_seed, sample_counts

MEASUREMENTS = ("Z", "X")


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


def galton_run(config: GaltonConfig, seed: int) -> CountRecord:
    """Sample one counting run of the board: one multinomial draw of its shots.

    The counts are ``default_rng(seed).multinomial(shots, q)``, the law of
    dropping every ball one by one, with q the channel distribution of one
    ball (:func:`_channel_probabilities`) renormalised to sum 1 by
    :func:`~chipctx.sampling.sample_counts`.  Deterministic per seed.
    ``seed`` is an integer in [0, 2**64), checked before the draw.
    """
    return sample_counts(_channel_probabilities(config), config.shots, seed, config.context)


def _channel_probabilities(config: GaltonConfig) -> np.ndarray:
    """Final channel distribution q of one ball of the board.

    The preparation is divided by its sum, as ``Generator.choice``
    normalises it.  Each X section, digit then letter, mixes every channel
    with its bit-flipped partner (index XOR 1, then XOR 2): q = (1 - f) q +
    f q[flip].
    """
    q = np.array(config.preparation)
    q /= q.sum()
    f = config.x_flip_probability
    for section, bit in ((config.m12, 1), (config.nab, 2)):
        if section == "X":
            q = (1.0 - f) * q + f * q[np.arange(4) ^ bit]
    return q


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

    Each configuration runs, in CONTEXTS order on the calling thread, on its
    own seed substream derived from the master seed and the context index.
    Each run's record is a checked :class:`~chipctx.sampling.CountRecord`.
    """
    records = [
        galton_run(GaltonConfig(preparation=preparation, m12=ctx[0], nab=ctx[1], shots=shots,
                                x_flip_probability=x_flip_probability),
                   derive_seed(master_seed, idx))
        for idx, ctx in enumerate(CONTEXTS)
    ]
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
