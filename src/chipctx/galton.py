"""Classical stochastic board: the non-contextual baseline.

Balls drop into one of four channels, indexed like the optical modes
(channel = 2*letter_bit + digit_bit + 1).  A Z section leaves its bit alone;
an X section flips its bit with probability 1/2 (a biased flip probability is
exposed for robustness checks, the bound argument only needs that the ball's
channel is defined at every stage).  The digit section acts first, then the
letter section; the two commute because they touch different bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import CONTEXTS, s_value, sign_sum
from .sampling import CountRecord, derive_seed, estimate_s

MEASUREMENTS = ("Z", "X")


def _check_preparation(preparation: Sequence[float]) -> tuple[float, ...]:
    """Four finite non-negative weights summing to 1, as floats."""
    prep = tuple(float(p) for p in preparation)
    if len(prep) != 4 or not all(math.isfinite(p) and p >= 0.0 for p in prep):
        raise ValueError(f"preparation must be four finite non-negative weights, got {preparation!r}")
    if abs(sum(prep) - 1.0) > 1e-9:
        raise ValueError(f"preparation must sum to 1 within 1e-9, got sum {sum(prep)!r}")
    return prep


def _check_flip_probability(f: float) -> float:
    if not (0.0 <= f <= 1.0):
        raise ValueError(f"flip probability must lie in [0, 1], got {f!r}")
    return f


@dataclass(frozen=True)
class GaltonConfig:
    """One board run: channel distribution, section choices, shot count."""

    preparation: tuple[float, float, float, float]
    m12: str = "Z"
    nab: str = "Z"
    shots: int = 100_000
    x_flip_probability: float = 0.5

    def __post_init__(self):
        prep = _check_preparation(self.preparation)
        if self.m12 not in MEASUREMENTS or self.nab not in MEASUREMENTS:
            raise ValueError(f"sections must be 'Z' or 'X', got {self.m12!r}, {self.nab!r}")
        if self.shots < 1:
            raise ValueError(f"shots must be positive, got {self.shots}")
        _check_flip_probability(self.x_flip_probability)
        object.__setattr__(self, "preparation", prep)

    @property
    def context(self) -> str:
        return self.m12 + self.nab


def galton_run(config: GaltonConfig, seed: int) -> CountRecord:
    """Sample one counting run of the board, ball by ball.

    One uniform per ball picks its channel index ``2*letter_bit + digit_bit``
    from the preparation, then each X section (digit, then letter) draws one
    uniform per ball and flips its bit where that falls below the flip
    probability.  The stream is read exactly as by
    ``rng.choice(4, size=shots, p=preparation)`` followed by one
    ``rng.random(shots) < f`` per X section, so the counts equal those of
    that draw.  Deterministic per seed.
    """
    rng = np.random.default_rng(int(seed))
    cdf = np.cumsum(config.preparation)
    cdf /= cdf[-1]  # as Generator.choice normalizes it
    # Generator.choice returns cdf.searchsorted(u, side="right"), which for a
    # non-decreasing cdf is the number of cdf entries at or below u.
    u = rng.random(config.shots)
    channels = (u >= cdf[0]).view(np.uint8)
    channels += u >= cdf[1]
    channels += u >= cdf[2]
    for section, bit in ((config.m12, 1), (config.nab, 2)):
        if section == "X":
            flips = rng.random(out=u) < config.x_flip_probability
            channels ^= flips.view(np.uint8) * np.uint8(bit)
    counts = tuple(int(np.count_nonzero(channels == k)) for k in range(4))
    return CountRecord(context=config.context, counts=counts, total=config.shots, seed=int(seed))


def galton_s(
    preparation: Sequence[float],
    shots: int,
    master_seed: int,
    x_flip_probability: float = 0.5,
) -> tuple[float, float]:
    """Sampled S of the board over all four section configurations.

    Each configuration runs on its own seed substream derived from the
    master seed and the context index.
    """
    records = []
    for idx, ctx in enumerate(CONTEXTS):
        cfg = GaltonConfig(
            preparation=tuple(preparation), m12=ctx[0], nab=ctx[1], shots=shots,
            x_flip_probability=x_flip_probability,
        )
        records.append(galton_run(cfg, derive_seed(master_seed, idx)))
    return estimate_s(records)


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
    zz = zz_expectation(_check_preparation(preparation))
    scale = 1.0 - 2.0 * _check_flip_probability(x_flip_probability)
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
