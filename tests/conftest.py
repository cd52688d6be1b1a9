"""Shared test helpers.

The oracle functions here are written from first principles with raw numpy
so they stay independent of the package implementation they check.
"""

from dataclasses import replace

import numpy as np
import pytest

from chipctx.chips import PhaseSkeleton

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


def random_states(n: int, seed: int) -> np.ndarray:
    """n normalized complex 4-vectors, rows of the returned array."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)
