"""Complex linear algebra over the four-mode space and the circuit element catalog.

Spatial modes are numbered 1..4 and encode two qubits: mode i sits at array
index i-1 and carries the basis label |letter, digit> with

    index = 2*letter + digit,

so modes (1, 2, 3, 4) are (|00>, |01>, |10>, |11>).  The letter bit says which
half of the chip is occupied (0 = left, modes 1 and 2) and the digit bit gives
the parity of the mode (0 = odd, modes 1 and 3).

States are length-4 complex vectors of probability amplitudes; circuit
sections are 4x4 complex unitaries acting by left multiplication.  The
directional-coupler convention is the symmetric one,

    [[sqrt(T), i*sqrt(1-T)], [i*sqrt(1-T), sqrt(T)]],

with T the power fraction staying in the same mode.  Only phase-insensitive
predictions are compared against external references; relative phases are
absorbed by calibration phases downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.typing import NDArray

# Type aliases for readability; both are plain complex ndarrays.
ModeVector = NDArray[np.complex128]     # shape (4,)
TransferMatrix = NDArray[np.complex128]  # shape (4, 4)

N_MODES = 4

# Absolute tolerance for unitarity / normalization checks: double precision
# leaves ample headroom at dimension 4.
ATOL = 1e-12


def _check_mode(mode: int) -> int:
    if not isinstance(mode, (int, np.integer)) or not 1 <= mode <= N_MODES:
        raise ValueError(f"mode index must be an integer in 1..{N_MODES}, got {mode!r}")
    return int(mode)


@dataclass(frozen=True)
class CouplerSpec:
    """Parameters of one directional coupler.

    Attributes:
        mode_pair: The two coupled mode indices (1-based, distinct).
        transmissivity: Power fraction T remaining in the same mode, in [0, 1].
    """

    mode_pair: tuple[int, int]
    transmissivity: float

    def __post_init__(self):
        a, b = (_check_mode(m) for m in self.mode_pair)
        if a == b:
            raise ValueError(f"coupler modes must be distinct, got {self.mode_pair}")
        t = self.transmissivity
        if not (math.isfinite(t) and 0.0 <= t <= 1.0):
            raise ValueError(f"transmissivity must lie in [0, 1], got {t!r}")
        object.__setattr__(self, "mode_pair", (a, b))
        object.__setattr__(self, "transmissivity", float(t))


def basis_state(mode: int) -> ModeVector:
    """Return the state of a photon localized in one mode."""
    v = np.zeros(N_MODES, dtype=np.complex128)
    v[_check_mode(mode) - 1] = 1.0
    return v


def probabilities(state: ModeVector) -> NDArray[np.float64]:
    """Squared magnitudes of the amplitudes, one per mode."""
    return np.abs(np.asarray(state, dtype=np.complex128)) ** 2


def is_normalized(state: ModeVector, atol: float = ATOL) -> bool:
    return abs(float(np.sum(probabilities(state))) - 1.0) <= atol


def is_unitary(matrix: TransferMatrix, atol: float = ATOL) -> bool:
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (N_MODES, N_MODES):
        return False
    return bool(np.max(np.abs(m.conj().T @ m - np.eye(N_MODES))) <= atol)


def coupler(spec: CouplerSpec) -> TransferMatrix:
    """Two-mode beamsplitter unitary embedded in the four-mode space.

    Same-mode amplitude sqrt(T), cross-mode amplitude i*sqrt(1-T), identity on
    the untouched modes.

    Args:
        spec: Validated coupler parameters.

    Returns:
        4x4 complex unitary.
    """
    i, j = (m - 1 for m in spec.mode_pair)
    t = spec.transmissivity
    u = np.eye(N_MODES, dtype=np.complex128)
    u[i, i] = u[j, j] = math.sqrt(t)
    u[i, j] = u[j, i] = 1j * math.sqrt(1.0 - t)
    return u


def phase_shifter(modes: Iterable[int], theta: float) -> TransferMatrix:
    """Diagonal unitary applying exp(i*theta) to the listed modes.

    Args:
        modes: Non-empty collection of mode indices.
        theta: Phase in radians, finite.

    Returns:
        4x4 diagonal unitary.
    """
    idx = sorted({_check_mode(m) for m in modes})
    if not idx:
        raise ValueError("phase shifter needs at least one mode")
    if not math.isfinite(theta):
        raise ValueError(f"phase must be finite, got {theta!r}")
    diag = np.ones(N_MODES, dtype=np.complex128)
    for m in idx:
        diag[m - 1] = np.exp(1j * theta)
    return np.diag(diag)


def crossing(mode_pair: tuple[int, int]) -> TransferMatrix:
    """Permutation unitary swapping two waveguides."""
    a, b = (_check_mode(m) for m in mode_pair)
    if a == b:
        raise ValueError(f"crossing modes must be distinct, got {mode_pair}")
    u = np.eye(N_MODES, dtype=np.complex128)
    u[[a - 1, b - 1]] = u[[b - 1, a - 1]]
    return u


def compose(sections: Sequence[TransferMatrix]) -> TransferMatrix:
    """Product of circuit sections in propagation order.

    The first section of the list is applied to the state first.  An empty
    list composes to the identity.  Callers are responsible for passing
    unitary sections; the product of unitaries is then unitary.
    """
    u = np.eye(N_MODES, dtype=np.complex128)
    for section in sections:
        u = np.asarray(section, dtype=np.complex128) @ u
    return u
