"""Preparation and measurement circuit models, ideal and physical.

The preparation chip is a binary tree of three directional couplers.  The
photon enters mode 1; C1 splits the left/right halves over modes (1, 3), the
tunable phase R1 sits on the left branch (mode 1) so that both left-half
output modes inherit exp(i*phi), C2 splits modes (1, 2), C3 splits modes
(3, 4), and three trim phases R2..R4 on modes 2..4 set the relative output
phases.  With the default transmissivities and trim phases the circuit output
equals the direct state constructor exactly.

Each measurement context is a separate physical circuit.  A Z measurement on
a qubit is a straight pass-through; an X measurement is a balanced coupler on
the qubit's mode pairs, preceded by per-mode input phases that make the
coupler's outcome statistics identical to those of a Hadamard.  The letter
qubit couples non-adjacent modes, so its couplers are wrapped in a pair of
waveguide crossings.  In the physical model the digit section precedes the
letter section; for exact tensor-product circuits the order is irrelevant.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .analysis import CONTEXTS, check_context
from .errors import CalibrationError
from .optics import (
    CouplerSpec,
    ModeVector,
    TransferMatrix,
    basis_state,
    compose,
    coupler,
    crossing,
    phase_shifter,
    probabilities,
)

_SQRT2 = math.sqrt(2.0)

# Preparation defaults derived from the target amplitude ratios
# 1 : (1+sqrt 2) on the left half and (1+sqrt 2) : 1 on the right.
DEFAULT_PREPARATION_TS = (0.5, (2.0 - _SQRT2) / 4.0, (2.0 + _SQRT2) / 4.0)
DEFAULT_PREPARATION_PHASES = (-math.pi / 2.0, -math.pi / 2.0, 0.0)

# Coupler slots per context.  Digit couplers act on mode pairs (1,2)/(3,4),
# letter couplers on (1,3)/(2,4).
MEASUREMENT_COUPLER_SLOTS: dict[str, tuple[str, ...]] = {
    "XX": ("digit_12", "digit_34", "letter_13", "letter_24"),
    "XZ": ("digit_12", "digit_34"),
    "ZX": ("letter_13", "letter_24"),
    "ZZ": (),
}

# Input phases that make balanced couplers outcome-equivalent to Hadamards:
# -pi/2 on the second mode of every coupled pair, summed per qubit.
DEFAULT_MEASUREMENT_PHASES: dict[str, tuple[float, float, float, float]] = {
    "XX": (0.0, -math.pi / 2.0, -math.pi / 2.0, -math.pi),
    "XZ": (0.0, -math.pi / 2.0, 0.0, -math.pi / 2.0),
    "ZX": (0.0, 0.0, -math.pi / 2.0, -math.pi / 2.0),
    "ZZ": (0.0, 0.0, 0.0, 0.0),
}

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / _SQRT2
_EYE2 = np.eye(2, dtype=np.complex128)


def _json_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must lie in the float range, got a larger integer") from None


def _json_numbers(value, name: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ValueError(f"{name} must be an array of numbers, got {value!r}")
    return tuple(_json_number(x, f"{name} entry") for x in value)


def _json_object(value, name: str) -> Mapping:
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {value!r}")
    return value


@dataclass(frozen=True)
class PreparationConfig:
    """Preparation-chip parameters.

    Attributes:
        phi: Tunable phase applied by R1, radians.
        coupler_ts: Transmissivities of (C1, C2, C3).
        calibration_phases: Trim phases (R2, R3, R4) on modes (2, 3, 4).
    """

    phi: float = 0.0
    coupler_ts: tuple[float, float, float] = DEFAULT_PREPARATION_TS
    calibration_phases: tuple[float, float, float] = DEFAULT_PREPARATION_PHASES

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise ValueError(f"phi must be finite, got {self.phi!r}")
        ts = tuple(float(t) for t in self.coupler_ts)
        if len(ts) != 3 or any(not (0.0 <= t <= 1.0) for t in ts):
            raise ValueError(f"coupler_ts must be three values in [0, 1], got {self.coupler_ts!r}")
        phases = tuple(float(p) for p in self.calibration_phases)
        if len(phases) != 3 or any(not math.isfinite(p) for p in phases):
            raise ValueError(f"calibration_phases must be three finite values, got {self.calibration_phases!r}")
        object.__setattr__(self, "phi", float(self.phi))
        object.__setattr__(self, "coupler_ts", ts)
        object.__setattr__(self, "calibration_phases", phases)

    def to_json_dict(self) -> dict:
        return {
            "phi": self.phi,
            "coupler_Ts": list(self.coupler_ts),
            "calibration_phases": list(self.calibration_phases),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "PreparationConfig":
        data = _json_object(data, "preparation")
        kwargs = {}
        if "phi" in data:
            kwargs["phi"] = _json_number(data["phi"], "preparation phi")
        if "coupler_Ts" in data:
            kwargs["coupler_ts"] = _json_numbers(data["coupler_Ts"], "preparation coupler_Ts")
        if "calibration_phases" in data:
            kwargs["calibration_phases"] = _json_numbers(
                data["calibration_phases"], "preparation calibration_phases")
        return cls(**kwargs)


@dataclass(frozen=True)
class MeasurementConfig:
    """One measurement context, ideal or physical.

    Attributes:
        context: "XX", "XZ", "ZX" or "ZZ"; first letter is the digit
            measurement, second the letter measurement.
        mode: "ideal" uses exact Hadamard/identity tensor products;
            "physical" composes couplers, crossings and input phases.
        coupler_ts: Transmissivity per coupler slot (physical mode only);
            missing slots default to the balanced value 0.5.
        calibration_phases: Input phase per mode (physical mode only).
    """

    context: str
    mode: str = "ideal"
    coupler_ts: Mapping[str, float] = field(default_factory=dict)
    calibration_phases: tuple[float, float, float, float] | None = None

    def __post_init__(self):
        check_context(self.context)
        if self.mode not in ("ideal", "physical"):
            raise ValueError(f"mode must be 'ideal' or 'physical', got {self.mode!r}")
        slots = MEASUREMENT_COUPLER_SLOTS[self.context]
        ts = dict(self.coupler_ts)
        for name, t in ts.items():
            if name not in slots:
                raise ValueError(f"context {self.context} has no coupler slot {name!r}")
            if not (math.isfinite(t) and 0.0 <= t <= 1.0):
                raise ValueError(f"transmissivity for {name!r} must lie in [0, 1], got {t!r}")
        object.__setattr__(self, "coupler_ts", ts)
        if self.calibration_phases is not None:
            phases = tuple(float(p) for p in self.calibration_phases)
            if len(phases) != 4 or any(not math.isfinite(p) for p in phases):
                raise ValueError(f"calibration_phases must be four finite values, got {self.calibration_phases!r}")
            object.__setattr__(self, "calibration_phases", phases)

    def slot_t(self, slot: str) -> float:
        return float(self.coupler_ts.get(slot, 0.5))

    def phases(self) -> tuple[float, float, float, float]:
        if self.calibration_phases is not None:
            return self.calibration_phases
        return DEFAULT_MEASUREMENT_PHASES[self.context]

    def to_json_dict(self) -> dict:
        out: dict = {"context": self.context, "mode": self.mode}
        if self.coupler_ts:
            out["coupler_Ts"] = dict(self.coupler_ts)
        if self.calibration_phases is not None:
            out["calibration_phases"] = list(self.calibration_phases)
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "MeasurementConfig":
        data = _json_object(data, "measurement config")
        if "context" not in data:
            raise ValueError("measurement config requires a 'context' field")
        coupler_ts = _json_object(data.get("coupler_Ts", {}), "measurement coupler_Ts")
        return cls(
            context=data["context"],
            mode=data.get("mode", "ideal"),
            coupler_ts={slot: _json_number(t, f"transmissivity for {slot!r}")
                        for slot, t in coupler_ts.items()},
            calibration_phases=(
                _json_numbers(data["calibration_phases"], "measurement calibration_phases")
                if "calibration_phases" in data else None
            ),
        )


@dataclass(frozen=True)
class DeviceConfig:
    """Full device: one preparation chip plus four measurement circuits.

    ``preparation=None`` selects the direct state constructor instead of the
    circuit model (used by the ideal device).
    """

    preparation: PreparationConfig | None = None
    measurements: Mapping[str, MeasurementConfig] = field(default_factory=dict)

    def __post_init__(self):
        meas = dict(self.measurements)
        for ctx in meas:
            check_context(ctx)  # a misspelled entry would leave its context ideal
        for ctx in CONTEXTS:
            cfg = meas.get(ctx, MeasurementConfig(context=ctx))
            if cfg.context != ctx:
                raise ValueError(f"measurement entry {ctx!r} carries context {cfg.context!r}")
            meas[ctx] = cfg
        object.__setattr__(self, "measurements", meas)

    @classmethod
    def ideal(cls) -> "DeviceConfig":
        return cls()

    def to_json_dict(self) -> dict:
        out: dict = {"measurements": {c: m.to_json_dict() for c, m in self.measurements.items()}}
        if self.preparation is not None:
            out["preparation"] = self.preparation.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "DeviceConfig":
        prep = None
        if "preparation" in data:
            prep = PreparationConfig.from_json_dict(data["preparation"])
        meas = {}
        for ctx, entry in _json_object(data.get("measurements", {}), "measurements").items():
            entry = dict(_json_object(entry, f"measurement {ctx!r}"))
            entry.setdefault("context", ctx)
            meas[ctx] = MeasurementConfig.from_json_dict(entry)
        return cls(preparation=prep, measurements=meas)


def load_device_config(path: str | Path) -> DeviceConfig:
    """Read a device configuration JSON document from disk."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid device config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"device config {path} must be a JSON object")
    try:
        return DeviceConfig.from_json_dict(data)
    except ValueError as exc:
        raise ValueError(f"invalid device config {path}: {exc}") from exc


def prepare_state_direct(phi: float) -> ModeVector:
    """Target superposition over the four modes for a given phase.

    Amplitudes (exp(i*phi), (1+sqrt 2)*exp(i*phi), 1+sqrt 2, -1) over modes
    1..4, normalized by 2*sqrt(2+sqrt 2).
    """
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    k = 1.0 + _SQRT2
    amps = np.array([np.exp(1j * phi), k * np.exp(1j * phi), k, -1.0], dtype=np.complex128)
    return amps / (2.0 * math.sqrt(2.0 + _SQRT2))


def _preparation_sections(config: PreparationConfig) -> list[TransferMatrix]:
    """Preparation-chip sections in propagation order: C1, R1, C2, C3, trims."""
    t1, t2, t3 = config.coupler_ts
    r2, r3, r4 = config.calibration_phases
    return [
        coupler(CouplerSpec((1, 3), t1)),
        phase_shifter({1}, config.phi),
        coupler(CouplerSpec((1, 2), t2)),
        coupler(CouplerSpec((3, 4), t3)),
        np.diag(np.exp(1j * np.array([0.0, r2, r3, r4]))),
    ]


def preparation_unitary(config: PreparationConfig) -> TransferMatrix:
    """Transfer matrix of the full preparation chip."""
    return compose(_preparation_sections(config))


def prepare_state_circuit(config: PreparationConfig) -> ModeVector:
    """Propagate a photon injected in mode 1 through the preparation chip."""
    return preparation_unitary(config) @ basis_state(1)


def prepare_states(preparation: PreparationConfig | None, phis: np.ndarray) -> np.ndarray:
    """Prepared states for an array of phases, one row per phase.

    ``preparation=None`` selects the direct constructor; otherwise the
    circuit is used with its ``phi`` replaced by each phase.  Every row equals
    the scalar :func:`prepare_state_direct` or :func:`prepare_state_circuit`
    result bit for bit: the mode-1 column is pushed through the sections one
    at a time, in the order :func:`compose` multiplies them.  Folding the
    fixed sections into one matrix first would change the last ulp.
    """
    phis = np.asarray(phis, dtype=float)
    if not np.all(np.isfinite(phis)):
        raise ValueError("phases must be finite")
    rotation = np.exp(1j * phis)
    if preparation is None:
        k = 1.0 + _SQRT2
        amps = np.empty((len(phis), 4), dtype=np.complex128)
        amps[:, 0] = rotation
        amps[:, 1] = k * rotation
        amps[:, 2] = k
        amps[:, 3] = -1.0
        return amps / (2.0 * math.sqrt(2.0 + _SQRT2))
    c1, _, *fixed = _preparation_sections(preparation)
    column = np.tile(c1[:, 0], (len(phis), 1))
    column[:, 0] *= rotation  # R1 on mode 1
    column = column[..., None]
    for section in fixed:
        column = section @ column
    return column[..., 0]


def _ideal_unitary(context: str) -> TransferMatrix:
    digit_meas, letter_meas = context[0], context[1]
    letter_op = _HADAMARD if letter_meas == "X" else _EYE2
    digit_op = _HADAMARD if digit_meas == "X" else _EYE2
    return np.kron(letter_op, digit_op)


def measurement_unitary(config: MeasurementConfig) -> TransferMatrix:
    """Transfer matrix of one measurement context.

    Ideal mode returns the exact (letter op) kron (digit op) tensor product
    with H for X and the identity for Z.  Physical mode composes the input
    calibration phases, the digit couplers and the crossing-wrapped letter
    couplers.
    """
    check_context(config.context)
    if config.mode == "ideal":
        return _ideal_unitary(config.context)
    digit_meas, letter_meas = config.context[0], config.context[1]
    sections: list[TransferMatrix] = [
        np.diag(np.exp(1j * np.asarray(config.phases(), dtype=float)))
    ]
    if digit_meas == "X":
        sections.append(coupler(CouplerSpec((1, 2), config.slot_t("digit_12"))))
        sections.append(coupler(CouplerSpec((3, 4), config.slot_t("digit_34"))))
    if letter_meas == "X":
        sections.append(crossing((2, 3)))
        sections.append(coupler(CouplerSpec((1, 2), config.slot_t("letter_13"))))
        sections.append(coupler(CouplerSpec((3, 4), config.slot_t("letter_24"))))
        sections.append(crossing((2, 3)))
    return compose(sections)


def context_unitaries(device: DeviceConfig) -> dict[str, TransferMatrix]:
    """All four context matrices of a device, keyed by context tag."""
    return {ctx: measurement_unitary(device.measurements[ctx]) for ctx in CONTEXTS}


# --- phase calibration ------------------------------------------------------


@dataclass(frozen=True)
class PhaseSkeleton:
    """A circuit with free single-mode phases at fixed locations.

    Attributes:
        n_phases: Number of free phases.
        build: Maps a phase vector to the circuit's transfer matrix.
        seed_phases: Optional analytic starting point for the optimizer.
    """

    n_phases: int
    build: Callable[[Sequence[float]], TransferMatrix]
    seed_phases: tuple[float, ...] | None = None


def _phase_factors(phases: Sequence[float], n_phases: int) -> np.ndarray:
    """exp(i*phase) per free phase, after checking the vector's length."""
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (n_phases,):
        raise ValueError(f"expected {n_phases} phases, got shape {phases.shape}")
    return np.exp(1j * phases)


def preparation_skeleton(
    coupler_ts: Sequence[float] = DEFAULT_PREPARATION_TS, phi: float = 0.0
) -> PhaseSkeleton:
    """Preparation chip with the three trim phases R2..R4 left free.

    C1, R1(phi), C2 and C3 do not depend on the trims, so their product is
    formed once; ``build`` scales its mode-2..4 rows by the trim phases.
    """
    config = PreparationConfig(phi=phi, coupler_ts=tuple(coupler_ts))
    fixed = compose(_preparation_sections(config)[:-1])

    def build(phases: Sequence[float]) -> TransferMatrix:
        u = fixed.copy()
        u[1:] *= _phase_factors(phases, 3)[:, None]
        return u

    return PhaseSkeleton(n_phases=3, build=build, seed_phases=DEFAULT_PREPARATION_PHASES)


def measurement_skeleton(
    context: str, coupler_ts: Mapping[str, float] | None = None
) -> PhaseSkeleton:
    """Physical measurement circuit with the four input phases left free.

    The couplers and crossings are composed once, with zero input phases;
    ``build`` scales the columns of that product by the input phases.
    """
    fixed = measurement_unitary(MeasurementConfig(
        context=context, mode="physical", coupler_ts=dict(coupler_ts or {}),
        calibration_phases=(0.0, 0.0, 0.0, 0.0),
    ))

    def build(phases: Sequence[float]) -> TransferMatrix:
        return fixed * _phase_factors(phases, 4)

    return PhaseSkeleton(
        n_phases=4, build=build, seed_phases=DEFAULT_MEASUREMENT_PHASES[context]
    )


# Calibration settings: the accepted residual (probability deviation for a
# matrix target, amplitude deviation for a state target), the number and the
# seed of the random probe states of a matrix target, and the mode a state
# target is injected into.  The random starts are drawn from _PROBE_SEED + 1.
_TOL = 1e-9
_N_PROBE = 100
_PROBE_SEED = 20260101
_INPUT_MODE = 1


def _probe_states(n_probe: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n_probe, 4)) + 1j * rng.normal(size=(n_probe, 4))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _residual_function(target: np.ndarray,
                       skeleton: PhaseSkeleton) -> Callable[[np.ndarray], np.ndarray]:
    """Phases -> deviation of the skeleton's circuit from ``target``.

    Probability deviations on the probe states for a 4x4 target, amplitude
    deviations (real and imaginary parts, up to a global phase) for a
    length-4 state.  Everything that depends only on the target is computed
    here, once.
    """
    target = np.asarray(target, dtype=np.complex128)
    if target.shape == (4, 4):
        probes = _probe_states(_N_PROBE, _PROBE_SEED)
        target_probabilities = np.abs(probes @ target.T) ** 2

        def residual(phases: np.ndarray) -> np.ndarray:
            return (np.abs(probes @ skeleton.build(phases).T) ** 2 - target_probabilities).ravel()

    elif target.shape == (4,):
        injected = basis_state(_INPUT_MODE)
        k = int(np.argmax(np.abs(target)))  # the output is phase-aligned on this component
        target_arg = np.angle(target[k])

        def residual(phases: np.ndarray) -> np.ndarray:
            out = skeleton.build(phases) @ injected
            diff = out * np.exp(1j * (target_arg - np.angle(out[k]))) - target
            return np.concatenate([diff.real, diff.imag])

    else:
        raise ValueError(f"target must be a 4x4 matrix or a length-4 state, got shape {target.shape}")
    return residual


def _start_phases(phases: Sequence[float], n_phases: int, name: str) -> np.ndarray:
    start = np.array(phases, dtype=float)
    if start.shape != (n_phases,):
        raise ValueError(f"{name} has shape {start.shape}, the skeleton expects {n_phases} phases")
    if not np.all(np.isfinite(start)):
        raise ValueError(f"{name} must be finite, got {start.tolist()}")
    return start


def _random_starts(n_phases: int, seed: int, count: int) -> Iterator[np.ndarray]:
    """Seeded uniform starts in [-pi, pi), drawn only as a calibration needs them."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield rng.uniform(-math.pi, math.pi, size=n_phases)


# Relative level at which a fit counts as stalled: the step against the
# point, or the cost reduction against the cost.  A fit stops there, not as
# soon as it meets ``_TOL``, so that the calibrated circuit matches its target
# to rounding on any probe state, not only just under ``_TOL`` on its own.
_STALL = 1e-15
_EPS = float(np.finfo(float).eps)
_FD_STEP = math.sqrt(_EPS)
# Residual entries are differences of probabilities or amplitudes, numbers no
# larger than 1.  Once their root mean square is within 8 ulps of 1 they are
# rounding, which the stall tests would only chase for a few more Jacobians.
_ROUNDING = 8.0 * _EPS


def _levenberg_marquardt(
    residual: Callable[[np.ndarray], np.ndarray], x: np.ndarray, f: np.ndarray, budget: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Levenberg-Marquardt minimization of ``|residual|^2`` from ``x``.

    ``f`` is the finite residual at ``x``, so the start is not evaluated
    again.  Each iteration forms a forward-difference Jacobian J, one
    evaluation per phase, and solves ``(J^T J + lam diag(d^2)) step = -J^T f``
    with d the running maximum of J's column norms (More, 1978).  A trial
    point is accepted only if its cost is lower, which a non-finite residual
    never is; then lam falls tenfold, otherwise it rises tenfold and the step
    is solved again.  The fit stops when the accepted cost reduction falls to
    ``_STALL`` of the cost, or the scaled step to ``_STALL`` of the scaled
    point (taking phases below 1 as 1); when the residual is at rounding
    level; when J is not finite or the damped system singular; or after
    ``budget`` evaluations.

    Trial points are wrapped into [-pi, pi): a direction the residual cannot
    see, such as the global phase of a measurement circuit, shows in J only
    as forward-difference noise, and steps along it can be thousands of
    radians, at which exp(i phase) and the difference quotients lose digits.

    Returns the final point, its residual and the number of evaluations made.
    """
    n = len(x)
    cost = float(f @ f)
    rounding_cost = len(f) * _ROUNDING**2
    scale = np.zeros(n)  # the running maximum of J's column norms
    damping = 1e-3
    evaluations = 0
    while cost > rounding_cost and evaluations < budget:
        size = np.maximum(np.abs(x), 1.0)
        steps = _FD_STEP * size
        shifted = np.array([residual(point) for point in x + np.diag(steps)])
        evaluations += n
        jacobian = (shifted - f) / steps[:, None]  # one row per phase
        normal = jacobian @ jacobian.T
        if not math.isfinite(normal.trace()):  # the sum of J's squared entries
            break
        descent = -(jacobian @ f)
        scale = np.maximum(scale, np.sqrt(normal.diagonal()))
        # a column below the forward differences' accuracy relative to the
        # largest (zero, say, for a phase without effect) is damped as that size
        d = np.maximum(scale, _FD_STEP * scale.max())
        least_step = _STALL * (d * size).max()
        while evaluations < budget:
            damped = normal.copy()
            damped.flat[::n + 1] += damping * d**2
            try:
                step = np.linalg.solve(damped, descent)
            except np.linalg.LinAlgError:  # singular to working precision: no step left
                return x, f, evaluations
            trial = np.remainder(x + step + math.pi, 2.0 * math.pi) - math.pi
            f_trial = residual(trial)
            evaluations += 1
            cost_trial = float(f_trial @ f_trial)
            stalled = np.abs(d * step).max() <= least_step
            if cost_trial < cost:  # False for a NaN or infinite cost
                if stalled or cost - cost_trial <= _STALL * cost:
                    return trial, f_trial, evaluations
                x, f, cost = trial, f_trial, cost_trial
                damping = max(damping / 10.0, _EPS)  # smaller would hardly damp
                break
            if stalled:
                return x, f, evaluations
            damping *= 10.0
    return x, f, evaluations


def calibrate_phases(
    target: np.ndarray,
    skeleton: PhaseSkeleton,
    *,
    seed_phases: Sequence[float] | None = None,
    max_restarts: int = 12,
) -> np.ndarray:
    """Find free phases that reproduce a target circuit or target state.

    For a 4x4 ``target`` the calibrated circuit must produce the same outcome
    probabilities as the target on 100 seeded probe states, within 1e-9
    (equality up to output phases and a global phase).  For a length-4
    ``target`` the circuit output from mode 1 must match the state up to a
    global phase, each amplitude within 1e-9.

    Starts are tried in turn: ``seed_phases``, then the skeleton's analytic
    seed, then zeros, then deterministic pseudo-random points.  Each start is
    evaluated once.  A start whose residual already meets the tolerance is
    returned as it is; a start with a non-finite residual is skipped;
    otherwise a numpy Levenberg-Marquardt fit with a forward-difference
    Jacobian runs from it to convergence, not just to the tolerance: until
    its step or its cost reduction stalls at the relative level 1e-15 or its
    residual is at rounding level (or after 200 evaluations per free phase
    plus one).  Its end point is returned if its residual meets the
    tolerance.

    Args:
        target: 4x4 unitary or length-4 state vector.
        skeleton: Circuit with free phases.
        seed_phases: Optional explicit starting point.
        max_restarts: Additional randomized starts before giving up.

    Returns:
        Array of calibrated phases, one per free parameter.

    Raises:
        ValueError: If the target has the wrong shape, or a seed has the
            wrong length or a non-finite phase.
        CalibrationError: If no start reaches the tolerance; carries the best
            residual achieved, the starts tried and the residual evaluations.
    """
    residual = _residual_function(target, skeleton)
    n = skeleton.n_phases
    starts: list[np.ndarray] = []
    if seed_phases is not None:
        starts.append(_start_phases(seed_phases, n, "seed_phases"))
    if skeleton.seed_phases is not None:
        starts.append(_start_phases(skeleton.seed_phases, n, "skeleton seed_phases"))
    starts.append(np.zeros(n))

    best_residual = math.inf
    evaluations = 0
    all_starts = itertools.chain(starts, _random_starts(n, _PROBE_SEED + 1, max_restarts))
    for tried, start in enumerate(all_starts, 1):
        f = residual(start)
        evaluations += 1
        achieved = float(np.max(np.abs(f)))
        if achieved <= _TOL:
            return start
        if not math.isfinite(achieved):
            continue
        fitted, f, fit_evaluations = _levenberg_marquardt(residual, start, f, 200 * (n + 1))
        evaluations += fit_evaluations
        achieved = float(np.max(np.abs(f)))
        if achieved <= _TOL:
            return fitted
        best_residual = min(best_residual, achieved)
    raise CalibrationError("calibration did not reach tolerance", best_residual,
                           starts=tried, evaluations=evaluations)


def outcome_probabilities(state: ModeVector, unitary: TransferMatrix) -> np.ndarray:
    """Detector-click probabilities after a circuit section."""
    return probabilities(np.asarray(unitary) @ np.asarray(state))


__all__ = [
    "DEFAULT_MEASUREMENT_PHASES",
    "DEFAULT_PREPARATION_PHASES",
    "DEFAULT_PREPARATION_TS",
    "MEASUREMENT_COUPLER_SLOTS",
    "DeviceConfig",
    "MeasurementConfig",
    "PhaseSkeleton",
    "PreparationConfig",
    "calibrate_phases",
    "context_unitaries",
    "load_device_config",
    "measurement_skeleton",
    "measurement_unitary",
    "outcome_probabilities",
    "preparation_skeleton",
    "preparation_unitary",
    "prepare_state_circuit",
    "prepare_state_direct",
    "prepare_states",
]
