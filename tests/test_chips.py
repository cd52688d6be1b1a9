"""Preparation and measurement circuits, calibration, config IO."""

import json
import math
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import chipctx
from chipctx import chips
from chipctx.analysis import CONTEXTS
from chipctx.chips import (
    DEFAULT_MEASUREMENT_PHASES,
    DEFAULT_PREPARATION_TS,
    DeviceConfig,
    MeasurementConfig,
    PreparationConfig,
    calibrate_phases,
    load_device_config,
    measurement_skeleton,
    measurement_unitary,
    outcome_probabilities,
    preparation_skeleton,
    prepare_state_circuit,
    prepare_state_direct,
    prepare_states,
)
from chipctx.errors import CalibrationError

from conftest import (
    align_global_phase,
    HADAMARD,
    K,
    ORACLE_CONTEXT_UNITARIES,
    SQRT2,
    calibration_residual,
    counting,
    ideal_context_unitary,
    json_leaves,
    oracle_state,
    random_states,
    two_mode_skeleton,
)

# exact squared magnitudes of the target state (phi-independent)
P_EDGE = 1.0 / (4.0 * (2.0 + SQRT2))
P_BULK = (3.0 + 2.0 * SQRT2) / (4.0 * (2.0 + SQRT2))


def aligned_dev(a, b):
    return float(np.max(np.abs(align_global_phase(a, b) - b)))


class TestPrepareStateDirect:
    def test_phi_zero_magnitudes(self):
        p = np.abs(prepare_state_direct(0.0)) ** 2
        assert np.allclose(p, [P_EDGE, P_BULK, P_BULK, P_EDGE], atol=1e-12)
        # frozen decimal pins
        assert abs(p[0] - 0.07322330470336312) < 1e-15
        assert abs(p[1] - 0.42677669529663687) < 1e-15

    def test_magnitudes_do_not_depend_on_phi(self):
        ref = np.abs(prepare_state_direct(0.0))
        rng = np.random.default_rng(3)
        for phi in rng.uniform(-10, 10, size=50):
            assert np.allclose(np.abs(prepare_state_direct(phi)), ref, atol=1e-12)

    def test_phi_pi_flips_the_tunable_amplitudes(self):
        state = prepare_state_direct(np.pi)
        expected = np.array([-1.0, -K, K, -1.0]) / (2.0 * np.sqrt(2.0 + SQRT2))
        assert np.allclose(state, expected, atol=1e-12)

    def test_normalized_for_random_phases(self):
        rng = np.random.default_rng(5)
        for phi in rng.uniform(-20, 20, size=1000):
            norm = np.sum(np.abs(prepare_state_direct(phi)) ** 2)
            assert abs(norm - 1.0) <= 1e-12

    def test_rejects_non_finite_phi(self):
        with pytest.raises(ValueError):
            prepare_state_direct(float("nan"))

    @pytest.mark.parametrize("preparation", [None, PreparationConfig()], ids=["direct", "circuit"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_prepare_states_rejects_a_non_finite_phase(self, preparation, bad):
        with pytest.raises(ValueError, match="^phases must be finite$"):
            prepare_states(preparation, np.array([0.0, bad, 1.0]))


class TestPrepareStateCircuit:
    def test_matches_direct_constructor(self):
        rng = np.random.default_rng(9)
        for phi in rng.uniform(0, 2 * np.pi, size=100):
            circuit = prepare_state_circuit(PreparationConfig(phi=phi))
            assert aligned_dev(circuit, oracle_state(phi)) < 1e-9

    def test_no_letter_split_keeps_left_half(self):
        cfg = PreparationConfig(phi=0.0, coupler_ts=(1.0, 0.5, 0.5))
        state = prepare_state_circuit(cfg)
        assert np.allclose(state[2:], 0.0, atol=1e-12)

    def test_default_ts_reproduce_target_ratios(self):
        t1, t2, t3 = DEFAULT_PREPARATION_TS
        assert np.isclose(t1, 0.5)
        assert np.isclose(t2, (2.0 - SQRT2) / 4.0)
        assert np.isclose(t3, (2.0 + SQRT2) / 4.0)
        p = np.abs(prepare_state_circuit(PreparationConfig(phi=0.0))) ** 2
        # left and right halves carry the 1 : (1+sqrt2)^2 power ratio, mirrored
        assert np.isclose(p[1] / p[0], K**2, atol=1e-9)
        assert np.isclose(p[2] / p[3], K**2, atol=1e-9)

    def test_rejects_invalid_transmissivity(self):
        with pytest.raises(ValueError):
            PreparationConfig(coupler_ts=(0.5, 1.2, 0.5))


class TestMeasurementUnitary:
    def test_zz_is_identity(self):
        assert np.allclose(measurement_unitary(MeasurementConfig("ZZ")), np.eye(4), atol=1e-12)

    def test_ideal_xz_halves_a_localized_photon(self):
        u = measurement_unitary(MeasurementConfig("XZ"))
        p = outcome_probabilities(np.array([1, 0, 0, 0], dtype=complex), u)
        assert np.allclose(p, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_ideal_matrices_are_tensor_products(self):
        for ctx, expected in ORACLE_CONTEXT_UNITARIES.items():
            assert np.allclose(measurement_unitary(MeasurementConfig(ctx)), expected, atol=1e-12)

    def test_physical_balanced_matches_ideal_probabilities(self):
        for ctx in CONTEXTS:
            ideal = measurement_unitary(MeasurementConfig(ctx))
            physical = measurement_unitary(MeasurementConfig(ctx, mode="physical"))
            for state in random_states(100, seed=17):
                p_ideal = outcome_probabilities(state, ideal)
                p_phys = outcome_probabilities(state, physical)
                assert np.max(np.abs(p_ideal - p_phys)) < 1e-9

    def test_unknown_context_rejected(self):
        with pytest.raises(ValueError):
            MeasurementConfig("XY")

    def test_unknown_coupler_slot_rejected(self):
        with pytest.raises(ValueError):
            MeasurementConfig("XZ", mode="physical", coupler_ts={"letter_13": 0.5})

    def test_perturbed_coupler_changes_probabilities_continuously(self):
        # max outcome-probability change is Lipschitz in the transmissivity
        state = oracle_state(0.0)
        base = outcome_probabilities(
            state, measurement_unitary(MeasurementConfig("XZ", mode="physical")))
        deltas = np.linspace(0.0, 0.1, 21)
        devs = []
        for d in deltas:
            cfg = MeasurementConfig("XZ", mode="physical", coupler_ts={"digit_12": 0.5 + d})
            devs.append(np.max(np.abs(
                outcome_probabilities(state, measurement_unitary(cfg)) - base)))
        devs = np.array(devs)
        slope = np.max(np.diff(devs) / np.diff(deltas))
        assert np.all(devs <= 3.0 * deltas + 1e-12)  # numeric Lipschitz bound ~2
        assert slope < 3.0  # no jumps between grid points


class TestCalibration:
    def test_identity_target_accepts_zero_phases(self):
        skel = measurement_skeleton("ZZ")
        phases = calibrate_phases(np.eye(4, dtype=complex), skel, seed_phases=np.zeros(4))
        res = calibration_residual(phases, np.eye(4, dtype=complex), skel)
        assert res < 1e-12

    def test_coupler_is_diagonally_equivalent_to_hadamard(self):
        target = np.eye(4, dtype=complex)
        target[:2, :2] = HADAMARD
        skel = two_mode_skeleton(0.5)
        phases = calibrate_phases(target, skel)
        assert calibration_residual(phases, target, skel) < 1e-12

    def test_measurement_circuits_calibrate_from_cold_start(self):
        for ctx in CONTEXTS:
            target = ideal_context_unitary(ctx)
            skel = measurement_skeleton(ctx)
            # drop the analytic seed: the optimizer must find the phases itself
            cold = type(skel)(n_phases=skel.n_phases, build=skel.build, seed_phases=None)
            phases = calibrate_phases(target, cold)
            assert calibration_residual(phases, target, cold) < 1e-9

    def test_calibrated_phases_match_analytic_defaults_in_effect(self):
        for ctx in ("XX", "XZ", "ZX"):
            target = ideal_context_unitary(ctx)
            skel = measurement_skeleton(ctx)
            phases = calibrate_phases(target, skel)
            cfg_default = MeasurementConfig(ctx, mode="physical",
                                            calibration_phases=DEFAULT_MEASUREMENT_PHASES[ctx])
            cfg_fit = MeasurementConfig(ctx, mode="physical", calibration_phases=tuple(phases))
            for state in random_states(20, seed=23):
                pd = outcome_probabilities(state, measurement_unitary(cfg_default))
                pf = outcome_probabilities(state, measurement_unitary(cfg_fit))
                assert np.max(np.abs(pd - pf)) < 1e-9

    def test_preparation_skeleton_reaches_target_state(self):
        skel = preparation_skeleton()
        target = oracle_state(0.0)
        phases = calibrate_phases(target, skel)
        assert calibration_residual(phases, target, skel) < 1e-9

    def test_unreachable_target_raises_with_residual(self):
        # a strongly unbalanced coupler cannot mimic Hadamard statistics
        target = ideal_context_unitary("XZ")
        skel = measurement_skeleton("XZ", coupler_ts={"digit_12": 0.1, "digit_34": 0.1})
        with pytest.raises(CalibrationError) as err:
            calibrate_phases(target, skel, max_restarts=2)
        assert err.value.residual > 1e-3

    def test_unreachable_target_reports_starts_and_evaluations(self):
        skel = measurement_skeleton("XZ", coupler_ts={"digit_12": 0.1, "digit_34": 0.1})
        counted, calls = counting(skel)
        with pytest.raises(CalibrationError) as err:
            calibrate_phases(ideal_context_unitary("XZ"), counted, max_restarts=2)
        # the skeleton's seed, zeros and two random restarts
        assert err.value.starts == 4
        assert err.value.evaluations == len(calls)
        assert str(err.value).startswith("calibration did not reach tolerance (residual=")
        assert str(err.value).endswith(f"after 4 starts and {len(calls)} evaluations")

    def test_each_start_is_evaluated_once(self):
        skel = measurement_skeleton("XZ")
        counted, calls = counting(replace(skel, seed_phases=None))
        start = np.array([0.3, -1.2, 2.0, 0.7])
        phases = calibrate_phases(ideal_context_unitary("XZ"), counted, seed_phases=start)
        assert calibration_residual(phases, ideal_context_unitary("XZ"), skel) < 1e-9
        assert np.array_equal(calls[0], start)
        assert sum(np.array_equal(call, start) for call in calls) == 1

    def test_cold_calibration_does_not_import_scipy(self):
        script = textwrap.dedent("""
            import sys
            from dataclasses import replace
            import chipctx.cli
            from chipctx import chips
            target = chips.measurement_unitary(chips.MeasurementConfig("XZ"))
            cold = replace(chips.measurement_skeleton("XZ"), seed_phases=None)
            chips.calibrate_phases(target, cold)
            cold = replace(chips.preparation_skeleton(), seed_phases=None)
            chips.calibrate_phases(chips.prepare_state_direct(0.0), cold)
            assert "scipy" not in sys.modules, "scipy was imported"
        """)
        src = str(Path(chipctx.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("seed,message", [
        ((0.0, 0.0, 0.0), "seed_phases must have 4 entries, got 3"),
        ((0.0, math.nan, 0.0, 0.0), "seed_phases entry must be finite, got nan"),
        ((0.0, 0.0, math.inf, 0.0), "seed_phases entry must be finite, got inf"),
    ], ids=["wrong-length", "nan", "inf"])
    def test_bad_seed_is_rejected_before_any_fit(self, seed, message):
        counted, calls = counting(measurement_skeleton("XZ"))
        with pytest.raises(ValueError, match=message):
            calibrate_phases(ideal_context_unitary("XZ"), counted, seed_phases=seed)
        assert calls == []

    @pytest.mark.parametrize("shape", [(3, 3), (4, 3), (3,), (16,)])
    def test_target_of_the_wrong_shape_is_rejected(self, shape):
        message = f"target must be a 4x4 matrix or a length-4 state, got shape {shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            calibrate_phases(np.ones(shape, dtype=complex), measurement_skeleton("XZ"))

    def test_build_rejects_a_phase_vector_of_the_wrong_length(self):
        # a single phase would otherwise broadcast over every mode
        with pytest.raises(ValueError, match=r"expected 4 phases, got shape \(1,\)"):
            measurement_skeleton("XX").build([0.0])
        with pytest.raises(ValueError, match=r"expected 3 phases, got shape \(1,\)"):
            preparation_skeleton().build([0.0])

    def test_non_finite_residual_is_never_accepted(self):
        target = ideal_context_unitary("XX")
        skel = measurement_skeleton("XX")
        seed = DEFAULT_MEASUREMENT_PHASES["XX"]

        def nan_at_seed(phases):
            u = skel.build(phases)
            return u * math.nan if tuple(phases) == seed else u

        phases = calibrate_phases(target, replace(skel, build=nan_at_seed))
        assert calibration_residual(phases, target, skel) < 1e-9
        always_nan = replace(skel, build=lambda phases: math.nan * skel.build(phases))
        with pytest.raises(CalibrationError) as err:
            calibrate_phases(target, always_nan, max_restarts=1)
        assert err.value.residual == math.inf

    def test_calibrated_phases_configure_a_measurement(self):
        # calibrate, then configure: calibrate_phases returns an array, which the config
        # stores as a tuple of floats
        ts = {"digit_12": 0.5, "digit_34": 0.5}
        target = ideal_context_unitary("XZ")
        phases = calibrate_phases(target, measurement_skeleton("XZ", ts))
        cfg = MeasurementConfig("XZ", "physical", ts, calibration_phases=phases)
        assert type(cfg.calibration_phases) is tuple
        assert all(type(phase) is float for phase in cfg.calibration_phases)
        assert cfg.calibration_phases == tuple(phases.tolist())
        for state in random_states(20, seed=29):
            assert np.max(np.abs(outcome_probabilities(state, measurement_unitary(cfg))
                                 - outcome_probabilities(state, target))) < 1e-9
        message = "context XZ calibration_phases entry must be a number, got [0.0]"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MeasurementConfig("XZ", "physical", ts, calibration_phases=np.zeros((4, 1)))


class TestLevenbergMarquardtExits:
    """The fit's early exits, each on a hand-made residual: the point, residual and evaluations."""

    def fit(self, residual, x, budget=100):
        x = np.array([x])
        return chips._levenberg_marquardt(residual, x, residual(x), budget)

    def test_a_non_finite_jacobian_ends_the_fit(self):
        # finite at the start, NaN at the forward-difference point above it
        x, f, evaluations = self.fit(lambda x: np.array([1.0 if x[0] <= 0.0 else math.nan]), 0.0)
        assert (x.tolist(), f.tolist(), evaluations) == ([0.0], [1.0], 1)

    def test_a_singular_damped_system_ends_the_fit(self):
        # a constant residual: J = 0, and the damping scale d is 0 with it
        x, f, evaluations = self.fit(lambda x: np.array([1.0]), 0.5)
        assert (x.tolist(), f.tolist(), evaluations) == ([0.5], [1.0], 1)

    def test_a_stalled_step_after_worse_trials_ends_the_fit(self):
        # a kink at the start: every trial is worse, and the damping grows until the
        # step falls below _STALL of the point
        x, f, evaluations = self.fit(lambda x: np.array([abs(x[0] - 0.3) + 1.0]), 0.3)
        assert (x.tolist(), f.tolist(), evaluations) == ([0.3], [1.0], 20)


REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted(REPO.glob("configs/*.json")) + [REPO / "perfbench" / "data" / "device.json"]


class TestConfigIO:
    def test_json_round_trip_uses_spec_field_names(self, tmp_path):
        device = DeviceConfig(
            preparation=PreparationConfig(phi=0.25),
            measurements={
                "XX": MeasurementConfig("XX", mode="physical", coupler_ts={"digit_12": 0.45}),
            },
        )
        doc = device.to_json_dict()
        assert set(doc["preparation"]) == {"phi", "coupler_Ts", "calibration_phases"}
        assert doc["measurements"]["XX"]["coupler_Ts"] == {"digit_12": 0.45}
        path = tmp_path / "device.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        loaded = load_device_config(path)
        assert loaded.preparation == device.preparation
        assert loaded.measurements["XX"] == device.measurements["XX"]
        # untouched contexts default to ideal
        assert loaded.measurements["ZZ"].mode == "ideal"

    def test_invalid_json_raises_value_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError):
            load_device_config(path)

    def test_measurement_without_a_context_rejected(self):
        with pytest.raises(ValueError, match="^measurement config requires a 'context' field$"):
            MeasurementConfig.from_json_dict({"mode": "physical"})

    def test_mismatched_context_key_rejected(self):
        with pytest.raises(ValueError):
            DeviceConfig(measurements={"XX": MeasurementConfig("ZZ")})

    def test_string_transmissivity_is_a_value_error(self):
        with pytest.raises(ValueError, match="must be a number, got '0.4'"):
            MeasurementConfig("XZ", "physical", {"digit_12": "0.4"})

    # the benchmark and the README load these, so the schema must accept them as they are
    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.name)
    def test_shipped_config_loads_and_round_trips(self, path):
        device = load_device_config(path)
        assert DeviceConfig.from_json_dict(device.to_json_dict()) == device
        shipped = json_leaves(json.loads(path.read_text(encoding="utf-8")))
        assert shipped.items() <= json_leaves(device.to_json_dict()).items()
