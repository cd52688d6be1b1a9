"""Preparation and measurement circuits, calibration, config IO."""

import json

import numpy as np
import pytest

from chipctx.analysis import CONTEXTS
from chipctx.chips import (
    DEFAULT_MEASUREMENT_PHASES,
    DEFAULT_PREPARATION_TS,
    DeviceConfig,
    MeasurementConfig,
    PreparationConfig,
    align_global_phase,
    calibrate_phases,
    calibration_residual,
    ideal_context_unitary,
    load_device_config,
    measurement_skeleton,
    measurement_unitary,
    outcome_probabilities,
    preparation_skeleton,
    prepare_state_circuit,
    prepare_state_direct,
    two_mode_skeleton,
)
from chipctx.errors import CalibrationError

from conftest import (
    HADAMARD,
    K,
    ORACLE_CONTEXT_UNITARIES,
    SQRT2,
    oracle_state,
    random_states,
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

    def test_mismatched_context_key_rejected(self):
        with pytest.raises(ValueError):
            DeviceConfig(measurements={"XX": MeasurementConfig("ZZ")})
