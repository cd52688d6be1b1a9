"""Expectations, marginals, S, epsilon, significance, assignment enumeration."""

import numpy as np
import pytest

from chipctx.analysis import (
    CONTEXTS,
    ContextProbabilities,
    InequalityReport,
    assignment_values,
    classical_bound_enumeration,
    epsilon,
    report_from_probabilities,
    significance,
)
from chipctx.chips import (
    DEFAULT_MEASUREMENT_PHASES,
    MeasurementConfig,
    measurement_unitary,
    outcome_probabilities,
    prepare_state_direct,
)

from conftest import (
    ORACLE_CONTEXT_UNITARIES, SQRT2, expectation, marginals, oracle_s, oracle_state, random_states,
)

# Frozen regression pin: target state at phi=0 measured with the XZ context
# whose (1,2) coupler is detuned to T=0.4, all else ideal.  Computed once with
# an independent raw-numpy simulation and cross-checked against the closed
# form (1+sqrt2)*(4*sqrt(0.24) - 1.6)/(4*(2+sqrt2)).
EPSILON_PIN_T04 = 0.0635674490391564


def ideal_probabilities(phi):
    state = oracle_state(phi)
    return [
        ContextProbabilities(ctx, tuple(np.abs(u @ state) ** 2))
        for ctx, u in ORACLE_CONTEXT_UNITARIES.items()
    ]


class TestExpectation:
    def test_deterministic_plus_one(self):
        assert expectation(ContextProbabilities("ZZ", (1.0, 0.0, 0.0, 0.0))) == 1.0

    def test_uniform_is_zero(self):
        assert expectation(ContextProbabilities("ZZ", (0.25,) * 4)) == 0.0

    def test_zz_on_target_state_is_minus_inv_sqrt2(self):
        # closed form: (1 - k^2 - k^2 + 1)/nu = -1/sqrt2, phi-independent
        for phi in (0.0, 1.1, np.pi, 5.0):
            p = np.abs(oracle_state(phi)) ** 2
            e = expectation(ContextProbabilities("ZZ", tuple(p)))
            assert abs(e - (-1.0 / SQRT2)) < 1e-12

    def test_rejects_unnormalized_input(self):
        with pytest.raises(ValueError):
            ContextProbabilities("ZZ", (0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            ContextProbabilities("ZZ", (1.2, -0.2, 0.0, 0.0))

    def test_bounded_for_valid_inputs(self, rng):
        for _ in range(500):
            p = rng.dirichlet(np.ones(4))
            cp = ContextProbabilities("XX", tuple(p))
            assert -1.0 <= expectation(cp) <= 1.0
            ml, md = marginals(cp)
            assert -1.0 <= ml <= 1.0 and -1.0 <= md <= 1.0


class TestMarginals:
    def test_localized_photon(self):
        assert marginals(ContextProbabilities("ZZ", (1.0, 0.0, 0.0, 0.0))) == (1.0, 1.0)

    def test_arithmetic(self):
        assert marginals(ContextProbabilities("ZZ", (0.5, 0.0, 0.5, 0.0))) == (0.0, 1.0)

    def test_digit_marginal_insensitive_to_letter_measurement(self):
        # tensor-product circuits act on disjoint qubits
        for phi in (0.0, 0.9, 2.7):
            state = oracle_state(phi)
            p_xx = np.abs(ORACLE_CONTEXT_UNITARIES["XX"] @ state) ** 2
            p_xz = np.abs(ORACLE_CONTEXT_UNITARIES["XZ"] @ state) ** 2
            d_with_x = marginals(ContextProbabilities("XX", tuple(p_xx)))[1]
            d_with_z = marginals(ContextProbabilities("XZ", tuple(p_xz)))[1]
            assert abs(d_with_x - d_with_z) < 1e-12


class TestChshS:
    def test_phi_zero_reaches_quantum_maximum(self):
        assert abs(report_from_probabilities(ideal_probabilities(0.0)).s - 2.0 * SQRT2) < 1e-12

    def test_phi_pi_vanishes(self):
        assert abs(report_from_probabilities(ideal_probabilities(np.pi)).s) < 1e-12

    def test_uniform_probabilities_give_zero(self):
        cps = [ContextProbabilities(c, (0.25,) * 4) for c in CONTEXTS]
        assert report_from_probabilities(cps).s == 0.0

    def test_closed_form_matches_matrix_simulation(self):
        for phi in np.linspace(0.0, 2.0 * np.pi, 200):
            assert abs(report_from_probabilities(ideal_probabilities(phi)).s - oracle_s(phi)) < 1e-9

    def test_duplicate_context_rejected(self):
        cps = ideal_probabilities(0.0)
        with pytest.raises(ValueError):
            report_from_probabilities(cps + [cps[0]])

    def test_missing_context_rejected(self):
        with pytest.raises(ValueError):
            report_from_probabilities(ideal_probabilities(0.0)[:3])

    def test_quantum_inputs_respect_tsirelson_cap(self):
        for state in random_states(1000, seed=31):
            cps = [
                ContextProbabilities(ctx, tuple(np.abs(u @ state) ** 2))
                for ctx, u in ORACLE_CONTEXT_UNITARIES.items()
            ]
            assert report_from_probabilities(cps).s <= 2.0 * SQRT2 + 1e-9


class TestEpsilon:
    def test_ideal_pipeline_is_compatible(self):
        for phi in np.linspace(0.0, 2.0 * np.pi, 50):
            assert epsilon(ideal_probabilities(phi)) <= 1e-12

    def test_identical_vectors_give_zero(self):
        p = (0.4, 0.3, 0.2, 0.1)
        assert epsilon([ContextProbabilities(c, p) for c in CONTEXTS]) == 0.0

    def test_detuned_coupler_regression_pin(self):
        state = prepare_state_direct(0.0)
        cps = []
        for ctx in CONTEXTS:
            if ctx == "XZ":
                cfg = MeasurementConfig(ctx, mode="physical", coupler_ts={"digit_12": 0.4},
                                        calibration_phases=DEFAULT_MEASUREMENT_PHASES[ctx])
            else:
                cfg = MeasurementConfig(ctx)
            p = outcome_probabilities(state, measurement_unitary(cfg))
            cps.append(ContextProbabilities(ctx, tuple(p)))
        eps = epsilon(cps)
        assert eps > 0.0
        assert abs(eps - EPSILON_PIN_T04) < 1e-12


class TestSignificance:
    def test_printed_summary_numbers(self):
        z = significance(2.69, 0.53, 0.012)
        assert abs(z - (2.69 - 2.53) / 0.012) < 1e-12
        assert abs(z - 13.3) < 0.1

    def test_on_the_bound_is_zero(self):
        assert significance(2.5, 0.5, 0.1) == 0.0
        assert significance(2.0, 0.0, 0.1) == 0.0

    def test_rejects_non_positive_sigma(self):
        with pytest.raises(ValueError):
            significance(2.5, 0.0, 0.0)
        with pytest.raises(ValueError):
            significance(2.5, 0.0, -0.1)


class TestClassicalEnumeration:
    def test_maximum_is_two(self):
        assert classical_bound_enumeration() == 2.0

    def test_minimum_is_minus_two(self):
        assert float(np.min(assignment_values())) == -2.0

    def test_every_assignment_is_extremal(self):
        assert set(np.unique(assignment_values())) == {-2.0, 2.0}

    def test_sixteen_assignments(self):
        assert assignment_values().shape == (16,)


class TestReport:
    def test_bound_tracks_epsilon(self):
        report = report_from_probabilities(ideal_probabilities(0.3))
        assert report.bound == 2.0 + report.epsilon
        assert report.sigma_s == 0.0
        assert report.significance is None

    def test_report_with_sigma_carries_significance(self):
        report = report_from_probabilities(ideal_probabilities(0.0), sigma_s=0.01)
        assert report.significance is not None
        assert report.significance > 0

    def test_invalid_expectation_rejected(self):
        with pytest.raises(ValueError):
            InequalityReport(expectations={"XX": 1.5}, s=0.0, epsilon=0.0, bound=2.0)

    def test_json_dict_uses_spec_keys(self):
        doc = report_from_probabilities(ideal_probabilities(0.0)).to_json_dict()
        assert set(doc) == {"expectations", "S", "epsilon", "bound", "sigma_S", "significance"}
