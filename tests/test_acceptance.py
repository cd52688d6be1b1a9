"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on a passing suite.
"""

import time
from contextlib import contextmanager

import numpy as np

from chipctx import cli
from chipctx.analysis import (
    CONTEXTS,
    ContextProbabilities,
    assignment_values,
    classical_bound_enumeration,
    epsilon,
    significance,
)
from chipctx.chips import (
    MEASUREMENT_COUPLER_SLOTS,
    DeviceConfig,
    MeasurementConfig,
    PreparationConfig,
    calibrate_phases,
    measurement_skeleton,
    measurement_unitary,
    outcome_probabilities,
    preparation_skeleton,
    prepare_state_circuit,
    prepare_state_direct,
)
from chipctx.galton import galton_s_exact, zz_expectation
from chipctx.sampling import derive_seed, estimate_s, sample_counts, write_counts_csv
from chipctx.sweep import SweepSpec, run_sweep

from conftest import SQRT2, align_global_phase, oracle_s, random_states


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{name}]: FAIL", flush=True)
        raise
    print(f"ACCEPTANCE {number} [{name}]: PASS", flush=True)


def ideal_context_probabilities(phi):
    state = prepare_state_direct(phi)
    return [
        ContextProbabilities(ctx, tuple(outcome_probabilities(state, measurement_unitary(MeasurementConfig(ctx)))))
        for ctx in CONTEXTS
    ]


def test_criterion_1_ideal_curve_oracle():
    with criterion(1, "ideal curve matches the closed form at 201 points"):
        start = time.perf_counter()
        table = run_sweep(SweepSpec(phi_start=0.0, phi_end=2.0 * np.pi, steps=201))
        elapsed = time.perf_counter() - start
        assert len(table) == 201
        # two independent code paths: package matrix pipeline vs closed form
        for phi, s in zip(table.phi.tolist(), table.s.tolist()):
            assert abs(s - oracle_s(phi)) < 1e-9
        best = int(table.s.argmax())
        assert table.phi[best] == 0.0
        assert abs(table.s[best] - 2.0 * SQRT2) < 1e-9
        assert elapsed < 1.0, f"sweep took {elapsed:.2f}s, budget 1s"


def test_criterion_2_summary_significance(tmp_path, capsys):
    with criterion(2, "printed-summary significance is ~13.3, note emitted"):
        z = significance(2.69, 2.53 - 2.0, 0.012)
        assert abs(z - 13.3333333333) < 1e-6
        assert abs(z - 14.0) <= 1.0  # within one sigma of the quoted count
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, [])
        code = cli.main(["analyze", str(counts), "--summary", "2.69", "2.53", "0.012"])
        assert code == 0
        out = capsys.readouterr().out
        assert "13.333" in out
        assert "rounded" in out  # discrepancy note


def test_criterion_3_violation_region_boundary():
    with criterion(3, "S > 2 exactly inside |phi| < arccos(sqrt2 - 1)"):
        boundary = float(np.arccos(SQRT2 - 1.0))
        assert abs(boundary - 1.1437) < 1e-4

        def pipeline_s(phi):
            cps = ideal_context_probabilities(phi)
            e = {cp.context: cp.p[0] - cp.p[1] - cp.p[2] + cp.p[3] for cp in cps}
            return e["XX"] + e["XZ"] + e["ZX"] - e["ZZ"]

        assert pipeline_s(boundary - 1e-9) > 2.0
        assert pipeline_s(boundary + 1e-9) < 2.0
        assert pipeline_s(2.0 * np.pi - boundary - 1e-9) < 2.0
        assert pipeline_s(2.0 * np.pi - boundary + 1e-9) > 2.0
        # grid consistency across a full sweep (no grid point sits within
        # 1e-9 of the boundary)
        table = run_sweep(SweepSpec(phi_start=0.0, phi_end=2.0 * np.pi, steps=201))
        inside = (table.phi < boundary) | (table.phi > 2.0 * np.pi - boundary)
        assert np.array_equal(table.s > 2.0, inside)


def test_criterion_4_classical_bounds_exhaustive():
    with criterion(4, "assignment maximum is 2; board S = -<ZZ>_prep <= 1 exactly"):
        start = time.perf_counter()
        assert classical_bound_enumeration() == 2.0
        assert set(np.unique(assignment_values())) == {-2.0, 2.0}
        rng = np.random.default_rng(20260404)
        preps = rng.dirichlet(np.ones(4), size=10_000)
        for prep in preps:
            s = galton_s_exact(tuple(prep))
            assert s == -zz_expectation(prep)
            assert s <= 1.0
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"enumeration plus 1e4 preparations took {elapsed:.2f}s, budget 1s"


def test_criterion_5_epsilon_behavior():
    with criterion(5, "ideal epsilon <= 1e-12; any detuned coupler raises the bound"):
        for phi in np.linspace(0.0, 2.0 * np.pi, 201):
            assert epsilon(ideal_context_probabilities(phi)) <= 1e-12
        state = prepare_state_direct(0.0)
        for ctx, slots in MEASUREMENT_COUPLER_SLOTS.items():
            for slot in slots:
                cps = []
                for other in CONTEXTS:
                    if other == ctx:
                        cfg = MeasurementConfig(other, mode="physical",
                                                coupler_ts={slot: 0.5 + 0.1})
                    else:
                        cfg = MeasurementConfig(other)
                    p = outcome_probabilities(state, measurement_unitary(cfg))
                    cps.append(ContextProbabilities(other, tuple(p)))
                eps = epsilon(cps)
                assert eps > 1e-3, f"{ctx}/{slot} detuning left epsilon at {eps}"
                assert 2.0 + eps > 2.0


def test_criterion_6_statistical_honesty():
    with criterion(6, "5-sigma coverage >= 99% over 1000 runs; sigma halves as N x4"):
        start = time.perf_counter()
        probs = {
            ctx: outcome_probabilities(prepare_state_direct(0.0),
                                       measurement_unitary(MeasurementConfig(ctx)))
            for ctx in CONTEXTS
        }

        def one_run(n, seed):
            records = [
                sample_counts(probs[ctx], n, derive_seed(seed, i), context=ctx)
                for i, ctx in enumerate(CONTEXTS)
            ]
            return estimate_s(records)

        hits = 0
        for seed in range(1000):
            s, sigma = one_run(10_000, seed)
            if abs(s - 2.0 * SQRT2) < 5.0 * sigma:
                hits += 1
        assert hits >= 990

        ladder = [1000, 4000, 16000, 64000]
        means = []
        for n in ladder:
            sigmas = [one_run(n, 5000 + r)[1] for r in range(30)]
            means.append(float(np.mean(sigmas)))
        for a, b in zip(means, means[1:]):
            assert abs(b / a - 0.5) < 0.05  # within 10% of halving
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"statistics took {elapsed:.1f}s, budget 60s"


def test_criterion_7_calibration():
    with criterion(7, "cold-start calibration reaches 1e-9; circuit state matches target"):
        start = time.perf_counter()
        fresh = random_states(100, seed=987654)
        for ctx in CONTEXTS:
            target = measurement_unitary(MeasurementConfig(ctx))
            skel = measurement_skeleton(ctx)
            cold = type(skel)(n_phases=skel.n_phases, build=skel.build, seed_phases=None)
            phases = calibrate_phases(target, cold)
            calibrated = MeasurementConfig(ctx, mode="physical",
                                           calibration_phases=tuple(phases))
            u = measurement_unitary(calibrated)
            for state in fresh:
                dev = np.max(np.abs(outcome_probabilities(state, u)
                                    - outcome_probabilities(state, target)))
                assert dev < 1e-9
        # circuit-built preparation against the direct constructor
        for phi in np.linspace(0.0, 2.0 * np.pi, 25):
            built = prepare_state_circuit(PreparationConfig(phi=phi))
            target_state = prepare_state_direct(phi)
            assert np.max(np.abs(align_global_phase(built, target_state) - target_state)) < 1e-9
        # and a cold-start calibration of the trim phases at phi = 0
        skel = preparation_skeleton()
        cold = type(skel)(n_phases=skel.n_phases, build=skel.build, seed_phases=None)
        phases = calibrate_phases(prepare_state_direct(0.0), cold)
        built = prepare_state_circuit(PreparationConfig(phi=0.0, calibration_phases=tuple(phases)))
        target_state = prepare_state_direct(0.0)
        assert np.max(np.abs(align_global_phase(built, target_state) - target_state)) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"calibration took {elapsed:.1f}s, budget 10s"


def test_criterion_8_byte_identical_reruns(tmp_path):
    with criterion(8, "identical seeds give byte-identical CSV outputs"):
        outs = []
        for tag in ("first", "second"):
            out = tmp_path / f"{tag}.csv"
            counts = tmp_path / f"{tag}_counts.csv"
            code = cli.main([
                "sweep", "--steps", "7", "--mode", "sampled", "--shots", "5000",
                "--seed", "123", "--out", str(out), "--counts-out", str(counts),
            ])
            assert code == 0
            outs.append((out.read_bytes(), counts.read_bytes()))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]
