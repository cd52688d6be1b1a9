"""The batched sweep engine against the scalar pipeline, bit for bit.

Every check here is exact equality.  The scalar reference is the per-phase
path: prepare one state, one matrix-vector product per context, one report;
in sampled mode one ``sample_counts`` per record on the seed
``derive_seed(master_seed, point_index, context_index)``.  These tests pin
that per-record seed contract.
"""

from dataclasses import replace

import numpy as np
import pytest

from chipctx.analysis import CONTEXTS, ContextProbabilities, report_from_probabilities
from chipctx.chips import (
    MEASUREMENT_COUPLER_SLOTS,
    DeviceConfig,
    MeasurementConfig,
    PreparationConfig,
    context_unitaries,
    outcome_probabilities,
    prepare_state_circuit,
    prepare_state_direct,
)
from chipctx.sampling import derive_seed, report_from_counts, sample_counts
from chipctx.sweep import _BLOCK, SweepSpec, run_sweep


def random_device(seed):
    """Imperfect device with random coupler transmissivities and trim phases."""
    rng = np.random.default_rng(seed)
    preparation = PreparationConfig(
        coupler_ts=tuple(rng.uniform(0.05, 0.95, 3)),
        calibration_phases=tuple(rng.uniform(-np.pi, np.pi, 3)),
    )
    measurements = {
        ctx: MeasurementConfig(
            ctx, mode="physical",
            coupler_ts={slot: float(rng.uniform(0.3, 0.7)) for slot in slots},
            calibration_phases=tuple(rng.uniform(-np.pi, np.pi, 4)),
        )
        for ctx, slots in MEASUREMENT_COUPLER_SLOTS.items()
    }
    return DeviceConfig(preparation=preparation, measurements=measurements)


RANDOM_DEVICES = [random_device(seed) for seed in (101, 202, 303)]
DEVICE_IDS = ["device101", "device202", "device303"]


def scalar_probabilities(device, phi):
    if device.preparation is None:
        state = prepare_state_direct(phi)
    else:
        state = prepare_state_circuit(replace(device.preparation, phi=phi))
    unitaries = context_unitaries(device)
    return {ctx: outcome_probabilities(state, unitaries[ctx]) for ctx in CONTEXTS}


def checked_indices(steps):
    """First, last, middle and both sides of the first block edge."""
    return sorted({0, steps // 2, steps - 1} | ({_BLOCK - 1, _BLOCK} & set(range(steps))))


@pytest.mark.parametrize("device", RANDOM_DEVICES + [DeviceConfig.ideal()],
                         ids=DEVICE_IDS + ["ideal"])
@pytest.mark.parametrize("steps", [2, _BLOCK + 7])
def test_analytic_rows_equal_scalar_pipeline(device, steps):
    spec = SweepSpec(phi_start=-3.1, phi_end=9.7, steps=steps, device=device)
    table = run_sweep(spec)
    assert len(table) == steps
    assert [row.phi for row in table] == spec.phis().tolist()
    for i in checked_indices(steps):
        row = table[i]
        probs = scalar_probabilities(device, row.phi)
        expected = report_from_probabilities(
            [ContextProbabilities(ctx, tuple(probs[ctx])) for ctx in CONTEXTS]
        )
        assert row.report == expected
        assert row.counts is None


@pytest.mark.parametrize("device", RANDOM_DEVICES, ids=DEVICE_IDS)
@pytest.mark.parametrize("steps,bootstrap", [(2, None), (2, 40), (_BLOCK + 3, None)])
def test_sampled_records_follow_the_seed_contract(device, steps, bootstrap):
    spec = SweepSpec(phi_start=0.3, phi_end=5.9, steps=steps, mode="sampled", shots=3000,
                     master_seed=77, device=device, bootstrap=bootstrap)
    table = run_sweep(spec)
    assert len(table) == steps
    for i in checked_indices(steps):
        row = table[i]
        probs = scalar_probabilities(device, row.phi)
        records = tuple(
            sample_counts(probs[ctx], spec.shots, derive_seed(spec.master_seed, i, c), context=ctx)
            for c, ctx in enumerate(CONTEXTS)
        )
        assert row.counts == records
    # the batched estimates equal the scalar estimators on every row
    for row in table:
        assert row.report == report_from_counts(row.counts, bootstrap=bootstrap)
