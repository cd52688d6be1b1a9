"""The batched sweep engine against the scalar pipeline, bit for bit.

Every check here is exact equality.  The analytic reference is the per-phase
path: prepare one state, one matrix-vector product per context, one report.
The sampled reference is one ``sample_counts`` per record on the seed
``derive_seed(master_seed, point_index, context_index)``, which these tests
pin, and estimates computed from those counts with raw numpy.
"""

import re
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
from chipctx.sampling import derive_seed, sample_counts
from chipctx.sweep import _BLOCK, SweepSpec, run_sweep

from conftest import bootstrap_sigma_s


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


def assert_row_equals_report(table, i, report):
    assert table.expectations[i].tolist() == [report.expectations[ctx] for ctx in CONTEXTS]
    assert table.s[i] == report.s
    assert table.epsilon[i] == report.epsilon
    assert table.bound[i] == report.bound
    assert table.sigma_s[i] == report.sigma_s
    if report.significance is None:
        assert np.isnan(table.significance[i])
    else:
        assert table.significance[i] == report.significance


def count_reference(counts, seeds, bootstrap):
    """E, S, epsilon and sigma_S of (point, context, detector) counts, with raw numpy."""
    total = counts.sum(axis=-1)
    e = (counts[..., 0] - counts[..., 1] - counts[..., 2] + counts[..., 3]) / total
    s = e[:, 0] + e[:, 1] + e[:, 2] - e[:, 3]
    p = counts / total[..., None]
    letter = (p[..., 0] + p[..., 1]) - (p[..., 2] + p[..., 3])
    digit = (p[..., 0] + p[..., 2]) - (p[..., 1] + p[..., 3])
    eps = (np.abs(digit[:, 0] - digit[:, 1]) + np.abs(digit[:, 2] - digit[:, 3])
           + np.abs(letter[:, 0] - letter[:, 2]) + np.abs(letter[:, 1] - letter[:, 3]))
    if bootstrap is None:
        sigma_s = np.sqrt(np.float_power(np.sqrt((1.0 - e * e) / total), 2.0).sum(axis=-1))
    else:
        sigma_s = np.array([
            bootstrap_sigma_s(n, np.random.default_rng(derive_seed(*seed)), bootstrap)
            for n, seed in zip(counts, seeds.tolist())])
    return e, s, eps, sigma_s


def assert_sampled_rows_follow_the_seed_contract(table, spec):
    for i in checked_indices(spec.steps):
        probs = scalar_probabilities(spec.device, table.phi[i])
        records = [
            sample_counts(probs[ctx], spec.shots, derive_seed(spec.master_seed, i, c), context=ctx)
            for c, ctx in enumerate(CONTEXTS)
        ]
        assert table.counts[i].tolist() == [list(rec.counts) for rec in records]
        assert table.seeds[i].tolist() == [rec.seed for rec in records]
    # the batched estimates equal the reference on every row
    e, s, eps, sigma_s = count_reference(table.counts, table.seeds, spec.bootstrap)
    assert np.array_equal(table.expectations, e)
    assert np.array_equal(table.s, s)
    assert np.array_equal(table.epsilon, eps)
    assert np.array_equal(table.bound, 2.0 + eps)
    assert np.array_equal(table.sigma_s, sigma_s)
    positive = sigma_s > 0.0
    assert np.array_equal(table.significance[positive],
                          (s[positive] - (2.0 + eps[positive])) / sigma_s[positive])
    assert np.isnan(table.significance[~positive]).all()


@pytest.mark.parametrize("device", RANDOM_DEVICES + [DeviceConfig.ideal()],
                         ids=DEVICE_IDS + ["ideal"])
@pytest.mark.parametrize("steps", [2, _BLOCK + 7])
def test_analytic_rows_equal_scalar_pipeline(device, steps):
    spec = SweepSpec(phi_start=-3.1, phi_end=9.7, steps=steps, device=device)
    table = run_sweep(spec)
    assert len(table) == steps
    assert table.phi.tolist() == spec.phis().tolist()
    assert table.counts is None and table.seeds is None
    for i in checked_indices(steps):
        probs = scalar_probabilities(device, table.phi[i])
        expected = report_from_probabilities(
            [ContextProbabilities(ctx, tuple(probs[ctx])) for ctx in CONTEXTS]
        )
        assert_row_equals_report(table, i, expected)


@pytest.mark.parametrize("device", RANDOM_DEVICES, ids=DEVICE_IDS)
@pytest.mark.parametrize("steps,bootstrap", [(2, None), (2, 40), (_BLOCK + 3, None)])
def test_sampled_records_follow_the_seed_contract(device, steps, bootstrap):
    spec = SweepSpec(phi_start=0.3, phi_end=5.9, steps=steps, mode="sampled", shots=3000,
                     master_seed=77, device=device, bootstrap=bootstrap)
    table = run_sweep(spec)
    assert len(table) == steps
    assert_sampled_rows_follow_the_seed_contract(table, spec)


@pytest.mark.parametrize("bootstrap", [None, 30])
@pytest.mark.parametrize("master_seed", [2**32 + 5, 2**64 + 3])
def test_large_master_seeds_follow_the_seed_contract(master_seed, bootstrap):
    spec = SweepSpec(phi_start=0.3, phi_end=5.9, steps=_BLOCK + 3, mode="sampled", shots=3000,
                     master_seed=master_seed, device=RANDOM_DEVICES[0], bootstrap=bootstrap)
    table = run_sweep(spec)
    assert table.seeds.tolist() == [[derive_seed(master_seed, i, c) for c in range(len(CONTEXTS))]
                                    for i in range(spec.steps)]
    assert_sampled_rows_follow_the_seed_contract(table, spec)


@pytest.mark.parametrize("kwargs,message", [
    ({"phi_start": np.nan}, "phi_start must be finite, got nan"),
    ({"phi_end": np.inf}, "phi_end must be finite, got inf"),
    ({"phi_start": 1.0}, "phi_start must be below phi_end, got 1.0 >= 1.0"),
    ({"steps": 1}, "steps must be at least 2, got 1"),
    ({"mode": "exact"}, "mode must be 'analytic' or 'sampled', got 'exact'"),
    ({"shots": 0}, "shots must be at least 1, got 0"),
    ({"shots": 2**63}, f"shots must be below {2**63}, got {2**63}"),
], ids=["nan-start", "infinite-end", "empty-range", "one-step", "unknown-mode", "no-shots",
        "shots-past-int64"])
def test_a_bad_spec_is_rejected(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SweepSpec(**{"phi_start": 0.0, "phi_end": 1.0, "steps": 3, **kwargs})


def test_a_phase_span_past_the_float_range_is_rejected():
    # each limit is finite, but phi_end - phi_start overflows
    with pytest.raises(ValueError, match="phase span must be finite"):
        SweepSpec(-1e308, 1e308, steps=3)
