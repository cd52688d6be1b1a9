"""Properties of the statistics core and the circuits over generated inputs (hypothesis).

The examples are derandomized so that the suite gives the same verdict on
every run.
"""

import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chipctx.analysis import (
    CONTEXTS,
    ContextProbabilities,
    corrected_bound,
    epsilon_value,
    report_from_probabilities,
    s_value,
    sign_sum,
    significance,
)
from chipctx.chips import (
    MEASUREMENT_COUPLER_SLOTS,
    DeviceConfig,
    MeasurementConfig,
    PreparationConfig,
    _preparation_unitary,
    calibrate_phases,
    context_unitaries,
    measurement_skeleton,
    measurement_unitary,
    preparation_skeleton,
)
from chipctx.galton import galton_s_exact
from chipctx.optics import is_unitary
from chipctx.sampling import (
    CountRecord,
    count_statistics,
    derive_seeds,
    read_counts_csv,
    seed_sequence_state,
    seeded_generators,
    write_counts_csv,
)
from chipctx.sweep import SweepSpec, run_sweep

from conftest import calibration_residual, counting, record_rows, reference_group_counts

PROPERTY = settings(deadline=None, derandomize=True, database=None)

# Detector permutations that swap the +-1 labels of one or both measurements
# in every context, in the mode order index = 2*letter + digit.
SWAP_LETTER = [2, 3, 0, 1]
SWAP_DIGIT = [1, 0, 3, 2]
SWAP_BOTH = [3, 2, 1, 0]


def normalized(raw):
    total = raw.sum(axis=-1, keepdims=True)
    assume(np.all(total > 0.0))
    return raw / total


@st.composite
def probability_stacks(draw):
    """Probabilities shaped (row, context, detector), each vector normalized."""
    rows = draw(st.integers(1, 8))
    raw = draw(hnp.arrays(np.float64, (rows, len(CONTEXTS), 4),
                          elements=st.floats(0.0, 1.0, allow_subnormal=False)))
    return normalized(raw)


@st.composite
def preparations(draw):
    raw = draw(hnp.arrays(np.float64, 4, elements=st.floats(0.0, 1.0, allow_subnormal=False)))
    return tuple(normalized(raw).tolist())


phases = st.floats(-2.0 * math.pi, 2.0 * math.pi)
transmissivities = st.floats(0.0, 1.0)


@st.composite
def measurement_configs(draw, context=None):
    """A physical context with drawn transmissivities on some slots and drawn input phases."""
    context = context or draw(st.sampled_from(CONTEXTS))
    slots = draw(st.lists(st.sampled_from(MEASUREMENT_COUPLER_SLOTS[context]), unique=True)
                 if MEASUREMENT_COUPLER_SLOTS[context] else st.just([]))
    return MeasurementConfig(context, "physical", {slot: draw(transmissivities) for slot in slots},
                             tuple(draw(st.lists(phases, min_size=4, max_size=4))))


preparation_configs = st.builds(
    lambda phi, ts, trims: PreparationConfig(phi, tuple(ts), tuple(trims)),
    phases,
    st.lists(transmissivities, min_size=3, max_size=3),
    st.lists(phases, min_size=3, max_size=3),
)


@st.composite
def device_configs(draw):
    return DeviceConfig(
        preparation=draw(st.one_of(st.none(), preparation_configs)),
        measurements={
            ctx: draw(st.one_of(st.just(MeasurementConfig(ctx)), measurement_configs(ctx)))
            for ctx in CONTEXTS
        },
    )


def count_records(context):
    """Records of one context: counts up to 2**61 with at least one event, any uint64 seed."""
    return st.builds(
        lambda counts, seed: CountRecord(context, tuple(counts), sum(counts), seed),
        st.lists(st.integers(0, 2**61), min_size=4, max_size=4).filter(any),
        st.integers(0, 2**64 - 1),
    )


@st.composite
def count_groups(draw):
    """(phi, record) rows of up to three finite phis, each with one record per context.

    The rows of all groups come in a drawn order, so groups interleave.
    """
    phis = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), unique=True,
                         max_size=3))
    rows = [(phi, draw(count_records(context))) for phi in phis for context in CONTEXTS]
    return draw(st.permutations(rows))


@PROPERTY
@given(probability_stacks())
def test_swapping_both_outcome_labels_keeps_s_and_epsilon(p):
    # the product of the two outcomes, hence every E, is unchanged
    swapped = p[..., SWAP_BOTH]
    np.testing.assert_allclose(s_value(sign_sum(swapped)), s_value(sign_sum(p)),
                               rtol=0.0, atol=1e-12)
    assert np.array_equal(epsilon_value(swapped), epsilon_value(p))


@PROPERTY
@given(probability_stacks(), st.sampled_from([SWAP_LETTER, SWAP_DIGIT]))
def test_swapping_one_outcome_label_negates_s_and_keeps_epsilon(p, swap):
    swapped = p[..., swap]
    np.testing.assert_allclose(s_value(sign_sum(swapped)), -s_value(sign_sum(p)),
                               rtol=0.0, atol=1e-12)
    assert np.array_equal(epsilon_value(swapped), epsilon_value(p))


@PROPERTY
@given(probability_stacks(), st.one_of(st.just(0.0), st.floats(1e-6, 1.0)))
def test_scalar_report_equals_the_array_core_row_by_row(p, sigma_s):
    e = sign_sum(p)
    s = s_value(e)
    eps = epsilon_value(p)
    for i in range(len(p)):
        cps = [ContextProbabilities(ctx, tuple(p[i, c])) for c, ctx in enumerate(CONTEXTS)]
        report = report_from_probabilities(cps, sigma_s=sigma_s)
        assert report.expectations == dict(zip(CONTEXTS, e[i].tolist()))
        assert report.s == s[i]
        assert report.epsilon == eps[i]
        assert report.bound == corrected_bound(eps)[i]
        assert report.sigma_s == sigma_s
        if sigma_s > 0.0:
            assert report.significance == significance(s, eps, sigma_s)[i]
        else:
            assert report.significance is None


@PROPERTY
@given(preparations(), st.floats(0.0, 1.0))
def test_board_s_never_exceeds_two(prep, flip):
    assert galton_s_exact(prep, x_flip_probability=flip) <= 2.0 + 1e-12


# int64 counts at and around the limits of CountRecord's rules
INT64_EXTREMES = (-2**63, -1, 0, 1, 2**62, 2**63 - 1)
int64_counts = st.one_of(st.sampled_from(INT64_EXTREMES), st.integers(-2**63, 2**63 - 1))
count_rows = st.one_of(st.lists(st.integers(0, 9), min_size=4, max_size=4),
                       st.lists(st.one_of(st.integers(0, 9), int64_counts), min_size=4, max_size=4))


@st.composite
def int64_count_arrays(draw):
    """int64 counts shaped (group, context, detector), each record drawn on its own, and seeds."""
    groups = draw(st.integers(0, 3))
    rows = draw(st.lists(count_rows, min_size=4 * groups, max_size=4 * groups))
    seeds = draw(st.lists(st.integers(-1, 2**63 - 1), min_size=4 * groups, max_size=4 * groups))
    return (np.array(rows, dtype=np.int64).reshape(groups, len(CONTEXTS), 4),
            np.array(seeds, dtype=np.int64).reshape(groups, len(CONTEXTS)))


@settings(PROPERTY, max_examples=400)
@given(int64_count_arrays())
def test_count_statistics_rejects_what_count_record_rejects(arrays):
    # the first record, in index order, that CountRecord rejects raises its message
    counts, seeds = arrays
    for index in np.ndindex(seeds.shape):
        values = counts[index].tolist()
        try:
            CountRecord(CONTEXTS[index[-1]], tuple(values), sum(values), int(seeds[index]))
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                count_statistics(counts, seeds)
            assert str(info.value) == f"record [{', '.join(map(str, index))}]: {exc}"
            return
    count_statistics(counts, seeds)


@PROPERTY
@given(count_groups())
def test_counts_csv_round_trips(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        write_counts_csv(path, rows)
        assert [(repr(phi), rec) for phi, rec in record_rows(path)] == [
            (repr(phi), rec) for phi, rec in rows]
        phi, counts, seeds = read_counts_csv(path)
        expected_phi, expected_counts, expected_seeds = reference_group_counts(path, rows)
    assert (phi.dtype, list(map(repr, phi.tolist()))) == (
        np.float64, list(map(repr, expected_phi.tolist())))
    assert (counts.dtype, counts.tolist()) == (np.int64, expected_counts.tolist())
    assert (seeds.dtype, seeds.tolist()) == (np.uint64, expected_seeds.tolist())


@PROPERTY
@given(measurement_configs())
def test_folded_measurement_build_equals_the_composed_circuit(config):
    built = measurement_skeleton(config.context, config.coupler_ts).build(config.calibration_phases)
    np.testing.assert_allclose(built, measurement_unitary(config), rtol=0.0, atol=1e-12)


@PROPERTY
@given(preparation_configs)
def test_folded_preparation_build_equals_the_composed_circuit(config):
    built = preparation_skeleton(config.coupler_ts, config.phi).build(config.calibration_phases)
    np.testing.assert_allclose(built, _preparation_unitary(config), rtol=0.0, atol=1e-12)


@PROPERTY
@given(device_configs())
def test_any_device_has_unitary_contexts_and_non_negative_epsilon(device):
    assert all(is_unitary(u) for u in context_unitaries(device).values())
    table = run_sweep(SweepSpec(0.0, 2.0 * math.pi, 9, device=device))
    assert np.all(table.epsilon >= 0.0)
    assert np.array_equal(table.bound, 2.0 + table.epsilon)


@PROPERTY
@given(device_configs())
def test_device_config_survives_its_json_form(device):
    assert DeviceConfig.from_json_dict(json.loads(json.dumps(device.to_json_dict()))) == device


def harmonic_design(phi):
    """Rows (1, cos phi, sin phi) of the fit S(phi) = alpha + beta cos phi + gamma sin phi."""
    return np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi)], axis=-1)


def e_and_s_columns(table):
    return np.column_stack([table.expectations, table.s])


@PROPERTY
@given(device_configs())
def test_every_row_is_the_harmonic_fixed_by_three_phases(device):
    # phi enters only one amplitude, so each outcome probability, hence each
    # E column and S, is alpha + beta cos phi + gamma sin phi on any device
    anchors = run_sweep(SweepSpec(0.0, 4.0 * math.pi / 3.0, 3, device=device))
    coefficients = np.linalg.solve(harmonic_design(anchors.phi), e_and_s_columns(anchors))
    table = run_sweep(SweepSpec(-math.pi, 3.0 * math.pi, 2001, device=device))
    np.testing.assert_allclose(e_and_s_columns(table), harmonic_design(table.phi) @ coefficients,
                               rtol=0.0, atol=1e-12)


@PROPERTY
@given(measurement_configs())
def test_converged_measurement_start_is_returned_without_a_fit(config):
    skeleton = measurement_skeleton(config.context, config.coupler_ts)
    counted, calls = counting(skeleton)
    start = config.calibration_phases
    phases = calibrate_phases(skeleton.build(start), counted, seed_phases=start)
    assert len(calls) == 1
    assert phases.tolist() == list(start)


@PROPERTY
@given(preparation_configs)
def test_converged_preparation_start_is_returned_without_a_fit(config):
    skeleton = preparation_skeleton(config.coupler_ts, config.phi)
    counted, calls = counting(skeleton)
    start = config.calibration_phases
    phases = calibrate_phases(skeleton.build(start)[:, 0], counted, seed_phases=start)
    assert len(calls) == 1
    assert phases.tolist() == list(start)


@PROPERTY
@given(measurement_configs())
def test_measurement_circuit_calibrates_from_a_cold_start(config):
    # the drawn input phases make the target reachable; no seed points at them
    skeleton = replace(measurement_skeleton(config.context, config.coupler_ts), seed_phases=None)
    target = skeleton.build(config.calibration_phases)
    assert calibration_residual(calibrate_phases(target, skeleton), target, skeleton) < 1e-9


@PROPERTY
@given(preparation_configs)
def test_preparation_calibrates_from_a_cold_start(config):
    skeleton = replace(preparation_skeleton(config.coupler_ts, config.phi), seed_phases=None)
    target = skeleton.build(config.calibration_phases)[:, 0]
    assert calibration_residual(calibrate_phases(target, skeleton), target, skeleton) < 1e-9


MASTER_SEEDS = st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, 2**64]) | st.integers(0, 2**80 - 1)
# child seeds of one word (below 2**32) and of two
CHILD_SEEDS = (st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**32 - 1)
               | st.integers(0, 2**64 - 1))


def seed_words(n):
    """The uint32 words SeedSequence makes of a non-negative int, low word first."""
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


@PROPERTY
@given(MASTER_SEEDS, st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 3)),
                              min_size=1, max_size=8), st.sampled_from([1, 2, 4]))
def test_seed_kernel_equals_seed_sequence_on_sweep_keys(master, keys, n_words):
    entropy = np.array([seed_words(master) + [point, c] for point, c in keys], dtype=np.uint32).T
    expected = [np.random.SeedSequence((master, point, c)).generate_state(n_words, np.uint64)
                for point, c in keys]
    assert seed_sequence_state(entropy, n_words).tolist() == [e.tolist() for e in expected]
    points, contexts = (np.array(column, dtype=np.uint64) for column in zip(*keys))
    assert derive_seeds(master, points, contexts).tolist() == [e[0] for e in expected]


@PROPERTY
@given(CHILD_SEEDS)
def test_seed_kernel_equals_seed_sequence_on_child_seeds(seed):
    state = seed_sequence_state(np.array(seed_words(seed), dtype=np.uint32)[:, None], 4)
    assert state[0].tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()


@PROPERTY
@given(st.lists(CHILD_SEEDS, min_size=1, max_size=8))
def test_seeded_generators_equal_default_rng(seeds):
    generators = list(seeded_generators(np.array(seeds, dtype=np.uint64)))
    assert [g.bit_generator.state for g in generators] == [
        np.random.default_rng(seed).bit_generator.state for seed in seeds]


@PROPERTY
@given(st.lists(st.lists(CHILD_SEEDS, min_size=4, max_size=4), min_size=1, max_size=8))
def test_derive_seeds_of_mixed_word_counts(keys):
    columns = [np.array(column, dtype=np.uint64) for column in zip(*keys)]
    assert derive_seeds(*columns).tolist() == [
        np.random.SeedSequence(tuple(key)).generate_state(1, np.uint64)[0] for key in keys]
