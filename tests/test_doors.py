"""Parameter doors: a CLI flag and the API arguments it feeds accept the same values.

Each flag is paired with the API doors it feeds.  Over a fixed set of edge
values (bools, signs, each limit and its neighbours, values past int64 and
uint64, non-integral, non-finite and numpy scalars) a door raises a one-line
ValueError exactly when the flag rejects the value's text, never a TypeError
or an OverflowError, and every text raises at every door.

``BAD_CALLS`` holds one malformed call per row, each a one-line ValueError;
every public door is called by some row or exempt with a reason.
"""

import io
import math
import numbers
import os
from contextlib import redirect_stderr

import numpy as np
import pytest

import chipctx
from chipctx import cli
from chipctx.analysis import (
    ContextProbabilities, InequalityReport, build_report, epsilon, report_from_probabilities,
    significance,
)
from chipctx.chips import (
    DeviceConfig, calibrate_phases, load_device_config, measurement_skeleton, measurement_unitary,
    prepare_state_circuit, prepare_state_direct, prepare_states,
)
from chipctx.galton import GaltonConfig, galton_run, galton_s, galton_s_exact
from chipctx.optics import CouplerSpec, compose, coupler, crossing, phase_shifter
from chipctx.sampling import (
    BOOTSTRAP_LIMIT, SHOTS_LIMIT, CountRecord, count_statistics, derive_seed, derive_seeds,
    estimate_s, sample_counts, write_counts_csv,
)
from chipctx.sweep import STEPS_LIMIT, SweepSpec, run_sweep

PREP = (0.0, 1.0, 0.0, 0.0)
UNIFORM = (0.25, 0.25, 0.25, 0.25)
GRID = {"phi_start": 0.0, "phi_end": 1.0, "steps": 3}
NO_COUNTS = np.zeros((0, 4, 4), dtype=np.int64)
NO_SEEDS = np.zeros((0, 4), dtype=np.uint64)

VALUES = [
    True, False, -1, 0, 1, 2, 3, 2**63, 2**64, 2.5, 3.0, 0.5, 0.0, -0.0, math.nan, math.inf,
    -math.inf, 1e308, math.nextafter(0.0, -1.0), math.nextafter(1.0, 0.0),
    math.nextafter(1.0, 2.0), np.int64(5), np.int64(-1), np.int64(2**63 - 1), np.float64(0.5),
    np.float64(2.0), np.float64(math.nan),
    *(limit + step for limit in (SHOTS_LIMIT, STEPS_LIMIT, BOOTSTRAP_LIMIT) for step in (-1, 0, 1)),
]


def above(value):
    """The float just above a number, so that a phase range starting there is valid."""
    return math.nextafter(float(value), math.inf) if isinstance(value, numbers.Real) else 1.0


def below(value):
    return math.nextafter(float(value), -math.inf) if isinstance(value, numbers.Real) else 0.0


def hv(*flags):
    return ["hv", "--prep", "0", "1", "0", "0", *flags]


SHOTS_DOORS = {
    "SweepSpec.shots": lambda v: SweepSpec(**GRID, mode="sampled", shots=v),
    "GaltonConfig.shots": lambda v: GaltonConfig(PREP, shots=v),
    "sample_counts": lambda v: sample_counts(UNIFORM, v, 1),
}
BOOTSTRAP_DOORS = {
    "SweepSpec.bootstrap": lambda v: SweepSpec(**GRID, mode="sampled", bootstrap=v),
    "count_statistics": lambda v: count_statistics(NO_COUNTS, NO_SEEDS, bootstrap=v),
}
FLIP_DOORS = {
    "GaltonConfig.x_flip_probability": lambda v: GaltonConfig(PREP, x_flip_probability=v),
    "galton_s_exact": lambda v: galton_s_exact(PREP, v),
}
PREP_DOORS = {
    "GaltonConfig.preparation": lambda v: GaltonConfig((v, 1.0, 0.0, 0.0)),
    "galton_s_exact": lambda v: galton_s_exact((v, 1.0, 0.0, 0.0)),
}

# flag: (argv of the flag set to a text, the API doors it feeds)
FLAGS = {
    "--steps": (lambda text: ["sweep", f"--steps={text}"],
                {"SweepSpec.steps": lambda v: SweepSpec(0.0, 1.0, v)}),
    "sweep --shots": (lambda text: ["sweep", "--mode", "sampled", f"--shots={text}"],
                      SHOTS_DOORS),
    "hv --shots": (lambda text: hv(f"--shots={text}"), SHOTS_DOORS),
    "sweep --seed": (lambda text: ["sweep", "--mode", "sampled", f"--seed={text}"],
                     {"SweepSpec.master_seed": lambda v: SweepSpec(**GRID, mode="sampled",
                                                                   master_seed=v)}),
    "sweep --bootstrap": (lambda text: ["sweep", "--mode", "sampled", f"--bootstrap={text}"],
                          BOOTSTRAP_DOORS),
    "analyze --bootstrap": (lambda text: ["analyze", "counts.csv", f"--bootstrap={text}"],
                            BOOTSTRAP_DOORS),
    "--phi-start": (lambda text: ["sweep", f"--phi-start={text}"],
                    {"SweepSpec.phi_start": lambda v: SweepSpec(v, above(v), 3)}),
    "--phi-end": (lambda text: ["sweep", f"--phi-end={text}"],
                  {"SweepSpec.phi_end": lambda v: SweepSpec(below(v), v, 3)}),
    "--flip-prob": (lambda text: hv(f"--flip-prob={text}"), FLIP_DOORS),
    "--prep": (lambda text: ["hv", "--prep", text, "1", "0", "0"], PREP_DOORS),
}


def flag_rejects(argv) -> bool:
    """Whether the CLI's parser refuses these arguments (a usage error)."""
    with redirect_stderr(io.StringIO()):
        try:
            cli._parser().parse_args(argv)
        except SystemExit:
            return True
    return False


def door_raises(door, value) -> bool:
    """Whether ``door(value)`` raises; only a one-line ValueError may escape it."""
    try:
        door(value)
    except ValueError as exc:
        assert "\n" not in str(exc), str(exc)
        return True
    return False


@pytest.mark.parametrize("flag", list(FLAGS))
def test_a_door_rejects_exactly_what_its_flag_rejects(flag):
    argv, doors = FLAGS[flag]
    disagreements = [(name, value) for value in VALUES for name, door in doors.items()
                     if door_raises(door, value) != flag_rejects(argv(str(value)))]
    assert disagreements == []


@pytest.mark.parametrize("flag", list(FLAGS))
def test_every_text_is_rejected_at_every_door(flag):
    _, doors = FLAGS[flag]
    accepted = [(name, str(value)) for value in VALUES for name, door in doors.items()
                if not door_raises(door, str(value))]
    assert accepted == []


def test_the_pairs_see_both_verdicts():
    # each flag accepts some values and rejects others, so no pair agrees vacuously
    for flag, (argv, _) in FLAGS.items():
        verdicts = {flag_rejects(argv(str(value))) for value in VALUES}
        assert verdicts == {True, False}, flag


RECORDS = [CountRecord(ctx, (60, 20, 10, 10), 100, seed=i)
           for i, ctx in enumerate(("XX", "XZ", "ZX", "ZZ"))]

BAD_CALLS = {
    "sampled-spec-negative-seed": lambda: SweepSpec(**GRID, mode="sampled", master_seed=-1),
    "spec-float-seed": lambda: SweepSpec(**GRID, master_seed=1.5),
    "spec-float-shots": lambda: SweepSpec(**GRID, shots=2.5),
    "analytic-spec-bootstrap": lambda: SweepSpec(**GRID, bootstrap=7),
    "sample-float-events": lambda: sample_counts(UNIFORM, 2.5, 1),
    "sample-events-past-int64": lambda: sample_counts(UNIFORM, 2**63, 1),
    "nan-probabilities": lambda: ContextProbabilities("ZZ", (math.nan,) * 4),
    "text-probabilities": lambda: ContextProbabilities("ZZ", ("0.5", "0.5", "0", "0")),
    "board-bool-shots": lambda: GaltonConfig(PREP, shots=True),
    "board-float-shots": lambda: GaltonConfig(PREP, shots=2.5),
    "board-shots-past-int64": lambda: GaltonConfig(PREP, shots=2**63),
    "text-transmissivity": lambda: CouplerSpec((1, 2), "0.5"),
    "text-phase": lambda: phase_shifter({1}, "0.5"),
    "text-phi": lambda: prepare_state_direct("0.5"),
    "text-board-flip": lambda: GaltonConfig(PREP, x_flip_probability="0.5"),
    "text-exact-flip": lambda: galton_s_exact(PREP, "0.5"),
    "float-bootstrap-estimate": lambda: estimate_s(RECORDS, bootstrap=2.5),
    "float-seed-derive": lambda: derive_seed(1.5, 0),
    "float-seed-sample": lambda: sample_counts(UNIFORM, 10, 1.5),
    "float-seed-board-run": lambda: galton_run(GaltonConfig(PREP, shots=10), 1.5),
    "float-seed-board": lambda: galton_s(PREP, 10, 1.5),
    "negative-key-derive-seeds": lambda: derive_seeds(-1, np.arange(3, dtype=np.uint64)),
    "record-float-count": lambda: CountRecord("XX", (1.5, 0, 0, 0), 1, 0),
    "record-text-count": lambda: CountRecord("XX", ("1", 0, 0, 0), 1, 0),
    "record-bool-count": lambda: CountRecord("XX", (True, 0, 0, 0), 1, 0),
    "record-float-total": lambda: CountRecord("XX", (1, 0, 0, 0), 1.0, 0),
    "record-float-seed": lambda: CountRecord("XX", (1, 0, 0, 0), 1, 2.7),
    "report-nan-expectations": lambda: build_report([math.nan] * 4, 0.0),
    "report-nan-epsilon": lambda: build_report([0.5] * 4, math.nan, 0.1),
}


# row: (the parameter its message names, the call)
NAMED_BAD_CALLS = {
    "derive-seeds-negative-array": ("key", lambda: derive_seeds(0, np.array([-1]))),
    "derive-seeds-float-array": ("key", lambda: derive_seeds(0, np.array([1.5]))),
    "derive-seeds-no-array": ("key", lambda: derive_seeds(0, 1)),
    "derive-seeds-unequal-arrays": ("key", lambda: derive_seeds(0, np.arange(2), np.arange(3))),
    "record-counts-not-a-vector": ("counts", lambda: CountRecord("XX", 5, 5, 0)),
    "calibration-seed-not-a-vector": ("seed_phases", lambda: calibrate_phases(
        np.eye(4), measurement_skeleton("XZ"), seed_phases=object())),
    "coupler-modes-not-a-pair": ("mode_pair", lambda: CouplerSpec(5, 0.5)),
    "coupler-three-modes": ("mode_pair", lambda: CouplerSpec((1, 2, 3), 0.5)),
    "crossing-modes-not-a-pair": ("mode_pair", lambda: crossing(2)),
    "crossing-three-modes": ("mode_pair", lambda: crossing((1, 2, 3))),
    "report-three-expectations": ("expectations", lambda: build_report([0.5] * 3, 0.0)),
    "report-five-expectations": ("expectations", lambda: build_report([0.5] * 5, 0.0)),
    "board-run-seed-past-uint64": ("seed", lambda: galton_run(GaltonConfig(PREP, shots=10),
                                                               2**64)),
    # the seed is checked before the draw, so before the record checks its context
    "sample-seed-past-uint64": ("seed", lambda: sample_counts(UNIFORM, 10, 2**64, "XY")),
    "spec-device-not-a-config": ("device", lambda: SweepSpec(**GRID, device="x")),
    "device-preparation-not-a-config": ("preparation", lambda: DeviceConfig(preparation=5)),
    "phase-shifter-modes-not-a-collection": ("modes", lambda: phase_shifter(3, 0.1)),
    "prepare-scalar-phis": ("phis", lambda: prepare_states(None, 0.5)),
    "prepare-2d-phis": ("phis", lambda: prepare_states(None, np.zeros((2, 2)))),
    "estimate-items-not-records": ("record", lambda: estimate_s([1, 2])),
    "estimate-records-not-iterable": ("record", lambda: estimate_s(5)),
    "write-counts-row-without-a-record": ("rows", lambda: write_counts_csv(os.devnull,
                                                                          [(0.0, 5)])),
    "epsilon-items-not-probabilities": ("probabilities", lambda: epsilon([1, 2])),
    "report-probabilities-not-iterable": ("probabilities",
                                          lambda: report_from_probabilities(5)),
    "compose-sections-not-iterable": ("sections", lambda: compose(5)),
    # open() would read an int as a file descriptor, and close it
    "device-config-path-an-int": ("path", lambda: load_device_config(5)),
    "significance-text-s": ("s", lambda: significance("a", 0.0, 1.0)),
    "significance-text-eps": ("eps", lambda: significance(2.5, "a", 1.0)),
    "significance-list-s": ("s", lambda: significance([2.5], 0.0, 0.1)),
    "significance-list-eps": ("eps", lambda: significance(2.5, [0.0], 0.1)),
    "significance-list-sigma": ("sigma_s", lambda: significance(2.5, 0.0, [0.1])),
    "report-expectations-not-a-mapping": ("expectations",
                                          lambda: InequalityReport(5, 0.0, 0.0, 2.0)),
    "coupler-spec-not-a-spec": ("spec", lambda: coupler(5)),
    "measurement-config-not-a-config": ("config", lambda: measurement_unitary(5)),
    "preparation-config-not-a-config": ("config", lambda: prepare_state_circuit(5)),
    "sweep-spec-not-a-spec": ("spec", lambda: run_sweep(5)),
    "calibration-skeleton-not-a-skeleton": ("skeleton", lambda: calibrate_phases(np.eye(4), 5)),
}
BAD_CALLS.update({row: call for row, (_, call) in NAMED_BAD_CALLS.items()})

# Public doors that no BAD_CALLS row calls, and why.
EXEMPT_DOORS = {
    "CalibrationError": "an exception type, raised by the package",
    "ConsistencyError": "an exception type, raised by the package",
    "classical_bound_enumeration": "takes no argument",
    "MeasurementConfig": "each field is checked and tested in tests/test_chips.py",
    "PreparationConfig": "each field is checked and tested in tests/test_chips.py",
    "count_statistics": "the --bootstrap pairs above feed it every edge value; its shape and "
                        "record checks are tested in tests/test_sampling.py",
}


@pytest.mark.parametrize("call", list(BAD_CALLS))
def test_a_bad_argument_is_a_one_line_value_error(call):
    assert door_raises(lambda _: BAD_CALLS[call](), None)


@pytest.mark.parametrize("call", list(NAMED_BAD_CALLS))
def test_the_error_names_the_parameter(call):
    parameter, door = NAMED_BAD_CALLS[call]
    with pytest.raises(ValueError, match=parameter):
        door()


def test_every_door_has_a_bad_call_or_a_reason():
    doors = {name for name in chipctx.__all__ if callable(getattr(chipctx, name))}
    doors |= {"derive_seeds", "count_statistics", "prepare_states"}
    called = set().union(*(call.__code__.co_names for call in BAD_CALLS.values()))
    assert sorted(doors - called - set(EXEMPT_DOORS)) == []
    assert sorted(set(EXEMPT_DOORS) & called) == []  # a door with a row needs no reason


def test_numpy_integers_are_integers():
    keys = np.arange(3, dtype=np.uint64)
    assert derive_seeds(np.int64(3), keys).tolist() == derive_seeds(3, keys).tolist()
    assert derive_seed(np.uint64(3), np.int64(1)) == derive_seed(3, 1)
    spec = SweepSpec(**GRID, mode="sampled", shots=np.int64(10), master_seed=np.uint64(7),
                     bootstrap=np.int32(20))
    assert (type(spec.shots), type(spec.master_seed), type(spec.bootstrap)) == (int, int, int)
    assert CountRecord("XX", tuple(np.array([1, 0, 0, 0])), np.int64(1), np.uint64(5)) == \
        CountRecord("XX", (1, 0, 0, 0), 1, 5)
