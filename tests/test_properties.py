"""Properties of the statistics core over generated inputs (hypothesis).

The examples are derandomized so that the suite gives the same verdict on
every run.
"""

import tempfile
from pathlib import Path

import numpy as np
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
from chipctx.galton import galton_s_exact
from chipctx.sampling import CountRecord, read_counts_csv, write_counts_csv

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


count_records = st.builds(
    lambda context, counts, seed: CountRecord(context, tuple(counts), sum(counts), seed),
    st.sampled_from(CONTEXTS),
    st.lists(st.integers(0, 2**61), min_size=4, max_size=4),
    st.integers(0, 2**64 - 1),
)


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


@PROPERTY
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False), count_records),
                max_size=12))
def test_counts_csv_round_trips(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "counts.csv"
        write_counts_csv(path, rows)
        assert read_counts_csv(path) == rows
