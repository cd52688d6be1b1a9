"""Classical stochastic board: exact maps, sampling, the non-violation bound."""

import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipctx import cli, galton
from chipctx.analysis import CONTEXTS
from chipctx.galton import GaltonConfig, galton_run, galton_s, galton_s_exact, zz_expectation
from chipctx.sampling import derive_seed

from conftest import board_counts, traced_peak

# one board run: any preparation and flip probability, with their edge values
board_runs = given(
    weights=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=4,
                     max_size=4).filter(lambda w: sum(w) > 0.0),
    flip=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    m12=st.sampled_from("ZX"),
    nab=st.sampled_from("ZX"),
    shots=st.integers(1, 5000) | st.just(2**63 - 1),
    seed=st.integers(0, 2**64 - 1),
)


def channel_probabilities(prep, m12, nab, flip=0.5):
    """The board's final channel distribution of one ball, as galton_run draws from it."""
    cfg = GaltonConfig(tuple(prep), m12=m12, nab=nab, x_flip_probability=flip)
    return galton._channel_probabilities(cfg)


def random_preparations(n, seed):
    rng = np.random.default_rng(seed)
    return rng.dirichlet(np.ones(4), size=n)


def brute_force_probabilities(prep, m12, nab, flip=0.5):
    """Enumerate every (channel, digit flip, letter flip) branch exactly."""
    out = np.zeros(4)
    for ch in range(4):
        letter, digit = divmod(ch, 2)
        digit_branches = [(digit, 1.0)] if m12 == "Z" else [(digit, 1 - flip), (1 - digit, flip)]
        for d, wd in digit_branches:
            letter_branches = [(letter, 1.0)] if nab == "Z" else [(letter, 1 - flip), (1 - letter, flip)]
            for l, wl in letter_branches:
                out[2 * l + d] += prep[ch] * wd * wl
    return out


class TestExactProbabilities:
    def test_matches_brute_force_enumeration(self):
        for prep in random_preparations(50, seed=41):
            for m12 in "ZX":
                for nab in "ZX":
                    expected = brute_force_probabilities(prep, m12, nab)
                    assert np.allclose(channel_probabilities(prep, m12, nab), expected,
                                       atol=1e-14)

    def test_marginals_are_never_disturbed(self):
        # letter marginal identical whatever the digit section does, exactly
        for prep in random_preparations(100, seed=43):
            base = channel_probabilities(prep, "Z", "Z")
            mixed = channel_probabilities(prep, "X", "Z")
            assert base[0] + base[1] == mixed[0] + mixed[1]
            assert base[2] + base[3] == mixed[2] + mixed[3]
            base_d = channel_probabilities(prep, "Z", "Z")
            mixed_d = channel_probabilities(prep, "Z", "X")
            assert base_d[0] + base_d[2] == mixed_d[0] + mixed_d[2]
            assert base_d[1] + base_d[3] == mixed_d[1] + mixed_d[3]


class TestGaltonRun:
    def test_all_z_keeps_the_channel(self):
        cfg = GaltonConfig((1.0, 0.0, 0.0, 0.0), m12="Z", nab="Z", shots=5000)
        rec = galton_run(cfg, seed=2)
        assert rec.counts == (5000, 0, 0, 0)

    def test_digit_x_splits_the_pair(self):
        cfg = GaltonConfig((1.0, 0.0, 0.0, 0.0), m12="X", nab="Z", shots=10**6)
        rec = galton_run(cfg, seed=3)
        sigma = np.sqrt(10**6 * 0.25)
        assert abs(rec.counts[0] - 500_000) < 5 * sigma
        assert abs(rec.counts[1] - 500_000) < 5 * sigma
        assert rec.counts[2] == rec.counts[3] == 0

    def test_sampled_marginal_independence(self):
        # letter marginal within 5 sigma whichever digit section runs
        shots = 200_000
        for i, prep in enumerate(random_preparations(20, seed=47)):
            recs = {}
            for m12 in "ZX":
                cfg = GaltonConfig(tuple(prep), m12=m12, nab="Z", shots=shots)
                recs[m12] = galton_run(cfg, derive_seed(500, i, ord(m12)))
            left_z = recs["Z"].counts[0] + recs["Z"].counts[1]
            left_x = recs["X"].counts[0] + recs["X"].counts[1]
            p = prep[0] + prep[1]
            sigma = np.sqrt(2 * shots * max(p * (1 - p), 1e-12))
            assert abs(left_z - left_x) < 5 * sigma + 1

    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @board_runs
    def test_counts_are_one_multinomial_draw_on_the_seed(self, weights, flip, m12, nab, shots,
                                                          seed):
        prep = tuple(w / sum(weights) for w in weights)
        cfg = GaltonConfig(prep, m12=m12, nab=nab, shots=shots, x_flip_probability=flip)
        q = galton._channel_probabilities(cfg)
        q /= q.sum()  # as sample_counts renormalises it: at 2**63 - 1 balls an ulp shows
        assert galton_run(cfg, seed).counts == tuple(
            np.random.default_rng(seed).multinomial(shots, q).tolist())

    @pytest.mark.parametrize("draw", ["multinomial", "ball-by-ball"])
    @pytest.mark.parametrize("context", CONTEXTS)
    def test_counts_follow_the_law_of_dropping_each_ball(self, context, draw):
        # 2000 runs of 200 balls at a biased flip: the pooled counts match the branch
        # enumeration (chi-squared, 3 degrees of freedom, 0.01 % level), and each run's
        # Pearson statistic has mean k - 1 = 3, as a multinomial's has; the ball-by-ball
        # draw is the reference the board's one draw must agree with
        prep, flip, shots, runs = (0.1, 0.2, 0.3, 0.4), 0.3, 200, 2000
        cfg = GaltonConfig(prep, m12=context[0], nab=context[1], shots=shots,
                           x_flip_probability=flip)
        expected = shots * brute_force_probabilities(prep, context[0], context[1], flip)
        counts = np.array([
            galton_run(cfg, seed).counts if draw == "multinomial"
            else board_counts(prep, context[0], context[1], shots, flip, seed)
            for seed in range(runs)])
        pooled = counts.sum(axis=0)
        assert np.sum((pooled - runs * expected) ** 2 / (runs * expected)) < 21.11
        pearson = np.sum((counts - expected) ** 2 / expected, axis=1)
        assert abs(pearson.mean() - 3.0) < 0.3  # its standard error is about 0.055

    def test_a_run_of_2_to_the_63_minus_1_balls_holds_under_64_kib(self):
        cfg = GaltonConfig((0.1, 0.2, 0.3, 0.4), m12="X", nab="X", x_flip_probability=0.3,
                           shots=2**63 - 1)
        assert traced_peak(galton_run, cfg, 5) < 64 * 2**10

    def test_deterministic_per_seed(self):
        cfg = GaltonConfig((0.1, 0.2, 0.3, 0.4), m12="X", nab="X", shots=1000)
        assert galton_run(cfg, seed=7) == galton_run(cfg, seed=7)

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            GaltonConfig((0.5, 0.5, 0.5, -0.5), shots=10)
        with pytest.raises(ValueError):
            GaltonConfig((0.5, 0.4, 0.0, 0.0), shots=10)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_weights(self, bad):
        prep = (bad, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            GaltonConfig(prep, shots=10)
        with pytest.raises(ValueError, match="finite"):
            galton_s_exact(prep)

    @pytest.mark.parametrize("prep", [(0.5, 0.5, 0.5, -0.5), (0.5, 0.4, 0.0, 0.0)])
    def test_exact_rejects_bad_distribution(self, prep):
        with pytest.raises(ValueError):
            galton_s_exact(prep)

    @pytest.mark.parametrize("kwargs,message", [
        ({"m12": "Y"}, "sections must be 'Z' or 'X', got 'Y', 'Z'"),
        ({"nab": "z"}, "sections must be 'Z' or 'X', got 'Z', 'z'"),
        ({"shots": 0}, "shots must be at least 1, got 0"),
    ], ids=["m12", "nab", "shots"])
    def test_rejects_bad_sections_and_shots(self, kwargs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GaltonConfig((1.0, 0.0, 0.0, 0.0), **kwargs)

    @pytest.mark.parametrize("flip", [-0.1, 1.5])
    def test_exact_rejects_a_flip_probability_outside_zero_one(self, flip):
        message = f"flip probability must be in [0, 1], got {flip}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            galton_s_exact((1.0, 0.0, 0.0, 0.0), x_flip_probability=flip)


class TestGaltonS:
    def test_exact_identity_with_preparation_zz(self):
        # every context containing an X contributes exactly zero
        for prep in random_preparations(200, seed=53):
            s = galton_s_exact(tuple(prep))
            assert s == -zz_expectation(prep)
            assert s <= 1.0

    def test_concentrated_preparations(self):
        assert galton_s_exact((1.0, 0.0, 0.0, 0.0)) == -1.0
        assert galton_s_exact((0.0, 1.0, 0.0, 0.0)) == 1.0
        assert galton_s_exact((0.0, 0.0, 1.0, 0.0)) == 1.0
        assert galton_s_exact((0.25, 0.25, 0.25, 0.25)) == 0.0

    def test_biased_flips_still_respect_the_bound(self):
        rng = np.random.default_rng(59)
        for prep in random_preparations(200, seed=61):
            flip = float(rng.uniform())
            assert galton_s_exact(tuple(prep), x_flip_probability=flip) <= 2.0 + 1e-12

    def test_sampled_agrees_with_exact(self):
        hits, runs = 0, 200
        for seed in range(runs):
            prep = (0.0, 1.0, 0.0, 0.0)
            s, sigma = galton_s(prep, shots=10**4, master_seed=seed)
            if abs(s - 1.0) < 5 * sigma:
                hits += 1
        assert hits >= 0.99 * runs

    def test_uniform_preparation_near_zero(self):
        s, sigma = galton_s((0.25,) * 4, shots=10**6, master_seed=71)
        assert abs(s) < 5 * sigma

    def test_the_board_starts_no_thread(self, monkeypatch, capsys):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        galton_s((0.1, 0.2, 0.3, 0.4), 10**5, 17, 0.3)
        assert cli.main(["hv", "--prep", "0.1", "0.2", "0.3", "0.4"]) == 0
        capsys.readouterr()

    def test_never_violates_with_sampling(self):
        for i, prep in enumerate(random_preparations(100, seed=73)):
            s, sigma = galton_s(tuple(prep), shots=10**5, master_seed=i)
            assert s <= 2.0 + 5 * sigma
