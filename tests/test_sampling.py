"""Counting statistics: sampling, estimators, uncertainty scaling, CSV."""

import numpy as np
import pytest

from chipctx.analysis import CONTEXTS
from chipctx.sampling import (
    CountRecord,
    derive_seed,
    estimate_expectation,
    estimate_s,
    read_counts_csv,
    sample_counts,
    write_counts_csv,
)

from conftest import ORACLE_CONTEXT_UNITARIES, SQRT2, oracle_state, random_states


def ideal_context_probs(phi):
    state = oracle_state(phi)
    return {c: np.abs(u @ state) ** 2 for c, u in ORACLE_CONTEXT_UNITARIES.items()}


def sample_all_contexts(phi, n, master_seed):
    probs = ideal_context_probs(phi)
    return [
        sample_counts(probs[c], n, derive_seed(master_seed, i), context=c)
        for i, c in enumerate(CONTEXTS)
    ]


class TestSampleCounts:
    def test_deterministic_distribution(self):
        rec = sample_counts((1.0, 0.0, 0.0, 0.0), 1000, seed=4)
        assert rec.counts == (1000, 0, 0, 0)

    def test_uniform_counts_within_five_sigma(self):
        rec = sample_counts((0.25,) * 4, 10**6, seed=8)
        sigma = np.sqrt(10**6 * 0.25 * 0.75)
        for n in rec.counts:
            assert abs(n - 250_000) < 5 * sigma

    def test_same_seed_same_counts(self):
        a = sample_counts((0.1, 0.2, 0.3, 0.4), 5000, seed=99)
        b = sample_counts((0.1, 0.2, 0.3, 0.4), 5000, seed=99)
        assert a == b

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_counts((0.5, 0.5, 0.5, 0.5), 10, seed=1)
        with pytest.raises(ValueError):
            sample_counts((0.25,) * 4, 0, seed=1)

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            CountRecord("ZZ", (1, 2, 3, 4), total=11, seed=0)
        with pytest.raises(ValueError):
            CountRecord("ZZ", (-1, 2, 3, 4), total=8, seed=0)
        with pytest.raises(ValueError, match="total must be below"):
            CountRecord("ZZ", (2**63, 0, 0, 0), total=2**63, seed=0)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must lie in"):
                CountRecord("ZZ", (1, 0, 0, 0), total=1, seed=seed)
        assert CountRecord("ZZ", (1, 0, 0, 0), total=1, seed=2**64 - 1).seed == 2**64 - 1


class TestEstimateExpectation:
    def test_extremal_counts(self):
        est = estimate_expectation(CountRecord("ZZ", (1000, 0, 0, 0), 1000, 0))
        assert est.value == 1.0 and est.sigma == 0.0

    def test_uniform_counts(self):
        est = estimate_expectation(CountRecord("ZZ", (250, 250, 250, 250), 1000, 0))
        assert est.value == 0.0
        assert abs(est.sigma - 1.0 / np.sqrt(1000)) < 1e-12

    def test_repetition_std_matches_reported_sigma(self):
        # ZZ context at phi=0: scatter across reruns should match the
        # analytic standard error within 10%
        p = ideal_context_probs(0.0)["ZZ"]
        n = 10**5
        values, sigmas = [], []
        for rep in range(500):
            rec = sample_counts(p, n, derive_seed(606, rep), context="ZZ")
            est = estimate_expectation(rec)
            values.append(est.value)
            sigmas.append(est.sigma)
        empirical = np.std(values, ddof=1)
        assert abs(empirical - np.mean(sigmas)) / np.mean(sigmas) < 0.10


class TestEstimateS:
    def test_deterministic_records_have_zero_sigma(self):
        records = [CountRecord(c, (1000, 0, 0, 0), 1000, 0) for c in CONTEXTS]
        s, sigma = estimate_s(records)
        assert s == 1.0 + 1.0 + 1.0 - 1.0
        assert sigma == 0.0

    def test_phi_zero_estimate_and_propagated_sigma(self):
        n = 10**5
        records = sample_all_contexts(0.0, n, master_seed=12)
        s, sigma = estimate_s(records)
        expected_sigma = np.sqrt(2.0 / n)  # all |E| = 1/sqrt2
        assert abs(s - 2.0 * SQRT2) < 5 * sigma
        assert abs(sigma - expected_sigma) / expected_sigma < 0.05

    def test_estimator_consistency_over_seeded_runs(self):
        n = 10**4
        hits = 0
        runs = 1000
        for seed in range(runs):
            s, sigma = estimate_s(sample_all_contexts(0.0, n, master_seed=seed))
            if abs(s - 2.0 * SQRT2) < 5 * sigma:
                hits += 1
        assert hits >= 0.99 * runs

    def test_sigma_halves_when_n_quadruples(self):
        sizes = [1000, 4000, 16000, 64000]
        mean_sigmas = []
        for n in sizes:
            sigmas = [
                estimate_s(sample_all_contexts(0.0, n, master_seed=1000 + r))[1]
                for r in range(20)
            ]
            mean_sigmas.append(np.mean(sigmas))
        for a, b in zip(mean_sigmas, mean_sigmas[1:]):
            assert abs(b / a - 0.5) < 0.05

    def test_bootstrap_agrees_with_propagation(self):
        n = 10**4
        worst = 0.0
        for i, state in enumerate(random_states(20, seed=77)):
            records = []
            for j, (ctx, u) in enumerate(ORACLE_CONTEXT_UNITARIES.items()):
                p = np.abs(u @ state) ** 2
                records.append(sample_counts(p, n, derive_seed(900, i, j), context=ctx))
            s_prop, sig_prop = estimate_s(records)
            s_boot, sig_boot = estimate_s(records, bootstrap=1000)
            assert s_boot == s_prop  # the point estimate is identical
            worst = max(worst, abs(sig_boot - sig_prop) / sig_prop)
        assert worst < 0.15

    def test_bootstrap_is_reproducible(self):
        records = sample_all_contexts(0.0, 1000, master_seed=5)
        a = estimate_s(records, bootstrap=200)
        b = estimate_s(records, bootstrap=200)
        assert a == b

    def test_duplicate_and_missing_contexts_rejected(self):
        records = sample_all_contexts(0.0, 100, master_seed=2)
        with pytest.raises(ValueError):
            estimate_s(records + [records[0]])
        with pytest.raises(ValueError):
            estimate_s(records[:3])


class TestCountsCsv:
    def test_round_trip(self, tmp_path):
        rows = [(0.0, rec) for rec in sample_all_contexts(0.0, 500, master_seed=3)]
        rows += [(0.5, rec) for rec in sample_all_contexts(0.5, 500, master_seed=3)]
        path = tmp_path / "counts.csv"
        write_counts_csv(path, rows)
        assert read_counts_csv(path) == rows

    def test_byte_identical_rewrites(self, tmp_path):
        rows = [(1.25, rec) for rec in sample_all_contexts(1.25, 500, master_seed=3)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_counts_csv(p1, rows)
        write_counts_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("phi,context\n0.0,ZZ\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_counts_csv(path)

    def test_rejects_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "phi,context,n1,n2,n3,n4,N,seed\n0.0,ZZ,a,0,0,0,1,0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_counts_csv(path)


def test_derive_seed_is_stable_and_key_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)
