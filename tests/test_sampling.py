"""Counting statistics: sampling, estimators, uncertainty scaling, CSV."""

import re
import threading

import numpy as np
import pytest

from chipctx import cli, sampling
from chipctx.analysis import CONTEXTS, s_value
from chipctx.sampling import (
    COUNTS_CSV_COLUMNS,
    CountRecord,
    count_statistics,
    derive_seed,
    estimate_s,
    read_counts_csv,
    sample_counts,
    write_counts_csv,
)

from conftest import (
    ORACLE_CONTEXT_UNITARIES, SQRT2, bootstrap_sigma_s, count_arrays, oracle_state, random_states,
    read_outcome, record_rows, reference_group_counts, reference_read_counts_csv, traced_peak,
)


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

    def test_slack_within_the_tolerance_is_renormalized_away(self):
        # a probability just below 0, within PROB_SUM_TOL, draws no events
        rec = sample_counts((-5e-10, 0.5, 0.5 + 5e-10, 0.0), 1000, seed=4)
        assert rec.counts[0] == rec.counts[3] == 0

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

    @pytest.mark.parametrize("p", [(0.5, 0.5, 0.0), (0.25,) * 5, ((0.5, 0.5), (0.0, 0.0))])
    def test_rejects_other_than_four_probabilities(self, p):
        message = f"probabilities must have 4 entries, got {len(p)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_counts(p, 10, seed=1)

    def test_record_invariants(self):
        with pytest.raises(ValueError):
            CountRecord("ZZ", (1, 2, 3, 4), total=11, seed=0)
        with pytest.raises(ValueError):
            CountRecord("ZZ", (-1, 2, 3, 4), total=8, seed=0)
        with pytest.raises(ValueError, match="total must be below"):
            CountRecord("ZZ", (2**63, 0, 0, 0), total=2**63, seed=0)
        with pytest.raises(ValueError, match=r"^total must be at least 1, got 0$"):
            CountRecord("ZZ", (0, 0, 0, 0), total=0, seed=0)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must lie in"):
                CountRecord("ZZ", (1, 0, 0, 0), total=1, seed=seed)
        assert CountRecord("ZZ", (1, 0, 0, 0), total=1, seed=2**64 - 1).seed == 2**64 - 1


class TestEstimateExpectation:
    """E and its standard error sigma_i through count_statistics, one context repeated four times.

    The four contexts hold the same counts, so sigma_S = sqrt(4 sigma_i^2) = 2 sigma_i.
    """

    def statistics(self, counts):
        counts = np.repeat(np.asarray(counts)[..., None, :], 4, axis=-2)
        e, _, sigma_s = count_statistics(counts, np.zeros(counts.shape[:-1], dtype=np.uint64))
        return e[..., 3], sigma_s / 2.0

    def test_extremal_counts(self):
        value, sigma = self.statistics([1000, 0, 0, 0])
        assert value == 1.0 and sigma == 0.0

    def test_uniform_counts(self):
        value, sigma = self.statistics([250, 250, 250, 250])
        assert value == 0.0
        assert abs(sigma - 1.0 / np.sqrt(1000)) < 1e-12

    def test_repetition_std_matches_reported_sigma(self):
        # ZZ context at phi=0: scatter across reruns should match the
        # analytic standard error within 10%
        p = ideal_context_probs(0.0)["ZZ"]
        n = 10**5
        counts = np.array([sample_counts(p, n, derive_seed(606, rep), context="ZZ").counts
                           for rep in range(500)])
        values, sigmas = self.statistics(counts)
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


class TestCountStatistics:
    def groups(self):
        return [sample_all_contexts(phi, 2000, master_seed=40 + g)
                for g, phi in enumerate((0.0, 0.7, 2.5))]

    def test_stack_equals_each_group_alone(self):
        counts, seeds = count_arrays(self.groups())
        assert counts.shape == (3, 4, 4) and seeds.shape == (3, 4)
        for bootstrap in (None, 50):
            stacked = count_statistics(counts, seeds, bootstrap)
            for g in range(3):
                alone = count_statistics(counts[g], seeds[g], bootstrap)
                for column, value in zip(stacked, alone):
                    assert np.array_equal(column[g], value)

    def test_bootstrap_draws_from_the_group_seeds(self):
        counts, seeds = count_arrays(self.groups())
        _, _, sigma_s = count_statistics(counts, seeds, bootstrap=50)
        for n, seed, sigma in zip(counts, seeds.tolist(), sigma_s.tolist()):
            assert sigma == bootstrap_sigma_s(n, np.random.default_rng(derive_seed(*seed)), 50)

    def test_bootstrap_blocks_equal_the_scalar_reference(self):
        # 3000 replicates put two groups in a block, so the third starts a new one
        counts, seeds = count_arrays(self.groups())
        for bootstrap in (2, 3000, 20_000):
            _, _, sigma_s = count_statistics(counts, seeds, bootstrap)
            assert sigma_s.tolist() == [
                bootstrap_sigma_s(n, np.random.default_rng(derive_seed(*seed)), bootstrap)
                for n, seed in zip(counts, seeds.tolist())]

    def test_groups_are_put_in_context_order(self, tmp_path):
        groups = self.groups()
        rows = [(float(g), rec) for g, group in enumerate(groups) for rec in reversed(group)]
        path = tmp_path / "counts.csv"
        write_counts_csv(path, rows)
        phi, counts, seeds = read_counts_csv(path)
        assert (phi.dtype, phi.tolist()) == (np.float64, [0.0, 1.0, 2.0])
        assert counts.tolist() == [[list(rec.counts) for rec in group] for group in groups]
        assert seeds.tolist() == [[rec.seed for rec in group] for group in groups]
        assert (counts.dtype, seeds.dtype) == (np.int64, np.uint64)

    def test_zero_event_record_fails_before_any_division(self):
        counts, seeds = count_arrays(self.groups())
        counts[1, 2] = 0
        with np.errstate(all="raise"), pytest.raises(
                ValueError, match=r"^record \[1, 2\]: total must be at least 1, got 0$"):
            count_statistics(counts, seeds)

    @pytest.mark.parametrize("bootstrap", [None, 20])
    @pytest.mark.parametrize("record, message", [
        ([-5, 10, 0, 0], "counts must be four non-negative integers, got (-5, 10, 0, 0)"),
        ([10, -5, 0, 0], "counts must be four non-negative integers, got (10, -5, 0, 0)"),
        ([2**63 - 1, 2**63 - 1, 5, 0], f"total must be below 2**63, got {2**64 + 3}"),
    ], ids=["negative-first", "negative-later", "wrapped-sum"])
    def test_a_record_that_count_record_rejects_raises_its_message(self, record, message,
                                                                   bootstrap):
        # the first bad record raises CountRecord's own message, after the record's index
        counts, seeds = count_arrays(self.groups())
        counts[1, 2], counts[2, 0] = record, [-1, 1, 1, 1]
        with pytest.raises(ValueError) as info:
            count_statistics(counts, seeds, bootstrap)
        assert str(info.value) == f"record [1, 2]: {message}"

    def test_a_uint64_count_past_int64_raises_count_records_message(self):
        counts, seeds = count_arrays(self.groups())
        counts = counts.astype(np.uint64)
        counts[0, 3, 0] = 2**63
        with pytest.raises(ValueError) as info:
            count_statistics(counts, seeds)
        total = 2**63 + int(counts[0, 3, 1:].sum())
        assert str(info.value) == f"record [0, 3]: total must be below 2**63, got {total}"

    def test_a_negative_seed_raises_count_records_message(self):
        counts, _ = count_arrays(self.groups())
        seeds = np.zeros(counts.shape[:-1], dtype=np.int64)
        seeds[2, 1] = -1
        with pytest.raises(ValueError) as info:
            count_statistics(counts, seeds, bootstrap=20)
        assert str(info.value) == "record [2, 1]: seed must lie in [0, 2**64), got -1"

    @pytest.mark.parametrize("bootstrap", [None, 20])
    @pytest.mark.parametrize("counts, seeds, message", [
        (np.array([[0.5, 0.5, 0, 0]] * 4), np.zeros(4, dtype=np.uint64),
         "counts must be integers shaped (..., 4, 4), got float64 shaped (4, 4)"),
        (np.ones((4, 5), dtype=np.int64), np.zeros(4, dtype=np.uint64),
         "counts must be integers shaped (..., 4, 4), got int64 shaped (4, 5)"),
        (np.ones((3, 4), dtype=np.int64), np.zeros(3, dtype=np.uint64),
         "counts must be integers shaped (..., 4, 4), got int64 shaped (3, 4)"),
        (np.ones((1, 4, 4), dtype=np.int64), np.zeros(1, dtype=np.uint64),
         "seeds must be integers shaped (1, 4), got uint64 shaped (1,)"),
        (np.ones((4, 4), dtype=np.int64), np.zeros(4),
         "seeds must be integers shaped (4,), got float64 shaped (4,)"),
    ], ids=["float-counts", "five-detectors", "three-contexts", "seed-per-group",
            "float-seeds"])
    def test_arrays_of_the_wrong_dtype_or_shape_raise_one_line(self, counts, seeds, message,
                                                               bootstrap):
        with pytest.raises(ValueError) as info:
            count_statistics(counts, seeds, bootstrap)
        assert str(info.value) == message

    def test_any_integer_dtype_gives_the_int64_statistics(self):
        counts, seeds = count_arrays(self.groups())
        seeds >>= np.uint64(1)  # each seed also an int64
        expected = count_statistics(counts, seeds, 20)
        for dtype in (np.uint64, np.int32, np.uint16):
            for column, value in zip(count_statistics(counts.astype(dtype), seeds, 20), expected):
                assert column.tobytes() == value.tobytes()
        for column, value in zip(count_statistics(counts, seeds.astype(np.int64), 20), expected):
            assert column.tobytes() == value.tobytes()

    def test_the_checks_add_no_table_to_the_peak(self):
        # a strided table's flat records are a copy, freed before the statistics allocate
        counts, seeds = random_groups(20_000, seed=5)
        strided = np.ascontiguousarray(counts.transpose(1, 0, 2)).transpose(1, 0, 2)
        core = traced_peak(sampling._count_statistics, counts, seeds)
        for table in (counts, strided, counts.astype(np.uint64)):
            assert traced_peak(count_statistics, table, seeds) <= core + 65_536

    def test_bootstrap_needs_two_replicates(self):
        counts, seeds = count_arrays(self.groups())
        with pytest.raises(ValueError, match="^bootstrap must be at least 2, got 1$"):
            count_statistics(counts, seeds, bootstrap=1)

    def test_no_groups_give_empty_columns(self):
        counts, seeds = count_arrays([])
        e, eps, sigma_s = count_statistics(counts, seeds, bootstrap=20)
        assert (e.shape, eps.shape, sigma_s.shape) == ((0, 4), (0,), (0,))


def test_each_record_is_checked_once_where_it_enters(monkeypatch, tmp_path, capsys):
    # the record predicate sees a file's records and an API caller's arrays; records
    # that were checked where they entered (the sweep's draws, CountRecords) skip it
    seen = []
    bad_records = sampling._bad_records

    def counting(counts, totals):
        seen.append(len(counts))
        return bad_records(counts, totals)

    def records_seen(call):
        seen.clear()
        call()
        return sum(seen)

    monkeypatch.setattr(sampling, "_bad_records", counting)
    counts_csv = tmp_path / "counts.csv"
    sweep = ["sweep", "--mode", "sampled", "--steps", "300", "--shots", "100",
             "--out", str(tmp_path / "sweep.csv"), "--counts-out", str(counts_csv)]
    assert records_seen(lambda: cli.main(sweep)) == 0
    assert records_seen(lambda: cli.main(["analyze", str(counts_csv)])) == 1200
    assert records_seen(lambda: estimate_s(sample_all_contexts(0.0, 100, master_seed=1))) == 0
    assert records_seen(lambda: cli.main(["hv", "--prep", "0.1", "0.2", "0.3", "0.4",
                                          "--shots", "100"])) == 0
    counts, seeds = random_groups(700, seed=3)
    assert records_seen(lambda: count_statistics(counts, seeds)) == 2800
    capsys.readouterr()


def random_groups(n_groups, seed):
    """Counts (group, context, detector) of up to 1e5 events a context, and record seeds (group, context)."""
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(rng.integers(1, 100_000, size=(n_groups, 4)), [0.4, 0.1, 0.2, 0.3])
    return counts, rng.integers(0, 2**64, size=(n_groups, 4), dtype=np.uint64)


class TestBootstrapLaw:
    """The bootstrap's sigma_S against its exact law, not against pinned bytes."""

    def test_the_variance_estimate_is_unbiased(self):
        # each replicate's E_c has variance (1 - E_c^2)/N_c, so the ddof=1 variance of S
        # over B replicates has mean sum_c (1 - E_c^2)/N_c; at B = 50 one group's ratio has
        # a spread of about 0.2, so the mean of 4000 lies within 0.03 of 1 at about 9 sigma.
        # Detectors 1 and 4 take about 4/5 of the events, so E is near 0.6 and a redraw
        # that pairs other detectors misses the law
        rng = np.random.default_rng(2031)
        p = rng.uniform(0.1, 1.0, size=(4000, 4, 4)) * [4.0, 1.0, 1.0, 4.0]
        totals = rng.integers(50, 5000, size=(4000, 4))
        counts = rng.multinomial(totals, p / p.sum(axis=-1, keepdims=True))
        seeds = rng.integers(0, 2**64, size=(4000, 4), dtype=np.uint64)
        e, _, sigma_s = count_statistics(counts, seeds, bootstrap=50)
        variance = ((1.0 - e * e) / counts.sum(axis=-1)).sum(axis=-1)
        assert abs(np.mean(sigma_s**2 / variance) - 1.0) <= 0.03

    def test_a_record_of_2_to_the_63_minus_1_events_gives_finite_statistics(self):
        # ZZ splits its events into n1 + n4 = 2**62 - 1 and n2 + n3 = 2**62, so about half
        # of its replicates draw k >= 2**62, where 2k - N would wrap in int64
        n = 2**63 - 1
        counts = np.array([[[2**62, 2**61, 2**60, n - 2**62 - 2**61 - 2**60]] * 3
                           + [[2**61, 2**61, 2**62 - 2**61, 2**62 - 1 - 2**61]]], dtype=np.int64)
        seeds = np.arange(4, dtype=np.uint64)[None]
        e, eps, sigma_s = count_statistics(counts, seeds, bootstrap=50)
        assert np.isfinite(e).all() and np.isfinite(eps).all()
        assert e[0].tolist() == [0.25, 0.25, 0.25, -1.0 / n]
        assert 0.0 < sigma_s[0] < 1e-8  # sqrt(sum (1 - E^2)/N) is 4e-10


class TestBootstrapThreads:
    """The bootstrap kernel draws its blocks of groups on the calling thread alone."""

    def draw_threads(self, monkeypatch):
        """The thread that reduces each block of groups to sigma_S, appended as it does."""
        threads = []

        def recording_s_value(e):
            threads.append(threading.current_thread())
            return s_value(e)

        monkeypatch.setattr(sampling, "s_value", recording_s_value)
        return threads

    def test_a_single_block_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        counts, seeds = random_groups(3, seed=1)  # a block holds 40 such groups
        count_statistics(counts, seeds, bootstrap=200)
        estimate_s([CountRecord(c, n, n.sum(), seed)
                    for c, n, seed in zip(CONTEXTS, counts[0], seeds[0].tolist())], bootstrap=200)

    @pytest.mark.parametrize("n_groups", [1, 40, 1001])
    def test_the_bootstrap_starts_no_thread(self, monkeypatch, tmp_path, capsys, n_groups):
        # at B = 200 a group holds 6400 bytes, so 40 groups fill the 256 KiB budget and
        # 1001 groups take 26 blocks
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        counts, seeds = random_groups(n_groups, seed=n_groups)
        counts_csv = tmp_path / "counts.csv"
        write_counts_csv(counts_csv, [(float(g), CountRecord(c, n, n.sum(), seed))
                                      for g, (group, group_seeds) in enumerate(zip(counts, seeds))
                                      for c, n, seed in zip(CONTEXTS, group, group_seeds.tolist())])
        monkeypatch.setattr(threading, "Thread", no_thread)
        count_statistics(counts, seeds, bootstrap=200)
        assert cli.main(["analyze", str(counts_csv), "--bootstrap", "200"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("bootstrap", [200, 1000])
    def test_threads_share_the_block_budget(self, bootstrap):
        counts, seeds = random_groups(500, seed=2)
        # the per-group columns: the peak with 2 replicates, whose blocks hold 64 bytes a group
        columns = traced_peak(count_statistics, counts, seeds, 2)
        # slack: S and its standard deviation take two (group, replicate) float64 arrays
        # besides a block's four, and a context's draw holds (B,) int64 counts and a
        # (B,) temporary
        slack = sampling._BOOTSTRAP_BLOCK_BYTES // 2 + 16 * bootstrap
        peak = traced_peak(count_statistics, counts, seeds, bootstrap)
        assert peak <= columns + sampling._BOOTSTRAP_BLOCK_BYTES + slack

    @pytest.mark.parametrize("bootstrap", [5000, 16_384], ids=["over-a-share", "over-the-budget"])
    def test_a_group_over_its_share_is_drawn_on_one_thread(self, monkeypatch, bootstrap):
        # 5000 replicates of 4 contexts (160 kB) exceed half the 256 KiB budget, 16 384 all of it
        counts, seeds = random_groups(3, seed=4)
        alone = traced_peak(count_statistics, counts[:1], seeds[:1], bootstrap)  # one block
        threads = self.draw_threads(monkeypatch)
        peak = traced_peak(count_statistics, counts, seeds, bootstrap)
        assert set(threads) == {threading.current_thread()}
        assert peak <= alone + 4096  # the columns of two more groups, not a second block

    def test_a_replicate_holds_at_most_52_bytes(self):
        # a replicate's four float64 E (32 bytes), and at once either a context's int64
        # draw and one temporary (16 bytes) or S and its deviations (16 bytes)
        counts, seeds = random_groups(1, seed=20)
        bootstrap = 2**20
        assert traced_peak(count_statistics, counts, seeds, bootstrap) <= 52 * bootstrap


class TestGroupCounts:
    """Records grouped by phi as read_counts_csv reads them from a CSV that write_counts_csv wrote."""

    def records(self, contexts, seed=0):
        return [CountRecord(ctx, (60, 20, 10, 10), 100, seed=seed + i)
                for i, ctx in enumerate(contexts)]

    def read(self, path, rows):
        write_counts_csv(path, rows)
        return read_counts_csv(path)

    def test_groups_follow_the_first_appearance_of_each_phi(self, tmp_path):
        rows = [(2.5, rec) for rec in self.records(CONTEXTS[:2])]
        rows += [(-1.0, rec) for rec in self.records(CONTEXTS, seed=10)]
        rows += [(2.5, rec) for rec in self.records(CONTEXTS[2:], seed=2)]
        phi, counts, seeds = self.read(tmp_path / "counts.csv", rows)
        assert phi.tolist() == [2.5, -1.0]
        assert seeds.tolist() == [[0, 1, 2, 3], [10, 11, 12, 13]]
        assert counts.shape == (2, 4, 4)

    @pytest.mark.parametrize("contexts,message", [
        (("XX", "XZ", "XX", "ZX", "ZZ"), "duplicate record for context XX"),
        (("ZZ", "XX"), "missing record for context(s) ['XZ', 'ZX']"),
    ], ids=["duplicate", "missing"])
    def test_first_bad_group_raises_the_in_context_order_message(self, tmp_path, contexts,
                                                                 message):
        rows = [(0.0, rec) for rec in self.records(CONTEXTS)]
        rows += [(0.1, rec) for rec in self.records(contexts, seed=10)]
        rows += [(2.0, rec) for rec in self.records(("XZ",), seed=20)]
        path = tmp_path / "counts.csv"
        with pytest.raises(ValueError) as info:
            self.read(path, rows)
        assert str(info.value) == f"{path}: phi=0.1: {message}"
        with pytest.raises(ValueError) as info:
            reference_group_counts(path, reference_read_counts_csv(path))
        assert str(info.value) == f"{path}: phi=0.1: {message}"

    def test_no_records_give_no_groups(self, tmp_path):
        phi, counts, seeds = self.read(tmp_path / "counts.csv", [])
        assert (phi.dtype, phi.shape, counts.shape, seeds.shape) == (
            np.float64, (0,), (0, 4, 4), (0, 4))


class TestCountsCsv:
    def test_round_trip(self, tmp_path):
        rows = [(0.0, rec) for rec in sample_all_contexts(0.0, 500, master_seed=3)]
        rows += [(0.5, rec) for rec in sample_all_contexts(0.5, 500, master_seed=3)]
        path = tmp_path / "counts.csv"
        write_counts_csv(path, rows)
        for _, context, counts, seeds in sampling._count_blocks(path):
            assert (context.dtype, counts.dtype, seeds.dtype) == (np.int64, np.int64, np.uint64)
        assert record_rows(path) == rows
        phi, counts, seeds = read_counts_csv(path)
        assert phi.tolist() == [0.0, 0.5]
        assert (phi.dtype, counts.dtype, seeds.dtype) == (np.float64, np.int64, np.uint64)
        assert counts.tolist() == [[list(rec.counts) for _, rec in rows[g:g + 4]]
                                   for g in (0, 4)]
        assert seeds.tolist() == [[rec.seed for _, rec in rows[g:g + 4]] for g in (0, 4)]

    def test_rows_past_one_block_keep_their_line_numbers(self, tmp_path):
        rows = [(phi, rec) for phi in np.linspace(0.0, 1.0, 300).tolist()
                for rec in sample_all_contexts(phi, 50, master_seed=4)]
        path = tmp_path / "counts.csv"
        write_counts_csv(path, rows)
        outcome = read_outcome(path)
        assert outcome == read_outcome(path, reference=True)
        assert outcome[1] == [(repr(phi), rec) for phi, rec in rows]
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[1100] = lines[1100].replace(",50,", ",51,")  # N no longer the counts' sum
        path.write_text("\n\n".join(lines) + "\n", encoding="utf-8")  # a blank line after each
        with pytest.raises(ValueError) as info:
            read_counts_csv(path)
        assert str(info.value).startswith(f"{path}:2201: counts sum 50 != total 51")

    def test_a_row_after_a_multiline_field_is_numbered_by_its_line(self, tmp_path):
        # the quoted phi spans lines 2 and 3, so the row after it starts on line 4
        path = tmp_path / "ml.csv"
        path.write_text(",".join(COUNTS_CSV_COLUMNS) + '\n"0.0\n",XX,60,20,10,10,100,1\n'
                        "0.0,QQ,60,20,10,10,100,1\n", encoding="utf-8")
        for read in (read_counts_csv, reference_read_counts_csv):
            with pytest.raises(ValueError) as info:
                read(path)
            assert str(info.value).startswith(f"{path}:4: unknown context 'QQ'")

    @pytest.mark.parametrize("line", [
        "0.0,QQ,60,20,10,10,100,1",
        "nan,XX,60,20,10,10,100,1",
        "1e400,XX,60,20,10,10,100,1",
        "0.0,XX,-1,21,10,70,100,1",
        "0.0,XX,60,20,10,10,99,1",
        "0.0,XX,0,0,0,0,0,1",
        f"0.0,XX,{2**62},{2**62},{2**62},{2**62},0,1",
        f"0.0,XX,{2**63 - 1},{2**63 - 1},5,0,3,1",
        f"0.0,XX,{2**63},0,0,0,{2**63},1",
        "0.0,XX,60,20,10,10,100,-1",
        f"0.0,XX,60,20,10,10,100,{2**64}",
        "0.0,XX,60,20,10,10,100",
        "0.0,XX,6O,20,10,10,100,1",
        " 0.5 , ZZ ,6_0, 20,10,10,1_00, 7",
    ], ids=["unknown-context", "nan-phi", "infinite-phi", "negative-count", "sum-not-total",
            "no-events", "sum-past-int64", "sum-wraps-to-the-total", "total-past-int64",
            "negative-seed", "seed-past-uint64", "seven-fields", "letter-in-count",
            "spaces-and-underscores"])
    def test_row_errors_equal_the_row_reader(self, tmp_path, line):
        path = tmp_path / "counts.csv"
        write_counts_csv(path, [(0.0, rec) for rec in sample_all_contexts(0.0, 100, 1)])
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:3] + [line, "1.0,XX,1,2,3,4,10,5"] + lines[3:]) + "\n",
                        encoding="utf-8")
        assert read_outcome(path) == read_outcome(path, reference=True)

    @pytest.mark.parametrize("bad_row_first", [True, False])
    @pytest.mark.parametrize("read_error", [b"\xff", b"X" * 200_000])
    def test_read_error_comes_in_file_order(self, tmp_path, read_error, bad_row_first):
        # an undecodable byte or a field past the csv module's limit, before or after a bad row
        path = tmp_path / "counts.csv"
        write_counts_csv(path, [(phi, rec) for phi in np.linspace(0.0, 1.0, 600).tolist()
                                for rec in sample_all_contexts(phi, 100, 1)])
        lines = path.read_bytes().splitlines()
        bad, late = b"0.0,QQ,60,20,10,10,100,1", 600  # both in the first block of rows
        lines.insert(late if bad_row_first else 5, b"0.0,XX," + read_error + b",0,0,0,1,1")
        lines.insert(5 if bad_row_first else late, bad)
        path.write_bytes(b"\n".join(lines) + b"\n")
        expected = read_outcome(path, reference=True)
        assert expected[0] == "error"
        assert read_outcome(path) == expected

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
