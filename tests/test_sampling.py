"""Counting statistics: sampling, estimators, uncertainty scaling, CSV."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from chipctx import sampling
from chipctx.analysis import CONTEXTS, s_value
from chipctx.sampling import (
    COUNTS_CSV_COLUMNS,
    CountColumns,
    CountRecord,
    count_statistics,
    derive_seed,
    derive_seeds,
    estimate_s,
    expectation_estimates,
    group_counts,
    read_counts_csv,
    sample_counts,
    write_counts_csv,
)

from conftest import (
    ORACLE_CONTEXT_UNITARIES, SQRT2, bootstrap_sigma_s, column_rows, count_arrays, oracle_state,
    random_states, reference_read_counts_csv,
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
        value, sigma = expectation_estimates(np.array([1000, 0, 0, 0]))
        assert value == 1.0 and sigma == 0.0

    def test_uniform_counts(self):
        value, sigma = expectation_estimates(np.array([250, 250, 250, 250]))
        assert value == 0.0
        assert abs(sigma - 1.0 / np.sqrt(1000)) < 1e-12

    def test_repetition_std_matches_reported_sigma(self):
        # ZZ context at phi=0: scatter across reruns should match the
        # analytic standard error within 10%
        p = ideal_context_probs(0.0)["ZZ"]
        n = 10**5
        counts = np.array([sample_counts(p, n, derive_seed(606, rep), context="ZZ").counts
                           for rep in range(500)])
        values, sigmas = expectation_estimates(counts)
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

    def test_groups_are_put_in_context_order(self):
        groups = self.groups()
        rows = [(float(g), rec) for g, group in enumerate(groups) for rec in reversed(group)]
        phi, counts, seeds = group_counts(columns_of(rows))
        assert phi == [0.0, 1.0, 2.0]
        assert counts.tolist() == [[list(rec.counts) for rec in group] for group in groups]
        assert seeds.tolist() == [[rec.seed for rec in group] for group in groups]
        assert (counts.dtype, seeds.dtype) == (np.int64, np.uint64)

    def test_zero_event_record_fails_before_any_division(self):
        counts, seeds = count_arrays(self.groups())
        counts[1, 2] = 0
        with np.errstate(all="raise"), pytest.raises(ValueError, match="record holds no events"):
            count_statistics(counts, seeds)

    def test_no_groups_give_empty_columns(self):
        counts, seeds = count_arrays([])
        e, eps, sigma_s = count_statistics(counts, seeds, bootstrap=20)
        assert (e.shape, eps.shape, sigma_s.shape) == ((0, 4), (0,), (0,))


def random_groups(n_groups, seed):
    """Counts (group, context, detector) of up to 1e5 events a context, and record seeds (group, context)."""
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(rng.integers(1, 100_000, size=(n_groups, 4)), [0.4, 0.1, 0.2, 0.3])
    return counts, rng.integers(0, 2**64, size=(n_groups, 4), dtype=np.uint64)


def traced_peak(function, *args):
    """tracemalloc peak, in bytes, of one call of ``function``."""
    tracemalloc.start()
    try:
        function(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBootstrapThreads:
    """The bootstrap kernel's blocks of groups drawn on several threads."""

    def draw_threads(self, monkeypatch, wait=False):
        """The thread that reduces each block of groups to sigma_S, appended as it does.

        With ``wait``, the calling thread reduces its first block only once
        another thread has reduced one, so that a worker surely draws.
        """
        caller, threads, other_drew = threading.current_thread(), [], threading.Event()

        def recording_s_value(e):
            thread = threading.current_thread()
            if thread is not caller:
                other_drew.set()
            elif wait:
                other_drew.wait(timeout=60)
            threads.append(thread)
            return s_value(e)

        monkeypatch.setattr(sampling, "s_value", recording_s_value)
        return threads

    @pytest.mark.parametrize("n_groups", [1, 5, 7, 19])
    def test_thread_count_does_not_change_sigma_s(self, monkeypatch, n_groups):
        # blocks of 6 groups on one thread, 3 on two and 2 on three: 1, block - 1,
        # block + 1 and 3 block + 1 groups of the one-thread block
        bootstrap = 50
        monkeypatch.setattr(sampling, "_BOOTSTRAP_BLOCK_BYTES", 6 * 8 * 4 * bootstrap)
        counts, seeds = random_groups(n_groups, seed=n_groups)
        group_seeds = derive_seeds(*seeds.T)
        sigma_s = {}
        for workers in (1, 2, 3):
            several_blocks = n_groups > 6 // workers
            threads = self.draw_threads(monkeypatch, wait=workers > 1 and several_blocks)
            monkeypatch.setattr(sampling, "_bootstrap_workers", lambda workers=workers: workers)
            sigma_s[workers] = sampling._bootstrap_sigma_s(counts, group_seeds, bootstrap)
            if workers > 1 and several_blocks:
                assert set(threads) - {threading.current_thread()}
            else:
                assert set(threads) == {threading.current_thread()}
        assert sigma_s[2].tobytes() == sigma_s[1].tobytes() == sigma_s[3].tobytes()
        if n_groups <= 7:
            assert sigma_s[3].tolist() == [
                bootstrap_sigma_s(n, np.random.default_rng(derive_seed(*seed)), bootstrap)
                for n, seed in zip(counts, seeds.tolist())]

    def test_many_threads_switching_fast_draw_each_block_once(self, monkeypatch):
        # 8 threads on fewer CPUs, a switch every microsecond and one group a block
        bootstrap = 20
        monkeypatch.setattr(sampling, "_BOOTSTRAP_BLOCK_BYTES", 8 * 8 * 4 * bootstrap)
        counts, seeds = random_groups(200, seed=8)
        group_seeds = derive_seeds(*seeds.T)
        monkeypatch.setattr(sampling, "_bootstrap_workers", lambda: 1)
        expected = sampling._bootstrap_sigma_s(counts, group_seeds, bootstrap)
        threads = self.draw_threads(monkeypatch)
        monkeypatch.setattr(sampling, "_bootstrap_workers", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sigma_s = sampling._bootstrap_sigma_s(counts, group_seeds, bootstrap)
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == 200
        assert sigma_s.tobytes() == expected.tobytes()

    def test_a_single_block_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading, "Thread", no_thread)
        monkeypatch.setattr(sampling, "_bootstrap_workers", lambda: 4)
        counts, seeds = random_groups(3, seed=1)  # a block of 4 threads holds 10 such groups
        count_statistics(counts, seeds, bootstrap=200)
        estimate_s([CountRecord(c, n, n.sum(), seed)
                    for c, n, seed in zip(CONTEXTS, counts[0], seeds[0].tolist())], bootstrap=200)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("bootstrap", [200, 1000])
    def test_threads_share_the_block_budget(self, monkeypatch, workers, bootstrap):
        counts, seeds = random_groups(500, seed=workers)
        monkeypatch.setattr(sampling, "_bootstrap_workers", lambda: workers)
        # the per-group columns: the peak with 2 replicates, whose blocks hold 64 bytes a group
        columns = traced_peak(count_statistics, counts, seeds, 2)
        # slack: S and its standard deviation take two (group, replicate) float64 arrays
        # besides a block's four, and each thread's draw of one context holds (B, 4) int64
        # counts and their (B,) sign sum and E
        slack = sampling._BOOTSTRAP_BLOCK_BYTES // 2 + workers * 48 * bootstrap
        peak = traced_peak(count_statistics, counts, seeds, bootstrap)
        assert peak <= columns + sampling._BOOTSTRAP_BLOCK_BYTES + slack

    @pytest.mark.parametrize("bootstrap", [5000, 16_384], ids=["over-a-share", "over-the-budget"])
    def test_a_group_over_its_share_is_drawn_on_one_thread(self, monkeypatch, bootstrap):
        # 5000 replicates of 4 contexts (160 kB) exceed half the 256 KiB budget, 16 384 all of it
        counts, seeds = random_groups(3, seed=4)
        alone = traced_peak(count_statistics, counts[:1], seeds[:1], bootstrap)  # one block
        threads = self.draw_threads(monkeypatch)
        monkeypatch.setattr(sampling, "_bootstrap_workers", lambda: 2)
        peak = traced_peak(count_statistics, counts, seeds, bootstrap)
        assert set(threads) == {threading.current_thread()}
        assert peak <= alone + 4096  # the columns of two more groups, not a second block


def columns_of(rows) -> CountColumns:
    """CountColumns of (phi, record) rows."""
    return CountColumns([phi for phi, _ in rows],
                        np.array([CONTEXTS.index(rec.context) for _, rec in rows], dtype=np.int64),
                        np.array([rec.counts for _, rec in rows], dtype=np.int64).reshape(-1, 4),
                        np.array([rec.seed for _, rec in rows], dtype=np.uint64))


class TestGroupCounts:
    def records(self, contexts, seed=0):
        return [CountRecord(ctx, (60, 20, 10, 10), 100, seed=seed + i)
                for i, ctx in enumerate(contexts)]

    def test_groups_follow_the_first_appearance_of_each_phi(self):
        rows = [(2.5, rec) for rec in self.records(CONTEXTS[:2])]
        rows += [(-1.0, rec) for rec in self.records(CONTEXTS, seed=10)]
        rows += [(2.5, rec) for rec in self.records(CONTEXTS[2:], seed=2)]
        phi, counts, seeds = group_counts(columns_of(rows))
        assert phi == [2.5, -1.0]
        assert seeds.tolist() == [[0, 1, 2, 3], [10, 11, 12, 13]]
        assert counts.shape == (2, 4, 4)

    @pytest.mark.parametrize("contexts,message", [
        (("XX", "XZ", "XX", "ZX", "ZZ"), "duplicate record for context XX"),
        (("ZZ", "XX"), "missing record for context(s) ['XZ', 'ZX']"),
    ], ids=["duplicate", "missing"])
    def test_first_bad_group_raises_the_in_context_order_message(self, contexts, message):
        rows = [(0.0, rec) for rec in self.records(CONTEXTS)]
        rows += [(1.0, rec) for rec in self.records(contexts, seed=10)]
        rows += [(2.0, rec) for rec in self.records(("XZ",), seed=20)]
        with pytest.raises(ValueError) as info:
            group_counts(columns_of(rows))
        assert str(info.value) == message

    def test_no_records_give_no_groups(self):
        phi, counts, seeds = group_counts(columns_of([]))
        assert (phi, counts.shape, seeds.shape) == ([], (0, 4, 4), (0, 4))


class TestCountsCsv:
    def test_round_trip(self, tmp_path):
        rows = [(0.0, rec) for rec in sample_all_contexts(0.0, 500, master_seed=3)]
        rows += [(0.5, rec) for rec in sample_all_contexts(0.5, 500, master_seed=3)]
        path = tmp_path / "counts.csv"
        write_counts_csv(path, rows)
        columns = read_counts_csv(path)
        assert len(columns) == len(rows)
        assert columns.counts.shape == (len(rows), 4)
        assert (columns.context.dtype, columns.counts.dtype, columns.seeds.dtype) == (
            np.int64, np.int64, np.uint64)
        assert column_rows(columns) == rows

    def test_rows_past_one_block_keep_their_line_numbers(self, tmp_path):
        rows = [(phi, rec) for phi in np.linspace(0.0, 1.0, 300).tolist()
                for rec in sample_all_contexts(phi, 50, master_seed=4)]
        path = tmp_path / "counts.csv"
        write_counts_csv(path, rows)
        assert column_rows(read_counts_csv(path)) == rows
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
        f"0.0,XX,{2**62},{2**62},{2**62},{2**62},0,1",
        f"0.0,XX,{2**63},0,0,0,{2**63},1",
        "0.0,XX,60,20,10,10,100,-1",
        f"0.0,XX,60,20,10,10,100,{2**64}",
        "0.0,XX,60,20,10,10,100",
        "0.0,XX,6O,20,10,10,100,1",
        " 0.5 , ZZ ,6_0, 20,10,10,1_00, 7",
    ], ids=["unknown-context", "nan-phi", "infinite-phi", "negative-count", "sum-not-total",
            "sum-past-int64", "total-past-int64", "negative-seed", "seed-past-uint64",
            "seven-fields", "letter-in-count", "spaces-and-underscores"])
    def test_row_errors_equal_the_row_reader(self, tmp_path, line):
        path = tmp_path / "counts.csv"
        write_counts_csv(path, [(0.0, rec) for rec in sample_all_contexts(0.0, 100, 1)])
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(lines[:3] + [line, "1.0,XX,1,2,3,4,10,5"] + lines[3:]) + "\n",
                        encoding="utf-8")
        assert read_outcome(read_counts_csv, path) == read_outcome(reference_read_counts_csv, path)

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
        expected = read_outcome(reference_read_counts_csv, path)
        assert expected[0] == "error"
        assert read_outcome(read_counts_csv, path) == expected

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


def read_outcome(read, path):
    """("ok", (phi, record) rows) of the counts CSV at ``path``, or ("error", message)."""
    try:
        records = read(path)
    except ValueError as exc:
        return "error", str(exc)
    rows = records if isinstance(records, list) else column_rows(records)
    return "ok", [(repr(phi), rec) for phi, rec in rows]


def test_derive_seed_is_stable_and_key_sensitive():
    assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
    assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
    assert derive_seed(1, 2, 3) != derive_seed(2, 2, 3)
