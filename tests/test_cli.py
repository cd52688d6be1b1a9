"""Command-line surface: flags, file formats, exit codes, determinism."""

import csv
import hashlib
import json
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipctx import cli
from chipctx.analysis import CONTEXTS, build_report, report_table, significance
from chipctx.chips import DeviceConfig, MeasurementConfig, PreparationConfig
from chipctx.errors import ConsistencyError
from chipctx.galton import GaltonConfig, galton_run
from chipctx.sampling import CountRecord, write_counts_csv
from chipctx.sweep import SWEEP_CSV_COLUMNS

from conftest import oracle_s


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_device_config(path, **kwargs):
    device = DeviceConfig(
        preparation=PreparationConfig(),
        measurements={
            ctx: MeasurementConfig(ctx, mode="physical", coupler_ts=kwargs.get(ctx, {}))
            for ctx in ("XX", "XZ", "ZX", "ZZ")
        },
    )
    path.write_text(json.dumps(device.to_json_dict()), encoding="utf-8")
    return path


class TestSweepCommand:
    def test_ideal_analytic_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--steps", 201, "--out", out) == 0
        rows = read_rows(out)
        assert len(rows) == 201
        assert tuple(rows[0]) == SWEEP_CSV_COLUMNS
        best = max(rows, key=lambda r: float(r["S"]))
        assert float(best["phi"]) == 0.0
        assert abs(float(best["S"]) - 2.8284) < 1e-3
        assert abs(float(best["S"]) - 2.0 * np.sqrt(2.0)) < 1e-6
        # endpoint row carries the same maximum
        assert abs(float(rows[-1]["S"]) - float(best["S"])) < 1e-9

    def test_rows_satisfy_schema_invariants(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--steps", 51, "--out", out) == 0
        for row in read_rows(out):
            assert float(row["bound"]) == 2.0 + float(row["epsilon"])
            for col in ("E_XX", "E_XZ", "E_ZX", "E_ZZ"):
                assert abs(float(row[col])) <= 1.0 + 1e-12
            assert row["significance"] == ""  # omitted in analytic mode
            assert float(row["sigma_S"]) == 0.0

    def test_analytic_matches_closed_form(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--steps", 201, "--out", out) == 0
        for row in read_rows(out):
            assert abs(float(row["S"]) - oracle_s(float(row["phi"]))) < 1e-9

    def test_violation_region_boundary(self, tmp_path):
        # S > 2 exactly inside |phi| < arccos(sqrt2 - 1)
        boundary = float(np.arccos(np.sqrt(2.0) - 1.0))
        out = tmp_path / "sweep.csv"
        assert run_cli(
            "sweep", "--phi-start", boundary - 1e-6, "--phi-end", boundary + 1e-6,
            "--steps", 3, "--out", out) == 0
        rows = read_rows(out)
        assert float(rows[0]["S"]) > 2.0
        assert abs(float(rows[1]["S"]) - 2.0) < 1e-5
        assert float(rows[2]["S"]) < 2.0

    def test_phi_pi_row(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--phi-start", np.pi - 0.5, "--phi-end", np.pi + 0.5,
                       "--steps", 3, "--out", out) == 0
        mid = read_rows(out)[1]
        assert abs(float(mid["S"])) < 1e-9
        assert float(mid["epsilon"]) < 1e-12

    def test_sampled_sweep_writes_counts_and_is_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (out1, out2):
            code = run_cli("sweep", "--steps", 5, "--mode", "sampled", "--shots", 2000,
                           "--seed", 42, "--out", out)
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        c1 = (tmp_path / "s1_counts.csv").read_bytes()
        c2 = (tmp_path / "s2_counts.csv").read_bytes()
        assert c1 == c2

    def test_seed_changes_sampled_output(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        run_cli("sweep", "--steps", 3, "--mode", "sampled", "--shots", 2000,
                "--seed", 1, "--out", out1)
        run_cli("sweep", "--steps", 3, "--mode", "sampled", "--shots", 2000,
                "--seed", 2, "--out", out2)
        assert out1.read_bytes() != out2.read_bytes()

    def test_imperfect_device_raises_the_bound(self, tmp_path):
        cfg = write_device_config(tmp_path / "dev.json", XZ={"digit_12": 0.4})
        out = tmp_path / "sweep.csv"
        assert run_cli("sweep", "--steps", 5, "--device", "imperfect",
                       "--config", cfg, "--out", out) == 0
        rows = read_rows(out)
        assert all(float(r["epsilon"]) > 0 for r in rows)
        assert all(float(r["bound"]) > 2.0 for r in rows)

    def test_imperfect_requires_config(self, tmp_path):
        assert run_cli("sweep", "--device", "imperfect",
                       "--out", tmp_path / "s.csv") == 1

    def test_unreadable_config_is_a_data_error(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert run_cli("sweep", "--device", "imperfect", "--config", missing,
                       "--out", tmp_path / "s.csv") == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{", encoding="utf-8")
        assert run_cli("sweep", "--device", "imperfect", "--config", broken,
                       "--out", tmp_path / "s.csv") == 2

    @pytest.mark.parametrize("flag,value", [
        ("--bootstrap", "5"),
        ("--counts-out", "c.csv"),
        ("--config", "nonexistent.json"),
        ("--shots", "5"),
        ("--seed", "5"),
    ], ids=["bootstrap-in-analytic-mode", "counts-out-in-analytic-mode", "config-with-ideal-device",
            "shots-in-analytic-mode", "seed-in-analytic-mode"])
    def test_ignored_flag_is_a_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--steps", 3, flag, value, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} applies only to ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        (),
        ("--shots", "5"),
        ("--seed", "5"),
        ("--bootstrap", "5"),
        ("--counts-out", "c.csv"),
    ], ids=["bare", "shots", "seed", "bootstrap", "counts-out"])
    def test_sampled_mode_with_emit_figure3_is_a_usage_error(self, tmp_path, capsys, extra):
        cfg = write_device_config(tmp_path / "dev.json")
        out = tmp_path / "fig3.csv"
        assert run_cli("sweep", "--steps", 3, "--emit-figure3", "--config", cfg,
                       "--mode", "sampled", *extra, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == "error: --emit-figure3 applies only to --mode analytic\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (("sweep", "--steps", "1"), "argument --steps: must be at least 2, got 1"),
        (("sweep", "--mode", "sampled", "--bootstrap", "1"),
         "argument --bootstrap: must be at least 2, got 1"),
        (("sweep", "--mode", "sampled", "--shots", "0"),
         "argument --shots: must be at least 1, got 0"),
        (("analyze", "counts.csv", "--bootstrap", "1"),
         "argument --bootstrap: must be at least 2, got 1"),
        (("hv", "--prep", "0", "1", "0", "0", "--shots", "0"),
         "argument --shots: must be at least 1, got 0"),
    ], ids=["sweep-steps", "sweep-bootstrap", "sweep-shots", "analyze-bootstrap", "hv-shots"])
    def test_count_below_its_minimum_is_a_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "s.csv"
        extra = ("--out", out) if argv[0] == "sweep" else ()
        assert run_cli(*argv, *extra) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (("sweep", "--phi-start", "nan"), "chipctx sweep: error: argument --phi-start: "
                                          "must be finite, got nan\n"),
        (("sweep", "--phi-start", "1", "--phi-end", "0"),
         "error: --phi-start must be below --phi-end, got 1.0 >= 0.0\n"),
        (("hv", "--prep", "0", "1", "0", "0", "--flip-prob", "2"),
         "chipctx hv: error: argument --flip-prob: must be in [0, 1], got 2\n"),
        (("hv", "--prep", "0", "1", "0", "0", "--shots", str(10**21)),
         f"chipctx hv: error: argument --shots: must be below {2**60}, got {10**21}\n"),
        (("sweep", "--mode", "sampled", "--shots", str(2**63)),
         f"chipctx sweep: error: argument --shots: must be below {2**63}, got {2**63}\n"),
        (("sweep", "--steps", str(2**63)),
         f"chipctx sweep: error: argument --steps: must be below {2**60}, got {2**63}\n"),
        (("analyze", "counts.csv", "--summary", "2.5", "nan", "1"),
         "chipctx analyze: error: argument --summary: must be finite, got nan\n"),
        (("analyze", "counts.csv", "--summary", "2.5", "2", "0"),
         "chipctx analyze: error: argument --summary: SIGMA must be positive, got 0.0\n"),
        (("analyze", "counts.csv", "--summary", "2.5", "2", "-0.1"),
         "chipctx analyze: error: argument --summary: SIGMA must be positive, got -0.1\n"),
        (("sweep", "--mode", "sampled", "--steps", "2", "--bootstrap", str(2**63)),
         f"chipctx sweep: error: argument --bootstrap: must be below {2**58}, got {2**63}\n"),
        (("analyze", "counts.csv", "--bootstrap", str(2**63)),
         f"chipctx analyze: error: argument --bootstrap: must be below {2**58}, got {2**63}\n"),
    ], ids=["non-finite-phase-limit", "empty-phase-range", "flip-prob-above-one",
            "hv-shots-past-int64", "sweep-shots-past-int64", "sweep-steps-past-array-limit",
            "non-finite-summary", "zero-summary-sigma", "negative-summary-sigma",
            "sweep-bootstrap-past-array-limit", "analyze-bootstrap-past-array-limit"])
    def test_flag_out_of_range_is_a_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "s.csv"
        extra = ("--steps", "3", "--out", out) if argv[0] == "sweep" else ()
        assert run_cli(argv[0], *extra, *argv[1:]) == 1  # the case's own --steps comes last
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(message)
        assert captured.err.count("error:") == 1
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--seed", -1, "--mode", "sampled", "--out", out) == 1
        assert "argument --seed: must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("hv", "--prep", "0", "1", "0", "0", "--shots", str(10**15)),
        ("sweep", "--steps", str(10**15)),
        ("sweep", "--mode", "sampled", "--steps", "2", "--bootstrap", str(10**15)),
        ("analyze", "counts.csv", "--bootstrap", str(10**15)),
        # one below each limit: the largest accepted size still fails in numpy, not argparse
        ("hv", "--prep", "0", "1", "0", "0", "--shots", str(2**60 - 1)),
        ("sweep", "--mode", "sampled", "--steps", "2", "--bootstrap", str(2**58 - 1)),
        ("analyze", "counts.csv", "--bootstrap", str(2**58 - 1)),
    ], ids=["hv-shots", "sweep-steps", "sweep-bootstrap", "analyze-bootstrap", "hv-shots-limit",
            "sweep-bootstrap-limit", "analyze-bootstrap-limit"])
    def test_unallocatable_request_is_a_one_line_data_error(self, tmp_path, capsys, argv):
        # 10**15 float64 values need 7 PiB, so the allocation fails at once
        out = tmp_path / "s.csv"
        extra = ("--out", out) if argv[0] != "hv" else ()
        if argv[0] == "analyze":  # one valid group, so that its bootstrap is drawn
            counts = tmp_path / "counts.csv"
            write_counts_csv(counts, [(0.0, CountRecord(ctx, (60, 20, 10, 10), 100, seed=i))
                                      for i, ctx in enumerate(("XX", "XZ", "ZX", "ZZ"))])
            argv = ("analyze", counts, *argv[2:])
        assert run_cli(*argv, *extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_memory_error_in_a_bootstrap_thread_is_a_one_line_data_error(
            self, tmp_path, capsys, monkeypatch):
        from chipctx import sampling

        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, [(float(g), CountRecord(ctx, (60, 20, 10, 10), 100, seed=4 * g + i))
                                  for g in range(8) for i, ctx in enumerate(CONTEXTS)])
        # two threads, blocks of two groups at --bootstrap 20: four blocks
        monkeypatch.setattr(sampling, "_bootstrap_workers", lambda: 2)
        monkeypatch.setattr(sampling, "_BOOTSTRAP_BLOCK_BYTES", 2 * 2 * 8 * 4 * 20)
        caller, worker_failed, s_value = threading.current_thread(), threading.Event(), sampling.s_value

        def failing_s_value(e):  # a worker's block fails before the caller's block is reduced
            if threading.current_thread() is caller:
                worker_failed.wait(timeout=60)
                return s_value(e)
            worker_failed.set()
            raise MemoryError("Unable to allocate 8.00 EiB for an array with shape (2, 2**58)")

        monkeypatch.setattr(sampling, "s_value", failing_s_value)
        baseline = threading.active_count()
        assert run_cli("analyze", counts, "--bootstrap", 20) == 2
        assert worker_failed.is_set()
        assert threading.active_count() == baseline
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: Unable to allocate 8.00 EiB for an array "
                                "with shape (2, 2**58)\n")

    def test_usage_error_exits_one(self):
        assert run_cli("sweep", "--mode", "bogus") == 1
        assert run_cli("bogus-command") == 1

    def test_internal_consistency_exits_three(self, tmp_path, monkeypatch):
        from chipctx import sweep as sweep_mod

        def broken(device):
            raise ConsistencyError("assembled circuit for context XX is not unitary")

        monkeypatch.setattr(sweep_mod, "_checked_unitaries", broken)
        assert run_cli("sweep", "--steps", 3, "--out", tmp_path / "s.csv") == 3

    def test_emit_figure3_writes_both_curves(self, tmp_path):
        cfg = write_device_config(tmp_path / "dev.json", XZ={"digit_12": 0.4})
        out = tmp_path / "fig3.csv"
        assert run_cli("sweep", "--steps", 21, "--emit-figure3",
                       "--config", cfg, "--out", out) == 0
        rows = read_rows(out)
        assert len(rows) == 21
        assert tuple(rows[0]) == ("phi", "S_ideal", "S_device", "epsilon_device", "bound_device")
        for row in rows:
            assert abs(float(row["S_ideal"]) - oracle_s(float(row["phi"]))) < 1e-9
            assert float(row["bound_device"]) > 2.0

    def test_emit_figure3_requires_config(self, tmp_path):
        assert run_cli("sweep", "--emit-figure3", "--out", tmp_path / "f.csv") == 1

    @pytest.mark.parametrize("doc", [
        {"preparation": {"coupler_Ts": 5}},
        {"measurements": {"XZ": {"mode": "physical", "coupler_Ts": {"digit_12": "0.4"}}}},
        {"measurements": []},
        {"preparation": {"phi": 10**400}},
        {"measurements": {"QQ": {"context": "ZZ", "mode": "physical"}}},
        {"preparation": {}, "measurement": {}},
        {"preparation": {"coupler_TS": [0.5, 0.5, 0.5]}},
        {"measurements": {"XZ": {"coupler_Ts": {"digit_12": 0.4}}}},
        {"measurements": {"XZ": {"mode": "ideal", "calibration_phases": [0.0, 0.0, 0.0, 0.0]}}},
        {"preparation": None},
    ], ids=["scalar-coupler-ts", "string-transmissivity", "measurements-list",
            "integer-beyond-float-range", "unknown-measurement-entry", "unknown-top-level-key",
            "misspelled-preparation-key", "coupler-ts-without-mode", "phases-in-ideal-mode",
            "null-preparation"])
    def test_mistyped_config_is_a_one_line_data_error(self, tmp_path, capsys, doc):
        cfg = tmp_path / "dev.json"
        cfg.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("sweep", "--device", "imperfect", "--config", cfg,
                       "--out", tmp_path / "s.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid device config {cfg}:")
        assert err.count("\n") == 1


class TestHvCommand:
    def test_concentrated_preparation_no_violation(self, capsys):
        assert run_cli("hv", "--prep", 1, 0, 0, 0, "--shots", 10**6, "--seed", 5) == 0
        out = capsys.readouterr().out
        assert "no violation" in out
        s = float(out.split("S = ")[1].split(" ")[0])
        assert abs(s - (-1.0)) < 0.01

    def test_uniform_preparation_near_zero(self, capsys):
        assert run_cli("hv", "--prep", 0.25, 0.25, 0.25, 0.25, "--shots", 10**6) == 0
        out = capsys.readouterr().out
        s = float(out.split("S = ")[1].split(" ")[0])
        assert abs(s) < 0.01
        assert "no violation" in out

    def test_seeded_stdout_is_pinned(self, capsys):
        # exact output of a seeded run: any change to the board's random stream shows here
        assert run_cli("hv", "--prep", 0.1, 0.2, 0.3, 0.4, "--shots", 100000, "--seed", 3) == 0
        assert capsys.readouterr().out == (
            "S = -0.003200 +- 0.006325 (100000 shots per context)\n"
            "classical bound: 2; (S - 2)/sigma_S = -316.735\n"
            "verdict: no violation\n"
        )

    def test_exact_mode(self, capsys):
        assert run_cli("hv", "--prep", 0, 1, 0, 0, "--exact") == 0
        out = capsys.readouterr().out
        assert "S = 1.0 (exact)" in out
        assert "no violation" in out

    def test_never_reports_violation(self, capsys):
        rng = np.random.default_rng(81)
        for seed in range(100):
            prep = rng.dirichlet(np.ones(4))
            assert run_cli("hv", "--prep", *prep, "--shots", 2000, "--seed", seed) == 0
            assert "verdict: no violation" in capsys.readouterr().out

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert run_cli("hv", "--prep", 0, 1, 0, 0, "--seed", -1) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "argument --seed: must be non-negative, got -1" in captured.err

    def test_rejects_bad_distribution(self, capsys):
        # --prep is a flag, so weights that do not sum to 1 are a usage error
        assert run_cli("hv", "--prep", 0.6, 0.6, 0, 0) == 1
        captured = capsys.readouterr()
        assert captured.err.endswith("chipctx hv: error: argument --prep: "
                                     "preparation must sum to 1 within 1e-9, got sum 1.2\n")
        assert captured.err.count("error:") == 1

    @pytest.mark.parametrize("bad", ["nan", "inf", "-0.5"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_rejects_non_finite_preparation(self, capsys, bad, exact):
        # --prep is a flag, so a weight that is not a finite non-negative number is a usage error
        argv = ["hv", "--prep", bad, 1, 0, 0, "--shots", 100]
        assert run_cli(*argv, *(["--exact"] if exact else [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("chipctx hv: error: argument --prep: "
                                     f"must be finite and non-negative, got {bad}\n")
        assert captured.err.count("error:") == 1


class TestAnalyzeCommand:
    @pytest.mark.parametrize("bootstrap", [(), ("--bootstrap", 40)], ids=["plain", "bootstrap"])
    def test_round_trip_matches_sweep_estimates(self, tmp_path, bootstrap):
        # the sweep and analyze report through one table, so every column agrees exactly
        out = tmp_path / "sweep.csv"
        counts = tmp_path / "counts.csv"
        assert run_cli("sweep", "--steps", 4, "--mode", "sampled", "--shots", 5000,
                       "--seed", 11, *bootstrap, "--out", out, "--counts-out", counts) == 0
        report = tmp_path / "report.json"
        assert run_cli("analyze", counts, *bootstrap, "--out", report) == 0
        groups = json.loads(report.read_text(encoding="utf-8"))["groups"]
        sweep_rows = read_rows(out)
        assert len(groups) == len(sweep_rows)
        for group, row in zip(groups, sweep_rows):
            assert group == {
                "phi": float(row["phi"]),
                "expectations": {c: float(row[f"E_{c}"]) for c in CONTEXTS},
                "S": float(row["S"]), "epsilon": float(row["epsilon"]),
                "bound": float(row["bound"]), "sigma_S": float(row["sigma_S"]),
                "significance": float(row["significance"]) if row["significance"] else None,
            }

    def test_synthetic_ideal_counts_show_huge_significance(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        run_cli("sweep", "--phi-start", 0.0, "--phi-end", 1.0, "--steps", 2,
                "--mode", "sampled", "--shots", 10**5, "--seed", 21,
                "--out", tmp_path / "s.csv", "--counts-out", counts)
        report = tmp_path / "report.json"
        assert run_cli("analyze", counts, "--out", report) == 0
        first = json.loads(report.read_text(encoding="utf-8"))["groups"][0]
        assert first["phi"] == 0.0
        assert first["significance"] > 100.0

    def test_classical_counts_show_no_violation(self, tmp_path, capsys):
        rows = []
        for i, ctx in enumerate(("XX", "XZ", "ZX", "ZZ")):
            cfg = GaltonConfig((0.0, 1.0, 0.0, 0.0), m12=ctx[0], nab=ctx[1], shots=10**5)
            rows.append((0.0, galton_run(cfg, seed=100 + i)))
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, rows)
        report = tmp_path / "report.json"
        assert run_cli("analyze", counts, "--out", report) == 0
        group = json.loads(report.read_text(encoding="utf-8"))["groups"][0]
        assert group["significance"] < 0.0
        assert "no violation" in capsys.readouterr().out

    def test_summary_flag_reproduces_printed_numbers(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, [])
        report = tmp_path / "report.json"
        assert run_cli("analyze", counts, "--summary", 2.69, 2.53, 0.012,
                       "--out", report) == 0
        out = capsys.readouterr().out
        assert "13.333" in out
        assert "rounded" in out  # the pre-rounded-inputs note
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert abs(doc["summary"]["significance"] - 13.3333333) < 1e-6

    def test_missing_context_is_a_data_error(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        cfg = GaltonConfig((1.0, 0.0, 0.0, 0.0), m12="Z", nab="Z", shots=100)
        write_counts_csv(counts, [(0.0, galton_run(cfg, seed=1))])
        assert run_cli("analyze", counts) == 2
        assert "missing" in capsys.readouterr().err

    def test_verdict_uses_the_corrected_bound_when_sigma_is_zero(self, tmp_path, capsys):
        # S = 4 with epsilon = 2: on the bound 2 + epsilon, not above it
        rows = [(0.0, CountRecord(ctx, (100, 0, 0, 0), 100, seed=i))
                for i, ctx in enumerate(("XX", "XZ", "ZX"))]
        rows.append((0.0, CountRecord("ZZ", (0, 100, 0, 0), 100, seed=3)))
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, rows)
        report = tmp_path / "report.json"
        assert run_cli("analyze", counts, "--bootstrap", 20, "--out", report) == 0
        out = capsys.readouterr().out
        assert "S=4.000000 +- 0.000000" in out
        assert "bound=4.000000" in out
        assert "[no violation]" in out
        group = json.loads(report.read_text(encoding="utf-8"))["groups"][0]
        assert group["significance"] is None

    def test_malformed_group_after_a_good_one_prints_nothing(self, tmp_path, capsys):
        rows = [(0.0, CountRecord(ctx, (60, 20, 10, 10), 100, seed=i))
                for i, ctx in enumerate(("XX", "XZ", "ZX", "ZZ"))]
        rows += [(1.0, CountRecord(ctx, (50, 30, 10, 10), 100, seed=10 + i))
                 for i, ctx in enumerate(("XX", "XZ", "XX", "ZX", "ZZ"))]
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, rows)
        report = tmp_path / "report.json"
        assert run_cli("analyze", counts, "--out", report) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate record for context XX\n"
        assert not report.exists()

    def test_non_finite_phi_is_a_data_error(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        cfg = GaltonConfig((1.0, 0.0, 0.0, 0.0), shots=100)
        write_counts_csv(counts, [(0.0, galton_run(cfg, seed=1))])
        lines = counts.read_text(encoding="utf-8").splitlines()
        lines[1] = "nan" + lines[1][len("0.0"):]
        counts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("analyze", counts) == 2
        err = capsys.readouterr().err
        assert err == f"error: {counts}:2: phi must be finite, got 'nan'\n"

    def test_negative_record_seed_is_a_data_error(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, [(0.0, CountRecord(ctx, (60, 20, 10, 10), 100, seed=i))
                                  for i, ctx in enumerate(("XX", "XZ", "ZX", "ZZ"))])
        lines = counts.read_text(encoding="utf-8").splitlines()
        lines[3] = lines[3][: lines[3].rindex(",")] + ",-5"
        counts.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run_cli("analyze", counts, "--bootstrap", 20) == 2
        err = capsys.readouterr().err
        assert err == f"error: {counts}:4: seed must lie in [0, 2**64), got -5\n"

    def test_field_beyond_the_csv_limit_is_a_data_error(self, tmp_path, capsys):
        counts = tmp_path / "counts.csv"
        write_counts_csv(counts, [(0.0, CountRecord("XX", (60, 20, 10, 10), 100, seed=1))])
        counts.write_text(counts.read_text(encoding="utf-8").replace("XX", "X" * 200_000),
                          encoding="utf-8")
        assert run_cli("analyze", counts) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {counts}:2: field larger than field limit")
        assert err.count("\n") == 1

    def test_malformed_csv_is_a_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("this,is,not\na,counts,file\n", encoding="utf-8")
        assert run_cli("analyze", bad) == 2

    def test_empty_file_is_a_data_error(self, tmp_path):
        empty = tmp_path / "empty.csv"
        write_counts_csv(empty, [])
        assert run_cli("analyze", empty) == 2

    def test_bootstrap_flag_is_reproducible(self, tmp_path):
        counts = tmp_path / "counts.csv"
        run_cli("sweep", "--steps", 2, "--mode", "sampled", "--shots", 3000,
                "--seed", 31, "--out", tmp_path / "s.csv", "--counts-out", counts)
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert run_cli("analyze", counts, "--bootstrap", 300, "--out", r1) == 0
        assert run_cli("analyze", counts, "--bootstrap", 300, "--out", r2) == 0
        assert r1.read_bytes() == r2.read_bytes()


# sha256 of analyze's stdout and JSON report on the counts of `sweep --mode
# sampled --steps 51 --shots 1000 --seed 9`, and on one group with S = 4 and
# sigma_S = 0 (significance null): any change to the output bytes shows here.
GOLDEN_ANALYZE = {
    "plain": ((),
              "999cf5b7c0b2be3360ba18e0f8ddbb64dd45319a327343df657d51ccfa529e52",
              "7063c40566381b475ab20f9b1952f44773e7985ecf61fd5019bc89aceb2efa70"),
    "bootstrap": (("--bootstrap", "50"),
                  "758b0dc3fb4f3b9856250dd315c9486864d1c8ce253519872cf0a6e8be6ab3fa",
                  "f67a78facbab619a939b36cfcf979e2d5f74b7766e2b8b4d80531cf1a543c45b"),
    "summary": (("--summary", "2.69", "2.53", "0.012"),
                "77e6471969f3de169b506ae88241371ce08f7dd56d4f293a51732351088ccbd6",
                "55fb4f010d2ef31fdb27b8ddefc20803f1ec5a85da05383d82c51316340fd9f2"),
    "sigma-zero": (("--bootstrap", "20"),
                   "a05dec71f5af07ae5df0e3581d27891a226e0fca1a49c73fd161c4d211f1552a",
                   "06a1ae70c1f4ccbf81c598e2afe5b1c8f5210fe9f38464621fdb5e8a49350d39"),
}


@pytest.mark.parametrize("variant", list(GOLDEN_ANALYZE))
def test_analyze_output_is_pinned(tmp_path, monkeypatch, capsys, variant):
    monkeypatch.chdir(tmp_path)
    if variant == "sigma-zero":  # as in test_verdict_uses_the_corrected_bound_when_sigma_is_zero
        rows = [(0.0, CountRecord(ctx, (100, 0, 0, 0), 100, seed=i))
                for i, ctx in enumerate(("XX", "XZ", "ZX"))]
        rows.append((0.0, CountRecord("ZZ", (0, 100, 0, 0), 100, seed=3)))
        write_counts_csv("counts.csv", rows)
    else:
        assert run_cli("sweep", "--mode", "sampled", "--steps", 51, "--shots", 1000, "--seed", 9,
                       "--out", "sweep.csv", "--counts-out", "counts.csv") == 0
    capsys.readouterr()
    flags, stdout_sha, json_sha = GOLDEN_ANALYZE[variant]
    assert run_cli("analyze", "counts.csv", *flags, "--out", "report.json") == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == json_sha


finite = st.floats(allow_nan=False, allow_infinity=False)
group_values = st.tuples(finite, st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
                         st.floats(0.0, 1e300), st.floats(0.0, 1e300) | st.just(0.0))


@settings(deadline=None, derandomize=True, database=None)
@given(st.lists(group_values, max_size=6),
       st.none() | st.tuples(finite, finite, st.floats(5e-324, 1e300)))
def test_report_json_equals_json_dump(groups, summary):
    phi = [g[0] for g in groups]
    e = np.array([g[1] for g in groups], dtype=float).reshape(-1, 4)
    eps = np.array([g[2] for g in groups], dtype=float)
    sigma_s = np.array([g[3] for g in groups], dtype=float)
    payload = {"groups": [{"phi": p, **build_report(e[i], eps[i], sigma_s[i]).to_json_dict()}
                          for i, p in enumerate(phi)]}
    if summary is not None:
        s, bound, sigma = summary
        summary = (s, bound, sigma, significance(s, bound - 2.0, sigma))
        payload["summary"] = dict(zip(("S", "bound", "sigma_S", "significance"), summary))
    text = cli._report_json(report_table(np.array(phi, dtype=float), e, eps, sigma_s).tolist(),
                            summary)
    assert text == json.dumps(payload, indent=2) + "\n"
