"""Command-line surface: flags, file formats, exit codes, determinism."""

import csv
import json

import numpy as np
import pytest

from chipctx import cli
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
    ], ids=["bootstrap-in-analytic-mode", "counts-out-in-analytic-mode", "config-with-ideal-device"])
    def test_ignored_flag_is_a_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--steps", 3, flag, value, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} applies only to ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert run_cli("sweep", "--seed", -1, "--mode", "sampled", "--out", out) == 1
        assert "argument --seed: must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

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
    ], ids=["scalar-coupler-ts", "string-transmissivity", "measurements-list"])
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
        assert run_cli("hv", "--prep", 0.6, 0.6, 0, 0) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_rejects_non_finite_preparation(self, capsys, bad, exact):
        argv = ["hv", "--prep", bad, 1, 0, 0, "--shots", 100]
        assert run_cli(*argv, *(["--exact"] if exact else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: preparation must be")
        assert captured.err.count("\n") == 1


class TestAnalyzeCommand:
    def test_round_trip_matches_sweep_estimates(self, tmp_path):
        out = tmp_path / "sweep.csv"
        counts = tmp_path / "counts.csv"
        run_cli("sweep", "--steps", 4, "--mode", "sampled", "--shots", 5000,
                "--seed", 11, "--out", out, "--counts-out", counts)
        report = tmp_path / "report.json"
        assert run_cli("analyze", counts, "--out", report) == 0
        groups = json.loads(report.read_text(encoding="utf-8"))["groups"]
        sweep_rows = read_rows(out)
        assert len(groups) == len(sweep_rows)
        for group, row in zip(groups, sweep_rows):
            assert abs(group["phi"] - float(row["phi"])) == 0.0
            assert abs(group["S"] - float(row["S"])) < 1e-12
            assert abs(group["sigma_S"] - float(row["sigma_S"])) < 1e-12
            assert abs(group["epsilon"] - float(row["epsilon"])) < 1e-12

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
