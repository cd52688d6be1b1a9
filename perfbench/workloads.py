"""The three closed-loop workloads: one client, one process, no threads.

Every timed call goes in-process through ``chipctx.cli.main(argv)`` or the
exported chips functions, and every output is checked after the call, outside
the timed region.  A pass is one round of a workload's calls; the runner
repeats passes for the requested number of seconds.

Each workload has a *main* step, whose throughput gives ``main_p10_per_s``,
and a *follow-up* step, whose time gives ``follow_up_p90_s``:

    analytic_grid      main: ideal and device analytic sweeps (phase points)
                       follow-up: one cold-start calibration of the
                       preparation trims and the four physical contexts
    sampled_roundtrip  main: sampled sweep with propagated sigma (points)
                       follow-up: ``analyze --bootstrap`` of its counts CSV
    classical_board    main: ``hv`` sampled board runs (balls)
                       follow-up: ``hv --exact`` on the same preparations
"""

from __future__ import annotations

import csv
import gc
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from chipctx import chips, cli

from spans import BUILD_SPAN

DATA = Path(__file__).resolve().parent / "data"
DEVICE_CONFIG = DATA / "device.json"
DEVICE_REFERENCE = DATA / "device_reference.npz"

TWO_PI = repr(2.0 * math.pi)
SQRT2 = math.sqrt(2.0)

# Tolerance of every analytic check: the closed-form oracle, the stored device
# reference and the calibrated circuits.  Comparisons are by tolerance, never
# by bytes, so that last-ulp changes of the engine pass.
TOL = 1e-9
# Sampled S must lie within this many reported sigmas of the closed form.
SAMPLED_SIGMAS = 6.0

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / SQRT2
_I2 = np.eye(2, dtype=complex)


def derive(seed: int, *key: int) -> int:
    """Reproducible 32-bit integer derived from the workload seed and a key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def oracle_context_unitary(context: str) -> np.ndarray:
    """Ideal context unitary (letter op) kron (digit op), H for X."""
    letter = _H if context[1] == "X" else _I2
    digit = _H if context[0] == "X" else _I2
    return np.kron(letter, digit)


def oracle_state(phi: float) -> np.ndarray:
    k = 1.0 + SQRT2
    amps = np.array([np.exp(1j * phi), k * np.exp(1j * phi), k, -1.0], dtype=complex)
    return amps / (2.0 * math.sqrt(2.0 + SQRT2))


def oracle_s(phi: np.ndarray) -> np.ndarray:
    return SQRT2 * (1.0 + np.cos(phi))


class CheckFailed(Exception):
    """An output check of the benchmark failed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed operation: its step, wall time, work done and outcome."""

    step: str  # "main" or "follow_up"
    seconds: float
    work: int
    error: str | None = None


def call_cli(argv: list[str]) -> str:
    """Run ``chipctx.cli.main`` in-process; return its stdout, raise on failure."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CheckFailed(f"chipctx {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def read_csv_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols: dict[str, list[str]] = {h: [] for h in header}
        for row in reader:
            for h, v in zip(header, row):
                cols[h].append(v)
    return cols


def floats(cols: dict[str, list[str]], name: str) -> np.ndarray:
    return np.array([float(v) for v in cols[name]])


def check_sweep_rows(cols: dict[str, list[str]], steps: int) -> dict[str, np.ndarray]:
    """Row count and ``bound == 2 + epsilon`` on every row."""
    arrays = {name: floats(cols, name) for name in
              ("phi", "E_XX", "E_XZ", "E_ZX", "E_ZZ", "S", "epsilon", "bound", "sigma_S")}
    require(len(arrays["phi"]) == steps, f"expected {steps} sweep rows, got {len(arrays['phi'])}")
    bad = np.flatnonzero(arrays["bound"] != 2.0 + arrays["epsilon"])
    require(bad.size == 0, f"{bad.size} rows with bound != 2 + epsilon")
    return arrays


class Workload:
    """Shared pass machinery; subclasses define the calls and checks."""

    name = ""

    def __init__(self, seed: int, workdir: Path, tracer=None):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.ops: list[Op] = []

    def timed(self, step: str, work: int, call, check=None):
        """Time ``call()``; run ``check(result)`` untimed; record the outcome."""
        gc.collect()
        t0 = perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raised exception is a failed operation
            self.ops.append(Op(step, perf_counter() - t0, work, f"{type(exc).__name__}: {exc}"))
            return None
        op = Op(step, perf_counter() - t0, work)
        self.ops.append(op)
        if check is not None:
            active = self.tracer is not None and self.tracer.active
            if active:
                self.tracer.active = False
            try:
                check(result)
            except Exception as exc:  # a failed check fails the operation
                op.error = f"{type(exc).__name__}: {exc}"
            finally:
                if active:
                    self.tracer.active = True
        return result

    def warm_up(self) -> None:
        """First calls at tiny size: pay lazy imports before anything is timed."""
        raise NotImplementedError

    def run_pass(self, index: int) -> None:
        raise NotImplementedError

    def named_metrics(self, main_per_s: float, follow_up_s: float) -> list[tuple[str, float, str]]:
        """The main and follow-up step metrics under their workload-specific names."""
        raise NotImplementedError

    def scaling_probe(self) -> tuple[float, float] | None:
        """Microseconds per sweep point at a tenth of the grid and at the full grid."""
        return self._us_per_point((self.steps - 1) // 10 + 1), self._us_per_point(self.steps)

    def _us_per_point(self, steps: int) -> float:
        gc.collect()
        t0 = perf_counter()
        call_cli(self.sweep_argv(steps, self.workdir / "probe.csv"))
        return (perf_counter() - t0) / steps * 1e6


class AnalyticGrid(Workload):
    """Device bring-up: cold-start calibration, then ideal and device sweeps."""

    name = "analytic_grid"

    def __init__(self, seed, smoke, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.steps = 101 if smoke else 10001
        self.calibrations = 1 if smoke else 5
        ref = np.load(DEVICE_REFERENCE)
        stride = (len(ref["phi"]) - 1) // (self.steps - 1)
        self.reference = {k: ref[k][::stride] for k in ref.files}
        rng = np.random.default_rng(derive(seed, 1))
        v = rng.normal(size=(100, 4)) + 1j * rng.normal(size=(100, 4))
        self.probes = v / np.linalg.norm(v, axis=1, keepdims=True)
        self.targets = {ctx: oracle_context_unitary(ctx) for ctx in ("XX", "XZ", "ZX", "ZZ")}
        self.prep_target = oracle_state(0.0)

    def sweep_argv(self, steps, out, device=False):
        argv = ["sweep", "--phi-start", "0", "--phi-end", TWO_PI, "--steps", str(steps),
                "--out", str(out)]
        if device:
            argv += ["--device", "imperfect", "--config", str(DEVICE_CONFIG)]
        return argv

    def named_metrics(self, main_per_s, follow_up_s):
        return [("sweep_points_per_s", main_per_s, "points/s"), ("calibrate_s", follow_up_s, "s")]

    def _skeleton(self, skeleton):
        build = skeleton.build
        if self.tracer is not None:
            build = self.tracer.wrap(BUILD_SPAN, build)
        return replace(skeleton, build=build, seed_phases=None)

    def calibrate_all(self):
        """Cold-start calibration of the preparation trims and four contexts."""
        prep = chips.preparation_skeleton()
        out = {"prep": (prep, chips.calibrate_phases(self.prep_target, self._skeleton(prep)))}
        for ctx, target in self.targets.items():
            skel = chips.measurement_skeleton(ctx)
            out[ctx] = (skel, chips.calibrate_phases(target, self._skeleton(skel)))
        return out

    def check_calibration(self, result):
        skel, phases = result["prep"]
        built = skel.build(phases)[:, 0]
        overlap = np.vdot(built, self.prep_target)
        aligned = built * overlap / abs(overlap)
        dev = float(np.max(np.abs(aligned - self.prep_target)))
        require(dev < TOL, f"calibrated preparation deviates by {dev:.3e}")
        for ctx, target in self.targets.items():
            skel, phases = result[ctx]
            u = skel.build(phases)
            dev = float(np.max(np.abs(np.abs(self.probes @ u.T) ** 2
                                      - np.abs(self.probes @ target.T) ** 2)))
            require(dev < TOL, f"calibrated {ctx} deviates by {dev:.3e} on probe states")

    def check_ideal(self, path):
        rows = check_sweep_rows(read_csv_columns(path), self.steps)
        dev = float(np.max(np.abs(rows["S"] - oracle_s(rows["phi"]))))
        require(dev <= TOL, f"ideal S deviates from sqrt2(1 + cos phi) by {dev:.3e}")
        require(bool(np.all(rows["sigma_S"] == 0.0)), "analytic rows with sigma_S != 0")

    def check_device(self, path):
        rows = check_sweep_rows(read_csv_columns(path), self.steps)
        for key, ref in self.reference.items():
            dev = float(np.max(np.abs(rows[key] - ref)))
            require(dev <= TOL, f"device column {key} deviates from reference by {dev:.3e}")

    def warm_up(self):
        call_cli(self.sweep_argv(2, self.workdir / "warm.csv"))
        call_cli(self.sweep_argv(2, self.workdir / "warm.csv", device=True))
        self.check_calibration(self.calibrate_all())

    def run_pass(self, index):
        ideal = self.workdir / "ideal.csv"
        device = self.workdir / "device.csv"
        self.timed("main", self.steps, lambda: call_cli(self.sweep_argv(self.steps, ideal)),
                   lambda _: self.check_ideal(ideal))
        self.timed("main", self.steps,
                   lambda: call_cli(self.sweep_argv(self.steps, device, device=True)),
                   lambda _: self.check_device(device))
        for _ in range(self.calibrations):
            self.timed("follow_up", 1, self.calibrate_all, self.check_calibration)


class SampledRoundtrip(Workload):
    """Sampled sweep writing sweep and counts CSVs, then ``analyze --bootstrap``.

    Passes 2k and 2k+1 share a master seed; the second checks that its three
    output files are byte-identical to the first's.
    """

    name = "sampled_roundtrip"

    def __init__(self, seed, smoke, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.steps = 21 if smoke else 1001
        self.shots = 1000 if smoke else 100_000
        self.bootstrap = 20 if smoke else 200
        self.previous: dict[str, bytes] = {}
        self.sweep_rows: dict[str, np.ndarray] | None = None

    def sweep_argv(self, steps, out, master_seed=0, counts=None):
        return ["sweep", "--mode", "sampled", "--phi-start", "0", "--phi-end", TWO_PI,
                "--steps", str(steps), "--shots", str(self.shots), "--seed", str(master_seed),
                "--out", str(out), "--counts-out", str(counts or out.with_suffix(".counts.csv"))]

    def named_metrics(self, main_per_s, follow_up_s):
        records = 4 * self.steps / follow_up_s if follow_up_s > 0 else 0.0
        return [("sweep_points_per_s", main_per_s, "points/s"),
                ("analyze_records_per_s", records, "records/s")]

    def check_sweep(self, sweep_csv, counts_csv):
        rows = check_sweep_rows(read_csv_columns(sweep_csv), self.steps)
        sigma = rows["sigma_S"]
        require(bool(np.all(sigma > 0.0)), "sampled rows with sigma_S <= 0")
        dev = np.abs(rows["S"] - oracle_s(rows["phi"])) / sigma
        require(float(dev.max()) <= SAMPLED_SIGMAS,
                f"sampled S lies {dev.max():.2f} sigma from the closed form")
        counts = read_csv_columns(counts_csv)
        n = np.array([[int(v) for v in counts[c]] for c in ("n1", "n2", "n3", "n4", "N")])
        require(n.shape[1] == 4 * self.steps, f"expected {4 * self.steps} count records")
        require(bool(np.all(n[4] == self.shots)), "count record with N != shots")
        require(bool(np.all(n[:4].sum(axis=0) == n[4])), "count record whose counts miss N")
        self.sweep_rows = rows

    def check_analyze(self, report_json, sweep_rows):
        with open(report_json, encoding="utf-8") as fh:
            groups = json.load(fh)["groups"]
        require(len(groups) == self.steps, f"expected {self.steps} groups, got {len(groups)}")
        by_phi = {float(g["phi"]): g for g in groups}
        for phi, s, eps in zip(sweep_rows["phi"], sweep_rows["S"], sweep_rows["epsilon"]):
            g = by_phi.get(float(phi))
            require(g is not None, f"analyze has no group at phi={phi!r}")
            require(abs(g["S"] - s) <= 1e-12, f"analyze S {g['S']!r} != sweep S {s!r} at {phi!r}")
            require(abs(g["epsilon"] - eps) <= 1e-12, f"analyze epsilon differs at {phi!r}")
            require(g["bound"] == 2.0 + g["epsilon"], f"analyze bound != 2 + epsilon at {phi!r}")
            require(g["sigma_S"] > 0.0, f"analyze sigma_S <= 0 at {phi!r}")

    def check_rerun(self, index, paths):
        """Pass 2k keeps its files; pass 2k+1 must reproduce them byte for byte.

        If pass 2k failed before its files were kept, that failure is already
        counted and pass 2k+1 has nothing to compare with.
        """
        current = {p.name: p.read_bytes() for p in paths}
        if index % 2 == 0:
            self.previous = current
        elif self.previous:
            for name, data in current.items():
                require(data == self.previous.get(name), f"same-seed rerun changed {name}")

    def warm_up(self):
        out = self.workdir / "warm.csv"
        counts = self.workdir / "warm.counts.csv"
        call_cli(self.sweep_argv(2, out, counts=counts))
        call_cli(["analyze", str(counts), "--bootstrap", "2", "--out",
                  str(self.workdir / "warm.json")])

    def run_pass(self, index):
        master = derive(self.seed, 2, index // 2)
        sweep_csv = self.workdir / "sampled.csv"
        counts_csv = self.workdir / "counts.csv"
        report = self.workdir / "report.json"
        self.sweep_rows = None
        if index % 2 == 0:
            self.previous = {}
        self.timed(
            "main", self.steps,
            lambda: call_cli(self.sweep_argv(self.steps, sweep_csv, master, counts_csv)),
            lambda _: self.check_sweep(sweep_csv, counts_csv))
        sweep_rows = self.sweep_rows
        if sweep_rows is None:
            return  # the failed sweep is already counted; its counts are not analysed
        self.timed(
            "follow_up", 4 * self.steps,
            lambda: call_cli(["analyze", str(counts_csv), "--bootstrap", str(self.bootstrap),
                              "--out", str(report)]),
            lambda _: (self.check_analyze(report, sweep_rows),
                       self.check_rerun(index, (sweep_csv, counts_csv, report))))


_SAMPLED = re.compile(r"^S = (\S+) \+- (\S+) ", re.M)
_EXACT = re.compile(r"^S = (\S+) \(exact\)", re.M)
_VERDICT = re.compile(r"^verdict: (.+)$", re.M)


class ClassicalBoard(Workload):
    """``hv`` on the fixed preparation ``0 1 0 0`` and seed-drawn ones."""

    name = "classical_board"

    def __init__(self, seed, smoke, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.shots = 10_000 if smoke else 1_000_000
        rng = np.random.default_rng(derive(seed, 3))
        self.preps = [(0.0, 1.0, 0.0, 0.0)] + [tuple(rng.dirichlet(np.ones(4))) for _ in range(3)]

    @staticmethod
    def minus_zz(prep) -> float:
        p = np.asarray(prep, dtype=float)
        return -(p[0] - p[1] - p[2] + p[3])

    def named_metrics(self, main_per_s, follow_up_s):
        return [("board_shots_per_s", main_per_s, "balls/s"), ("hv_exact_s", follow_up_s, "s")]

    def hv_argv(self, prep, *extra):
        return ["hv", "--prep", *(repr(float(p)) for p in prep), *extra]

    def check_verdict(self, out):
        m = _VERDICT.search(out)
        require(m is not None and m.group(1) == "no violation",
                f"board verdict {m.group(1) if m else None!r}")

    def check_sampled(self, out, prep):
        m = _SAMPLED.search(out)
        require(m is not None, "hv printed no sampled S")
        s, sigma = float(m.group(1)), float(m.group(2))
        require(abs(s - self.minus_zz(prep)) <= SAMPLED_SIGMAS * sigma + 1e-6,
                f"board S {s} lies beyond {SAMPLED_SIGMAS} sigma of -<ZZ>")
        self.check_verdict(out)

    def check_exact(self, out, prep):
        m = _EXACT.search(out)
        require(m is not None, "hv --exact printed no S")
        s = float(m.group(1))
        require(abs(s - self.minus_zz(prep)) <= 1e-12, f"exact S {s!r} != -<ZZ> {self.minus_zz(prep)!r}")
        self.check_verdict(out)

    def scaling_probe(self):
        return None  # the board workload runs no sweep

    def warm_up(self):
        call_cli(self.hv_argv(self.preps[0], "--shots", "10"))
        call_cli(self.hv_argv(self.preps[0], "--exact"))

    def run_pass(self, index):
        for j, prep in enumerate(self.preps):
            argv = self.hv_argv(prep, "--shots", str(self.shots),
                                "--seed", str(derive(self.seed, 4, index, j)))
            self.timed("main", 4 * self.shots, lambda: call_cli(argv),
                       lambda out: self.check_sampled(out, prep))
        for prep in self.preps:
            self.timed("follow_up", 1, lambda: call_cli(self.hv_argv(prep, "--exact")),
                       lambda out: self.check_exact(out, prep))


WORKLOADS = {w.name: w for w in (AnalyticGrid, SampledRoundtrip, ClassicalBoard)}
