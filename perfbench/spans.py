"""Span tracing of chipctx from outside the package.

Each target names a public function by the module that defines it.  On
install the tracer finds every ``chipctx`` module attribute that holds that
function object -- the names callers import it by, such as
``chipctx.sweep.prepare_state_circuit`` -- and replaces it with a wrapper that
records a span.  Nothing under ``src/`` is edited.  A target whose function
no longer exists is reported as absent, not as an error.

A span is ``[name, start, end, parent, work]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``work`` is a count the target's
work function derives from the call (points, rows, balls, bytes).  Layer
self time and call counts are derived from the spans after a pass.
"""

from __future__ import annotations

import importlib
import os
import sys
from time import perf_counter

LAYERS = ("cli", "sweep", "chips", "optics", "analysis", "sampling", "galton")


def _len_result(args, kwargs, result):
    return len(result)


def _sweep_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _len_rows_arg(args, kwargs, result):
    return len(args[1])


def _shots(args, kwargs, result):
    return args[0].shots


def _bootstrap(args, kwargs, result):
    return kwargs.get("bootstrap") or 0


# (span name, defining module, function, work function or None).  Names that
# the engine and statistics refactors plan to move or delete are not traced.
TARGETS = (
    ("cli.main", "cli", "main", None),
    ("sweep.run", "sweep", "run_sweep", _len_result),
    ("sweep.write_csv", "sweep", "write_sweep_csv", _sweep_bytes),
    ("sweep.counts_rows", "sweep", "counts_rows", None),
    ("chips.load_config", "chips", "load_device_config", None),
    ("chips.prepare", "chips", "prepare_state_circuit", None),
    ("chips.prepare", "chips", "prepare_state_direct", None),
    ("chips.unitaries", "chips", "context_unitaries", None),
    ("chips.probabilities", "chips", "outcome_probabilities", None),
    ("chips.calibrate", "chips", "calibrate_phases", None),
    ("optics.coupler", "optics", "coupler", None),
    ("optics.phase_shifter", "optics", "phase_shifter", None),
    ("optics.crossing", "optics", "crossing", None),
    ("optics.compose", "optics", "compose", None),
    ("optics.basis_state", "optics", "basis_state", None),
    ("optics.probabilities", "optics", "probabilities", None),
    ("optics.is_unitary", "optics", "is_unitary", None),
    ("analysis.report", "analysis", "report_from_probabilities", None),
    ("analysis.epsilon", "analysis", "epsilon", None),
    ("analysis.significance", "analysis", "significance", None),
    ("sampling.derive_seed", "sampling", "derive_seed", None),
    ("sampling.draw", "sampling", "sample_counts", None),
    ("sampling.estimate", "sampling", "estimate_s", _bootstrap),
    ("sampling.estimate", "sampling", "estimate_expectation", None),
    ("sampling.write_csv", "sampling", "write_counts_csv", _len_rows_arg),
    ("sampling.read_csv", "sampling", "read_counts_csv", _len_result),
    ("galton.s", "galton", "galton_s", None),
    ("galton.exact", "galton", "galton_s_exact", None),
    ("galton.run", "galton", "galton_run", _shots),
)

# Span recorded around each evaluation of a calibration skeleton's build.
BUILD_SPAN = "chips.build"


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, work=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, 0])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if work is not None:
                try:
                    spans[idx][4] = work(args, kwargs, result)
                except (TypeError, AttributeError, IndexError, OSError):
                    pass
            return result

        return traced

    def install(self):
        """Wrap every target at each chipctx module attribute bound to it."""
        for layer in LAYERS:
            try:
                importlib.import_module(f"chipctx.{layer}")
            except ImportError:
                pass  # its targets are reported absent below
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "chipctx" or key.startswith("chipctx."))]
        for name, mod, attr, work in TARGETS:
            fn = getattr(sys.modules.get(f"chipctx.{mod}"), attr, None)
            if not callable(fn):
                self.absent.append(f"chipctx.{mod}.{attr}")
                continue
            wrapper = self.wrap(name, fn, work)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, key, value))
                        setattr(module, key, wrapper)

    def remove(self):
        for module, key, value in reversed(self._patched):
            setattr(module, key, value)
        self._patched.clear()

    def take(self) -> list[list]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def summarize(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-name totals, self times, calls and work, plus per-layer self time."""
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    work: dict[str, int] = {}
    for i, (name, start, end, _, w) in enumerate(spans):
        dur = end - start
        total[name] = total.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + w

    def t(name):
        return total.get(name, 0.0)

    def c(name):
        return calls.get(name, 0)

    def wk(name):
        return work.get(name, 0)

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

    out = {
        "cli.self_s": layer_self("cli"),
        "sweep.self_s": layer_self("sweep"),
        "sweep.points": wk("sweep.run"),
        "sweep.write_csv_s": t("sweep.write_csv"),
        "sweep.csv_bytes": wk("sweep.write_csv"),
        "chips.prepare_s": t("chips.prepare"),
        "chips.prepare.calls": c("chips.prepare"),
        "chips.unitaries_s": t("chips.unitaries"),
        "chips.unitaries.calls": c("chips.unitaries"),
        "chips.probabilities_s": t("chips.probabilities"),
        "chips.probabilities.calls": c("chips.probabilities"),
        "chips.calibrate.calls": c("chips.calibrate"),
        "chips.calibrate.evals": c(BUILD_SPAN),
        "chips.calibrate_s": t("chips.calibrate"),
        "chips.load_config_s": t("chips.load_config"),
        "optics.self_s": layer_self("optics"),
        "optics.calls": sum(v for k, v in calls.items() if k.startswith("optics.")),
        "analysis.report_s": t("analysis.report"),
        "analysis.report.calls": c("analysis.report"),
        "sampling.draws": c("sampling.draw"),
        "sampling.draw_s": t("sampling.draw"),
        "sampling.derive_seed.calls": c("sampling.derive_seed"),
        "sampling.derive_seed_s": t("sampling.derive_seed"),
        "sampling.write_csv_s": t("sampling.write_csv"),
        "sampling.csv_rows": wk("sampling.write_csv") + wk("sampling.read_csv"),
        "sampling.estimate.calls": c("sampling.estimate"),
        "sampling.estimate.self_s": self_s.get("sampling.estimate", 0.0),
        "sampling.bootstrap_replicates": wk("sampling.estimate"),
        "sampling.read_csv_s": t("sampling.read_csv"),
        "galton.run.calls": c("galton.run"),
        "galton.balls": wk("galton.run"),
        "galton.run_s": t("galton.run"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = layer_self(layer) / wall_s if wall_s > 0 else 0.0
    return out
