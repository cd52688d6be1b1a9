"""Command-line interface: phase sweeps, the classical baseline, count analysis.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or malformed
inputs), 3 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .analysis import CONTEXTS, report_table, significance
from .chips import DeviceConfig, load_device_config
from .errors import CalibrationError, ConsistencyError
from .galton import galton_s, galton_s_exact
from .sampling import (
    DEFAULT_BOOTSTRAP_REPLICATES, count_statistics, group_counts, read_counts_csv,
    write_counts_columns,
)
from .sweep import (
    SweepSpec, run_sweep, write_figure_curves_csv, write_sweep_csv,
)

# z-score above which a printed verdict reads "violation"
VERDICT_SIGMAS = 5.0

# counts are int64, so a record's total must stay below 2**63
SHOTS_LIMIT = 2**63
# a float64 grid of 2**60 phases would pass numpy's 2**63-byte array limit, and
# np.linspace fails with an IndexError just below 2**63 points
STEPS_LIMIT = 2**60
# bootstrap replicates share the limit of the steps: numpy cannot shape 2**63
# of them, and a count below the limit that cannot be allocated is a data error
BOOTSTRAP_LIMIT = 2**60

_SUMMARY_NOTE = (
    "note: summary inputs are typically already rounded for publication; "
    "the sigma count computed from them can differ from one computed on the "
    "unrounded data."
)


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def int_at_least(minimum: int, below: int | None = None) -> Callable[[str], int]:
    """argparse type of an integer flag in [minimum, below), e.g. a seed or a count."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            limit = "non-negative" if minimum == 0 else f"at least {minimum}"
            raise argparse.ArgumentTypeError(f"must be {limit}, got {value}")
        if below is not None and value >= below:
            raise argparse.ArgumentTypeError(f"must be below {below}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid ... value" message
    return parse


def float_within(low: float = -math.inf, high: float = math.inf) -> Callable[[str], float]:
    """argparse type of a finite float flag in [low, high], e.g. a phase limit or a probability."""
    limit = {(-math.inf, math.inf): "finite", (0.0, math.inf): "finite and non-negative"}.get(
        (low, high), f"in [{low:g}, {high:g}]")

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and low <= value <= high):
            raise argparse.ArgumentTypeError(f"must be {limit}, got {text}")
        return value

    parse.__name__ = "float"
    return parse


class _SummaryAction(argparse.Action):
    """Stores --summary S BOUND SIGMA, whose SIGMA must be positive."""

    def __call__(self, parser, namespace, values, option_string=None):
        if not values[2] > 0.0:
            raise argparse.ArgumentError(self, f"SIGMA must be positive, got {values[2]!r}")
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chipctx", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate the pipeline over a phase grid")
    sweep.add_argument("--phi-start", type=float_within(), default=0.0)
    sweep.add_argument("--phi-end", type=float_within(), default=2.0 * math.pi)
    sweep.add_argument("--steps", type=int_at_least(2, STEPS_LIMIT), default=201)
    sweep.add_argument("--mode", choices=("analytic", "sampled"), default="analytic")
    sweep.add_argument("--shots", type=int_at_least(1, SHOTS_LIMIT), default=None,
                       help="events per (phase, context) in sampled mode "
                            f"(default {SweepSpec.shots})")
    sweep.add_argument("--seed", type=int_at_least(0), default=None,
                       help=f"master seed for sampled mode (default {SweepSpec.master_seed})")
    sweep.add_argument("--device", choices=("ideal", "imperfect"), default="ideal")
    sweep.add_argument("--config", type=Path, default=None,
                       help="device config JSON (required for --device imperfect)")
    sweep.add_argument("--out", type=Path, default=Path("sweep.csv"))
    sweep.add_argument("--counts-out", type=Path, default=None,
                       help="counts CSV path in sampled mode (default: <out>_counts.csv)")
    sweep.add_argument("--bootstrap", type=int_at_least(2, BOOTSTRAP_LIMIT), nargs="?",
                       const=DEFAULT_BOOTSTRAP_REPLICATES,
                       default=None,
                       help="bootstrap replicates for sigma_S instead of propagation "
                            f"(default {DEFAULT_BOOTSTRAP_REPLICATES} when given bare)")
    sweep.add_argument("--emit-figure3", action="store_true",
                       help="write the ideal and configured-device curves side by side")
    sweep.set_defaults(func=cmd_sweep)

    hv = sub.add_parser("hv", help="run the classical stochastic-board baseline")
    hv.add_argument("--prep", type=float_within(0.0), nargs=4, required=True,
                    metavar=("P1", "P2", "P3", "P4"),
                    help="channel probability distribution")
    hv.add_argument("--shots", type=int_at_least(1, SHOTS_LIMIT), default=1_000_000)
    hv.add_argument("--seed", type=int_at_least(0), default=0)
    hv.add_argument("--flip-prob", type=float_within(0.0, 1.0), default=0.5,
                    help="bit-flip probability of an X section")
    hv.add_argument("--exact", action="store_true", help="exact probabilities, no sampling")
    hv.set_defaults(func=cmd_hv)

    analyze = sub.add_parser("analyze", help="evaluate the inequality from a counts CSV")
    analyze.add_argument("counts_csv", type=Path)
    analyze.add_argument("--out", type=Path, default=None, help="write the report as JSON")
    analyze.add_argument("--bootstrap", type=int_at_least(2, BOOTSTRAP_LIMIT), nargs="?",
                         const=DEFAULT_BOOTSTRAP_REPLICATES,
                         default=None)
    analyze.add_argument("--summary", type=float_within(), nargs=3, default=None,
                         action=_SummaryAction, metavar=("S", "BOUND", "SIGMA"),
                         help="also evaluate a pre-computed (S, bound, sigma_S) summary")
    analyze.set_defaults(func=cmd_analyze)

    return parser


def _sweep_usage_error(args) -> str | None:
    """Why this flag combination is unusable: an empty grid, a missing or an ignored flag."""
    if not args.phi_start < args.phi_end:
        return f"--phi-start must be below --phi-end, got {args.phi_start!r} >= {args.phi_end!r}"
    needs_config = args.device == "imperfect" or args.emit_figure3
    if needs_config and args.config is None:
        return "--config is required for --device imperfect and --emit-figure3"
    if not needs_config and args.config is not None:
        return "--config applies only to --device imperfect and --emit-figure3"
    if args.emit_figure3 and args.mode == "sampled":
        return "--emit-figure3 applies only to --mode analytic"
    sampled_flags = (("--shots", args.shots), ("--seed", args.seed),
                     ("--bootstrap", args.bootstrap), ("--counts-out", args.counts_out))
    for flag, value in sampled_flags:
        if args.mode == "analytic" and value is not None:
            return f"{flag} applies only to --mode sampled"
    return None


def cmd_sweep(args) -> int:
    usage_error = _sweep_usage_error(args)
    if usage_error is not None:
        print(f"error: {usage_error}", file=sys.stderr)
        return 1
    device = DeviceConfig.ideal()
    if args.config is not None:
        device = load_device_config(args.config)

    sampling = {name: value for name, value in (("shots", args.shots), ("master_seed", args.seed))
                if value is not None}
    spec = SweepSpec(
        phi_start=args.phi_start, phi_end=args.phi_end, steps=args.steps, mode=args.mode,
        device=device if args.device == "imperfect" else DeviceConfig.ideal(),
        bootstrap=args.bootstrap, **sampling,
    )

    if args.emit_figure3:
        write_figure_curves_csv(args.out, spec, device)
        print(f"wrote ideal and device curves ({spec.steps} points) to {args.out}")
        return 0

    table = run_sweep(spec)
    write_sweep_csv(args.out, table)
    print(f"wrote {len(table)} sweep rows to {args.out}")
    if spec.mode == "sampled":
        counts_path = args.counts_out
        if counts_path is None:
            counts_path = args.out.with_name(args.out.stem + "_counts.csv")
        write_counts_columns(counts_path, np.repeat(table.phi, len(CONTEXTS)),
                             CONTEXTS * len(table), table.counts.reshape(-1, 4),
                             table.seeds.ravel())
        print(f"wrote {4 * len(table)} count records to {counts_path}")
    best = int(table.s.argmax())
    print(f"max S = {table.s[best]:.6f} at phi = {table.phi[best]:.6f}")
    return 0


def _verdict(z: float, s: float, bound: float) -> str:
    """Verdict from the z-score, or from S against the bound when z is undefined (NaN)."""
    if math.isnan(z):
        return "violation" if s > bound else "no violation"
    return "violation" if z > VERDICT_SIGMAS else "no violation"


def cmd_hv(args) -> int:
    prep = tuple(args.prep)
    if args.exact:
        s = galton_s_exact(prep, x_flip_probability=args.flip_prob)
        print(f"S = {s!r} (exact)")
        print(f"classical bound: 2; margin to bound = {2.0 - s!r}")
        print(f"verdict: {_verdict(math.nan, s, 2.0)}")
        return 0
    s, sigma_s = galton_s(prep, args.shots, args.seed, x_flip_probability=args.flip_prob)
    z = significance(s, 0.0, sigma_s) if sigma_s > 0.0 else math.nan  # the board has epsilon = 0
    print(f"S = {s:.6f} +- {sigma_s:.6f} ({args.shots} shots per context)")
    if not math.isnan(z):
        print(f"classical bound: 2; (S - 2)/sigma_S = {z:.3f}")
    else:
        print("classical bound: 2; sigma_S = 0, comparing S directly")
    print(f"verdict: {_verdict(z, s, 2.0)}")
    return 0


def cmd_analyze(args) -> int:
    columns = read_counts_csv(args.counts_csv)
    if not len(columns) and args.summary is None:
        print(f"error: {args.counts_csv} holds no count records", file=sys.stderr)
        return 2
    phi, counts, seeds = group_counts(columns)
    groups = report_table(np.array(phi, dtype=float),
                          *count_statistics(counts, seeds, args.bootstrap)).tolist()

    lines = [
        f"phi={phi!r}: S={s:.6f} +- {sigma_s:.6f} epsilon={eps:.6f} bound={bound:.6f} "
        f"significance={'n/a' if math.isnan(z) else format(z, '.3f')} [{_verdict(z, s, bound)}]\n"
        for phi, _, s, eps, bound, sigma_s, z in groups
    ]
    summary = None
    if args.summary is not None:
        s, bound, sigma = args.summary
        z = significance(s, bound - 2.0, sigma)
        lines.append(f"summary: S={s!r} bound={bound!r} sigma_S={sigma!r} "
                     f"-> significance = {z:.3f} sigma [{_verdict(z, s, bound)}]\n")
        lines.append(_SUMMARY_NOTE + "\n")
        summary = (s, bound, sigma, z)
    sys.stdout.write("".join(lines))

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_report_json(groups, summary))
        print(f"wrote report to {args.out}")
    return 0


_JSON_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_number(x: float) -> str:
    """A float as ``json.dump`` writes it."""
    text = repr(x)
    return _JSON_NON_FINITE.get(text, text)


def _json_members(members, indent: int) -> str:
    """The ``"key": value`` lines of a JSON object whose members sit ``indent`` spaces in."""
    pad = " " * indent
    return ",\n".join(f'{pad}"{key}": {value}' for key, value in members)


def _report_json(groups: list[tuple], summary: tuple | None) -> str:
    """The ``analyze`` report, byte for byte what ``json.dump(payload, fh, indent=2)`` + LF writes.

    ``groups`` are the rows of ``ReportTable.tolist()``.  The payload is
    ``{"groups": [{"phi": phi, **InequalityReport.to_json_dict()}, ...]}``, so
    a NaN (undefined) significance is written ``null``, plus ``"summary": {"S",
    "bound", "sigma_S", "significance"}`` when given.
    """
    blocks = []
    for phi, e, s, eps, bound, sigma_s, z in groups:
        expectations = _json_members(zip(CONTEXTS, map(_json_number, e)), 8)
        members = [("phi", _json_number(phi)),
                   ("expectations", "{\n" + expectations + "\n      }"),
                   ("S", _json_number(s)), ("epsilon", _json_number(eps)),
                   ("bound", _json_number(bound)), ("sigma_S", _json_number(sigma_s)),
                   ("significance", "null" if math.isnan(z) else _json_number(z))]
        blocks.append("    {\n" + _json_members(members, 6) + "\n    }")
    top = [("groups", "[\n" + ",\n".join(blocks) + "\n  ]" if blocks else "[]")]
    if summary is not None:
        fields = zip(("S", "bound", "sigma_S", "significance"), map(_json_number, summary))
        top.append(("summary", "{\n" + _json_members(fields, 4) + "\n  }"))
    return "{\n" + _json_members(top, 2) + "\n}\n"


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError, MemoryError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
