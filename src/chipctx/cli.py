"""Command-line interface: phase sweeps, the classical baseline, count analysis.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or malformed
inputs), 3 internal-consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Sequence

from .analysis import significance
from .chips import DeviceConfig, load_device_config
from .errors import CalibrationError, ConsistencyError
from .galton import galton_s, galton_s_exact
from .sampling import (
    DEFAULT_BOOTSTRAP_REPLICATES, read_counts_csv, report_from_counts, write_counts_csv,
)
from .sweep import (
    SweepSpec, counts_rows, run_sweep, write_figure_curves_csv, write_sweep_csv,
)

# z-score above which a printed verdict reads "violation"
VERDICT_SIGMAS = 5.0

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


def non_negative_int(text: str) -> int:
    """argparse type of a seed: numpy seeds must be non-negative."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chipctx", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate the pipeline over a phase grid")
    sweep.add_argument("--phi-start", type=float, default=0.0)
    sweep.add_argument("--phi-end", type=float, default=2.0 * math.pi)
    sweep.add_argument("--steps", type=int, default=201)
    sweep.add_argument("--mode", choices=("analytic", "sampled"), default="analytic")
    sweep.add_argument("--shots", type=int, default=100_000,
                       help="events per (phase, context) in sampled mode")
    sweep.add_argument("--seed", type=non_negative_int, default=0,
                       help="master seed for sampled mode")
    sweep.add_argument("--device", choices=("ideal", "imperfect"), default="ideal")
    sweep.add_argument("--config", type=Path, default=None,
                       help="device config JSON (required for --device imperfect)")
    sweep.add_argument("--out", type=Path, default=Path("sweep.csv"))
    sweep.add_argument("--counts-out", type=Path, default=None,
                       help="counts CSV path in sampled mode (default: <out>_counts.csv)")
    sweep.add_argument("--bootstrap", type=int, nargs="?", const=DEFAULT_BOOTSTRAP_REPLICATES,
                       default=None,
                       help="bootstrap replicates for sigma_S instead of propagation "
                            f"(default {DEFAULT_BOOTSTRAP_REPLICATES} when given bare)")
    sweep.add_argument("--emit-figure3", action="store_true",
                       help="write the ideal and configured-device curves side by side")
    sweep.set_defaults(func=cmd_sweep)

    hv = sub.add_parser("hv", help="run the classical stochastic-board baseline")
    hv.add_argument("--prep", type=float, nargs=4, required=True,
                    metavar=("P1", "P2", "P3", "P4"),
                    help="channel probability distribution")
    hv.add_argument("--shots", type=int, default=1_000_000)
    hv.add_argument("--seed", type=non_negative_int, default=0)
    hv.add_argument("--flip-prob", type=float, default=0.5,
                    help="bit-flip probability of an X section")
    hv.add_argument("--exact", action="store_true", help="exact probabilities, no sampling")
    hv.set_defaults(func=cmd_hv)

    analyze = sub.add_parser("analyze", help="evaluate the inequality from a counts CSV")
    analyze.add_argument("counts_csv", type=Path)
    analyze.add_argument("--out", type=Path, default=None, help="write the report as JSON")
    analyze.add_argument("--bootstrap", type=int, nargs="?", const=DEFAULT_BOOTSTRAP_REPLICATES,
                         default=None)
    analyze.add_argument("--summary", type=float, nargs=3, default=None,
                         metavar=("S", "BOUND", "SIGMA"),
                         help="also evaluate a pre-computed (S, bound, sigma_S) summary")
    analyze.set_defaults(func=cmd_analyze)

    return parser


def _sweep_usage_error(args) -> str | None:
    """Why this flag combination is unusable: a missing or an ignored flag."""
    needs_config = args.device == "imperfect" or args.emit_figure3
    if needs_config and args.config is None:
        return "--config is required for --device imperfect and --emit-figure3"
    if not needs_config and args.config is not None:
        return "--config applies only to --device imperfect and --emit-figure3"
    for flag, value in (("--bootstrap", args.bootstrap), ("--counts-out", args.counts_out)):
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

    spec = SweepSpec(
        phi_start=args.phi_start, phi_end=args.phi_end, steps=args.steps,
        mode=args.mode, shots=args.shots, master_seed=args.seed,
        device=device if args.device == "imperfect" else DeviceConfig.ideal(),
        bootstrap=args.bootstrap,
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
        write_counts_csv(counts_path, counts_rows(table))
        print(f"wrote {4 * len(table)} count records to {counts_path}")
    best = int(table.s.argmax())
    print(f"max S = {table.s[best]:.6f} at phi = {table.phi[best]:.6f}")
    return 0


def _verdict(z: float | None, s: float, bound: float) -> str:
    """Verdict from the z-score, or from S against the bound when z is undefined."""
    if z is None:
        return "violation" if s > bound else "no violation"
    return "violation" if z > VERDICT_SIGMAS else "no violation"


def cmd_hv(args) -> int:
    prep = tuple(args.prep)
    if args.exact:
        s = galton_s_exact(prep, x_flip_probability=args.flip_prob)
        print(f"S = {s!r} (exact)")
        print(f"classical bound: 2; margin to bound = {2.0 - s!r}")
        print(f"verdict: {_verdict(None, s, 2.0)}")
        return 0
    s, sigma_s = galton_s(prep, args.shots, args.seed, x_flip_probability=args.flip_prob)
    z = significance(s, 0.0, sigma_s) if sigma_s > 0.0 else None  # the board has epsilon = 0
    print(f"S = {s:.6f} +- {sigma_s:.6f} ({args.shots} shots per context)")
    if z is not None:
        print(f"classical bound: 2; (S - 2)/sigma_S = {z:.3f}")
    else:
        print("classical bound: 2; sigma_S = 0, comparing S directly")
    print(f"verdict: {_verdict(z, s, 2.0)}")
    return 0


def cmd_analyze(args) -> int:
    rows = read_counts_csv(args.counts_csv)
    if not rows and args.summary is None:
        print(f"error: {args.counts_csv} holds no count records", file=sys.stderr)
        return 2

    groups: dict[float, list] = {}
    for phi, rec in rows:
        groups.setdefault(phi, []).append(rec)

    payload: dict = {"groups": []}
    for phi, records in groups.items():
        report = report_from_counts(records, bootstrap=args.bootstrap)
        sig = report.significance
        sig_text = f"{sig:.3f}" if sig is not None else "n/a"
        print(
            f"phi={phi!r}: S={report.s:.6f} +- {report.sigma_s:.6f} "
            f"epsilon={report.epsilon:.6f} bound={report.bound:.6f} "
            f"significance={sig_text} [{_verdict(sig, report.s, report.bound)}]"
        )
        payload["groups"].append({"phi": phi, **report.to_json_dict()})

    if args.summary is not None:
        s, bound, sigma = args.summary
        z = significance(s, bound - 2.0, sigma)
        print(f"summary: S={s!r} bound={bound!r} sigma_S={sigma!r} "
              f"-> significance = {z:.3f} sigma [{_verdict(z, s, bound)}]")
        print(_SUMMARY_NOTE)
        payload["summary"] = {"S": s, "bound": bound, "sigma_S": sigma, "significance": z}

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote report to {args.out}")
    return 0


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
    except (ValueError, OSError, CalibrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
