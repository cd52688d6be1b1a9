"""Command-line interface: phase sweeps, the classical baseline, count analysis.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or malformed
inputs), 3 internal-consistency failure.

:func:`main` may be called many times in one process.  The argparse parser
is built once, on the first call, and shared by every later one, which is
safe because parsing leaves the parser as it was: each call parses into a
new ``Namespace``, the custom actions write only to it, ``prog`` is fixed,
and help and usage text is formatted when it is printed, so the terminal
width and the current ``sys.stdout``/``sys.stderr`` are read at that moment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from .analysis import CONTEXTS, ReportTable, check_distribution, report_table, significance
from .chips import DeviceConfig, load_device_config
from .errors import CalibrationError, ConsistencyError, check_integer, check_number
from .galton import _board_counts, galton_s_exact
from .sampling import (
    BOOTSTRAP_LIMIT, DEFAULT_BOOTSTRAP_REPLICATES, SHOTS_LIMIT, _count_statistics, _write_counts,
    read_counts_csv,
)
from .sweep import (
    STEPS_LIMIT, SweepSpec, _check_grid, run_sweep, write_figure_curves_csv, write_sweep_csv,
)
from .text import JSON_NON_FINITE, JSON_SIGNIFICANCE, STDOUT_SIGNIFICANCE, blocks, column_text

# z-score above which a printed verdict reads "violation"
VERDICT_SIGMAS = 5.0

# hv's sampled board without --shots and --seed
_HV_SHOTS = 1_000_000
_HV_SEED = 0

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


def _flag_type(convert: Callable, check: Callable, low: float, high: float) -> Callable:
    """argparse type that converts a flag's text and checks the value as the API doors do.

    A text that does not convert is argparse's "invalid <type> value" error;
    the check's ValueError becomes an ArgumentTypeError without the value's
    name, since argparse names the flag.
    """

    def parse(text: str):
        value = convert(text)
        try:
            return check(value, "", low, high)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None

    parse.__name__ = convert.__name__  # argparse names the type in its "invalid ... value" message
    return parse


def int_at_least(minimum: int, below: float = math.inf) -> Callable[[str], int]:
    """argparse type of an integer flag in [minimum, below), e.g. a seed or a count."""
    return _flag_type(int, check_integer, minimum, below)


def float_within(low: float = -math.inf, high: float = math.inf) -> Callable[[str], float]:
    """argparse type of a finite float flag in [low, high], e.g. a phase limit or a probability."""
    return _flag_type(float, check_number, low, high)


class _SummaryAction(argparse.Action):
    """Stores --summary S BOUND SIGMA, whose SIGMA must be positive."""

    def __call__(self, parser, namespace, values, option_string=None):
        if not values[2] > 0.0:
            raise argparse.ArgumentError(self, f"SIGMA must be positive, got {values[2]!r}")
        setattr(namespace, self.dest, values)


class _PreparationAction(argparse.Action):
    """Stores hv --prep P1..P4, checked as a board preparation (weights summing to 1)."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            setattr(namespace, self.dest, check_distribution(values, "preparation", 0.0))
        except ValueError as exc:
            raise argparse.ArgumentError(self, str(exc)) from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use."""
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
                    action=_PreparationAction, metavar=("P1", "P2", "P3", "P4"),
                    help="channel probability distribution")
    hv.add_argument("--shots", type=int_at_least(1, SHOTS_LIMIT), default=None,
                    help=f"balls per context, without --exact (default {_HV_SHOTS})")
    hv.add_argument("--seed", type=int_at_least(0), default=None,
                    help=f"board seed, without --exact (default {_HV_SEED})")
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
    """Why these flags are unusable: a bad grid, a missing or ignored flag, a file named twice."""
    try:
        _check_grid(args.phi_start, args.phi_end, "--phi-start", "--phi-end")
    except ValueError as exc:
        return str(exc)
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
    return _same_file([("--config", args.config), ("--out", args.out),
                       ("--counts-out", _counts_path(args) if args.mode == "sampled" else None)])


def _counts_path(args) -> Path:
    """The sampled sweep's counts CSV: --counts-out, by default <out>_counts.csv.

    Built on ``out.parent``: ``out.with_name`` raises for an --out without a
    name, such as ``.``, which the sweep CSV's write then reports.
    """
    if args.counts_out is not None:
        return args.counts_out
    return args.out.parent / (args.out.stem + "_counts.csv")


def _same_file(named_paths: Sequence[tuple[str, Path | None]]) -> str | None:
    """Why a command may not use these (name, path) pairs, inputs first: two name one file.

    A path that is None is unused, and one that exists and is no regular
    file, such as /dev/null, may be named twice.  An existing file is known
    by its device and inode, so a hard link to it is the file; a path that
    does not exist yet by ``os.path.realpath``, which resolves it as
    ``Path.resolve`` does but returns on a symlink loop instead of raising.
    """
    seen: dict = {}
    for name, path in named_paths:
        if path is None or (path.exists() and not path.is_file()):
            continue
        stat = path.stat() if path.exists() else None
        key = (stat.st_dev, stat.st_ino) if stat else os.path.realpath(path)
        if key in seen:
            return f"{name} names the same file as {seen[key]}: {path}"
        seen[key] = name
    return None


def cmd_sweep(args) -> int:
    usage_error = _sweep_usage_error(args)
    if usage_error is not None:
        print(f"error: {usage_error}", file=sys.stderr)
        return 1
    sampling = {name: value for name, value in (("shots", args.shots), ("master_seed", args.seed))
                if value is not None}
    spec = SweepSpec(
        phi_start=args.phi_start, phi_end=args.phi_end, steps=args.steps, mode=args.mode,
        device=DeviceConfig.ideal() if args.config is None else load_device_config(args.config),
        bootstrap=args.bootstrap, **sampling,
    )

    if args.emit_figure3:
        write_figure_curves_csv(args.out, spec)
        print(f"wrote ideal and device curves ({spec.steps} points) to {args.out}")
        return 0

    table = run_sweep(spec)
    write_sweep_csv(args.out, table)
    print(f"wrote {len(table)} sweep rows to {args.out}")
    if spec.mode == "sampled":
        counts_path = _counts_path(args)
        _write_counts(counts_path, np.repeat(table.phi, len(CONTEXTS)), CONTEXTS * len(table),
                      table.counts.reshape(-1, 4), table.seeds.ravel())
        print(f"wrote {4 * len(table)} count records to {counts_path}")
    best = int(table.s.argmax())
    print(f"max S = {table.s[best]:.6f} at phi = {table.phi[best]:.6f}")
    return 0


def _verdict(z, s, bound):
    """Verdict from the z-score, or from S against the bound where z is undefined (NaN).

    Takes scalars, giving one verdict, or equally long arrays, giving a list.
    """
    violation = np.where(np.isnan(z), s > bound, z > VERDICT_SIGMAS)
    return np.where(violation, "violation", "no violation").tolist()


def cmd_hv(args) -> int:
    if args.exact:
        for flag, value in (("--shots", args.shots), ("--seed", args.seed)):
            if value is not None:
                print(f"error: {flag} does not apply to --exact", file=sys.stderr)
                return 1
        s = galton_s_exact(args.prep, x_flip_probability=args.flip_prob)
        print(f"S = {s!r} (exact)")
        print(f"classical bound: 2; margin to bound = {2.0 - s!r}")
        print(f"verdict: {_verdict(math.nan, s, 2.0)}")
        return 0
    shots = _HV_SHOTS if args.shots is None else args.shots
    seed = _HV_SEED if args.seed is None else args.seed
    counts, seeds = _board_counts(args.prep, shots, seed, x_flip_probability=args.flip_prob)
    # the board has no phase: one group, reported as analyze reports each of its groups
    table = report_table(np.zeros(1), *_count_statistics(counts[None], seeds[None]))
    s, bound, z = table.s, table.bound, table.significance
    print(f"S = {s[0]:.6f} +- {table.sigma_s[0]:.6f} ({shots} shots per context)")
    print(_BOUND_FIELDS.format(table.epsilon[0], bound[0],
                               *column_text(z, STDOUT_SIGNIFICANCE, "{:.3f}".format)))
    print(f"verdict: {_verdict(z[0], s[0], bound[0])}")
    return 0


def cmd_analyze(args) -> int:
    usage_error = _same_file([("the counts CSV", args.counts_csv), ("--out", args.out)])
    if usage_error is not None:
        print(f"error: {usage_error}", file=sys.stderr)
        return 1
    phi, counts, seeds = read_counts_csv(args.counts_csv)
    if not len(phi) and args.summary is None:
        print(f"error: {args.counts_csv} holds no count records", file=sys.stderr)
        return 2
    table = report_table(phi, *_count_statistics(counts, seeds, args.bootstrap))
    summary = None
    if args.summary is not None:
        s, bound, sigma = args.summary
        summary = (s, bound, sigma, significance(s, bound - 2.0, sigma))
    sys.stdout.writelines(_report_lines(table, summary))

    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(_report_json(table, summary))
        print(f"wrote report to {args.out}")
    return 0


# A group's epsilon, bound and significance on stdout, and one group of analyze's stdout.
_BOUND_FIELDS = "epsilon={:.6f} bound={:.6f} significance={}"
_GROUP_LINE = "phi={!r}: S={:.6f} +- {:.6f} " + _BOUND_FIELDS + " [{}]\n"


def _json_template(doc: dict, indent: str) -> str:
    """``json.dumps(doc, indent=2)`` as a ``str.format`` template with a field for each None.

    Every line after the first sits ``indent`` further in.
    """
    text = json.dumps(doc, indent=2).replace("{", "{{").replace("}", "}}").replace("null", "{}")
    return text.replace("\n", "\n" + indent)


# One group and the summary of the JSON report, laid out by json.dumps itself.
_GROUP_JSON = "    " + _json_template(
    {"phi": None, "expectations": dict.fromkeys(CONTEXTS), "S": None, "epsilon": None,
     "bound": None, "sigma_S": None, "significance": None}, "    ")
_SUMMARY_JSON = ',\n  "summary": ' + _json_template(
    dict.fromkeys(("S", "bound", "sigma_S", "significance")), "  ")


def _report_lines(table: ReportTable, summary: tuple | None) -> Iterator[str]:
    """``analyze``'s stdout, a block of groups at a time, then the summary (S, bound, sigma_S, z)."""
    for block in blocks(len(table)):
        s, bound, z = table.s[block], table.bound[block], table.significance[block]
        yield "".join(map(_GROUP_LINE.format, table.phi[block].tolist(), s.tolist(),
                          table.sigma_s[block].tolist(), table.epsilon[block].tolist(),
                          bound.tolist(), column_text(z, STDOUT_SIGNIFICANCE, "{:.3f}".format),
                          _verdict(z, s, bound)))
    if summary is not None:
        s, bound, sigma, z = summary
        yield (f"summary: S={s!r} bound={bound!r} sigma_S={sigma!r} "
               f"-> significance = {z:.3f} sigma [{_verdict(z, s, bound)}]\n")
        yield _SUMMARY_NOTE + "\n"


def _json_groups(table: ReportTable, block: slice) -> str:
    """The JSON objects of one block of groups; their cells are freed on return."""
    numbers = [column_text(column[block], JSON_NON_FINITE) for column in (
        table.phi, *table.expectations.T, table.s, table.epsilon, table.bound, table.sigma_s)]
    numbers.append(column_text(table.significance[block], JSON_SIGNIFICANCE))
    return ",\n".join(map(_GROUP_JSON.format, *numbers))


def _report_json(table: ReportTable, summary: tuple | None) -> Iterator[str]:
    """The ``analyze`` report, a block of groups at a time.

    Byte for byte what ``json.dump(payload, fh, indent=2)`` + LF writes: the
    payload is ``{"groups": [{"phi": phi, **InequalityReport.to_json_dict()},
    ...]}``, so a NaN (undefined) significance is written ``null``, plus
    ``"summary": {"S", "bound", "sigma_S", "significance"}`` when given.
    """
    yield '{\n  "groups": ['
    for block in blocks(len(table)):
        yield "\n" if block.start == 0 else ",\n"
        yield _json_groups(table, block)
    yield "\n  ]" if len(table) else "]"
    if summary is not None:
        yield _SUMMARY_JSON.format(*column_text(np.array(summary, dtype=float), JSON_NON_FINITE))
    yield "\n}\n"


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
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
