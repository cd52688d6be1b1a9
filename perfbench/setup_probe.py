"""Time one workload's set-up in a fresh process.

Set-up is importing ``chipctx.cli``, loading the workload's inputs and making
the workload's first calls at tiny size, which pays the lazy imports they
trigger (``scipy.optimize`` for the calibration of ``analytic_grid``).  Prints
``{"setup_s": ...}`` as its last line.  ``run.py`` starts it several times per
run and reports the median.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import chipctx.cli  # noqa: E402,F401

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload](args.seed, args.smoke, args.workdir)
    workload.warm_up()
    print(json.dumps({"setup_s": perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
