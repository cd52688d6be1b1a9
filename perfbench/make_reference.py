"""Regenerate ``data/device_reference.npz``, the stored device-sweep reference.

The reference is the analytic device sweep of ``data/device.json`` over the
``analytic_grid`` workload's grid (10 001 phases on [0, 2 pi]).  It was made
at the commit that introduced the benchmark; regenerate it only when the
device model is meant to change, never to make a failing check pass.

Run from the repository root:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from workloads import DEVICE_CONFIG, DEVICE_REFERENCE, TWO_PI, call_cli, read_csv_columns, floats  # noqa: E402

COLUMNS = ("phi", "E_XX", "E_XZ", "E_ZX", "E_ZZ", "S", "epsilon", "bound")


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = Path(tmp) / "device.csv"
        call_cli(["sweep", "--phi-start", "0", "--phi-end", TWO_PI, "--steps", "10001",
                  "--device", "imperfect", "--config", str(DEVICE_CONFIG), "--out", str(out)])
        cols = read_csv_columns(out)
    np.savez_compressed(DEVICE_REFERENCE, **{c: floats(cols, c) for c in COLUMNS})
    print(f"wrote {DEVICE_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
