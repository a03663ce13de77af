"""Rewrite ``tests/data/golden_float64_step.npz`` from the current code.

The file holds the float64 forward output, loss and every parameter gradient
of :func:`conftest.golden_step`, which ``tests/test_model.py`` compares at
1e-12 max-normalised. Run by hand from the repository root::

    python tests/make_golden_step.py

It prints each array's max-normalised difference from the file it replaces.
Rewriting the file is a reviewed change: its CHANGES.md entry says why the
arrays moved and lists those differences.
"""

import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

from conftest import golden_step  # noqa: E402

PATH = HERE / "data" / "golden_float64_step.npz"


def main():
    arrays = golden_step()
    if PATH.exists():
        with np.load(PATH) as old:
            for name, new in arrays.items():
                if name not in old:
                    print(f"{name}: new")
                    continue
                ref = old[name]
                diff = (np.abs(new - ref).max() / max(np.abs(ref).max(), np.finfo(float).tiny)
                        if new.shape == ref.shape else float("inf"))
                print(f"{name}: {diff:.3g}")
    np.savez_compressed(PATH, **arrays)
    print(f"wrote {len(arrays)} arrays to {PATH}")


if __name__ == "__main__":
    main()
