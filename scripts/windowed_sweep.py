#!/usr/bin/env python3
"""Windowed against fundamental homogenization over seeded perturbed cells.

For each cell family, perturbs it with seeds 0 .. 99 at level 0.02 and
homogenizes every realization through both paths.  A cell fails when the
windowed path raises or differs from ``homogenize`` by more than 1e-9
relative (Frobenius norm of the Mandel matrices).  Prints one row per
family: failures, the failing seeds, and the worst relative difference
among the cells that solved.

    PYTHONPATH=src python scripts/windowed_sweep.py
"""

import numpy as np

from latmech.fe import homogenize, homogenize_windowed
from latmech.lattice import body_centred_cubic, diamond, perturb, simple_cubic, tessellate
from latmech.tensor4 import to_mandel

SEEDS = 100
LEVEL = 0.02
BOUND = 1e-9
FAMILIES = [
    ("diamond_x2", diamond, 2),
    ("bcc_x2", body_centred_cubic, 2),
    ("bcc", body_centred_cubic, 1),
    ("diamond", diamond, 1),
    ("sc_x3", simple_cubic, 3),
]


def relative_difference(lat) -> float:
    """Relative difference of the windowed path from the fundamental one."""
    fundamental = to_mandel(homogenize(lat).stiffness).entries
    windowed = to_mandel(homogenize_windowed(lat).stiffness).entries
    return float(np.linalg.norm(fundamental - windowed) / np.linalg.norm(fundamental))


def main() -> None:
    print(f"{'cell':12s} {'failed':>8s} {'worst rel diff':>15s}  failing seeds")
    total = 0
    for name, base, n in FAMILIES:
        cell = tessellate(base(), n)
        failing, worst = [], 0.0
        for seed in range(SEEDS):
            try:
                rel = relative_difference(perturb(cell, LEVEL, seed))
            except (ValueError, np.linalg.LinAlgError):
                failing.append(seed)
                continue
            worst = max(worst, rel)
            if rel > BOUND:
                failing.append(seed)
        total += len(failing)
        seeds = ", ".join(map(str, failing)) or "-"
        print(f"{name:12s} {len(failing):>4d}/{SEEDS:<3d} {worst:15.2e}  {seeds}")
    print(f"{total} of {SEEDS * len(FAMILIES)} cells failed")


if __name__ == "__main__":
    main()
