#!/usr/bin/env python3
"""Compare the PSD maps: spectra floors and rotation-equivariance defects.

Reproduces the qualitative story behind the method comparison: all the
matrix-function maps are equivariant under the Mandel rotation
representation, while re-assembling a rotated parameter vector through the
Cholesky construction is not.
"""

import argparse

import numpy as np

from latmech import sampling
from latmech.psd import (
    PsdMethod,
    cholesky_assemble,
    equivariance_defect,
    lower_triangle_params,
    project,
)
from latmech.tensor4 import mandel_rotation

def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    print(f"{'method':12s} {'min eig (worst)':>16s} {'equiv defect (worst)':>22s}")
    for method in PsdMethod:
        worst_eig = np.inf
        worst_defect = 0.0
        for k in range(args.samples):
            raw = rng.standard_normal((6, 6))
            m = 0.5 * (raw + raw.T)
            rp = mandel_rotation(sampling.random_rotation(args.seed * 1000 + k))
            out = project(m, method)
            worst_eig = min(worst_eig, np.linalg.eigvalsh(out).min())
            worst_defect = max(worst_defect, equivariance_defect(method, m, rp))
        print(f"{method.value:12s} {worst_eig:16.3e} {worst_defect:22.3e}")

    # Cholesky re-assembly of rotated parameters: not equivariant.
    worst = 0.0
    for k in range(args.samples):
        params = rng.standard_normal(21)
        rp = mandel_rotation(sampling.random_rotation(5000 + k))
        filled = np.zeros((6, 6))
        rows, cols = np.tril_indices(6)
        filled[rows, cols] = params
        filled = filled + np.tril(filled, -1).T
        rotated_params = lower_triangle_params(rp.r_mandel @ filled @ rp.r_mandel.T)
        reassembled = cholesky_assemble(rotated_params, "exp")
        rotated = rp.r_mandel @ cholesky_assemble(params, "exp") @ rp.r_mandel.T
        worst = max(worst, np.linalg.norm(reassembled - rotated) / np.linalg.norm(rotated))
    print(f"{'cholesky':12s} {'(PSD by constr.)':>16s} {worst:22.3e}")


if __name__ == "__main__":
    main()
