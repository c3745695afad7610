#!/usr/bin/env python3
"""Stiffness band sizes of the benchmark's cells under the solver's node order.

For the four tessellations of the benchmark's ``supercell`` workload and
the four built-in cells of its ``catalogue``, prints the dof count, the
half-bandwidth kd of the pinned stiffness matrix, the bytes of its stored
lower band, 8 n (kd + 1), and n kd^2, the leading term of the banded
Cholesky factorization's flop count, where n is the reduced dof count.
Perturbing a cell moves its nodes but leaves its strut graph, and so
these figures, unchanged.

    PYTHONPATH=src python scripts/band_report.py
"""

from latmech import fe
from latmech.lattice import body_centred_cubic, diamond, simple_cubic, tessellate

SUPERCELLS = [(simple_cubic, 6), (body_centred_cubic, 4), (diamond, 4), (simple_cubic, 8)]
CATALOGUE = [(simple_cubic, 1), (simple_cubic, 2), (body_centred_cubic, 1), (diamond, 1)]


def band_row(lat) -> tuple[int, int, float, float]:
    """(dofs, kd, band MB, factorization GFLOP) of one lattice's solve."""
    top = fe._topology(lat.name, lat.node_count, lat.edges[:, :2])
    n, kd = 6 * lat.node_count - 3, top.half_bandwidth
    return 6 * lat.node_count, kd, 8 * top.band_size / 1e6, n * kd**2 / 1e9


def main() -> None:
    print(f"{'cell':20s} {'dofs':>6s} {'kd':>6s} {'band MB':>9s} {'GFLOP':>9s}")
    for title, plans in (("supercell", SUPERCELLS), ("catalogue", CATALOGUE)):
        total_mb = total_gflop = 0.0
        for base, n in plans:
            lat = tessellate(base(), n)
            dofs, kd, mb, gflop = band_row(lat)
            total_mb += mb
            total_gflop += gflop
            print(f"{lat.name:20s} {dofs:6d} {kd:6d} {mb:9.3g} {gflop:9.3g}")
        print(f"{title + ' total':20s} {'':6s} {'':6s} {total_mb:9.3g} {total_gflop:9.3g}")


if __name__ == "__main__":
    main()
