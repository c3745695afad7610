#!/usr/bin/env python3
"""Best-of-n timings of the element kernels, the design step's fe layers
and the catalogue path.

Times ``_beam_kernel`` on 24 struts (one design cell) and on 1536 struts
(the 8x8x8 simple cubic supercell, more than one gather block),
``_beam_kernel_derivative`` on 24 struts, and, on the cell of the
y-softening design demo (2x2x2 simple cubic perturbed by 0.02 with seed 1,
radius 0.05): ``_moved`` of one candidate step, ``_solve_one`` of the
cell and ``_stiffness_jacobian`` of its solution.  On the perturbed 8x8x8
simple cubic supercell it times ``_fundamental_cell`` from an empty
topology memo (the strut graph's solve plan is built) and with the plan
memoized (only the geometry is built).  On a 64-cell catalogue
like the benchmark's (the 4 built-in cells plus 20 realizations each of
sc_x2, bcc and diamond perturbed by 0.02), written to a temporary
directory, it times ``homogenize_batch`` at radii 0.05 and 0.08,
``io.read_catalogue`` and ``io.read_stiffness_records`` of the 128
records.  The tracer of ``perfbench`` sees none of these layers.  Prints
the core count, then one line per case with the best of 7 repeats, in
microseconds per call.

    PYTHONPATH=src python scripts/fe_layers.py
"""

import os
import tempfile
import timeit

import numpy as np

from latmech import fe, io
from latmech.lattice import (
    body_centred_cubic,
    diamond,
    perturb,
    perturbed_realizations,
    simple_cubic,
    tessellate,
)
from latmech.tensor4 import to_mandel

REPEATS = 7
CALLS = 200
CATALOGUE_RADII = (0.05, 0.08)


def best_us(fn, calls: int = CALLS) -> float:
    """Best of ``REPEATS`` runs of ``calls`` calls, in microseconds per call."""
    return min(timeit.repeat(fn, number=calls, repeat=REPEATS)) / calls * 1e6


def catalogue() -> list:
    """The 4 built-in cells, then 20 realizations of each multi-node one."""
    bases = [simple_cubic(), tessellate(simple_cubic(), 2), body_centred_cubic(), diamond()]
    return bases + [
        lat for k, base in enumerate(bases[1:])
        for lat in perturbed_realizations(base, 0.02, 100 * k, 20)
    ]


def catalogue_cases(workdir: str) -> dict:
    lattices = catalogue()
    cells = os.path.join(workdir, "catalogue.lats")
    records = os.path.join(workdir, "stiffness.jsonl")
    io.write_catalogue(cells, lattices)
    io.write_stiffness_records(records, [
        io.stiffness_record(to_mandel(item.result.stiffness), name=item.name, radius=item.radius)
        for item in fe.homogenize_batch(lattices, CATALOGUE_RADII)
    ])
    return {
        f"homogenize_batch ({len(lattices)} x 2)": (
            lambda: fe.homogenize_batch(lattices, CATALOGUE_RADII), 5
        ),
        "io.read_catalogue": (lambda: io.read_catalogue(cells), 5),
        "io.read_stiffness_records": (lambda: io.read_stiffness_records(records), 5),
    }


def unplanned_cell(lat) -> fe._Cell:
    """``fe._fundamental_cell`` of ``lat`` after emptying the topology memo."""
    fe._TOPOLOGIES.clear()
    fe._RECENT_TOPOLOGIES.clear()
    return fe._fundamental_cell(lat)


def cases() -> dict:
    mat = fe.BeamMaterial()
    lat = perturb(tessellate(simple_cubic(), 2), 0.02, 1)
    cell = fe._fundamental_cell(lat)
    radius = lat.radius
    sections = fe._strut_sections([radius], [len(cell.vectors)])
    big_lat = perturb(tessellate(simple_cubic(), 8), 0.02, 1)
    big = fe._fundamental_cell(big_lat)
    big_sections = fe._strut_sections([radius], [len(big.vectors)])
    _density, solution = fe._solve_one(cell, radius, mat)
    inverse = np.linalg.inv(lat.cell)
    deltas = np.random.default_rng(1).uniform(-1e-3, 1e-3, (lat.node_count, 3))
    return {
        f"_beam_kernel ({len(cell.vectors)})": (
            lambda: fe._beam_kernel(cell.vectors, sections, mat), CALLS
        ),
        f"_beam_kernel ({len(big.vectors)})": (
            lambda: fe._beam_kernel(big.vectors, big_sections, mat), CALLS // 20
        ),
        f"_beam_kernel_derivative ({len(cell.vectors)})": (
            lambda: fe._beam_kernel_derivative(cell.vectors, sections, mat), CALLS
        ),
        f"_fundamental_cell miss ({len(big.vectors)})": (
            lambda: unplanned_cell(big_lat), CALLS // 20
        ),
        f"_fundamental_cell hit ({len(big.vectors)})": (
            lambda: fe._fundamental_cell(big_lat), CALLS // 20
        ),
        "_moved": (
            lambda: fe._moved(cell, lat.cell, inverse, lat.nodes, lat.edges, deltas), CALLS
        ),
        "_solve_one": (lambda: fe._solve_one(cell, radius, mat), CALLS),
        "_stiffness_jacobian": (
            lambda: fe._stiffness_jacobian(cell, solution, radius, mat), CALLS
        ),
    }


def main() -> None:
    print(f"nproc {len(os.sched_getaffinity(0))}")
    with tempfile.TemporaryDirectory() as workdir:
        for name, (fn, calls) in {**cases(), **catalogue_cases(workdir)}.items():
            print(f"{name:32s} {best_us(fn, calls):9.1f} us")


if __name__ == "__main__":
    main()
