#!/usr/bin/env python3
"""Best-of-n timings of the tensor kernels that score a stiffness.

Times, on the homogenized stiffness of the body-centred cubic cell and
one seeded rotation: the Mandel round trip ``to_mandel(from_mandel(m))``,
``rotate`` and ``rotate_mandel``, ``directional_moduli`` and ``l_dir``
over 250 directions, and ``psd.project`` with each of the six matrix
maps on a checked matrix, and the square on a raw 6x6 array, which it
checks.  A tensor keeps its Mandel form, so the repeated
``directional_moduli`` and ``l_dir`` calls on one tensor time the
contraction, not a conversion; ``directional_moduli`` is timed on a
``DirectionSet``'s own array, whose kept dyad table it reads, and on a
fresh copy, which it checks and builds a table for.  ``l_dir`` is timed
three ways: on one set each call and on equal sets in turn, both of
which hit the moduli its target keeps (the second after comparing the
directions), and on two different sets in turn, which miss and contract
the target again.  The round trip
builds a new tensor each call and so times both conversions.  It also
times the per-item constructors and checks on their own: the
``MandelMatrix`` check of a 6x6 array, ``from_mandel`` of a checked
matrix, ``mandel_rotation`` (which builds and checks a ``RotationPair``),
``check_rotation``, the ``ElasticTensor4`` checks of a 3x3x3x3 array
(with its first Mandel conversion), the keyed ``random_rotation`` draw
and ``rotate_lattice`` of a perturbed body-centred cell.  Then the batch
metrics: 48 ``random_rotations``, ``l_equiv`` of a constant predictor
over 8 perturbed body-centred cells and 4 rotations, and
``negative_eig_fraction`` of 32 tensors built fresh by ``from_mandel``
in each call, so that their Mandel forms are converted.
Prints the core count, then one line per kernel with the best of 7
repeats, in microseconds per call.

    PYTHONPATH=src python scripts/tensor_kernels.py
"""

import itertools
import os
import timeit

import numpy as np

from latmech import metrics, psd, sampling
from latmech.fe import homogenize
from latmech.lattice import body_centred_cubic, perturb, rotate_lattice
from latmech.tensor4 import (
    ElasticTensor4,
    MandelMatrix,
    check_rotation,
    directional_moduli,
    from_mandel,
    mandel_rotation,
    rotate,
    rotate_mandel,
    to_mandel,
)

REPEATS = 7
CALLS = 200


def best_us(fn) -> float:
    """Best of ``REPEATS`` runs of ``CALLS`` calls, in microseconds per call."""
    return min(timeit.repeat(fn, number=CALLS, repeat=REPEATS)) / CALLS * 1e6


def kernels() -> dict:
    c = homogenize(body_centred_cubic()).stiffness
    m = to_mandel(c)
    r = sampling.random_rotation(0)
    rp = mandel_rotation(r)
    dirs = metrics.DirectionSet.sample(250, seed=0)
    fresh = np.array(dirs.directions)
    equal = itertools.cycle([metrics.DirectionSet(fresh, 0) for _ in range(2)])
    other = itertools.cycle([dirs, metrics.DirectionSet.sample(250, seed=1)])
    target = rotate(c, r)
    cases = {
        "mandel round trip": lambda: to_mandel(from_mandel(m)),
        "rotate": lambda: rotate(c, r),
        "rotate_mandel": lambda: rotate_mandel(m, rp),
        "directional_moduli (250, own)": lambda: directional_moduli(c, dirs.directions),
        "directional_moduli (250, fresh)": lambda: directional_moduli(c, fresh),
        "l_dir (250)": lambda: metrics.l_dir(c, target, dirs),
        "l_dir (250, equal sets)": lambda: metrics.l_dir(c, target, next(equal)),
        "l_dir (250, other sets)": lambda: metrics.l_dir(c, target, next(other)),
    }
    for method in psd.PsdMethod:
        cases[f"project {method.value}"] = lambda method=method: psd.project(m, method)
    entries, components = m.entries.copy(), c.components.copy()
    cases["project square (raw)"] = lambda: psd.project(entries, psd.PsdMethod.SQUARE)
    cases.update({
        "MandelMatrix(a)": lambda: MandelMatrix(entries),
        "from_mandel": lambda: from_mandel(m),
        "mandel_rotation": lambda: mandel_rotation(r),
        "check_rotation": lambda: check_rotation(r),
        "ElasticTensor4(c)": lambda: ElasticTensor4(components),
        "random_rotation": lambda: sampling.random_rotation(0, 7),
        "random_rotations (48)": lambda: sampling.random_rotations(48, 0),
    })
    cells = [perturb(body_centred_cubic(), 0.05, seed=s) for s in range(8)]
    cases["rotate_lattice"] = lambda: rotate_lattice(cells[0], r)
    rotations = sampling.random_rotations(4, 1)
    cases["l_equiv (8 x 4)"] = lambda: metrics.l_equiv(lambda lat: c, cells, rotations, dirs)
    rotated = [rotate_mandel(m, mandel_rotation(q)) for q in sampling.random_rotations(32, 2)]
    cases["negative_eig_fraction (32)"] = lambda: metrics.negative_eig_fraction(
        [from_mandel(a) for a in rotated]
    )
    return cases


def main() -> None:
    print(f"nproc {len(os.sched_getaffinity(0))}")
    for name, fn in kernels().items():
        print(f"{name:31s} {best_us(fn):9.1f} us")


if __name__ == "__main__":
    main()
