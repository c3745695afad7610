"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import math
import time

import numpy as np
import pytest

from latmech import io, sampling
from latmech.fe import homogenize
from latmech.lattice import (
    body_centred_cubic,
    diamond,
    perturb,
    simple_cubic,
    tessellate,
)
from latmech.metrics import (
    DirectionSet,
    aggregate_training_loss,
    l_comp,
    l_equiv,
    negative_eig_fraction,
)
from latmech.optimize import DesignProblem, solve
from latmech.psd import PsdMethod, equivariance_defect, project
from latmech.tensor4 import (
    ElasticTensor4,
    MandelMatrix,
    directional_modulus,
    from_mandel,
    kelvin_spectrum,
    mandel_rotation,
    rotate,
    rotate_mandel,
    to_mandel,
    to_voigt,
    voigt_rotation,
)

from conftest import random_symmetric_matrix, random_symmetric_tensor4, transformed_nodes


def report(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{status}] {label}{suffix}")
    assert passed, f"criterion {number}: {label}{suffix}"


def test_criterion_01_mandel_rotation_orthonormality():
    started = time.perf_counter()
    worst = 0.0
    for k in range(1000):
        rm = mandel_rotation(sampling.random_rotation(1000 + k)).r_mandel
        worst = max(worst, np.linalg.norm(rm.T @ rm - np.eye(6)))
    elapsed = time.perf_counter() - started
    report(
        1,
        "Mandel rotation representation orthonormal over 1000 rotations",
        worst < 1e-12 and elapsed < 1.0,
        f"worst defect {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_02_equivariance_commuting_square():
    started = time.perf_counter()
    rng = np.random.default_rng(2)
    worst = 0.0
    for k in range(200):
        c = ElasticTensor4(random_symmetric_tensor4(rng))
        r = sampling.random_rotation(2000 + k)
        cartesian = to_mandel(rotate(c, r)).entries
        conjugated = rotate_mandel(to_mandel(c), mandel_rotation(r)).entries
        rel = np.linalg.norm(cartesian - conjugated) / np.linalg.norm(cartesian)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    report(
        2,
        "Cartesian and Mandel rotation paths commute over 200 pairs",
        worst < 1e-10 and elapsed < 1.0,
        f"worst relative deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_03_psd_stack():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    methods = [
        PsdMethod.SQUARE,
        PsdMethod.FOURTH,
        PsdMethod.EXP,
        PsdMethod.TRUNC_EXP2,
        PsdMethod.TRUNC_EXP4,
    ]
    worst_eig = np.inf
    worst_defect = 0.0
    for k in range(500):
        m = random_symmetric_matrix(rng)
        rp = mandel_rotation(sampling.random_rotation(3000 + k))
        for method in methods:
            out = project(m, method)
            floor = -1e-10 * np.linalg.norm(out)
            min_eig = np.linalg.eigvalsh(out).min()
            worst_eig = min(worst_eig, min_eig - floor)
            worst_defect = max(worst_defect, equivariance_defect(method, m, rp))
    elapsed = time.perf_counter() - started
    report(
        3,
        "PSD stack: nonnegative spectra and equivariance for all five maps",
        worst_eig >= 0.0 and worst_defect < 1e-9 and elapsed < 2.0,
        f"eig margin {worst_eig:.2e}, worst defect {worst_defect:.2e}, {elapsed:.2f}s",
    )


def test_criterion_04_voigt_falsification():
    # Concrete counterexample: cubic stiffness, 37 degrees about (1,1,0).
    c = np.zeros((3, 3, 3, 3))
    for i in range(3):
        c[i, i, i, i] = 2.0
        for j in range(3):
            if i != j:
                c[i, i, j, j] = 0.8
                c[i, j, i, j] = c[i, j, j, i] = c[j, i, i, j] = c[j, i, j, i] = 0.5
    v = to_voigt(ElasticTensor4(c)).entries
    rv = voigt_rotation(sampling.axis_angle_rotation([1.0, 1.0, 0.0], math.radians(37.0)))
    rotate_then_square = (rv @ v @ rv.T) @ (rv @ v @ rv.T)
    square_then_rotate = rv @ (v @ v) @ rv.T
    defect = np.linalg.norm(rotate_then_square - square_then_rotate) / np.linalg.norm(
        square_then_rotate
    )
    report(
        4,
        "matrix square does not commute with the Voigt rotation rule",
        defect > 1e-3,
        f"relative mismatch {defect:.3e}",
    )


def test_criterion_05_fe_analytic_limit():
    started = time.perf_counter()
    result = homogenize(simple_cubic(radius=0.05))
    value = result.stiffness.components[0, 0, 0, 0]
    expected = math.pi * 0.05**2
    rel = abs(value - expected) / expected
    elapsed = time.perf_counter() - started
    report(
        5,
        "simple cubic C_1111 equals pi r^2",
        rel < 1e-6 and elapsed < 1.0,
        f"C_1111 = {value:.6e}, relative error {rel:.2e}, {elapsed:.2f}s",
    )


def test_criterion_06_tessellation_invariance():
    started = time.perf_counter()
    worst = 0.0
    for lat in (simple_cubic(), body_centred_cubic(), diamond()):
        base = to_mandel(homogenize(lat).stiffness).entries
        doubled = to_mandel(homogenize(tessellate(lat, 2)).stiffness).entries
        worst = max(worst, np.linalg.norm(base - doubled) / np.linalg.norm(base))
    elapsed = time.perf_counter() - started
    report(
        6,
        "2x2x2 tessellation leaves the homogenized stiffness unchanged",
        worst < 1e-8 and elapsed < 10.0,
        f"worst relative deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_07_fe_equivariance_loss():
    started = time.perf_counter()
    lattices = [simple_cubic(), body_centred_cubic(), diamond()]
    lattices += [perturb(body_centred_cubic(), 0.05, seed=s) for s in range(4)]
    lattices += [perturb(diamond(), 0.05, seed=s) for s in range(3)]
    assert len(lattices) == 10
    rotations = sampling.random_rotations(10, seed=7)
    dirs = DirectionSet.sample(250, seed=7)

    def predictor(lat):
        return homogenize(lat).stiffness

    value = l_equiv(predictor, lattices, rotations, dirs)
    elapsed = time.perf_counter() - started
    report(
        7,
        "homogenizer equivariance loss over 10 lattices x 10 rotations",
        value < 1e-8 and elapsed < 60.0,
        f"l_equiv = {value:.2e}, {elapsed:.1f}s",
    )


def test_criterion_08_kelvin_spectrum():
    spectrum = kelvin_spectrum(ElasticTensor4.isotropic(1.0, 1.0))
    iso_ok = np.abs(spectrum.eigenvalues - np.array([5.0, 2, 2, 2, 2, 2])).max() < 1e-10
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        c = ElasticTensor4(random_symmetric_tensor4(rng))
        s = kelvin_spectrum(c)
        rebuilt = np.einsum("a,aij,akl->ijkl", s.eigenvalues, s.eigentensors, s.eigentensors)
        worst = max(worst, np.abs(rebuilt - c.components).max())
    report(
        8,
        "Kelvin spectrum: isotropic eigenvalues {5, 2x5} and reconstruction",
        iso_ok and worst < 1e-9,
        f"worst reconstruction error {worst:.2e}",
    )


def test_criterion_09_cubic_anisotropy():
    c = homogenize(simple_cubic(radius=0.05)).stiffness
    axis = directional_modulus(c, [1.0, 0.0, 0.0])
    diagonal = directional_modulus(c, np.full(3, 1.0 / math.sqrt(3.0)))
    margin = axis / diagonal - 1.0
    report(
        9,
        "simple cubic is stiffer along axes than the body diagonal",
        margin > 0.2,
        f"axis {axis:.3e}, diagonal {diagonal:.3e}, margin {margin:.0%}",
    )


def test_criterion_10_optimization_demo():
    started = time.perf_counter()
    # The untouched tessellation is a symmetric stationary point of the FE
    # map, so the demo starts from a small seeded perturbation of the
    # 2x2x2 simple cubic and targets its own stiffness with the Mandel
    # 22-row/column scaled by 0.8.
    base = perturb(tessellate(simple_cubic(), 2), 0.02, seed=11)
    m = to_mandel(homogenize(base).stiffness).entries.copy()
    scale = np.ones((6, 6))
    scale[1, :] *= 0.8
    scale[:, 1] *= 0.8
    scale[1, 1] = 0.8
    target = from_mandel(MandelMatrix(m * scale))
    problem = DesignProblem(base=base, target=target, max_steps=50)
    trace = solve(problem)
    history = trace.objective_history
    nonincreasing = all(b <= a for a, b in zip(history, history[1:]))
    reverified = homogenize(trace.final_lattice).stiffness
    verified = np.array_equal(trace.final_stiffness.components, reverified.components)
    ratio = history[-1] / history[0]
    elapsed = time.perf_counter() - started
    report(
        10,
        "design demo reaches <= 10% of the initial objective in <= 50 steps",
        ratio <= 0.1 and nonincreasing and verified and elapsed < 300.0,
        f"objective {history[0]:.3e} -> {history[-1]:.3e} "
        f"(ratio {ratio:.1%}) in {len(history) - 1} steps, {elapsed:.0f}s",
    )


def test_criterion_11_metrics_self_consistency():
    rng = np.random.default_rng(11)
    t = MandelMatrix(random_symmetric_matrix(rng))
    self_zero = l_comp(t, t) == 0.0
    pred = random_symmetric_matrix(rng)
    target = random_symmetric_matrix(rng)
    base = aggregate_training_loss([(MandelMatrix(pred), MandelMatrix(target))])
    scaled = aggregate_training_loss(
        [(MandelMatrix(3.7 * pred), MandelMatrix(3.7 * target))]
    )
    scale_ok = abs(scaled - base) <= 1e-12 * base
    projected = [
        from_mandel(MandelMatrix(project(random_symmetric_matrix(rng), PsdMethod.SQUARE)))
        for _ in range(50)
    ]
    fraction = negative_eig_fraction(projected)
    report(
        11,
        "metrics: l_comp(x,x)=0, scale invariance, PSD sets have zero "
        "negative-eigenvalue fraction",
        self_zero and scale_ok and fraction == 0.0,
        f"fraction {fraction}",
    )


def test_criterion_12_perturbation_protocol(tmp_path):
    lat = body_centred_cubic()
    worst = 0.0
    for seed in (0, 1, 2, 12345):
        moved = perturb(lat, 0.1, seed)
        before = transformed_nodes(lat)
        after = transformed_nodes(moved)
        for k in range(lat.node_count):
            best = np.inf
            for tx in (-1, 0, 1):
                for ty in (-1, 0, 1):
                    for tz in (-1, 0, 1):
                        shift = lat.cell @ np.array([tx, ty, tz], dtype=float)
                        best = min(best, np.linalg.norm(after[k] - before[k] + shift))
            worst = max(worst, abs(best - 0.1))
    paths = []
    for run in range(2):
        path = tmp_path / f"catalogue_{run}.lats"
        io.write_catalogue(
            path, [perturb(lat, 0.1, seed=9), perturb(diamond(), 0.1, seed=9)]
        )
        paths.append(path.read_text())
    identical = paths[0] == paths[1]
    report(
        12,
        "perturbation moves every node by exactly the level, reproducibly",
        worst < 1e-12 and identical,
        f"worst magnitude error {worst:.2e}, bit-identical {identical}",
    )
