import ast
import gc
import math
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from collections import deque
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

from latmech import fe, lattice, sampling
from latmech.fe import (
    BeamMaterial,
    DisconnectedLatticeError,
    SingularSystemError,
    _beam_kernel,
    _beam_kernel_derivative,
    _strut_sections,
    beam_stiffness,
    homogenize,
    homogenize_batch,
    homogenize_windowed,
)
from latmech.lattice import (
    Lattice,
    WindowedLattice,
    body_centred_cubic,
    diamond,
    edge_matrix,
    perturb,
    rotate_lattice,
    simple_cubic,
    tessellate,
    window,
)
from latmech.tensor4 import (
    MandelMatrix,
    directional_modulus,
    from_mandel,
    from_mandel_vector,
    kelvin_spectrum,
    relative_defect,
    rotate,
    to_mandel,
)

from conftest import PERTURBED_CELLS, perturbed_cell, transformed_nodes


def block_rotation(r: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(4), r)


def local_frame_beam_stiffness(length, radius, axis, mat) -> np.ndarray:
    """Reference element matrix: the textbook local-frame matrix, rotated.

    The local y axis is built from a reference vector that switches from z
    to x when |axis_z| >= 0.9.
    """
    e_mod, g_mod = mat.youngs_modulus, mat.shear_modulus
    inertia = math.pi * radius**4 / 4.0
    ea = e_mod * math.pi * radius**2 / length
    gj = g_mod * math.pi * radius**4 / 2.0 / length
    b12 = 12.0 * e_mod * inertia / length**3
    b6 = 6.0 * e_mod * inertia / length**2
    b4 = 4.0 * e_mod * inertia / length
    b2 = 2.0 * e_mod * inertia / length

    k = np.zeros((12, 12))
    k[0, 0] = k[6, 6] = ea
    k[0, 6] = -ea
    k[3, 3] = k[9, 9] = gj
    k[3, 9] = -gj
    # bending in the local x-y plane (v, rz)
    k[1, 1] = k[7, 7] = b12
    k[1, 7] = -b12
    k[1, 5] = k[1, 11] = b6
    k[5, 7] = k[7, 11] = -b6
    k[5, 5] = k[11, 11] = b4
    k[5, 11] = b2
    # bending in the local x-z plane (w, ry); opposite sign on the 6EI terms
    k[2, 2] = k[8, 8] = b12
    k[2, 8] = -b12
    k[2, 4] = k[2, 10] = -b6
    k[4, 8] = k[8, 10] = b6
    k[4, 4] = k[10, 10] = b4
    k[4, 10] = b2
    k = np.triu(k) + np.triu(k, 1).T

    axis = np.asarray(axis, dtype=float)
    ref = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    y = np.cross(ref, axis)
    y /= np.linalg.norm(y)
    t = block_rotation(np.vstack([axis, y, np.cross(axis, y)]))
    return t.T @ k @ t


def unreachable_node_reference(lat: Lattice) -> int | None:
    """First node outside node 0's component, by union-find; None if connected."""
    parent = list(range(lat.node_count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j, *_ in lat.edges:
        ra, rb = find(int(i)), find(int(j))
        if ra != rb:
            parent[ra] = rb
    root = find(0)
    return next((node for node in range(lat.node_count) if find(node) != root), None)


def resolve_master_reference(win: WindowedLattice) -> list[tuple[int, np.ndarray]]:
    """(root master, accumulated separation) of every windowed node, by recursion."""
    link = {int(s): (int(m), np.asarray(v, dtype=float)) for m, s, v in win.periodic_pairs}
    resolved: dict[int, tuple[int, np.ndarray]] = {}

    def resolve(node: int) -> tuple[int, np.ndarray]:
        if node not in link:
            return node, np.zeros(3)
        if node in resolved:
            return resolved[node]
        master, sep = link[node]
        root, extra = resolve(master)
        resolved[node] = (root, sep + extra)
        return resolved[node]

    return [resolve(k) for k in range(win.nodes.shape[0])]


def breadth_first_reference(node_count: int, ends) -> dict[int, int]:
    """Each node's breadth-first distance from node 0, keyed in the order a
    queue first reaches the nodes, each node's neighbours taken by index."""
    neighbours = [set() for _ in range(node_count)]
    for i, j in np.asarray(ends).tolist():
        neighbours[i].add(j)
        neighbours[j].add(i)
    distance = {0: 0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        for other in sorted(neighbours[node] - distance.keys()):
            distance[other] = distance[node] + 1
            queue.append(other)
    return distance


def breadth_first_ranks_reference(node_count: int, ends) -> list[int]:
    """Each node's place in the Cuthill-McKee order from node 0: the order in
    which the breadth-first queue first reaches it."""
    order = list(breadth_first_reference(node_count, ends))
    return [order.index(k) for k in range(node_count)]


def level_sorted_ranks_reference(node_count: int, ends) -> list[int]:
    """Each node's place in breadth-first order from node 0 with every level
    sorted by node index: the order the Cuthill-McKee order replaced."""
    distance = breadth_first_reference(node_count, ends)
    order = sorted(range(node_count), key=lambda k: (distance[k], k))
    return [order.index(k) for k in range(node_count)]


def dense_cell_system(ends, end_positions, vectors, node_count, radius):
    """Element matrices, element dofs, affine end displacements, and the dense
    stiffness matrix and right-hand sides of one cell problem in its own node
    numbering."""
    k_e = _beam_kernel(vectors, _strut_sections([radius], [len(vectors)]), BeamMaterial())
    n_dof = 6 * node_count
    dofs = (6 * np.asarray(ends)[:, :, None] + np.arange(6)).reshape(-1, 12)
    d_aff = np.zeros((len(dofs), 2, 6, 6))
    d_aff[:, :, :3] = np.einsum("aij,enj->enia", fe._UNIT_STRAINS, end_positions)
    d_aff = d_aff.reshape(-1, 12, 6)
    k_global = np.zeros((n_dof, n_dof))
    flat = dofs[:, :, None] * n_dof + dofs[:, None, :]
    np.add.at(k_global.reshape(-1), flat.ravel(), k_e.ravel())
    rhs = np.zeros((n_dof, 6))
    np.add.at(rhs, dofs.ravel(), -(k_e @ d_aff).reshape(-1, 6))
    return k_e, dofs, d_aff, k_global, rhs


def contracted_mandel(k_e, dofs, d_aff, u_red, volume):
    """C = sum_e D_e^T K_e D_e / V with node 0's translations pinned to zero."""
    u_full = np.zeros((len(u_red) + 3, 6))
    u_full[3:] = u_red
    d_total = d_aff + u_full[dofs]
    return d_total.reshape(-1, 6).T @ (k_e @ d_total).reshape(-1, 6) / volume


def half_bandwidth_reference(ranked_ends, node_count: int) -> int:
    """Half-bandwidth of the reduced stiffness matrix of struts joining the
    (E, 2) ``ranked_ends``, each node's six dofs numbered by its rank."""
    gap = int(np.abs(ranked_ends[:, 0] - ranked_ends[:, 1]).max(initial=0))
    return min(6 * gap + 5, 6 * node_count - 4)


def single_cell_mandel_reference(ends, end_positions, vectors, node_count, radius, volume):
    """Homogenized Mandel matrix of one cell problem, assembled and solved on its own.

    The one-cell band pipeline: nodes renumbered in Cuthill-McKee order, a dense
    stiffness matrix, its lower band cut out, then LAPACK's band Cholesky.
    """
    rank = np.asarray(breadth_first_ranks_reference(node_count, ends), dtype=int)
    ends = rank[np.asarray(ends, dtype=int).reshape(-1, 2)]
    k_e, dofs, d_aff, k_global, rhs = dense_cell_system(
        ends, end_positions, vectors, node_count, radius
    )
    k_red, n = k_global[3:, 3:], 6 * node_count - 3
    rows = np.arange(n)[:, None] + np.arange(half_bandwidth_reference(ends, node_count) + 1)
    band = np.where(rows < n, k_red[np.minimum(rows, n - 1), np.arange(n)[:, None]], 0.0)
    factor, info = lapack.dpbtrf(band.T, lower=1)
    assert info == 0
    u_red, info = lapack.dpbtrs(factor, rhs[3:], lower=1)
    assert info == 0
    return contracted_mandel(k_e, dofs, d_aff, u_red, volume)


def dense_mandel_reference(lat: Lattice) -> np.ndarray:
    """Homogenized Mandel matrix by the dense pinned Cholesky of the whole
    stiffness matrix, in the lattice's own node numbering."""
    positions = transformed_nodes(lat)
    ends = lat.edges[:, :2]
    heads = positions[ends[:, 1]] + lat.edges[:, 2:] @ lat.cell.T
    k_e, dofs, d_aff, k_global, rhs = dense_cell_system(
        ends, np.stack([positions[ends[:, 0]], heads], axis=1), edge_matrix(lat),
        lat.node_count, lat.radius,
    )
    chol = scipy.linalg.cho_factor(k_global[3:, 3:], lower=True)
    u_red = scipy.linalg.cho_solve(chol, rhs[3:])
    return contracted_mandel(k_e, dofs, d_aff, u_red, float(np.linalg.det(lat.cell)))


def fundamental_mandel_reference(lat: Lattice) -> np.ndarray:
    positions = transformed_nodes(lat)
    ends = lat.edges[:, :2]
    heads = positions[ends[:, 1]] + lat.edges[:, 2:] @ lat.cell.T
    return single_cell_mandel_reference(
        ends, np.stack([positions[ends[:, 0]], heads], axis=1), edge_matrix(lat),
        lat.node_count, lat.radius, float(np.linalg.det(lat.cell)),
    )


def halving_sum(rows: list) -> np.ndarray:
    """Sum of ``rows``, split where the first part is the largest power of two
    below their count: the association in which pointer jumping sums a chain,
    so that the two give the same bits."""
    if len(rows) == 1:
        return rows[0]
    half = 1 << ((len(rows) - 1).bit_length() - 1)
    return halving_sum(rows[:half]) + halving_sum(rows[half:])


def cut_chains_reference(win: WindowedLattice) -> list[tuple]:
    """(tail, head, tail offset, head offset, vector) of each cut strut, by
    walking each chain of pieces through dicts of pair partners and tails.

    A chain starts at a piece whose tail is a fundamental node or the image
    of one; a piece whose head is an image continues into the piece whose
    tail is that image's master.  Assumes a well-formed view from
    :func:`window`, in which every master of a pair is a root.
    """
    n_fund = win.fundamental_count
    partner = {int(s): (int(m), np.asarray(v, dtype=float)) for m, s, v in win.periodic_pairs}
    element_by_tail: dict[int, int] = {}
    starts: list[int] = []
    for idx, (tail, _head) in enumerate(win.elements.tolist()):
        if tail < n_fund or tail in partner:
            starts.append(idx)
        else:
            assert tail not in element_by_tail
            element_by_tail[tail] = idx
    chains = []
    for idx in starts:
        tail = int(win.elements[idx][0])
        tail_offset = np.zeros(3)
        if tail >= n_fund:
            tail, tail_offset = partner[tail]
        head_seps, vectors = [], []
        while True:
            piece_tail, head = win.elements[idx].tolist()
            vectors.append(win.nodes[head] - win.nodes[piece_tail])
            head, sep = partner.get(head, (head, np.zeros(3)))
            head_seps.append(sep)
            if head < n_fund:
                break
            idx = element_by_tail[head]
        chains.append((tail, head, tail_offset, halving_sum(head_seps), halving_sum(vectors)))
    return chains


def windowed_mandel_reference(lat: Lattice) -> np.ndarray:
    """Homogenized Mandel matrix of the windowed view with each cut chain as
    one element, from the dict walk and the one-cell band pipeline."""
    win = window(lat)
    chains = cut_chains_reference(win)
    ends = np.array([chain[:2] for chain in chains], dtype=int).reshape(-1, 2)
    offsets = np.reshape([chain[2:4] for chain in chains], (-1, 2, 3))
    return single_cell_mandel_reference(
        ends, win.nodes[ends] + offsets, np.reshape([chain[4] for chain in chains], (-1, 3)),
        lat.node_count, lat.radius, float(np.linalg.det(win.cell)),
    )


def master_slave_reference(lat: Lattice) -> tuple[np.ndarray, np.ndarray]:
    """Homogenized Mandel matrix and (N, 6, 6) displacement and rotation of
    each fundamental node per unit Mandel strain, by a dense master-slave
    solve on the image nodes of ``window(lat)``, each cut piece its own beam.

    The unknowns are the total displacements and rotations of the nodes that
    are no pair's slave.  A slave moves with its root master plus eps . sep,
    at equal rotations, and node 0's translations are pinned.
    """
    win = window(lat)
    count = len(win.nodes)
    resolved = resolve_master_reference(win)
    roots = sorted({root for root, _sep in resolved})
    column = {root: 6 * k for k, root in enumerate(roots)}
    # total dofs = mapping @ free dofs + affine slave offsets, a column per unit strain
    mapping = np.zeros((6 * count, 6 * len(roots)))
    affine = np.zeros((6 * count, 6))
    for node, (root, sep) in enumerate(resolved):
        mapping[6 * node : 6 * node + 6, column[root] : column[root] + 6] = np.eye(6)
        affine[6 * node : 6 * node + 3] = np.einsum("aij,j->ia", fe._UNIT_STRAINS, sep)
    mapping = mapping[:, 3:]  # node 0 is the first root
    tails, heads = win.elements.T
    vectors = win.nodes[heads] - win.nodes[tails]
    k_e = _beam_kernel(vectors, _strut_sections([lat.radius], [len(vectors)]), BeamMaterial())
    dofs = (6 * win.elements[:, :, None] + np.arange(6)).reshape(-1, 12)
    k_global = np.zeros((6 * count, 6 * count))
    np.add.at(k_global, (dofs[:, :, None], dofs[:, None, :]), k_e)
    reduced = mapping.T @ k_global @ mapping
    free = scipy.linalg.solve(reduced, -mapping.T @ k_global @ affine, assume_a="pos")
    total = mapping @ free + affine
    mandel = total.T @ k_global @ total / np.linalg.det(lat.cell)
    return mandel, total.reshape(count, 6, 6)[: lat.node_count]


class TestBeamStiffness:
    def test_axial_entry(self):
        mat = BeamMaterial(youngs_modulus=2.0)
        k = beam_stiffness(1.5, 0.1, [1.0, 0.0, 0.0], mat)
        assert k[0, 0] == pytest.approx(2.0 * math.pi * 0.01 / 1.5, rel=1e-12)

    def test_symmetric(self, rng):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        k = beam_stiffness(0.8, 0.03, axis, BeamMaterial())
        np.testing.assert_allclose(k, k.T, atol=1e-12)

    def test_rigid_body_nullity_six(self, rng):
        for _ in range(5):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            length = float(rng.uniform(0.3, 2.0))
            radius = float(rng.uniform(0.01, 0.1))
            k = beam_stiffness(length, radius, axis, BeamMaterial())
            eigvals = np.linalg.eigvalsh(k)
            scale = np.abs(eigvals).max()
            assert np.sum(np.abs(eigvals) < 1e-9 * scale) == 6

    def test_frame_rotation_oracle(self, rng):
        # Assembling in a rotated frame equals conjugating by the block
        # rotation; circular sections make this exact for any rotation.
        axis = np.array([1.0, 0.0, 0.0])
        r = sampling.random_rotation(3)
        k_base = beam_stiffness(1.2, 0.05, axis, BeamMaterial())
        k_rotated = beam_stiffness(1.2, 0.05, r @ axis, BeamMaterial())
        t = block_rotation(r)
        np.testing.assert_allclose(k_rotated, t @ k_base @ t.T, atol=1e-10)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            beam_stiffness(0.0, 0.05, [1, 0, 0], BeamMaterial())
        with pytest.raises(ValueError):
            beam_stiffness(1.0, -0.05, [1, 0, 0], BeamMaterial())
        # an infinite size passes "> 0" and would give a non-finite matrix
        with pytest.raises(ValueError, match="length must be positive and finite"):
            beam_stiffness(math.inf, 0.1, [1, 0, 0], BeamMaterial())
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            beam_stiffness(1.0, math.inf, [1, 0, 0], BeamMaterial())

    def test_radius_bound_is_zero_exclusive(self):
        for radius in (0.0, np.nextafter(0.0, -1.0)):
            with pytest.raises(ValueError, match="radius must be positive and finite"):
                beam_stiffness(1.0, radius, [1, 0, 0], BeamMaterial())
        k = beam_stiffness(1.0, np.nextafter(0.0, 1.0), [1, 0, 0], BeamMaterial())
        assert k.shape == (12, 12) and np.isfinite(k).all()


# Axis z-components near 0.9 are where the local-frame reference switches
# its reference vector.
_AXIS_Z = st.one_of(st.floats(0.88, 0.92), st.floats(-0.92, -0.88), st.floats(-1.0, 1.0))


def _strut_vector(nz: float, azimuth: float, length: float) -> np.ndarray:
    rho = math.sqrt(max(1.0 - nz * nz, 0.0))
    return length * np.array([rho * math.cos(azimuth), rho * math.sin(azimuth), nz])


def axis_examples(test):
    """Struts along a coordinate axis (exactly along +x, +z and -z, within
    2e-16 of -x and +y) and within 1e-9 of one, where b Q = b I - b P
    cancels in the kernel's features."""
    cases = [
        (1.0, 0.0), (-1.0, 0.0), (0.0, 0.0), (0.0, math.pi), (0.0, math.pi / 2),
        (0.0, 1e-9), (0.0, math.pi / 2 - 1e-9), (1e-9, 0.0), (-1e-9, math.pi),
    ]
    for nz, azimuth in cases:
        test = example(nz=nz, azimuth=azimuth, length=0.7, radius=0.05)(test)
    return test


@settings(max_examples=40, deadline=None)
@given(
    nz=_AXIS_Z,
    azimuth=st.floats(0.0, 2.0 * math.pi),
    length=st.floats(0.2, 2.0),
    radius=st.floats(0.005, 0.1),
)
@axis_examples
def test_property_kernel_matches_local_frame_reference(nz, azimuth, length, radius):
    mat = BeamMaterial(1.7, 0.27)
    v = _strut_vector(nz, azimuth, length)
    k = _beam_kernel(v[None], _strut_sections([radius], [1]), mat)
    assert np.array_equal(k[0], k[0].T)
    reference = local_frame_beam_stiffness(length, radius, v / np.linalg.norm(v), mat)
    np.testing.assert_allclose(k[0], reference, rtol=0, atol=1e-13 * np.abs(reference).max())


@settings(max_examples=40, deadline=None)
@given(
    nz=_AXIS_Z,
    azimuth=st.floats(0.0, 2.0 * math.pi),
    length=st.floats(0.2, 2.0),
    radius=st.floats(0.005, 0.1),
)
@axis_examples
def test_property_kernel_derivative_matches_central_differences(nz, azimuth, length, radius):
    mat = BeamMaterial(1.3, 0.3)
    v = _strut_vector(nz, azimuth, length)
    sections = _strut_sections([radius], [1])
    k = _beam_kernel(v[None], sections, mat)
    dk = _beam_kernel_derivative(v[None], sections, mat)
    assert np.array_equal(k[0], k[0].T)
    assert np.array_equal(dk[0], dk[0].transpose(0, 2, 1))
    h = 1e-5 * length
    for m in range(3):
        step = np.zeros(3)
        step[m] = h
        plus = _beam_kernel((v + step)[None], sections, mat)
        minus = _beam_kernel((v - step)[None], sections, mat)
        central = (plus[0] - minus[0]) / (2.0 * h)
        np.testing.assert_allclose(
            dk[0, m], central, rtol=0, atol=1e-7 * np.abs(dk[0]).max()
        )


def dense_kernel_reference(vectors, sections, mat):
    """The element matrices and their derivative as one dense product of
    strut-major features with the (36, 144) basis: the reference for the
    kernels, which add only the nonzero terms of feature-major features."""
    length = np.linalg.norm(vectors, axis=1)
    n = vectors / length[:, None]
    m = np.concatenate([n, np.ones((len(n), 1))], axis=1)
    e_mod, g_mod = mat.youngs_modulus, mat.shear_modulus
    moduli = np.array([e_mod, g_mod, 12.0 * e_mod, 4.0 * e_mod, 2.0 * e_mod, 6.0 * e_mod])
    coeff = moduli * sections[:, fe._COEFF_SECTION] / length[:, None] ** fe._COEFF_POWER
    a, b, c = fe._FEATURE_A, fe._FEATURE_B, fe._FEATURE_COEFF
    pair = m[:, a] * m[:, b]
    inv = 1.0 / length
    dcoeff = (-fe._COEFF_POWER * coeff * inv[:, None])[:, None, :] * n[:, :, None]
    dm = np.zeros((len(n), 3, 4))
    dm[:, :, :3] = (np.eye(3) - n[:, :, None] * n[:, None, :]) * inv[:, None, None]
    dpair = dm[:, :, a] * m[:, None, b] + m[:, None, a] * dm[:, :, b]
    dfeatures = dcoeff[:, :, c] * pair[:, None] + coeff[:, None, c] * dpair
    k = np.einsum("ef,fk->ek", coeff[:, c] * pair, fe._KERNEL_BASIS)
    dk = np.einsum("ecf,fk->eck", dfeatures, fe._KERNEL_BASIS)
    return k.reshape(-1, 12, 12), dk.reshape(-1, 3, 12, 12)


def strut_stack(seed: int, count: int, aligned: float, log_lengths) -> np.ndarray:
    """(count, 3) strut vectors: a share ``aligned`` of them along a
    coordinate axis with signed zeros elsewhere, so that features are exactly
    0.0 or -0.0, and the rest in random directions; lengths log-uniform."""
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((count, 3))
    along = rng.random(count) < aligned
    axis = rng.integers(0, 3, count)
    signed_zeros = np.where(rng.random((count, 3)) < 0.5, -0.0, 0.0)
    ones = np.where(rng.random((count, 3)) < 0.5, -1.0, 1.0)
    vectors[along] = np.where(np.eye(3, dtype=bool)[axis], ones, signed_zeros)[along]
    lengths = 10.0 ** rng.uniform(*log_lengths, count)
    return vectors / np.linalg.norm(vectors, axis=1)[:, None] * lengths[:, None]


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.flags.c_contiguous
    np.testing.assert_array_equal(actual.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.sampled_from([1, 24, 2 * fe._GATHER_STRUTS + 5]),
    aligned=st.sampled_from([0.0, 0.5, 1.0]),
    log_lengths=st.sampled_from([(-5.0, 4.0), (-5.0, -5.0), (4.0, 4.0), (0.0, 0.0)]),
    radii=st.lists(st.floats(1e-4, 0.2), min_size=1, max_size=3),
)
@example(seed=0, count=24, aligned=1.0, log_lengths=(0.0, 0.0), radii=[0.05])
def test_property_gathering_kernels_equal_the_dense_product_bit_for_bit(
    seed, count, aligned, log_lengths, radii
):
    # the kernels add only the nonzero basis terms; the dense product adds
    # all 36, and both must give the same bits, signed zeros included
    vectors = strut_stack(seed, count, aligned, log_lengths)
    counts = [count // len(radii)] * (len(radii) - 1)
    counts.append(count - sum(counts))
    sections = _strut_sections(radii, counts)
    mat = BeamMaterial(1.7, 0.27)
    k, dk = dense_kernel_reference(vectors, sections, mat)
    assert_same_bits(_beam_kernel(vectors, sections, mat), k)
    assert_same_bits(_beam_kernel_derivative(vectors, sections, mat), dk)


def test_every_basis_column_adds_a_term_that_is_never_negative_zero():
    # the padding zero (72) or a negated term 0.0 - f (36-71): so no basis sum is -0.0,
    # as none of the dense product's is
    terms = fe._BASIS_TERMS
    assert ((terms == 72) | ((terms >= 36) & (terms < 72))).any(axis=0).all()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.sampled_from([(36, 1), (36, 24), (36, 3, 24), (36, 2 * fe._GATHER_STRUTS + 5)]),
    log_scale=st.floats(-290.0, 290.0),
)
def test_property_basis_sum_equals_the_dense_product_bit_for_bit(seed, shape, log_scale):
    # feature-major (36, ..., E) features against the strut-major product
    rng = np.random.default_rng(seed)
    features = rng.standard_normal(shape) * 10.0 ** (log_scale + rng.uniform(-8.0, 8.0, shape))
    features[rng.random(shape) < 0.2] = 0.0
    features[rng.random(shape) < 0.2] = -0.0
    dense = np.einsum("...f,fk->...k", np.ascontiguousarray(features.T), fe._KERNEL_BASIS)
    assert_same_bits(fe._basis_sum(features), dense)


def sc_x2() -> Lattice:
    return tessellate(simple_cubic(), 2)


class TestHomogenize:
    def test_simple_cubic_axial_limit(self):
        # Under unit axial strain only the aligned strut works; the energy
        # route gives C_1111 = E A / a^2 = pi r^2 exactly.
        res = homogenize(simple_cubic(radius=0.05))
        assert res.stiffness.components[0, 0, 0, 0] == pytest.approx(
            math.pi * 0.05**2, rel=1e-6
        )
        assert res.residual < 1e-8

    @pytest.mark.parametrize("a", [1e-3, 1e-5])
    def test_small_cell_gives_the_unit_cell_stiffness(self, a):
        # the stiffness of a lattice scaled with its struts does not depend on the scale
        unit = homogenize(simple_cubic(radius=0.05)).stiffness.components
        small = homogenize(simple_cubic(radius=0.05 * a, a=a)).stiffness.components
        assert relative_defect(unit, small) < 1e-12

    # A frame's stiffness is its modulus times a function of its shape, so
    # scaling every length leaves it be.  Each scaled cell reuses the shared
    # topology of its graph, which thus carries no geometry.
    @settings(max_examples=20, deadline=None)
    @given(
        **PERTURBED_CELLS | dict(
            base=st.sampled_from([sc_x2, body_centred_cubic, diamond]), n=st.integers(1, 2)
        ),
        radius=st.floats(0.002, 0.1),
        length=st.sampled_from([1e-4, 1.0, 1e4]),
        modulus=st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_property_stiffness_scales_with_the_modulus_alone(
        self, base, n, level, seed, skewed, radius, length, modulus
    ):
        lat = replace(perturbed_cell(base, n, level, seed, skewed), radius=radius)
        scaled = replace(lat, cell=length * lat.cell, radius=length * radius)
        unit = homogenize(lat)
        got = homogenize(scaled, BeamMaterial(youngs_modulus=modulus))
        defect = relative_defect(unit.stiffness.components, got.stiffness.components / modulus)
        assert defect <= 1e-12
        assert got.min_pivot_ratio == pytest.approx(unit.min_pivot_ratio, rel=1e-9)

    def test_raw_mandel_symmetric_without_postprocessing(self, catalogue_lattices):
        for lat in catalogue_lattices:
            m = to_mandel(homogenize(perturb_if_possible(lat)).stiffness).entries
            scale = np.abs(m).max()
            assert np.abs(m - m.T).max() <= 1e-9 * scale

    def test_kelvin_psd(self, catalogue_lattices):
        for lat in catalogue_lattices:
            spectrum = kelvin_spectrum(homogenize(lat).stiffness)
            floor = -1e-9 * spectrum.eigenvalues.max()
            assert spectrum.eigenvalues.min() >= floor

    def test_linear_in_modulus(self):
        lat = body_centred_cubic()
        c1 = to_mandel(homogenize(lat, BeamMaterial(youngs_modulus=1.0)).stiffness).entries
        c2 = to_mandel(homogenize(lat, BeamMaterial(youngs_modulus=2.0)).stiffness).entries
        np.testing.assert_allclose(c2, 2.0 * c1, rtol=1e-12)

    # both oracles also run on the unperturbed cells, as examples
    @settings(max_examples=25, deadline=None)
    @given(**PERTURBED_CELLS)
    @example(base=simple_cubic, n=1, level=0.0, seed=0, skewed=False)
    @example(base=body_centred_cubic, n=1, level=0.0, seed=0, skewed=False)
    @example(base=diamond, n=1, level=0.0, seed=0, skewed=False)
    def test_tessellation_invariance(self, base, n, level, seed, skewed):
        lat = perturbed_cell(base, n, level, seed, skewed)
        single = to_mandel(homogenize(lat).stiffness).entries
        doubled = to_mandel(homogenize(tessellate(lat, 2)).stiffness).entries
        assert np.linalg.norm(single - doubled) < 1e-8 * np.linalg.norm(single)

    @settings(max_examples=40, deadline=None)
    @given(**PERTURBED_CELLS, rotation_seed=st.integers(0, 10_000))
    @example(base=simple_cubic, n=1, level=0.0, seed=0, skewed=False, rotation_seed=50)
    @example(base=body_centred_cubic, n=1, level=0.0, seed=0, skewed=False, rotation_seed=51)
    @example(base=diamond, n=1, level=0.0, seed=0, skewed=False, rotation_seed=52)
    def test_rotation_equivariance(self, base, n, level, seed, skewed, rotation_seed):
        lat = perturbed_cell(base, n, level, seed, skewed)
        r = sampling.random_rotation(rotation_seed)
        direct = homogenize(rotate_lattice(lat, r)).stiffness.components
        conjugated = rotate(homogenize(lat).stiffness, r).components
        assert np.linalg.norm(direct - conjugated) < 1e-8 * np.linalg.norm(conjugated)

    def test_windowed_path_agrees(self, catalogue_lattices):
        # On these tessellated bcc seeds the window splits struts into pieces
        # as short as 8e-5, whose bending stiffness dwarfs ordinary pivots
        # (regression for a pivot floor taken from the largest diagonal).
        lattices = [perturb_if_possible(lat) for lat in catalogue_lattices] + [
            perturb(tessellate(body_centred_cubic(), 2), 0.02, seed=s) for s in (9, 12, 17, 18)
        ]
        for lat in lattices:
            fundamental = to_mandel(homogenize(lat).stiffness).entries
            windowed = to_mandel(homogenize_windowed(lat).stiffness).entries
            rel = np.linalg.norm(fundamental - windowed) / np.linalg.norm(fundamental)
            assert rel < 1e-9

    @pytest.mark.parametrize(
        "lat",
        [simple_cubic(), tessellate(simple_cubic(), 2), body_centred_cubic(), diamond()],
        ids=["sc", "sc_x2", "bcc", "diamond"],
    )
    def test_master_slave_solve_of_the_window_agrees(self, lat):
        # The affine-jump kinematics of the fundamental solve against
        # master-slave constraints on the cut pieces, a route through neither
        # _cut_chains nor _Cell.  The end displacements are compared too: the
        # stiffness alone does not change if every edge shift enters the
        # affine jump with the wrong sign, since the fluctuation -w - 2 eps x
        # with rotations -r then gives every element the negated end
        # displacements, at the same energy.
        expected = to_mandel(homogenize(lat).stiffness).entries
        mandel, nodes = master_slave_reference(lat)
        assert np.linalg.norm(mandel - expected) <= 1e-9 * np.linalg.norm(expected)
        _density, solution = fe._solve_one(fe._fundamental_cell(lat), lat.radius, BeamMaterial())
        # the solve pins node 0's fluctuation, not its displacement
        nodes[:, :3] += np.einsum("aij,j->ia", fe._UNIT_STRAINS, transformed_nodes(lat)[0])
        jumps = np.einsum("aij,ej->eia", fe._UNIT_STRAINS, lat.edges[:, 2:] @ lat.cell.T)
        ends = np.concatenate([nodes[lat.edges[:, 0]], nodes[lat.edges[:, 1]]], axis=1)
        ends[:, 6:9] += jumps
        scale = np.abs(solution.displacements).max()
        assert np.abs(solution.displacements - ends).max() <= 1e-9 * scale

    def test_windowed_path_agrees_with_loaded_self_edges(self):
        # Skewed cell and a diagonal self-strut: the corrector field is
        # nonzero, so the self-edge blocks must accumulate onto the shared
        # node (regression for the duplicate-index scatter).
        cell = np.array(
            [
                [0.6026923, -0.07450849, 0.12613357],
                [0.34081396, 1.03291192, -0.1657942],
                [-0.23543411, 0.22462373, 1.49043491],
            ]
        )
        lat = Lattice(
            "skew_loop",
            cell,
            [[0.6371322, 0.26105918, 0.4414528], [0.92676757, 0.85790985, 0.80980793]],
            [[0, 1, 0, 0, 0], [1, 0, 1, 0, 1], [0, 0, 1, 1, 1]],
            0.02,
        )
        fundamental = to_mandel(homogenize(lat).stiffness).entries
        windowed = to_mandel(homogenize_windowed(lat).stiffness).entries
        rel = np.linalg.norm(fundamental - windowed) / np.linalg.norm(fundamental)
        assert rel < 1e-9

    def test_windowed_path_matches_single_cell_reference(self, catalogue_lattices):
        # the cells of test_windowed_path_agrees, solved in a chunk of one
        # against the same problem assembled and solved on its own
        lattices = [perturb_if_possible(lat) for lat in catalogue_lattices] + [
            perturb(tessellate(body_centred_cubic(), 2), 0.02, seed=s) for s in (9, 12, 17, 18)
        ]
        for lat in lattices:
            expected = from_mandel(MandelMatrix(windowed_mandel_reference(lat))).components
            assert np.array_equal(homogenize_windowed(lat).stiffness.components, expected)

    def test_disconnected_names_node(self):
        lat = Lattice(
            "split",
            np.eye(3),
            [[0.5, 0.5, 0.5], [0.25, 0.25, 0.25]],
            [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 1, 1, 0, 0]],
            0.05,
        )
        for path in (homogenize, homogenize_windowed):
            with pytest.raises(DisconnectedLatticeError, match="node 1"):
                path(lat)

    def test_floating_cluster_is_singular(self):
        # A triangle joined only within the cell does not span it: its three
        # rigid rotations about the pinned node stay free on both paths.
        lat = Lattice(
            "floating_triangle",
            np.eye(3),
            [[0.2, 0.2, 0.2], [0.5, 0.2, 0.2], [0.2, 0.5, 0.3]],
            [[0, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 2, 0, 0, 0]],
            0.02,
        )
        for path in (homogenize, homogenize_windowed):
            with pytest.raises(SingularSystemError, match="floating_triangle") as raised:
                path(lat)
            assert raised.value.null_dim == 3

    @pytest.mark.filterwarnings("error")
    def test_strutless_node_is_singular(self):
        # No strut touches the node, so its zero stiffness diagonal must
        # count as null rather than divide by zero.
        lat = Lattice("bare", np.eye(3), [[0.5, 0.5, 0.5]], np.zeros((0, 5), dtype=int), 0.05)
        for path in (homogenize, homogenize_windowed):
            with pytest.raises(SingularSystemError, match="bare") as raised:
                path(lat)
            assert raised.value.null_dim == 3

    def test_rejects_overdense(self):
        for path in (homogenize, homogenize_windowed):
            with pytest.raises(ValueError, match="density 1.508 >= 1"):
                path(simple_cubic(radius=0.4))

    def test_a_density_of_exactly_one_is_refused(self):
        # simple cubic: three unit struts in a unit cell, density 3 pi r^2
        radius = 0.32573500793527993
        assert math.pi * radius**2 * 3.0 == 1.0
        with pytest.raises(ValueError, match="density 1.000 >= 1"):
            homogenize(simple_cubic(radius=radius))
        below = np.nextafter(radius, 0.0)
        assert homogenize(simple_cubic(radius=below)).relative_density < 1.0

    def test_min_pivot_ratio_lies_between_floor_and_one(self):
        # L_jj^2 = K_jj - sum_k L_jk^2, so the ratio is at most 1 and, on a
        # solvable cell, above the floor
        result = homogenize(perturb(body_centred_cubic(), 0.05, seed=3))
        assert fe._PIVOT_REL_TOL < result.min_pivot_ratio <= 1.0

    def test_peak_memory_stays_below_one_dense_stiffness_matrix(self):
        # the banded solve never holds an n x n matrix; the dense pinned
        # Cholesky held two
        lat = perturb(tessellate(simple_cubic(), 6), 0.05, seed=1)
        n = 6 * lat.node_count
        homogenize(simple_cubic())  # load the solver's modules first
        tracemalloc.start()
        try:
            homogenize(lat)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n

    def test_cubic_anisotropy_axis_vs_diagonal(self):
        c = homogenize(simple_cubic(radius=0.05)).stiffness
        axis_value = directional_modulus(c, [1.0, 0.0, 0.0])
        diag = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        diag_value = directional_modulus(c, diag)
        assert axis_value > 1.2 * diag_value


@settings(max_examples=300, deadline=None)
@given(
    node_count=st.integers(1, 5),
    pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6),
)
# node 4, reached from node 1, comes before node 3, reached from node 2
@example(node_count=5, pairs=[(0, 2), (0, 1), (2, 3), (1, 4)])
def test_property_unreachable_node_matches_union_find(node_count, pairs):
    # every edge carries a distinct shift, so no set of pairs repeats an edge
    edges = [
        (i % node_count, j % node_count, k + 1, 0, 0) for k, (i, j) in enumerate(pairs)
    ]
    nodes = [[0.1 + 0.15 * k, 0.3, 0.6] for k in range(node_count)]
    lat = Lattice("g", np.eye(3), nodes, np.asarray(edges, dtype=int).reshape(-1, 5), 0.05)
    expected = unreachable_node_reference(lat)
    ends = lat.edges[:, :2]
    if expected is None:
        ranks = fe._node_ranks(lat.name, node_count, ends)
        assert ranks.tolist() == breadth_first_ranks_reference(node_count, ends)
    else:
        with pytest.raises(DisconnectedLatticeError) as raised:
            fe._node_ranks(lat.name, node_count, ends)
        assert raised.value.node == expected
        assert str(raised.value) == f"lattice 'g': node {expected} unreachable from node 0"


@settings(max_examples=30, deadline=None)
@given(
    base=st.sampled_from([simple_cubic, body_centred_cubic, diamond]),
    n=st.integers(1, 3),
    level=st.floats(0.02, 0.1),
    seed=st.integers(0, 10_000),
)
@example(base=diamond, n=3, level=0.1, seed=0)
# cells on which the Cuthill-McKee order differs from the level-sorted one
@example(base=simple_cubic, n=4, level=0.02, seed=4)
@example(base=diamond, n=3, level=0.02, seed=4)
def test_property_band_solve_matches_dense_cholesky(base, n, level, seed):
    lat = tessellate(base(), n)
    if lat.node_count >= 2:
        lat = perturb(lat, level, seed)
    dense = dense_mandel_reference(lat)
    band = to_mandel(homogenize(lat).stiffness).entries
    assert np.linalg.norm(band - dense) <= 1e-12 * np.linalg.norm(dense)


def half_bandwidths(lat: Lattice) -> tuple[int, int]:
    """(Cuthill-McKee, level-sorted) half-bandwidths of a lattice's stiffness."""
    ends = lat.edges[:, :2]
    level_sorted = np.asarray(level_sorted_ranks_reference(lat.node_count, ends))[ends]
    return (
        fe._topology(lat.name, lat.node_count, ends).half_bandwidth,
        half_bandwidth_reference(level_sorted, lat.node_count),
    )


@pytest.mark.parametrize("base", [simple_cubic, body_centred_cubic, diamond])
def test_cuthill_mckee_band_is_never_wider(base):
    for n in range(1, 7):
        kd, kd_level_sorted = half_bandwidths(tessellate(base(), n))
        assert kd <= kd_level_sorted


@pytest.mark.parametrize(
    "base, n, expected",
    [(simple_cubic, 4, (143, 191)), (body_centred_cubic, 3, (233, 269)), (diamond, 4, (263, 359))],
)
def test_cuthill_mckee_band_is_narrower(base, n, expected):
    assert half_bandwidths(tessellate(base(), n)) == expected


def assert_identical(a, b):
    """``a`` and ``b`` are equal to the bit, field by field through dataclasses."""
    assert type(a) is type(b)
    if is_dataclass(a):
        for field in fields(a):
            assert_identical(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    else:
        assert a == b


@settings(max_examples=30, deadline=None)
@given(**PERTURBED_CELLS, move_seed=st.integers(0, 10_000))
def test_property_moved_cell_is_the_displaced_lattices_cell(
    base, n, level, seed, skewed, move_seed
):
    # a design run moves its base cell's geometry instead of building a
    # lattice per candidate; a uniform shift wraps every node at once
    lat = perturbed_cell(base, n, level, seed, skewed)
    cell = fe._fundamental_cell(lat)
    rng = np.random.default_rng(move_seed)
    shift = np.tile(rng.uniform(-0.5, 0.5, 3), (lat.node_count, 1))
    for deltas in (shift, shift + rng.uniform(-level, level, (lat.node_count, 3))):
        nodes, edges, moved = fe._moved(
            cell, lat.cell, np.linalg.inv(lat.cell), lat.nodes, lat.edges, deltas
        )
        displaced = lattice.displace_nodes(lat, deltas)
        assert_identical(nodes, displaced.nodes)
        assert_identical(edges, displaced.edges)
        fresh = fe._fundamental_cell(displaced)
        assert_identical(moved, fresh)
        solved = fe._solve_one(moved, lat.radius, BeamMaterial())
        for got, expected in zip(solved, fe._solve_one(fresh, lat.radius, BeamMaterial())):
            assert_identical(got, expected)


@settings(max_examples=30, deadline=None)
@given(**PERTURBED_CELLS)
def test_property_cut_chains_match_dict_walk(base, n, level, seed, skewed):
    win = window(perturbed_cell(base, n, level, seed, skewed))
    ends, offsets, vectors = lattice._cut_chains(win)
    reference = cut_chains_reference(win)
    np.testing.assert_array_equal(ends, [chain[:2] for chain in reference])
    np.testing.assert_array_equal(offsets, [chain[2:4] for chain in reference])
    np.testing.assert_array_equal(vectors, [chain[4] for chain in reference])


@settings(max_examples=40, deadline=None)
@given(**PERTURBED_CELLS)
# each failed on the windowed path while it solved the cut pieces separately
@example(base=diamond, n=2, level=0.02, seed=6, skewed=False)
@example(base=diamond, n=2, level=0.02, seed=29, skewed=False)
@example(base=diamond, n=2, level=0.02, seed=33, skewed=False)
@example(base=diamond, n=2, level=0.02, seed=71, skewed=False)
@example(base=diamond, n=2, level=0.02, seed=85, skewed=False)
@example(base=body_centred_cubic, n=2, level=0.02, seed=40, skewed=False)
@example(base=body_centred_cubic, n=2, level=0.02, seed=65, skewed=False)
@example(base=body_centred_cubic, n=1, level=0.02, seed=28, skewed=False)
@example(base=body_centred_cubic, n=1, level=0.02, seed=87, skewed=False)
def test_property_windowed_path_agrees(base, n, level, seed, skewed):
    lat = perturbed_cell(base, n, level, seed, skewed)
    fundamental = to_mandel(homogenize(lat).stiffness).entries
    windowed = to_mandel(homogenize_windowed(lat).stiffness).entries
    assert np.linalg.norm(fundamental - windowed) < 1e-9 * np.linalg.norm(fundamental)


def energy_forms(lat: Lattice, radius: float):
    """``(C, C_aff, H)`` of a cell at ``radius``, each a 6x6 Mandel matrix.

    C is the solved stiffness.  C_aff = sum_e D_aff,e^T K_e D_aff,e / V is
    the energy of the affine field alone, and H = sum_e D_e^T K_e D_aff,e / V
    pairs the solved element displacements D_e with it.  D_aff holds each
    strut end's displacement eps_a x under the six unit Mandel strains, with
    zero rotations; the end positions x and the element matrices are built
    here from the lattice's own fields, not taken from the solver's cell.
    """
    mat = BeamMaterial()
    positions = lat.nodes @ lat.cell.T
    tails = positions[lat.edges[:, 0]]
    heads = positions[lat.edges[:, 1]] + lat.edges[:, 2:] @ lat.cell.T
    k_e = _beam_kernel(heads - tails, _strut_sections([radius], [lat.edge_count]), mat)
    strains = np.array([from_mandel_vector(v) for v in np.eye(6)])
    d_aff = np.zeros((lat.edge_count, 2, 6, 6))
    d_aff[:, :, :3] = np.einsum("aij,enj->enia", strains, np.stack([tails, heads], axis=1))
    d_aff = d_aff.reshape(-1, 12, 6)
    volume = np.linalg.det(lat.cell)
    _density, solution = fe._solve_one(fe._fundamental_cell(lat), radius, mat)
    c_aff = np.einsum("eia,eij,ejb->ab", d_aff, k_e, d_aff) / volume
    h = np.einsum("eia,eij,ejb->ab", solution.displacements, k_e, d_aff) / volume
    return solution.mandel, c_aff, h


_RADII = st.sampled_from([0.01, 0.05, 0.1])


@settings(max_examples=40, deadline=None)
@given(**PERTURBED_CELLS, radius=_RADII)
def test_property_affine_field_bounds_the_stiffness(base, n, level, seed, skewed, radius):
    # The zero fluctuation is admissible, so the minimum energy is at most
    # the affine energy: C <= C_aff in the Loewner order (Hill 1963).
    c, c_aff, _h = energy_forms(perturbed_cell(base, n, level, seed, skewed), radius)
    gap = c_aff - c
    assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() >= -1e-12 * np.abs(c_aff).max()


@settings(max_examples=40, deadline=None)
@given(**PERTURBED_CELLS, radius=_RADII)
def test_property_hill_mandel_pairing_gives_the_stiffness(
    base, n, level, seed, skewed, radius
):
    # The solved fluctuation is K-orthogonal to every periodic fluctuation,
    # the solved field minus the affine one among them, so pairing the
    # solved field with the affine one gives the energy form C.
    c, _c_aff, h = energy_forms(perturbed_cell(base, n, level, seed, skewed), radius)
    assert np.abs(h - c).max() <= 1e-11 * np.abs(c).max()


def test_resolve_master_matches_recursive_reference():
    lattices = [
        perturb(tessellate(base(), n), 0.02, seed=s)
        for base, n in ((body_centred_cubic, 2), (diamond, 2), (simple_cubic, 3))
        for s in range(4)
    ] + [simple_cubic(), diamond()]
    # window() pairs every image with a root; this hand-built view chains
    # images 4 -> 3 -> 2 -> 0 and 5 -> 1
    chained = WindowedLattice(
        nodes=np.zeros((6, 3)),
        elements=[[0, 1]],
        periodic_pairs=(
            (3, 4, np.array([1.0, 0.0, 0.0])),
            (0, 2, np.array([0.0, 1.0, 0.0])),
            (2, 3, np.array([0.0, -1.0, 1.0])),
            (1, 5, np.array([0.0, 0.0, 2.0])),
        ),
        cell=np.eye(3),
        fundamental_count=2,
        name="chain",
        radius=0.05,
    )
    for win in [window(lat) for lat in lattices] + [chained]:
        root, sep = lattice._resolve_master(win)
        reference = resolve_master_reference(win)
        np.testing.assert_array_equal(root, [r for r, _ in reference])
        np.testing.assert_array_equal(sep, np.reshape([v for _, v in reference], (-1, 3)))


def perturb_if_possible(lat: Lattice) -> Lattice:
    return perturb(lat, 0.05, seed=8) if lat.node_count >= 2 else lat


def lonely_cell() -> Lattice:
    """Node 1 joins only itself: disconnected from node 0."""
    return Lattice(
        "lonely",
        np.eye(3),
        [[0.5, 0.5, 0.5], [0.25, 0.25, 0.25]],
        [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 1, 1, 0, 0]],
        0.05,
    )


def bare_cell() -> Lattice:
    """One node and no struts: connected, but its stiffness is all null."""
    return Lattice("bare", np.eye(3), [[0.5, 0.5, 0.5]], np.zeros((0, 5), dtype=int), 0.05)


def floating_triangle_cell() -> Lattice:
    """Connected within the cell only: three rotations stay free."""
    return Lattice(
        "floating_triangle",
        np.eye(3),
        [[0.2, 0.2, 0.2], [0.5, 0.2, 0.2], [0.2, 0.5, 0.3]],
        [[0, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 2, 0, 0, 0]],
        0.02,
    )


_BATCH_BASES = {
    "sc": simple_cubic(),
    "sc_x2": tessellate(simple_cubic(), 2),
    "bcc": body_centred_cubic(),
    "diamond": diamond(),
    "lonely": lonely_cell(),
    "bare": bare_cell(),
}
# radius 0.4 makes every base overdense
_BAD_RADII = [0.0, -1.0, math.nan, math.inf, 0.4]


def batch_oracle(lat: Lattice, radius: float):
    """What homogenize makes of ``lat`` rebuilt at ``radius``: a result or an error text."""
    try:
        return homogenize(replace(lat, radius=radius))
    except (ValueError, np.linalg.LinAlgError) as exc:
        return str(exc)


def assert_batch_matches_oracle(catalogue, radii) -> list:
    items = homogenize_batch(catalogue, radii)
    pairs = [(lat, float(radius)) for lat in catalogue for radius in radii]
    assert [(item.name, repr(item.radius)) for item in items] == [
        (lat.name, repr(radius)) for lat, radius in pairs
    ]
    for item, (lat, radius) in zip(items, pairs):
        expected = batch_oracle(lat, radius)
        if isinstance(expected, str):
            assert item.result is None
            assert item.error == expected
        else:
            assert item.error is None
            got = item.result
            assert np.array_equal(got.stiffness.components, expected.stiffness.components)
            assert got.relative_density == expected.relative_density
            assert got.residual == expected.residual
            assert got.min_pivot_ratio == expected.min_pivot_ratio
            assert got.dof_count == expected.dof_count
        assert item.seconds >= 0.0
    return items


@st.composite
def batch_cells(draw) -> Lattice:
    base = _BATCH_BASES[draw(st.sampled_from(sorted(_BATCH_BASES)))]
    if base.name in ("lonely", "bare") or base.node_count < 2:
        return base
    return perturb(base, draw(st.floats(0.02, 0.1)), draw(st.integers(0, 10_000)))


@st.composite
def one_graph_realizations(draw) -> list:
    """Several realizations of one strut graph, with or without the unperturbed base."""
    base = _BATCH_BASES[draw(st.sampled_from(["sc_x2", "bcc", "diamond"]))]
    level = draw(st.floats(0.02, 0.1))
    seeds = draw(st.lists(st.integers(0, 10_000), min_size=2, max_size=5))
    cells = [perturb(base, level, seed) for seed in seeds]
    return [base] + cells if draw(st.booleans()) else cells


@settings(max_examples=60, deadline=None)
@given(
    catalogue=st.one_of(
        st.lists(batch_cells(), min_size=1, max_size=6), one_graph_realizations()
    ),
    radii=st.lists(
        st.one_of(st.floats(0.005, 0.1), st.sampled_from(_BAD_RADII)), min_size=1, max_size=3
    ),
)
def test_property_batch_matches_homogenize(catalogue, radii):
    assert_batch_matches_oracle(catalogue, radii)


@pytest.fixture
def built_topologies(monkeypatch) -> list:
    """From an empty memo, the names of the lattices whose topologies are built."""
    built, topology = [], fe._topology

    def counting(name, node_count, ends):
        built.append(name)
        return topology(name, node_count, ends)

    monkeypatch.setattr(fe, "_topology", counting)
    monkeypatch.setattr(fe, "_TOPOLOGIES", weakref.WeakValueDictionary())
    monkeypatch.setattr(fe, "_RECENT_TOPOLOGIES", deque(maxlen=fe._RECENT_TOPOLOGIES.maxlen))
    return built


def forget_topologies():
    fe._TOPOLOGIES.clear()
    fe._RECENT_TOPOLOGIES.clear()


def rolled_graphs(count: int) -> list:
    """``count`` distinct strut graphs of one structure: sc_x2 with its edge rows rolled."""
    base = sc_x2()
    return [
        replace(base, name=f"sc_x2_roll{k}", edges=np.roll(base.edges, k, axis=0))
        for k in range(count)
    ]


class TestSharedTopology:
    def test_a_memo_hit_gives_the_bits_of_a_miss(self, built_topologies):
        bases = [sc_x2(), body_centred_cubic(), diamond()]
        cells = [perturb(base, 0.05, seed) for seed in (4, 5) for base in bases]
        misses = []
        for lat in cells:
            forget_topologies()
            misses.append(homogenize(lat))
        forget_topologies()
        batch_misses = homogenize_batch(cells, [0.03, 0.05])
        assert len(built_topologies) == len(cells) + len(bases)
        for lat, miss in zip(cells, misses):
            assert_identical(homogenize(lat), miss)
        for item, miss in zip(homogenize_batch(cells, [0.03, 0.05]), batch_misses):
            assert_identical(item, replace(miss, seconds=item.seconds))
        assert len(built_topologies) == len(cells) + len(bases)

    def test_keeps_the_last_topologies_used(self, built_topologies):
        kept = fe._RECENT_TOPOLOGIES.maxlen
        graphs = rolled_graphs(kept + 4)
        for lat in graphs + [graphs[4]]:
            homogenize(lat)
        gc.collect()
        assert len(fe._TOPOLOGIES) == kept
        # graphs[4] was used last, so graphs[5] went before it
        homogenize(graphs[0])
        gc.collect()
        alive = [top.ends.tobytes() for top in fe._TOPOLOGIES.values()]
        expected = graphs[6:] + [graphs[4], graphs[0]]
        assert sorted(alive) == sorted(lat.edges[:, :2].tobytes() for lat in expected)
        assert len(built_topologies) == len(graphs) + 1

    def test_shared_arrays_are_read_only_and_the_plans_own(self, built_topologies):
        mat, base = BeamMaterial(), sc_x2()
        other = perturb(base, 0.05, seed=3)

        def jacobian(lat):
            cell = fe._fundamental_cell(lat)
            _density, solution = fe._solve_one(cell, lat.radius, mat)
            return fe._stiffness_jacobian(cell, solution, lat.radius, mat)

        expected = jacobian(other)
        forget_topologies()
        edges = base.edges.copy()
        lat = replace(base, edges=edges)
        assert np.shares_memory(lat.edges, edges) and edges.flags.writeable
        top = fe._fundamental_cell(lat).topology
        homogenize(lat)
        for array in (top.ends, top.dofs, top.lower, top.band_at, top.rhs_at):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        edges[:, :2] = edges[:, 1::-1].copy()  # every strut reversed
        assert fe._fundamental_cell(other).topology is top
        assert_identical(jacobian(other), expected)


class TestHomogenizeBatch:
    def test_singleton_matches_direct(self):
        lat = simple_cubic()
        items = homogenize_batch([lat], [0.05])
        assert len(items) == 1
        direct = homogenize(lat)
        np.testing.assert_allclose(
            items[0].result.stiffness.components, direct.stiffness.components
        )

    @pytest.mark.parametrize(
        "routine, error", [("dpbtrf", np.linalg.LinAlgError), ("dpbtrs", ValueError)]
    )
    def test_a_fault_of_the_band_solve_propagates_from_the_batch(
        self, monkeypatch, routine, error
    ):
        # a fault of LAPACK itself is no verdict on the lattice: the batch
        # does not turn it into every item's error
        def broken(*args, **kwargs):
            raise error(f"broken {routine}")

        monkeypatch.setattr(lapack, routine, broken)
        with pytest.raises(error, match=f"broken {routine}"):
            homogenize_batch([body_centred_cubic(), simple_cubic()], [0.05])

    def test_monotone_in_radius(self):
        items = homogenize_batch([simple_cubic()], [0.03, 0.05, 0.08])
        dirs = sampling.unit_directions(40, seed=2)
        previous = None
        for item in items:
            values = np.array(
                [directional_modulus(item.result.stiffness, d) for d in dirs]
            )
            if previous is not None:
                assert np.all(values >= previous - 1e-12)
            previous = values

    def test_builds_one_topology_per_strut_graph(self, built_topologies):
        bases = [simple_cubic(), tessellate(simple_cubic(), 2), body_centred_cubic(), diamond()]
        cells = bases + [
            lat for base in bases[1:] for lat in lattice.perturbed_realizations(base, 0.05, 3, 4)
        ]
        items = homogenize_batch(cells, [0.05, 0.08])
        assert all(item.error is None for item in items)
        assert built_topologies == [lat.name for lat in bases]
        homogenize_batch(cells, [0.05, 0.08])
        assert len(built_topologies) == len(bases)

    def test_builds_each_of_more_graphs_than_are_kept_once(self, built_topologies):
        graphs = rolled_graphs(12)
        cells = [perturb(lat, 0.05, seed) for seed in (1, 2) for lat in graphs]
        items = homogenize_batch(cells, [0.05])
        assert all(item.error is None for item in items)
        assert built_topologies == [lat.name for lat in graphs]

    def test_item_seconds_add_up_to_at_most_the_wall_time(self):
        # radius 0.4 fails sc before its solve; bare fails in its solve
        cells = [
            simple_cubic(), lonely_cell(), bare_cell(), diamond(),
            perturb(tessellate(body_centred_cubic(), 3), 0.03, seed=1),
        ]
        started = time.perf_counter()
        items = homogenize_batch(cells, [0.05, 0.4])
        wall = time.perf_counter() - started
        assert {item.error is None for item in items} == {True, False}
        assert all(item.seconds >= 0.0 for item in items)
        assert 0.0 < sum(item.seconds for item in items) <= wall

    def test_disconnected_lattice_names_itself_after_connected_ones(self):
        # bcc and diamond have lonely's node count; the twin has its graph
        twin = replace(lonely_cell(), name="lonely_twin")
        items = homogenize_batch([body_centred_cubic(), diamond(), lonely_cell(), twin], [0.05])
        assert [item.error for item in items] == [
            None,
            None,
            "lattice 'lonely': node 1 unreachable from node 0",
            "lattice 'lonely_twin': node 1 unreachable from node 0",
        ]

    def test_collects_errors_without_aborting(self):
        items = homogenize_batch([simple_cubic(), lonely_cell(), diamond()], [0.05])
        assert [item.error is None for item in items] == [True, False, True]
        assert "lonely" in items[1].name
        assert "unreachable" in items[1].error

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(vectors, sections, mat):
            raise TypeError("not a domain error")

        monkeypatch.setattr(fe, "_beam_kernel", broken)
        with pytest.raises(TypeError, match="not a domain error"):
            homogenize_batch([simple_cubic()], [0.05])

    def test_every_item_fails(self):
        # bare and floating_triangle pass every check before the solve at
        # radii 0.05 and 0.4 (they are sparse), so they make chunks whose
        # every solve fails
        cells = [lonely_cell(), bare_cell(), floating_triangle_cell()]
        items = assert_batch_matches_oracle(cells, [0.05] + _BAD_RADII)
        assert all(item.result is None for item in items)
        assert sum("singular" in item.error for item in items) == 4
        assert homogenize_batch([bare_cell(), floating_triangle_cell()], [0.05])[1].error == (
            "lattice 'floating_triangle': singular stiffness beyond rigid-body pinning "
            "(null-space dimension 3)"
        )

    def test_spans_several_chunks(self):
        # mixed topologies over several chunks, with a tessellation larger
        # than a chunk in the middle; each item also equals its cell
        # assembled and solved on its own
        cells = [
            perturb(base, 0.05, seed=s)
            for s in range(6)
            for base in (body_centred_cubic(), diamond(), tessellate(simple_cubic(), 2))
        ]
        cells.insert(9, perturb(tessellate(body_centred_cubic(), 3), 0.03, seed=1))
        assert max(lat.edge_count for lat in cells) > fe._CHUNK_STRUTS
        assert 2 * sum(lat.edge_count for lat in cells) > 4 * fe._CHUNK_STRUTS
        items = assert_batch_matches_oracle(cells, [0.05, 0.08])
        for item, lat in zip(items, [lat for lat in cells for _radius in range(2)]):
            rebuilt = replace(lat, radius=item.radius)
            expected = from_mandel(MandelMatrix(fundamental_mandel_reference(rebuilt)))
            assert np.array_equal(item.result.stiffness.components, expected.components)


    def test_no_items_seconds_include_the_lapack_import(self):
        # a fresh interpreter, where scipy is not loaded yet; each clock
        # read records whether it is
        script = (
            "import sys, time\n"
            "from latmech.fe import homogenize_batch\n"
            "from latmech.lattice import simple_cubic\n"
            "loaded, clock = ['scipy.linalg' in sys.modules], time.perf_counter\n"
            "time.perf_counter = lambda: loaded.append('scipy.linalg' in sys.modules) or clock()\n"
            "homogenize_batch([simple_cubic()], [0.05, 0.08])\n"
            "print(loaded)\n"
        )
        src = os.path.dirname(os.path.dirname(fe.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120, check=True,
        )
        loaded = ast.literal_eval(proc.stdout)
        assert loaded[0] is False  # importing fe leaves scipy.linalg unloaded
        assert len(loaded) > 1 and all(loaded[1:])


class TestBeamMaterial:
    def test_shear_modulus(self):
        assert BeamMaterial(1.0, 0.25).shear_modulus == pytest.approx(0.4)

    def test_rejects_bad_poisson(self):
        with pytest.raises(ValueError):
            BeamMaterial(poisson_ratio=0.6)

    def test_poisson_bound_is_one_half_exclusive(self):
        for nu in (0.5, np.nextafter(0.5, 1.0)):
            with pytest.raises(ValueError, match="Poisson ratio"):
                BeamMaterial(poisson_ratio=nu)
        assert BeamMaterial(poisson_ratio=np.nextafter(0.5, 0.0)).shear_modulus > 0.0

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            BeamMaterial(youngs_modulus=0.0)

    @pytest.mark.parametrize("modulus", [math.inf, math.nan])
    def test_rejects_non_finite_modulus(self, modulus):
        with pytest.raises(ValueError, match="positive and finite"):
            BeamMaterial(youngs_modulus=modulus)

    # 12 E overflows in the element kernel, and the band factor then
    # succeeds with a NaN pivot ratio
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_modulus_fails_naming_the_lattice(self):
        mat = BeamMaterial(youngs_modulus=1e308)
        message = "lattice 'bcc': stiffness matrix is not finite"
        with pytest.raises(ValueError, match=message):
            homogenize(body_centred_cubic(), mat)
        (item,) = homogenize_batch([body_centred_cubic()], [0.05], mat)
        assert item.error == message

    def test_nan_residual_fails_the_residual_check(self, monkeypatch):
        def nan_solve(factor, load, lower):
            return np.full(load.shape, np.nan), 0

        monkeypatch.setattr(lapack, "dpbtrs", nan_solve)
        message = "lattice 'bcc': linear solve residual nan exceeds 1e-8"
        with pytest.raises(ValueError, match=message):
            homogenize(body_centred_cubic())
        (item,) = homogenize_batch([body_centred_cubic()], [0.05])
        assert item.error == message
