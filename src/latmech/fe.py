"""Periodic beam-frame finite elements and unit-cell homogenization.

Struts are modelled as 3D two-node Euler-Bernoulli frame elements with a
circular cross-section (A = pi r^2, I = pi r^4 / 4, J = pi r^4 / 2; no
shear deformation).  Periodicity is imposed on the fundamental
representation directly: an element along edge (i, j, t) couples the
degrees of freedom of nodes i and j, and the macroscopic strain enters
through the affine jump eps . A t in the element kinematics, which is
equivalent to windowed master-slave constraints without duplicating
nodes.  Displacement jumps follow u_B - u_A = eps (x_B - x_A); rotation
jumps across the boundary are zero.  The windowed path condenses each
strut's chain of cut pieces back into the strut's element, so it solves
the fundamental system, rebuilt from the pieces; no image node enters it.

The homogenized Mandel matrix is filled from the energy bilinear form,
C_ab = 2 Psi(eps_a, eps_b) / det(A), which is symmetric and positive
semi-definite by construction.  Joint overlap at nodes is ignored
(slender-strut assumption).

Every cell problem, single or batched, fundamental or windowed, goes
through one chunked core, :func:`_solve_cells`.  A problem is a
:class:`_Cell`: a :class:`_Topology`, which depends on the strut graph
alone, is built once per process and is shared while in use by every
lattice with that graph, at every radius, plus the geometry.  The core
gathers consecutive problems into chunks of at most about
``_CHUNK_STRUTS`` struts (a larger problem is a chunk of its own), builds
the element matrices of a whole chunk in one kernel call (the nonzero
terms of a fixed basis weighted by per-strut features, see
:func:`_beam_kernel`), and scatters them, at the places each topology
names, into one flat buffer of per-problem stiffness bands and one of
right-hand sides.  A strut couples only the nodes at its two ends, so
with the nodes numbered in Cuthill-McKee order (breadth-first from the
pinned node 0, each level in the order the level before reached it) the
stiffness matrix is a narrow band; only its lower (kd+1) x n band is
stored, and no n x n matrix is built unless a solve fails.  Each problem
is then factored by LAPACK's banded Cholesky (``dpbtrf``/``dpbtrs``) on
a view of those buffers, and the rest runs in whole-chunk steps: the
residual, the contraction's products and the Mandel check (see
:func:`_solve_chunk`).  Mixed topologies share a chunk, and each
problem's numbers are those of solving it alone, bit for bit.  A design
run moves a cell's geometry (:func:`_moved`) and takes the node Jacobian
of a solved cell's stiffness (:func:`_stiffness_jacobian`).
"""

from __future__ import annotations

import math
import time
import weakref
from collections import deque
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .lattice import Lattice, _cut_chains, _folded, _strut_vectors, window
from .tensor4 import (
    SLOT_PAIRS,
    ElasticTensor4,
    _mandel_stack,
    _row_norms,
    _unit_dyads,
    from_mandel,
    from_mandel_vector,
)

_PIVOT_REL_TOL = 1e-12
# A chunk closes before its struts would pass this many.  On the benchmark
# catalogue throughput levels off from about 96 struts, and peak memory
# rises above the one-cell-at-a-time figure from about 192.
_CHUNK_STRUTS = 128
# Each strut graph's topology while held; the last 8 used stay between calls.
_TOPOLOGIES, _RECENT_TOPOLOGIES = weakref.WeakValueDictionary(), deque(maxlen=8)


class DisconnectedLatticeError(ValueError):
    """Raised when a node cannot be reached through the periodic edge graph."""

    def __init__(self, name: str, node: int):
        super().__init__(f"lattice {name!r}: node {node} unreachable from node 0")
        self.node = node


class SingularSystemError(ValueError):
    """Raised when the pinned stiffness system still has a null space."""

    def __init__(self, name: str, null_dim: int):
        super().__init__(
            f"lattice {name!r}: singular stiffness beyond rigid-body pinning "
            f"(null-space dimension {null_dim})"
        )
        self.null_dim = null_dim


@dataclass(frozen=True)
class BeamMaterial:
    """Linear elastic strut material (modulus normalized to 1 by default)."""

    youngs_modulus: float = 1.0
    poisson_ratio: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.youngs_modulus < math.inf:
            raise ValueError("Young's modulus must be positive and finite")
        if not -1.0 < self.poisson_ratio < 0.5:
            raise ValueError("Poisson ratio must lie in (-1, 0.5)")

    @property
    def shear_modulus(self) -> float:
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))


@dataclass(frozen=True)
class HomogenizationResult:
    """Homogenized stiffness of one cell and how well its solve went.

    ``residual`` is the largest relative residual of the six load cases;
    ``min_pivot_ratio`` is the smallest L_jj^2 / K_jj of the Cholesky factor,
    which falls toward the 1e-12 floor as the cell nears a mechanism.
    """

    stiffness: ElasticTensor4
    relative_density: float
    dof_count: int
    residual: float
    min_pivot_ratio: float


@dataclass(frozen=True)
class BatchItem:
    """One (lattice, radius) outcome; exactly one of result/error is set.

    ``seconds`` is the item's own band factor and solve plus an equal share
    of the rest of its chunk: the kernel call, the scatters, and the
    whole-chunk residual, contraction and validation.  An item rejected
    before the solve reports 0.
    """

    name: str
    radius: float
    result: HomogenizationResult | None
    error: str | None
    seconds: float = 0.0


def beam_stiffness(length: float, radius: float, axis, mat: BeamMaterial) -> np.ndarray:
    """12x12 global-frame stiffness of one circular Euler-Bernoulli beam.

    DOF order per node: (ux, uy, uz, rx, ry, rz).  The circular section
    makes the result independent of the choice of transverse axes; this is
    one element of the batched closed form :func:`_beam_kernel`.
    """
    if not 0.0 < length < math.inf:
        raise ValueError("beam length must be positive and finite")
    if not 0.0 < radius < math.inf:
        raise ValueError("beam radius must be positive and finite")
    axis = np.asarray(axis, dtype=float)
    _unit_dyads([axis])  # the unit rule of every direction
    return _beam_kernel(length * axis[None, :], _strut_sections([radius], [1]), mat)[0]


def _strut_sections(radii, counts) -> np.ndarray:
    """Per-strut (area, inertia, torsion) rows of circular sections, shape
    (sum(counts), 3): the row of ``radii[k]`` repeated ``counts[k]`` times."""
    rows = [(math.pi * r**2, math.pi * r**4 / 4.0, math.pi * r**4 / 2.0) for r in radii]
    return np.array(rows).repeat(counts, axis=0)


def _node_ranks(name: str, node_count: int, ends: np.ndarray) -> np.ndarray:
    """Each node's place in the Cuthill-McKee order from node 0.

    This is the order in which a breadth-first queue first reaches the
    nodes, each node's neighbours taken by index: every level follows the
    smallest rank among each node's neighbours in the level before, ties
    by index.  A strut joins nodes at most one level apart, and this order
    keeps a node near the neighbours that reached it, so the stiffness
    matrix is a narrow band.  Raises :class:`DisconnectedLatticeError`
    naming the smallest node that node 0 cannot reach through the (E, 2)
    ``ends``.
    """
    neighbours = [[] for _ in range(node_count)]
    for tail, head in ends.tolist():
        neighbours[tail].append(head)
        neighbours[head].append(tail)
    rank = [-1] * node_count
    rank[0] = 0
    queue = [0]
    for node in queue:
        for other in sorted(neighbours[node]):
            if rank[other] < 0:
                rank[other] = len(queue)
                queue.append(other)
    if len(queue) < node_count:
        raise DisconnectedLatticeError(name, rank.index(-1))
    return np.array(rank)


# (6, 3, 3) strain tensors of the six unit Mandel basis vectors
_UNIT_STRAINS = np.array([from_mandel_vector(unit) for unit in np.eye(6)])

# 4x4 node-block patterns of the element matrix, blocks ordered
# (u_tail, r_tail, u_head, r_head); see _beam_kernel.
_AXIAL = np.array([[1, 0, -1, 0], [0, 0, 0, 0], [-1, 0, 1, 0], [0, 0, 0, 0]], dtype=float)
_TORSION = np.array([[0, 0, 0, 0], [0, 1, 0, -1], [0, 0, 0, 0], [0, -1, 0, 1]], dtype=float)
_BEND_NEAR = np.diag([0.0, 1.0, 0.0, 1.0])
_BEND_FAR = np.array([[0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
_COUPLING = np.array([[0, -1, 0, -1], [1, 0, -1, 0], [0, 1, 0, 1], [1, 0, -1, 0]], dtype=float)

# The 36 per-strut features of _beam_kernel.  With the unit strut vector
# padded as m = (n_x, n_y, n_z, 1) and the strut's coefficients
# (ea, gj, b12, b4, b2, b6), feature f is
# coefficient[_FEATURE_COEFF[f]] * m[_FEATURE_A[f]] * m[_FEATURE_B[f]]:
# ea and gj times the six products n_i n_j, b12, b4 and b2 times 1 and the
# six n_i n_j, and b6 times n.  The products n_i n_j come in the Mandel
# slot order.
_FEATURES = (
    [(c, i, j) for c in (0, 1) for i, j in SLOT_PAIRS]
    + [(c, i, j) for c in (2, 3, 4) for i, j in ((3, 3),) + SLOT_PAIRS]
    + [(5, k, 3) for k in range(3)]
)
_FEATURE_COEFF, _FEATURE_A, _FEATURE_B = np.array(_FEATURES).T
# each coefficient is modulus * section column / length**power; moduli (E, G)
_COEFF_SECTION = np.array([0, 2, 1, 1, 1, 1])  # area, torsion, inertia x 4
_COEFF_POWER = np.array([1, 1, 3, 1, 1, 2])


def _kernel_basis() -> np.ndarray:
    """(36, 144) element matrix of each feature at unit value: the Kronecker
    product of its 4x4 node-block pattern and its 3x3 block."""
    def pair(i, j):
        block = np.zeros((3, 3))
        block[i, j] = block[j, i] = 1.0
        return block

    # [e_k]x, with [e_k]x a = e_k x a: row r is e_r x e_k
    cross = [np.cross(np.eye(3), np.eye(3)[k]) for k in range(3)]
    blocks = (
        [np.kron(_AXIAL, pair(i, j)) for i, j in SLOT_PAIRS]  # ea P
        + [np.kron(_TORSION, pair(i, j)) for i, j in SLOT_PAIRS]  # gj P
        + [
            np.kron(pattern, block)  # b Q = b I - b P
            for pattern in (_AXIAL, _BEND_NEAR, _BEND_FAR)
            for block in [np.eye(3)] + [-pair(i, j) for i, j in SLOT_PAIRS]
        ]
        + [np.kron(_COUPLING, cross[k]) for k in range(3)]  # b6 S
    )
    return np.array(blocks).reshape(36, 144)


_KERNEL_BASIS = _kernel_basis()
# _KERNEL_BASIS holds 0 and +-1; [level, k] is the level-th nonzero of flat entry k in feature
# order, among the signed features f, then -f at 36 + f, then the zero at 72 once they run out
_BASIS_TERMS = np.array([
    [*np.flatnonzero(col) + 36 * (col[col != 0.0] < 0.0), *[72] * (3 - np.count_nonzero(col))]
    for col in _KERNEL_BASIS.T
]).T
_GATHER_STRUTS = 256  # struts per gather: bounds a large stack's temporaries


def _singular_system(cell: _Cell, k_e: np.ndarray) -> ValueError:
    """The error for a reduced stiffness the band Cholesky rejected: a
    :class:`SingularSystemError` with the dimension of its null space, or a
    ``ValueError`` if the stiffness is not finite.

    K is assembled dense from the element matrices here, on the failure
    path only: the factor has overwritten the band.
    """
    n = 6 * cell.topology.node_count
    dofs = cell.topology.dofs
    k = np.zeros((n, n))
    np.add.at(k, (dofs[:, :, None], dofs[:, None, :]), k_e)
    if not np.all(np.isfinite(k)):
        return ValueError(f"lattice {cell.name!r}: stiffness matrix is not finite")
    k_red = k[3:, 3:]
    # a dof no strut touches has a zero diagonal and counts as null
    diag = np.diag(k_red)
    scale = 1.0 / np.sqrt(np.where(diag > 0, diag, np.inf))
    eigvals = np.linalg.eigvalsh(scale[:, None] * k_red * scale)
    null_dim = int(np.sum(eigvals <= _PIVOT_REL_TOL))
    return SingularSystemError(cell.name, max(null_dim, 1))


def _kernel_features(vectors: np.ndarray, sections: np.ndarray, mat: BeamMaterial):
    """``(length, n, m, coeff, pair)`` of (E, 3) strut vectors as in ``_FEATURES``, rows first."""
    length = _row_norms(vectors)
    n = vectors / length[:, None]
    m = np.concatenate([n.T, np.ones((1, len(n)))])
    e_mod, g_mod = mat.youngs_modulus, mat.shear_modulus
    moduli = np.array([e_mod, g_mod, 12.0 * e_mod, 4.0 * e_mod, 2.0 * e_mod, 6.0 * e_mod])
    coeff = (moduli * sections.take(_COEFF_SECTION, axis=1)).T / length ** _COEFF_POWER[:, None]
    return length, n, m, coeff, m.take(_FEATURE_A, axis=0) * m.take(_FEATURE_B, axis=0)


def _basis_sum(features: np.ndarray) -> np.ndarray:
    """(E, ..., 144) C-contiguous basis sums of finite (36, ..., E) features, bit for bit
    ``np.einsum("...f,fk->...k", features.T, _KERNEL_BASIS)``: that adds the 36 products in
    order to +0.0, where a zero product changes only -0.0, so the nonzero terms are added in
    order.  Each column adds the padding zero or a term 0.0 - f, never -0.0, so no sum is
    -0.0 either.  Not BLAS: it slows the banded factorization after it."""
    out = np.empty(features.shape[:0:-1] + (144,))
    for start in range(0, len(out), _GATHER_STRUTS):
        block = features[..., start : start + _GATHER_STRUTS]
        signed = np.concatenate([block, 0.0 - block, np.zeros((1,) + block.shape[1:])])
        sums = signed.take(_BASIS_TERMS[0], axis=0)
        for level in _BASIS_TERMS[1:]:
            sums += signed.take(level, axis=0)
        out[start : start + _GATHER_STRUTS] = sums.T
    return out


def _beam_kernel(vectors: np.ndarray, sections: np.ndarray, mat: BeamMaterial) -> np.ndarray:
    """(E, 12, 12) element stiffness matrices for (E, 3) strut vectors v, tail to head.

    ``sections`` holds each strut's (area, inertia, torsion) row, as
    :func:`_strut_sections` makes them.

    With n = v/|v|, P = n n^T, Q = I - P and S = [n]x, the 3x3 blocks of
    the global-frame matrix are ``ea P + b12 Q`` (translation), ``-/+ b6 S``
    (translation-rotation coupling), ``gj P + b4 Q`` and ``-gj P + b2 Q``
    (rotation), so no local frame is needed.  Each matrix is linear in 36
    per-strut features (see ``_FEATURES``) over a fixed basis of +-1
    entries, and :func:`_basis_sum` adds the one to three signed features
    of each entry.  Each basis matrix is symmetric and the features are
    added in one order, so every element matrix is exactly symmetric.
    """
    _length, _n, _m, coeff, pair = _kernel_features(vectors, sections, mat)
    return _basis_sum(coeff.take(_FEATURE_COEFF, axis=0) * pair).reshape(-1, 12, 12)


def _beam_kernel_derivative(vectors: np.ndarray, sections: np.ndarray, mat: BeamMaterial):
    """(E, 3, 12, 12) derivative of :func:`_beam_kernel` with respect to each
    strut vector: the basis sums of d(features)/dv."""
    length, n, m, coeff, pair = _kernel_features(vectors, sections, mat)
    # d coeff / dv_c = -power coeff n_c / L, and dm_i / dv_c = Q_ci / L
    # (zero for the padding), since dL/dv = n and dn/dv = Q / L; (rows, c, E).
    inv = 1.0 / length
    dcoeff = (-_COEFF_POWER[:, None] * coeff * inv)[:, None, :] * n.T
    dm = np.zeros((4, 3, len(n)))
    dm[:3] = (np.eye(3)[:, :, None] - n.T * n.T[:, None]) * inv
    a, b, c = _FEATURE_A, _FEATURE_B, _FEATURE_COEFF
    dpair = dm.take(a, axis=0) * m.take(b, axis=0)[:, None]
    dpair += m.take(a, axis=0)[:, None] * dm.take(b, axis=0)
    dfeatures = dcoeff.take(c, axis=0) * pair[:, None]
    dfeatures += coeff.take(c, axis=0)[:, None] * dpair
    return _basis_sum(dfeatures).reshape(-1, 3, 12, 12)


@dataclass(frozen=True, eq=False)
class _Topology:
    """What a cell problem's solve needs of its strut graph alone.

    ``ends`` are each strut's (tail, head) nodes.  The solve numbers nodes in
    Cuthill-McKee order from the pinned node 0 (see :func:`_node_ranks`),
    which keeps the stiffness matrix banded with half-bandwidth
    ``half_bandwidth``; the factorization's cost grows as n
    ``half_bandwidth``^2.  The rest is the scatter pattern, relative to the
    problem's own buffers: ``dofs`` are each element's twelve dofs;
    ``lower`` (E, 12, 12) marks the element-matrix entries its reduced lower
    band takes, and ``band_at`` are their places in the flat (n-3, kd+1)
    band; ``rhs_at`` (E, 12, 6) are each element row's places in the flat
    (6, n) right-hand sides.  Moving nodes changes none of it.  A strut
    graph's topology is built once per process (:func:`_shared_topology`)
    and shared while any cell problem holds it; its arrays are read-only.
    """

    ends: np.ndarray  # (E, 2)
    node_count: int
    half_bandwidth: int
    dofs: np.ndarray  # (E, 12)
    lower: np.ndarray  # (E, 12, 12) bool
    band_at: np.ndarray
    rhs_at: np.ndarray  # (E, 12, 6)

    @property
    def band_size(self) -> int:
        return (6 * self.node_count - 3) * (self.half_bandwidth + 1)


def _topology(name: str, node_count: int, ends: np.ndarray) -> _Topology:
    """The :class:`_Topology` of struts joining the (E, 2) node ``ends``.

    Raises :class:`DisconnectedLatticeError`; no radius or node position
    changes that verdict.
    """
    ranked = _node_ranks(name, node_count, ends)[ends]
    n = 6 * node_count
    # a strut couples the six dofs of each of its two end nodes
    gap = int(np.abs(ranked[:, 0] - ranked[:, 1]).max(initial=0))
    kd = min(6 * gap + 5, n - 4)
    dofs = (6 * ranked[:, :, None] + np.arange(6)).reshape(-1, 12)
    # Node 0's translations (dofs 0-2) are pinned, so dof d is row d - 3 of
    # the reduced system.  Entry (a, b) of an element, with dofs
    # d_a >= d_b >= 3, goes to row d_b - 3, column d_a - d_b of the band.
    at = (dofs - 3 * (kd + 1))[:, :, None] + (kd * dofs)[:, None, :]
    lower = (dofs[:, :, None] >= dofs[:, None, :]) & (dofs >= 3)[:, None, :]
    rhs_at = dofs[:, :, None] + n * np.arange(6)
    top = _Topology(ends.copy(), node_count, kd, dofs, lower, at[lower], rhs_at)
    for array in (top.ends, top.dofs, top.lower, top.band_at, top.rhs_at):
        array.flags.writeable = False
    return top


def _shared_topology(name: str, node_count: int, ends: np.ndarray) -> _Topology:
    """:func:`_topology`, built once per strut graph; an error is not kept."""
    key = (node_count, ends.dtype.str, ends.tobytes())
    top = _TOPOLOGIES.get(key)
    if top is None:
        top = _TOPOLOGIES[key] = _topology(name, node_count, ends)
    elif top in _RECENT_TOPOLOGIES:
        _RECENT_TOPOLOGIES.remove(top)
    _RECENT_TOPOLOGIES.append(top)
    return top


@dataclass(frozen=True)
class _Cell:
    """A cell problem without its section: its topology and its geometry.

    ``end_positions`` (E, 2, 3) are the physical end positions that carry
    the affine part eps . x of the displacement, so a head beyond the cell
    boundary enters at its shifted image position.
    """

    name: str
    topology: _Topology
    end_positions: np.ndarray  # (E, 2, 3)
    vectors: np.ndarray  # (E, 3) strut vectors, tail to head
    volume: float  # det of the cell matrix


@dataclass(frozen=True)
class _CellSolution:
    """Solved periodic cell: homogenized stiffness plus element data."""

    mandel: np.ndarray  # (6, 6)
    stiffness: ElasticTensor4
    residual: float
    min_pivot_ratio: float
    displacements: np.ndarray  # (E, 12, 6) total element end displacements per unit strain

    def result(self, density: float, node_count: int) -> HomogenizationResult:
        return HomogenizationResult(
            self.stiffness, density, 6 * node_count, self.residual, self.min_pivot_ratio
        )


def _fundamental_cell(lat: Lattice) -> _Cell:
    """The cell problem of a lattice's fundamental representation, with its
    graph's shared topology.  Raises :class:`DisconnectedLatticeError`."""
    return _Cell(
        lat.name, _shared_topology(lat.name, lat.node_count, lat.edges[:, :2]),
        *_cell_geometry(lat.cell, lat.nodes, lat.edges), float(np.linalg.det(lat.cell)),
    )


def _cell_geometry(cell: np.ndarray, nodes: np.ndarray, edges: np.ndarray):
    """``(end_positions, vectors)`` of a lattice's :class:`_Cell`, from its fields."""
    end_positions = (nodes @ cell.T).take(edges[:, :2], axis=0)
    end_positions[:, 1] += edges[:, 2:] @ cell.T
    return end_positions, _strut_vectors(cell, nodes, edges)


def _moved(cell: _Cell, lattice_cell, inverse, nodes: np.ndarray, edges: np.ndarray, deltas):
    """``(nodes, edges, cell)`` of a lattice's fields and cell problem after
    :func:`displace_nodes` by ``deltas``, building no lattice."""
    nodes, edges = _folded(inverse, nodes, edges, deltas)
    geometry = _cell_geometry(lattice_cell, nodes, edges)
    return nodes, edges, _Cell(cell.name, cell.topology, *geometry, cell.volume)


def _checked_density(name: str, radius: float, cell: _Cell | ValueError) -> float:
    """Relative density of ``cell`` at ``radius``, or the first error found.

    The checks run in the order a lattice rebuilt at ``radius`` and then
    homogenized would make them: the radius, then the lattice's own error
    (``cell`` is then the exception :func:`_fundamental_cell` raised), then
    the density.
    """
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ValueError(f"lattice {name!r}: radius must be positive")
    if isinstance(cell, ValueError):
        raise cell
    density = float(math.pi * radius**2 * _row_norms(cell.vectors).sum() / cell.volume)
    if density >= 1.0:
        raise ValueError(
            f"lattice {name!r}: relative density {density:.3f} >= 1 (struts too thick)"
        )
    return density


def _solve_cells(problems, mat: BeamMaterial):
    """Assemble, solve and contract every (cell, radius) problem, chunk by chunk.

    A chunk takes consecutive problems until the next would take it past
    ``_CHUNK_STRUTS`` struts; a larger problem is a chunk of its own.
    Yields ``(outcome, seconds)`` per problem, in order; a caller that
    keeps only part of each solution holds one chunk's solutions at a time.
    The outcome is a :class:`_CellSolution`, or the ``ValueError`` that
    its pivot, residual or stiffness check found; any fault of the factor
    or solve themselves propagates.  ``seconds`` is the problem's own band
    factor and solve plus an equal share of the rest of its chunk.
    """
    chunk, struts = [], 0
    for problem in problems:
        count = len(problem[0].vectors)
        if chunk and struts + count > _CHUNK_STRUTS:
            yield from _solve_chunk(chunk, mat)
            chunk, struts = [], 0
        chunk.append(problem)
        struts += count
    if chunk:
        yield from _solve_chunk(chunk, mat)


def _joined(arrays) -> np.ndarray:
    """The arrays end to end; a single array as it is, without a copy."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _solve_chunk(chunk, mat: BeamMaterial) -> list[tuple]:
    """:func:`_solve_cells` on one chunk, in whole-chunk steps.

    One kernel call and one scatter each into the flat buffers of lower
    stiffness bands and right-hand sides; each problem's band factor and
    solve, into one chunk-wide displacement buffer; once per chunk the
    element gather, K u with its residual forces, D and K D; each problem's
    residual norms and 6x6 contraction; one Mandel check of the stack.  A
    problem's outcome is its first failure in that order.  Every step is
    elementwise, per element, over disjoint ``bincount`` bins or on one
    problem's rows, so each problem's numbers are those of a chunk of its
    own, bit for bit.
    """
    # loaded before the clock starts, so that no item's seconds include it
    from scipy.linalg import lapack

    started = time.perf_counter()
    cells = [cell for cell, _radius in chunk]
    tops = [cell.topology for cell in cells]
    # where each problem's elements, band and dofs start in the chunk's
    # arrays, the last entries being their lengths; its right-hand sides
    # are a (6, n) block at six times its first dof
    edge_starts = list(accumulate((len(top.ends) for top in tops), initial=0))
    band_starts = list(accumulate((top.band_size for top in tops), initial=0))
    dof_starts = list(accumulate((6 * top.node_count for top in tops), initial=0))
    sections = _strut_sections([radius for _cell, radius in chunk], [len(t.ends) for t in tops])
    k_e = _beam_kernel(_joined([cell.vectors for cell in cells]), sections, mat)
    d_aff = np.zeros((len(k_e), 2, 6, 6))
    d_aff[:, :, :3] = np.einsum(
        "aij,enj->enia", _UNIT_STRAINS, _joined([cell.end_positions for cell in cells])
    )
    d_aff = d_aff.reshape(-1, 12, 6)

    # bincount adds in element order and accumulates over the repeated dofs
    # of self-edges; the first problem's patterns need no shift
    lower = _joined([top.lower for top in tops])
    band_at = _joined([t.band_at + b if b else t.band_at for t, b in zip(tops, band_starts)])
    rhs_at = _joined([t.rhs_at + 6 * d if d else t.rhs_at for t, d in zip(tops, dof_starts)])
    dofs = _joined([t.dofs + d if d else t.dofs for t, d in zip(tops, dof_starts)])
    k_flat = np.bincount(band_at, k_e[lower], minlength=band_starts[-1])
    rhs = np.bincount(rhs_at.ravel(), -(k_e @ d_aff).ravel(), minlength=6 * dof_starts[-1])

    u = np.zeros((dof_starts[-1], 6))  # a row per dof; pinned dofs stay zero
    outcomes, pivots, loads, own = [None] * len(chunk), [0.0] * len(chunk), [], []
    for p, (cell, top) in enumerate(zip(cells, tops)):
        clock = time.perf_counter()
        d0, n = dof_starts[p], 6 * top.node_count
        band = k_flat[band_starts[p] : band_starts[p + 1]].reshape(n - 3, top.half_bandwidth + 1)
        loads.append(rhs[6 * d0 : 6 * (d0 + n)].reshape(6, n)[:, 3:])
        # band row j holds K[j:j+kd+1, j], so its transpose is LAPACK's
        # lower band storage; it is factored in place
        diag = band[:, 0].copy()
        factor, info = lapack.dpbtrf(band.T, lower=1, overwrite_ab=1)
        pivots[p] = float((factor[0] ** 2 / diag).min()) if info == 0 else 0.0
        # each pivot against its own diagonal entry, since a per-column floor
        # is blind to the scale of other struts (the very short pieces of a
        # windowed cell); NaN, from an overflowed stiffness, fails here and
        # in the residual check
        if not pivots[p] > _PIVOT_REL_TOL:
            outcomes[p] = _singular_system(cell, k_e[edge_starts[p] : edge_starts[p + 1]])
        else:
            u[d0 + 3 : d0 + n], info = lapack.dpbtrs(factor, loads[p].T, lower=1)
            if info != 0:
                raise RuntimeError(f"dpbtrs rejected argument {-info}")
        own.append(time.perf_counter() - clock)

    u_e = u.take(dofs, axis=0)
    # the residual sum_e K_e u_e - f over the free dofs, taken from the
    # element matrices rather than the bands, so that a scatter error shows
    forces = np.bincount(rhs_at.ravel(), (k_e @ u_e).ravel(), minlength=len(rhs))
    d_total = d_aff + u_e
    k_d = k_e @ d_total
    mandels = np.zeros((len(chunk), 6, 6))
    residuals = [math.nan] * len(chunk)
    for p, (cell, top) in enumerate(zip(cells, tops)):
        if outcomes[p] is None:
            d0, n = dof_starts[p], 6 * top.node_count
            res_norm = _row_norms(forces[6 * d0 : 6 * (d0 + n)].reshape(6, n)[:, 3:] - loads[p])
            residuals[p] = float((res_norm / np.maximum(_row_norms(loads[p]), 1e-300)).max())
            if not residuals[p] < 1e-8:
                outcomes[p] = ValueError(
                    f"lattice {cell.name!r}: linear solve residual {residuals[p]:.3e} exceeds 1e-8"
                )
                continue
            # C_ab = sum_e D_e^T K_e D_e / V, as one product over the stacked element rows
            rows = slice(edge_starts[p], edge_starts[p + 1])
            mandels[p] = d_total[rows].reshape(-1, 6).T @ k_d[rows].reshape(-1, 6) / cell.volume

    for p, matrix in enumerate(_mandel_stack(mandels)):
        if outcomes[p] is None:
            outcomes[p] = matrix if isinstance(matrix, ValueError) else _CellSolution(
                mandels[p], from_mandel(matrix), residuals[p], pivots[p],
                d_total[edge_starts[p] : edge_starts[p + 1]],
            )
    share = (time.perf_counter() - started - sum(own)) / len(chunk)
    return [(outcome, share + seconds) for outcome, seconds in zip(outcomes, own)]


def _solve_one(cell: _Cell, radius: float, mat: BeamMaterial) -> tuple[float, _CellSolution]:
    """``(relative_density, _CellSolution)`` of one problem, checked by
    :func:`_checked_density` and then solved, raising the first error."""
    density = _checked_density(cell.name, radius, cell)
    ((outcome, _seconds),) = _solve_cells([(cell, radius)], mat)
    if isinstance(outcome, Exception):
        raise outcome
    return density, outcome


def _stiffness_jacobian(
    cell: _Cell, solution: _CellSolution, radius: float, mat: BeamMaterial
) -> np.ndarray:
    """(N, 3, 6, 6) derivative dC/dx of a solved cell's homogenized Mandel
    matrix C with respect to every node's position.

    With D_e the solved total end displacements of element e, the
    derivative with respect to its strut vector v_e is
    ``D_e^T (dK_e/dv_e) D_e / V``; it is added to the head node and
    subtracted from the tail node, so self-edges cancel exactly.  The affine load
    needs no term: moving a node shifts its affine displacement exactly as
    a change of its free fluctuation would, and the solved fluctuations make
    every entry of C stationary in them (the envelope theorem, which holds
    for the energy of any fixed Mandel weight).  No solve happens here.
    """
    dk = _beam_kernel_derivative(cell.vectors, _strut_sections([radius], [len(cell.vectors)]), mat)
    d = solution.displacements[:, None]
    per_edge = d.transpose(0, 1, 3, 2) @ dk @ d / cell.volume
    ends, struts = cell.topology.ends, np.arange(len(d))
    incidence = np.zeros((cell.topology.node_count, len(d)))
    incidence[ends[:, 1], struts] = 1.0
    incidence[ends[:, 0], struts] -= 1.0
    return (incidence @ per_edge.reshape(len(d), -1)).reshape(-1, 3, 6, 6)


def homogenize(lat: Lattice, mat: BeamMaterial = BeamMaterial()) -> HomogenizationResult:
    """Macroscopic stiffness tensor of the periodic beam frame.

    Solves the unit-cell problem for the six unit macroscopic strains in
    the Mandel basis and assembles the 6x6 stiffness from cross energies.
    """
    density, solution = _solve_one(_fundamental_cell(lat), lat.radius, mat)
    return solution.result(density, lat.node_count)


def homogenize_windowed(lat: Lattice, mat: BeamMaterial = BeamMaterial()) -> HomogenizationResult:
    """Homogenization through the windowed view, one element per cut chain.

    The window cuts each strut into pieces joined by image-node pairs.  An
    Euler-Bernoulli element is exact under end loads, so condensing a
    chain's image nodes leaves the uncut strut (see
    :func:`lattice._cut_chains`): the system of :func:`homogenize`, rebuilt
    from the cut pieces.  Agreement of the two paths thus checks the
    window's cuts, pairs and separations, not a second formulation of
    periodicity.
    """
    win = window(lat)
    ends, offsets, vectors = _cut_chains(win)
    problem = _Cell(
        lat.name,
        _shared_topology(lat.name, lat.node_count, ends),
        win.nodes[ends] + offsets,
        vectors,
        float(np.linalg.det(win.cell)),
    )
    density, solution = _solve_one(problem, lat.radius, mat)
    return solution.result(density, lat.node_count)


def _batch_item(cell: _Cell, radius: float, density: float, outcome, seconds) -> BatchItem:
    # A function, so that no reference to the solution outlives it: its
    # displacements would otherwise sit above the freed stiffness buffers
    # while the next chunk is solved, and keep the heap from shrinking.
    if isinstance(outcome, Exception):
        return BatchItem(cell.name, radius, None, str(outcome), seconds)
    return BatchItem(
        cell.name, radius, outcome.result(density, cell.topology.node_count), None, seconds
    )


def homogenize_batch(
    catalogue,
    radii,
    mat: BeamMaterial = BeamMaterial(),
    threads: int = 1,
) -> list[BatchItem]:
    """Homogenize every (lattice, radius) pair, collecting per-item errors.

    Output order follows the input nesting (lattice-major, then radius).
    Lattices with the same strut graph (node count and edge ends) share one
    topology, built once per process and kept while in use; a lattice whose
    graph fails builds and fails on its own, so its error names it.  Each
    lattice is checked once; each radius is then checked in the order
    :func:`homogenize` of the lattice rebuilt at that radius would check it,
    with the same messages.  The items that pass are solved in stacked
    chunks (see the module docstring), and every result equals that of
    :func:`homogenize` bit for bit.  Domain failures (``ValueError``,
    which covers :class:`DisconnectedLatticeError` and
    :class:`SingularSystemError`) are reported as ``BatchItem.error``
    without aborting the rest; any other exception is a bug and
    propagates.  :class:`BatchItem` says what ``seconds`` measures.
    ``threads`` is accepted and ignored: a worker pool gained nothing
    measurable over the serial path on any batch tried.
    """
    radii = [float(radius) for radius in radii]
    items, pending, problems = [], [], []
    for lat in catalogue:
        try:
            cell = _fundamental_cell(lat)
        except DisconnectedLatticeError as exc:
            cell = exc
        for radius in radii:
            try:
                density = _checked_density(lat.name, radius, cell)
            except ValueError as exc:
                items.append(BatchItem(lat.name, radius, None, str(exc)))
                continue
            pending.append((len(items), density))
            items.append(None)
            problems.append((cell, radius))
    solved = _solve_cells(problems, mat)
    for (slot, density), (cell, radius) in zip(pending, problems):
        items[slot] = _batch_item(cell, radius, density, *next(solved))
    return items
