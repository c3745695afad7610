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
alone and is shared by the radii of a batch item and the candidates of a
design run, plus the geometry.  The core gathers consecutive problems
into chunks of at most about ``_CHUNK_STRUTS`` struts (a larger problem
is a chunk of its own), builds the element matrices of a whole chunk in
one kernel call (a fixed basis weighted by per-strut features, see
:func:`_beam_kernel`), and scatters them, at the places each topology
names, into one flat buffer of per-problem stiffness bands and one of
right-hand sides.  A strut couples only the nodes at its two ends, so
with the nodes numbered in Cuthill-McKee order (breadth-first from the
pinned node 0, each level in the order the level before reached it)
the stiffness matrix is a narrow band; only its lower (kd+1) x n band is
stored, and no n x n matrix is built unless a solve fails.  Each problem
is then factored by LAPACK's banded Cholesky (``dpbtrf``/``dpbtrs``),
checked and contracted on views of those buffers.  Mixed topologies share
a chunk, and each problem's numbers are those of solving it alone, bit
for bit.  A design run moves a cell's geometry (:func:`_moved`) and takes
the node gradient of a solved cell's stiffness (:func:`_stiffness_gradient`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .lattice import Lattice, _cut_chains, _folded, _strut_vectors, window
from .tensor4 import (
    SLOT_PAIRS,
    ElasticTensor4,
    MandelMatrix,
    _unit_dyads,
    from_mandel,
    from_mandel_vector,
)

_PIVOT_REL_TOL = 1e-12
# A chunk closes before its struts would pass this many.  On the benchmark
# catalogue throughput levels off from about 96 struts, and peak memory
# rises above the one-cell-at-a-time figure from about 192.
_CHUNK_STRUTS = 128


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

    ``seconds`` is the item's own solve, contraction and validation plus an
    equal share of its chunk's kernel call and scatters; an item rejected
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
    return np.repeat(np.array(rows), counts, axis=0)


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


def _mandel_unit_strains() -> np.ndarray:
    """(6, 3, 3) strain tensors of the six unit Mandel basis vectors."""
    strains = np.zeros((6, 3, 3))
    for a in range(6):
        v = np.zeros(6)
        v[a] = 1.0
        strains[a] = from_mandel_vector(v)
    return strains


_UNIT_STRAINS = _mandel_unit_strains()

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
    """``(length, n, m, coeff, pair)`` of (E, 3) strut vectors, named as in ``_FEATURES``."""
    length = np.linalg.norm(vectors, axis=1)
    n = vectors / length[:, None]
    m = np.concatenate([n, np.ones((len(n), 1))], axis=1)
    e_mod, g_mod = mat.youngs_modulus, mat.shear_modulus
    moduli = np.array([e_mod, g_mod, 12.0 * e_mod, 4.0 * e_mod, 2.0 * e_mod, 6.0 * e_mod])
    coeff = moduli * sections[:, _COEFF_SECTION] / length[:, None] ** _COEFF_POWER
    return length, n, m, coeff, m[:, _FEATURE_A] * m[:, _FEATURE_B]


def _beam_kernel(vectors: np.ndarray, sections: np.ndarray, mat: BeamMaterial) -> np.ndarray:
    """(E, 12, 12) element stiffness matrices for (E, 3) strut vectors v, tail to head.

    ``sections`` holds each strut's (area, inertia, torsion) row, as
    :func:`_strut_sections` makes them.

    With n = v/|v|, P = n n^T, Q = I - P and S = [n]x, the 3x3 blocks of
    the global-frame matrix are ``ea P + b12 Q`` (translation), ``-/+ b6 S``
    (translation-rotation coupling), ``gj P + b4 Q`` and ``-gj P + b2 Q``
    (rotation), so no local frame is needed.  Each matrix is linear in 36
    per-strut features (see ``_FEATURES``), so the whole stack is one
    product of the (E, 36) features with the fixed (36, 144) basis.  The
    products go through ``np.einsum`` rather than a BLAS matrix product:
    the threaded BLAS product slows the banded factorization that follows
    it.  Each basis matrix is symmetric and the features are summed in one
    order, so every element matrix is exactly symmetric.
    """
    _length, _n, _m, coeff, pair = _kernel_features(vectors, sections, mat)
    features = coeff[:, _FEATURE_COEFF] * pair
    return np.einsum("ef,fk->ek", features, _KERNEL_BASIS).reshape(-1, 12, 12)


def _beam_kernel_derivative(vectors: np.ndarray, sections: np.ndarray, mat: BeamMaterial):
    """(E, 3, 12, 12) derivative of :func:`_beam_kernel` with respect to each
    strut vector: the product of d(features)/dv with the same basis."""
    length, n, m, coeff, pair = _kernel_features(vectors, sections, mat)
    # d coeff / dv_c = -power coeff n_c / L, and dm_i / dv_c = Q_ci / L
    # (zero for the padding), since dL/dv = n and dn/dv = Q / L.
    inv = 1.0 / length
    dcoeff = (-_COEFF_POWER * coeff * inv[:, None])[:, None, :] * n[:, :, None]
    dm = np.zeros((len(n), 3, 4))
    dm[:, :, :3] = (np.eye(3) - n[:, :, None] * n[:, None, :]) * inv[:, None, None]
    a, b, c = _FEATURE_A, _FEATURE_B, _FEATURE_COEFF
    dpair = dm[:, :, a] * m[:, None, b] + m[:, None, a] * dm[:, :, b]
    dfeatures = dcoeff[:, :, c] * pair[:, None] + coeff[:, None, c] * dpair
    return np.einsum("ecf,fk->eck", dfeatures, _KERNEL_BASIS).reshape(-1, 3, 12, 12)


@dataclass(frozen=True)
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
    (6, n) right-hand sides.  Moving nodes changes none of it, so a design
    run builds it once, for its base lattice.
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
    return _Topology(ends, node_count, kd, dofs, lower, at[lower], rhs_at)


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
    """The cell problem of a lattice's fundamental representation.

    Raises :class:`DisconnectedLatticeError`.
    """
    topology = _topology(lat.name, lat.node_count, lat.edges[:, :2])
    return _Cell(
        lat.name, topology, *_cell_geometry(lat.cell, lat.nodes, lat.edges),
        float(np.linalg.det(lat.cell)),
    )


def _cell_geometry(cell: np.ndarray, nodes: np.ndarray, edges: np.ndarray):
    """``(end_positions, vectors)`` of a lattice's :class:`_Cell`, from its fields."""
    positions = nodes @ cell.T
    heads = positions[edges[:, 1]] + edges[:, 2:] @ cell.T
    return np.stack([positions[edges[:, 0]], heads], axis=1), _strut_vectors(cell, nodes, edges)


def _moved(cell: _Cell, lattice_cell: np.ndarray, nodes: np.ndarray, edges: np.ndarray, deltas):
    """``(nodes, edges, cell)`` of a lattice's fields and cell problem after
    :func:`displace_nodes` by ``deltas``, building no lattice."""
    nodes, edges = _folded(lattice_cell, nodes, edges, deltas)
    end_positions, vectors = _cell_geometry(lattice_cell, nodes, edges)
    return nodes, edges, replace(cell, end_positions=end_positions, vectors=vectors)


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
    density = float(math.pi * radius**2 * np.linalg.norm(cell.vectors, axis=1).sum() / cell.volume)
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
    The outcome is a :class:`_CellSolution`, or the ``ValueError`` or
    ``LinAlgError`` that its solve or its stiffness validation raised; any
    other exception propagates.  ``seconds`` is the problem's own solve,
    contraction and validation plus an equal share of its chunk's kernel
    and scatter.
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


def _placed(patterns, starts) -> np.ndarray:
    """The problems' scatter patterns, each moved to its place in the chunk;
    a one-problem chunk uses its pattern as it is, without a copy."""
    if len(patterns) == 1:
        return patterns[0]
    return np.concatenate([pattern + start for pattern, start in zip(patterns, starts)])


def _solve_chunk(chunk, mat: BeamMaterial) -> list[tuple]:
    """:func:`_solve_cells` on one chunk: one kernel call, one scatter into
    the flat buffer of lower stiffness bands and one into the right-hand
    sides, then a banded Cholesky solve and contraction per problem on
    views of them."""
    # loaded before the clock starts, so that no item's seconds include it
    import scipy.linalg.lapack  # noqa: F401

    started = time.perf_counter()
    cells = [cell for cell, _radius in chunk]
    tops = [cell.topology for cell in cells]
    counts = [len(top.ends) for top in tops]
    # where each problem's band and right-hand sides start in the chunk's
    # buffers; the last entries are the buffer lengths
    band_starts = list(accumulate((top.band_size for top in tops), initial=0))
    rhs_starts = list(accumulate((36 * top.node_count for top in tops), initial=0))
    k_e = _beam_kernel(
        np.concatenate([cell.vectors for cell in cells]),
        _strut_sections([radius for _cell, radius in chunk], counts),
        mat,
    )
    d_aff = np.zeros((len(k_e), 2, 6, 6))
    d_aff[:, :, :3] = np.einsum(
        "aij,enj->enia", _UNIT_STRAINS, np.concatenate([cell.end_positions for cell in cells])
    )
    d_aff = d_aff.reshape(-1, 12, 6)

    # bincount adds in element order and accumulates over the repeated dofs
    # of self-edges
    lower = np.concatenate([top.lower for top in tops])
    band_at = _placed([top.band_at for top in tops], band_starts)
    rhs_at = _placed([top.rhs_at for top in tops], rhs_starts)
    k_flat = np.bincount(band_at, k_e[lower], minlength=band_starts[-1])
    rhs = np.bincount(rhs_at.ravel(), -(k_e @ d_aff).ravel(), minlength=rhs_starts[-1])
    share = (time.perf_counter() - started) / len(chunk)

    solved = []
    e0 = 0
    for cell, count, b0, r0 in zip(cells, counts, band_starts, rhs_starts):
        started = time.perf_counter()
        e1 = e0 + count
        top = cell.topology
        n = 6 * top.node_count
        try:
            outcome = _solve_problem(
                cell, k_e[e0:e1], d_aff[e0:e1],
                k_flat[b0 : b0 + top.band_size].reshape(n - 3, top.half_bandwidth + 1),
                rhs[r0 : r0 + 6 * n].reshape(6, n),
            )
        except (ValueError, np.linalg.LinAlgError) as exc:
            outcome = exc
        solved.append((outcome, share + time.perf_counter() - started))
        e0 = e1
    return solved


def _solve_problem(cell: _Cell, k_e, d_aff, band, rhs) -> _CellSolution:
    """Solve, check and contract one problem of :func:`_solve_chunk`.

    ``band`` is its reduced stiffness K as an (n-3, kd+1) lower band, row j
    holding K[j:j+kd+1, j], so that its transpose is LAPACK's band storage;
    it is factored in place.  ``rhs`` holds the six right-hand sides as
    (6, n) rows over every dof; ``k_e`` and ``d_aff`` are the problem's rows
    of the chunk arrays.  Raises SingularSystemError when a pivot falls to
    the relative tolerance times its own diagonal entry; a per-column floor
    is blind to the scale of other struts, such as the very short pieces
    of a windowed cell.
    """
    # imported here so that commands which never solve skip its load time
    from scipy.linalg import lapack

    diag = band[:, 0].copy()
    factor, info = lapack.dpbtrf(band.T, lower=1, overwrite_ab=1)
    min_pivot_ratio = float(np.min(factor[0] ** 2 / diag)) if info == 0 else 0.0
    # both checks are written so that NaN, from an overflowed stiffness, fails them
    if not min_pivot_ratio > _PIVOT_REL_TOL:
        raise _singular_system(cell, k_e)
    load = rhs[:, 3:]
    u_red, info = lapack.dpbtrs(factor, load.T, lower=1)
    if info != 0:
        raise RuntimeError(f"dpbtrs rejected argument {-info}")
    u_full = np.zeros((rhs.shape[1], 6))
    u_full[3:] = u_red
    u_e = u_full[cell.topology.dofs]
    # the residual sum_e K_e u_e - f over the free dofs, taken from the
    # element matrices rather than the band, so that a scatter error shows
    forces = np.bincount(cell.topology.rhs_at.ravel(), (k_e @ u_e).ravel(), minlength=rhs.size)
    res_norm = np.linalg.norm(forces.reshape(6, -1)[:, 3:] - load, axis=1)
    rhs_norm = np.linalg.norm(load, axis=1)
    residual = float(np.max(res_norm / np.maximum(rhs_norm, 1e-300)))
    if not residual < 1e-8:
        raise ValueError(
            f"lattice {cell.name!r}: linear solve residual {residual:.3e} exceeds 1e-8"
        )
    d_total = d_aff + u_e
    # C_ab = sum_e D_e^T K_e D_e / V, as one product over the stacked element rows
    rows = d_total.reshape(-1, 6)
    mandel = rows.T @ (k_e @ d_total).reshape(-1, 6) / cell.volume
    return _CellSolution(
        mandel, from_mandel(MandelMatrix(mandel)), residual, min_pivot_ratio, d_total
    )


def _solve_one(cell: _Cell, radius: float, mat: BeamMaterial) -> tuple[float, _CellSolution]:
    """``(relative_density, _CellSolution)`` of one problem, checked by
    :func:`_checked_density` and then solved, raising the first error."""
    density = _checked_density(cell.name, radius, cell)
    ((outcome, _seconds),) = _solve_cells([(cell, radius)], mat)
    if isinstance(outcome, Exception):
        raise outcome
    return density, outcome


def _stiffness_gradient(
    cell: _Cell, solution: _CellSolution, radius: float, weight: np.ndarray, mat: BeamMaterial
) -> np.ndarray:
    """(N, 3) gradient of <C, W> at every node of a solved cell, for its
    homogenized Mandel matrix C and a fixed (6, 6) Mandel weight W.

    With D_e the solved total end displacements of element e, the
    derivative with respect to its strut vector v_e is
    ``<dK_e/dv_e, D_e W D_e^T> / V``; it is added to the head node and
    subtracted from the tail node, so self-edges cancel.  The affine load
    needs no term: moving a node shifts its affine displacement exactly as
    a change of its free fluctuation would, and the solved fluctuations make
    the energy stationary (the envelope theorem).  No solve happens here.
    """
    dk = _beam_kernel_derivative(cell.vectors, _strut_sections([radius], [len(cell.vectors)]), mat)
    d = solution.displacements
    per_edge = np.einsum("emij,eij->em", dk, d @ weight @ d.transpose(0, 2, 1)) / cell.volume
    full = np.zeros((cell.topology.node_count, 3))
    np.add.at(full, cell.topology.ends[:, 1], per_edge)
    np.add.at(full, cell.topology.ends[:, 0], -per_edge)
    return full


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
        _topology(lat.name, lat.node_count, ends),
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
    Each lattice is checked once; each radius is then checked in the
    order :func:`homogenize` of the lattice rebuilt at that radius would
    check it, with the same messages.  The items that pass are solved in
    stacked chunks (see the module docstring), and every result equals
    that of :func:`homogenize` bit for bit.  Domain failures
    (``ValueError``, which covers :class:`DisconnectedLatticeError` and
    :class:`SingularSystemError`, and ``LinAlgError``) are reported as
    ``BatchItem.error`` without aborting the rest; any other exception is a
    bug and propagates.  :class:`BatchItem` says what ``seconds`` measures.
    ``threads`` is accepted and ignored: a worker pool gained nothing
    measurable over the serial path on any batch tried.
    """
    radii = [float(radius) for radius in radii]
    items, pending, problems = [], [], []
    for lat in catalogue:
        try:
            cell = _fundamental_cell(lat)
        except ValueError as exc:
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
