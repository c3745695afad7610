"""Periodic beam-frame finite elements and unit-cell homogenization.

Struts are modelled as 3D two-node Euler-Bernoulli frame elements with a
circular cross-section (A = pi r^2, I = pi r^4 / 4, J = pi r^4 / 2; no
shear deformation).  Periodicity is imposed on the fundamental
representation directly: an element along edge (i, j, t) couples the
degrees of freedom of nodes i and j, and the macroscopic strain enters
through the affine jump eps . A t in the element kinematics, which is
equivalent to windowed master-slave constraints without duplicating
nodes.  Displacement jumps follow u_B - u_A = eps (x_B - x_A); rotation
jumps across the boundary are zero.

The homogenized Mandel matrix is filled from the energy bilinear form,
C_ab = 2 Psi(eps_a, eps_b) / det(A), which is symmetric and positive
semi-definite by construction.  Joint overlap at nodes is ignored
(slender-strut assumption).

Every cell problem, single or batched, fundamental or windowed, goes
through one chunked core, :func:`_solve_cells`.  It gathers consecutive
problems into chunks of at most about ``_CHUNK_STRUTS`` struts (a larger
problem is a chunk of its own), builds the element matrices of a whole
chunk in one kernel call, scatters them into one flat buffer of
block-diagonal stiffness blocks and one of right-hand sides, and then
factors, solves and contracts each problem on views of those buffers.
Mixed topologies share a chunk, and each problem's numbers are those of
solving it alone, bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .lattice import Lattice, WindowedLattice, edge_matrix, relative_density, window
from .tensor4 import ElasticTensor4, MandelMatrix, from_mandel, from_mandel_vector

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
        if not self.youngs_modulus > 0.0:
            raise ValueError("Young's modulus must be positive")
        if not -1.0 < self.poisson_ratio < 0.5:
            raise ValueError("Poisson ratio must lie in (-1, 0.5)")

    @property
    def shear_modulus(self) -> float:
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))


@dataclass(frozen=True)
class HomogenizationResult:
    stiffness: ElasticTensor4
    relative_density: float
    dof_count: int
    residual: float


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
    if not length > 0.0:
        raise ValueError("beam length must be positive")
    if not radius > 0.0:
        raise ValueError("beam radius must be positive")
    axis = np.asarray(axis, dtype=float)
    if abs(np.linalg.norm(axis) - 1.0) > 1e-9:
        raise ValueError("beam axis must be a unit vector")
    k, _dk = _beam_kernel(length * axis[None, :], _strut_sections([radius], [1]), mat)
    return k[0]


def _strut_sections(radii, counts) -> np.ndarray:
    """Per-strut (area, inertia, torsion) rows of circular sections, shape
    (sum(counts), 3): the row of ``radii[k]`` repeated ``counts[k]`` times."""
    rows = [(math.pi * r**2, math.pi * r**4 / 4.0, math.pi * r**4 / 2.0) for r in radii]
    return np.repeat(np.array(rows), counts, axis=0)


def _check_connected(lat: Lattice) -> None:
    # Each node's label falls to the smallest node index joined to it:
    # relax across both ends of every edge, then jump to the label's label.
    ends = lat.edges[:, :2]
    label = np.arange(lat.node_count)
    while True:
        lowered = label.copy()
        np.minimum.at(lowered, ends, label[ends[:, ::-1]])
        lowered = lowered[lowered]
        if (lowered == label).all():
            break
        label = lowered
    if label.any():
        raise DisconnectedLatticeError(lat.name, int(np.flatnonzero(label)[0]))


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


def _solve_pinned(k: np.ndarray, rhs: np.ndarray, name: str):
    """Solve K u = rhs with node-0 translations pinned to zero.

    Returns (u_full, residual).  Raises SingularSystemError when a pivot
    of the reduced matrix falls below the relative tolerance times its own
    diagonal entry; a per-column floor is blind to the scale of other
    struts, such as the very short pieces of a windowed cell.
    """
    # imported here so that commands which never solve skip its load time
    import scipy.linalg

    k_red = k[3:, 3:]
    rhs_red = rhs[3:]
    diag = np.diag(k_red)
    try:
        chol = scipy.linalg.cho_factor(k_red, lower=True, check_finite=False)
    except np.linalg.LinAlgError:
        chol = None
    if chol is not None and np.any(np.diag(chol[0]) ** 2 <= _PIVOT_REL_TOL * diag):
        chol = None
    if chol is None:
        # a dof no strut touches has a zero diagonal and counts as null
        scale = 1.0 / np.sqrt(np.where(diag > 0, diag, np.inf))
        eigvals = np.linalg.eigvalsh(scale[:, None] * k_red * scale)
        null_dim = int(np.sum(eigvals <= _PIVOT_REL_TOL))
        raise SingularSystemError(name, max(null_dim, 1))
    u_red = scipy.linalg.cho_solve(chol, rhs_red, check_finite=False)
    res_norm = np.linalg.norm(k_red @ u_red - rhs_red, axis=0)
    rhs_norm = np.linalg.norm(rhs_red, axis=0)
    residual = float(np.max(res_norm / np.maximum(rhs_norm, 1e-300))) if rhs_red.size else 0.0
    if residual >= 1e-8:
        raise ValueError(
            f"lattice {name!r}: linear solve residual {residual:.3e} exceeds 1e-8"
        )
    u_full = np.zeros_like(rhs)
    u_full[3:] = u_red
    return u_full, residual


def _kernel_blocks(coeffs: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Sum over k of kron(coeffs[..., k, :, :], bases[..., k, :, :]) as (..., 12, 12)."""
    blocks = np.einsum("...kab,...kij->...aibj", coeffs, bases)
    return blocks.reshape(blocks.shape[:-4] + (12, 12))


def _cross_matrices(v: np.ndarray) -> np.ndarray:
    """Cross-product matrices [v]x, with [v]x a = v x a, of (..., 3) vectors v.

    Row i is e_i x v, computed with the products and differences of
    ``np.cross(np.eye(3), v[..., None, :])`` in its order, so the result is
    the same to the bit; ``np.cross`` itself spends more on per-call set-up
    than on the arithmetic of a cell.
    """
    e = np.eye(3)
    x, y, z = v[..., None, 0], v[..., None, 1], v[..., None, 2]
    return np.stack([e[1] * z - e[2] * y, e[2] * x - e[0] * z, e[0] * y - e[1] * x], axis=-1)


def _beam_kernel(
    vectors: np.ndarray, sections: np.ndarray, mat: BeamMaterial, derivative: bool = False
):
    """Element stiffness matrices for (E, 3) strut vectors v, tail to head.

    ``sections`` holds each strut's (area, inertia, torsion) row, as
    :func:`_strut_sections` makes them.

    With n = v/|v|, P = n n^T, Q = I - P and S = [n]x, the 3x3 blocks of
    the global-frame matrix are ``ea P + b12 Q`` (translation), ``-/+ b6 S``
    (translation-rotation coupling), ``gj P + b4 Q`` and ``-gj P + b2 Q``
    (rotation), so no local frame is needed.  Returns ``(k, dk)`` with k of
    shape (E, 12, 12); dk is the derivative with respect to v, shape
    (E, 3, 12, 12), when ``derivative`` is set and None otherwise.
    """
    length = np.linalg.norm(vectors, axis=1)
    n = vectors / length[:, None]
    p = n[:, :, None] * n[:, None, :]
    q = np.eye(3) - p
    s = _cross_matrices(n)  # s @ a = n x a

    e_mod, g_mod = mat.youngs_modulus, mat.shear_modulus
    area, inertia, torsion = sections.T
    ea = (e_mod * area / length)[:, None, None]
    gj = (g_mod * torsion / length)[:, None, None]
    b12 = (12.0 * e_mod * inertia / length**3)[:, None, None]
    b6 = (6.0 * e_mod * inertia / length**2)[:, None, None]
    b4 = (4.0 * e_mod * inertia / length)[:, None, None]
    b2 = (2.0 * e_mod * inertia / length)[:, None, None]

    m_p = ea * _AXIAL + gj * _TORSION
    m_q = b12 * _AXIAL + b4 * _BEND_NEAR + b2 * _BEND_FAR
    m_s = b6 * _COUPLING
    k = _kernel_blocks(np.stack([m_p, m_q, m_s], 1), np.stack([p, q, s], 1))
    if not derivative:
        return k, None

    # d/dv = n d/dL at fixed direction + the change of direction, with
    # dn/dv = Q / L and dQ = -dP.
    inv = (1.0 / length)[:, None, None]
    dm_p = -inv * m_p
    dm_q = -inv * (3.0 * b12 * _AXIAL + b4 * _BEND_NEAR + b2 * _BEND_FAR)
    dm_s = -2.0 * inv * m_s
    dk_dlength = _kernel_blocks(np.stack([dm_p, dm_q, dm_s], 1), np.stack([p, q, s], 1))
    dn = q * inv  # dn[e, m] = d n / d v_m
    dp = dn[:, :, :, None] * n[:, None, None, :] + n[:, None, :, None] * dn[:, :, None, :]
    ds = _cross_matrices(dn)
    dk = n[:, :, None, None] * dk_dlength[:, None] + _kernel_blocks(
        np.stack([m_p - m_q, m_s], 1)[:, None], np.stack([dp, ds], 2)
    )
    return k, dk


@dataclass(frozen=True)
class _Cell:
    """A cell problem without its section: element end nodes and geometry.

    ``end_positions`` (E, 2, 3) are the physical end positions that carry
    the affine part eps . x of the displacement, so a head beyond the cell
    boundary enters at its shifted image position.
    """

    name: str
    ends: np.ndarray  # (E, 2) node indices
    end_positions: np.ndarray  # (E, 2, 3)
    vectors: np.ndarray  # (E, 3) strut vectors, tail to head
    node_count: int
    volume: float  # det of the cell matrix

    @cached_property
    def length_sum(self) -> float:
        """Total strut length, for the relative density."""
        return np.linalg.norm(self.vectors, axis=1).sum()


@dataclass(frozen=True)
class _CellSolution:
    """Solved periodic cell: homogenized stiffness plus element data."""

    mandel: np.ndarray  # (6, 6)
    stiffness: ElasticTensor4
    residual: float
    displacements: np.ndarray  # (E, 12, 6) total element end displacements per unit strain


def _fundamental_cell(lat: Lattice) -> _Cell:
    """The cell problem of a lattice's fundamental representation.

    Raises :class:`DisconnectedLatticeError`, or ``ValueError`` for a
    degenerate cell; no radius changes either verdict.
    """
    _check_connected(lat)
    volume = np.linalg.det(lat.cell)
    if volume <= 0.0:
        raise ValueError(f"lattice {lat.name!r}: degenerate cell (det <= 0)")
    positions = lat.transformed_nodes()
    ends = lat.edges[:, :2]
    heads = positions[ends[:, 1]] + lat.edges[:, 2:] @ lat.cell.T
    return _Cell(
        lat.name, ends, np.stack([positions[ends[:, 0]], heads], axis=1), edge_matrix(lat),
        lat.node_count, float(volume),
    )


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
    density = float(math.pi * radius**2 * cell.length_sum / cell.volume)
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
        count = len(problem[0].ends)
        if chunk and struts + count > _CHUNK_STRUTS:
            yield from _solve_chunk(chunk, mat)
            chunk, struts = [], 0
        chunk.append(problem)
        struts += count
    if chunk:
        yield from _solve_chunk(chunk, mat)


def _solve_chunk(chunk, mat: BeamMaterial) -> list[tuple]:
    """:func:`_solve_cells` on one chunk: one kernel call, one scatter into
    the flat buffer of stiffness blocks and one into the right-hand sides,
    then a pinned solve and contraction per problem on views of them."""
    started = time.perf_counter()
    cells = [cell for cell, _radius in chunk]
    counts = [len(cell.ends) for cell in cells]
    sizes = [6 * cell.node_count for cell in cells]
    # where each problem's n x n stiffness block and n right-hand-side rows
    # start; the last entries are the buffer lengths
    k_offsets = list(accumulate((n * n for n in sizes), initial=0))
    row_offsets = list(accumulate(sizes, initial=0))
    # each strut's problem size and offsets, as (E, 1, 1) columns
    n_e, k0_e, r0_e = np.repeat(
        np.array([sizes, k_offsets[:-1], row_offsets[:-1]]), counts, axis=1
    )[:, :, None, None]
    k_e, _dk = _beam_kernel(
        np.concatenate([cell.vectors for cell in cells]),
        _strut_sections([radius for _cell, radius in chunk], counts),
        mat,
    )
    dofs = 6 * np.concatenate([cell.ends for cell in cells])[:, :, None] + np.arange(6)
    dofs = dofs.reshape(-1, 12)  # local to each problem
    d_aff = np.zeros((len(dofs), 2, 6, 6))
    d_aff[:, :, :3] = np.einsum(
        "aij,enj->enia", _UNIT_STRAINS, np.concatenate([cell.end_positions for cell in cells])
    )
    d_aff = d_aff.reshape(-1, 12, 6)

    k_flat = np.zeros(k_offsets[-1])
    # entry (a, b) of an element goes to k_offset + a n + b of its problem;
    # add.at accumulates over the repeated indices of self-edges
    block_rows = dofs[:, :, None] * n_e + k0_e
    np.add.at(k_flat, (block_rows + dofs[:, None, :]).ravel(), k_e.ravel())
    rhs = np.zeros((row_offsets[-1], 6))
    np.add.at(rhs, (dofs + r0_e[:, 0]).ravel(), -(k_e @ d_aff).reshape(-1, 6))
    share = (time.perf_counter() - started) / len(chunk)

    solved = []
    e0 = 0
    for cell, count, n, k0, r0 in zip(cells, counts, sizes, k_offsets, row_offsets):
        started = time.perf_counter()
        e1 = e0 + count
        k_cell = k_flat[k0 : k0 + n * n].reshape(n, n)
        try:
            u_full, residual = _solve_pinned(k_cell, rhs[r0 : r0 + n], cell.name)
            d_total = d_aff[e0:e1] + u_full[dofs[e0:e1]]
            # C_ab = sum_e D_e^T K_e D_e / V, as one product over the stacked element rows
            rows = d_total.reshape(-1, 6)
            mandel = rows.T @ (k_e[e0:e1] @ d_total).reshape(-1, 6) / cell.volume
            outcome = _CellSolution(mandel, from_mandel(MandelMatrix(mandel)), residual, d_total)
        except (ValueError, np.linalg.LinAlgError) as exc:
            outcome = exc
        solved.append((outcome, share + time.perf_counter() - started))
        e0 = e1
    return solved


def _solve_one(cell: _Cell, radius: float, mat: BeamMaterial) -> _CellSolution:
    """:func:`_solve_cells` on one problem, raising its error."""
    ((outcome, _seconds),) = _solve_cells([(cell, radius)], mat)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _solve_cell(lat: Lattice, mat: BeamMaterial):
    """Validate the lattice and solve its fundamental-representation cell.

    Returns ``(relative_density, _CellSolution)``.
    """
    cell = _fundamental_cell(lat)
    density = _checked_density(lat.name, lat.radius, cell)
    return density, _solve_one(cell, lat.radius, mat)


def homogenize(lat: Lattice, mat: BeamMaterial = BeamMaterial()) -> HomogenizationResult:
    """Macroscopic stiffness tensor of the periodic beam frame.

    Solves the unit-cell problem for the six unit macroscopic strains in
    the Mandel basis and assembles the 6x6 stiffness from cross energies.
    """
    density, cell = _solve_cell(lat, mat)
    return HomogenizationResult(cell.stiffness, density, 6 * lat.node_count, cell.residual)


def homogenize_windowed(lat: Lattice, mat: BeamMaterial = BeamMaterial()) -> HomogenizationResult:
    """Homogenization through the windowed view with master-slave elimination.

    Slave (image) degrees of freedom are condensed onto their masters with
    the affine offset eps . separation on displacements and zero jump on
    rotations.  Exists to cross-check :func:`homogenize`; both paths agree
    to solver precision.
    """
    win = window(lat)
    roots, seps = _resolve_master(win)
    master_nodes, master_of = np.unique(roots, return_inverse=True)
    # An image node's total displacement is its master's fluctuation plus
    # eps . (x_master + separation): the affine jump across the recorded
    # separation on top of the macroscopic part every node carries.
    problem = _Cell(
        lat.name,
        master_of[win.elements],
        win.nodes[roots[win.elements]] + seps[win.elements],
        win.nodes[win.elements[:, 1]] - win.nodes[win.elements[:, 0]],
        len(master_nodes),
        float(np.linalg.det(win.cell)),
    )
    cell = _solve_one(problem, lat.radius, mat)
    return HomogenizationResult(
        cell.stiffness, relative_density(lat), 6 * len(master_nodes), cell.residual
    )


def _resolve_master(win: WindowedLattice) -> tuple[np.ndarray, np.ndarray]:
    """Root master of every windowed node and the accumulated separation to it.

    Returns ``(root, sep)`` of shapes (M,) and (M, 3), with
    x_node = x_root + sep; a node that is no pair's slave is its own root.
    """
    root = np.arange(len(win.nodes))
    sep = np.zeros((len(win.nodes), 3))
    if win.periodic_pairs:
        masters, slaves, separations = zip(*win.periodic_pairs)
        root[list(slaves)] = masters
        sep[list(slaves)] = separations
    while np.any(root[root] != root):
        sep, root = sep + sep[root], root[root]
    return root, sep


def _batch_item(cell: _Cell, radius: float, density: float, outcome, seconds) -> BatchItem:
    # A function, so that no reference to the solution outlives it: its
    # displacements would otherwise sit above the freed stiffness buffers
    # while the next chunk is solved, and keep the heap from shrinking.
    if isinstance(outcome, Exception):
        return BatchItem(cell.name, radius, None, str(outcome), seconds)
    result = HomogenizationResult(
        outcome.stiffness, density, 6 * cell.node_count, outcome.residual
    )
    return BatchItem(cell.name, radius, result, None, seconds)


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
