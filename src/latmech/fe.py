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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .lattice import Lattice, WindowedLattice, edge_matrix, relative_density, window
from .tensor4 import ElasticTensor4, MandelMatrix, from_mandel, from_mandel_vector

_PIVOT_REL_TOL = 1e-12


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
    """One (lattice, radius) outcome; exactly one of result/error is set."""

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
    k, _dk = _beam_kernel(length * axis[None, :], radius, mat)
    return k[0]


def _check_connected(lat: Lattice) -> None:
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
    for node in range(lat.node_count):
        if find(node) != root:
            raise DisconnectedLatticeError(lat.name, node)


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
        scale = 1.0 / np.sqrt(diag)
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


def _beam_kernel(vectors: np.ndarray, radius: float, mat: BeamMaterial, derivative: bool = False):
    """Element stiffness matrices for (E, 3) strut vectors v, tail to head.

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
    s = np.cross(np.eye(3), n[:, None, :])  # s @ a = n x a

    e_mod, g_mod = mat.youngs_modulus, mat.shear_modulus
    area = math.pi * radius**2
    inertia = math.pi * radius**4 / 4.0
    torsion = math.pi * radius**4 / 2.0
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
    ds = np.cross(np.eye(3), dn[:, :, None, :])
    dk = n[:, :, None, None] * dk_dlength[:, None] + _kernel_blocks(
        np.stack([m_p - m_q, m_s], 1)[:, None], np.stack([dp, ds], 2)
    )
    return k, dk


@dataclass(frozen=True)
class _CellSolution:
    """Solved periodic cell: homogenized Mandel matrix plus element data."""

    mandel: np.ndarray  # (6, 6)
    residual: float
    displacements: np.ndarray  # (E, 12, 6) total element end displacements per unit strain


def _assemble_solve(
    name: str,
    ends: np.ndarray,
    end_positions: np.ndarray,
    vectors: np.ndarray,
    node_count: int,
    radius: float,
    mat: BeamMaterial,
    volume: float,
) -> _CellSolution:
    """Assemble, solve and contract the cell problem of (E, 2) element end nodes.

    ``end_positions`` (E, 2, 3) are the physical end positions that carry
    the affine part eps . x of the displacement, so a head beyond the cell
    boundary enters at its shifted image position.
    """
    k_e, _dk = _beam_kernel(vectors, radius, mat)
    n_dof = 6 * node_count
    dofs = (6 * ends[:, :, None] + np.arange(6)).reshape(-1, 12)
    d_aff = np.zeros((len(ends), 2, 6, 6))
    d_aff[:, :, :3] = np.einsum("aij,enj->enia", _UNIT_STRAINS, end_positions)
    d_aff = d_aff.reshape(-1, 12, 6)

    k_global = np.zeros((n_dof, n_dof))
    # add.at accumulates over the repeated indices of self-edges
    flat = dofs[:, :, None] * n_dof + dofs[:, None, :]
    np.add.at(k_global.reshape(-1), flat.ravel(), k_e.ravel())
    rhs = np.zeros((n_dof, 6))
    np.add.at(rhs, dofs.ravel(), -(k_e @ d_aff).reshape(-1, 6))

    u_full, residual = _solve_pinned(k_global, rhs, name)
    d_total = d_aff + u_full[dofs]
    # C_ab = sum_e D_e^T K_e D_e / V, as one product over the stacked element rows
    c_mandel = d_total.reshape(-1, 6).T @ (k_e @ d_total).reshape(-1, 6) / volume
    return _CellSolution(c_mandel, residual, d_total)


def _solve_cell(lat: Lattice, mat: BeamMaterial):
    """Validate the lattice and solve its fundamental-representation cell.

    Returns ``(relative_density, _CellSolution)``.
    """
    _check_connected(lat)
    density = relative_density(lat)
    if density >= 1.0:
        raise ValueError(
            f"lattice {lat.name!r}: relative density {density:.3f} >= 1 (struts too thick)"
        )
    positions = lat.transformed_nodes()
    ends = lat.edges[:, :2]
    heads = positions[ends[:, 1]] + lat.edges[:, 2:] @ lat.cell.T
    end_positions = np.stack([positions[ends[:, 0]], heads], axis=1)
    cell = _assemble_solve(
        lat.name, ends, end_positions, edge_matrix(lat), lat.node_count, lat.radius, mat,
        float(np.linalg.det(lat.cell)),
    )
    return density, cell


def homogenize(lat: Lattice, mat: BeamMaterial = BeamMaterial()) -> HomogenizationResult:
    """Macroscopic stiffness tensor of the periodic beam frame.

    Solves the unit-cell problem for the six unit macroscopic strains in
    the Mandel basis and assembles the 6x6 stiffness from cross energies.
    """
    density, cell = _solve_cell(lat, mat)
    return HomogenizationResult(
        stiffness=from_mandel(MandelMatrix(cell.mandel)),
        relative_density=density,
        dof_count=6 * lat.node_count,
        residual=cell.residual,
    )


def homogenize_windowed(lat: Lattice, mat: BeamMaterial = BeamMaterial()) -> HomogenizationResult:
    """Homogenization through the windowed view with master-slave elimination.

    Slave (image) degrees of freedom are condensed onto their masters with
    the affine offset eps . separation on displacements and zero jump on
    rotations.  Exists to cross-check :func:`homogenize`; both paths agree
    to solver precision.
    """
    win = window(lat)
    return _homogenize_windowed(win, lat, mat)


def _resolve_master(win: WindowedLattice):
    """Map every windowed node to (root master, accumulated separation)."""
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


def _homogenize_windowed(
    win: WindowedLattice, lat: Lattice, mat: BeamMaterial
) -> HomogenizationResult:
    masters = _resolve_master(win)
    roots = np.array([root for root, _sep in masters], dtype=int)
    seps = np.array([sep for _root, sep in masters]).reshape(-1, 3)
    master_nodes, master_of = np.unique(roots, return_inverse=True)
    # An image node's total displacement is its master's fluctuation plus
    # eps . (x_master + separation): the affine jump across the recorded
    # separation on top of the macroscopic part every node carries.
    ends = master_of[win.elements]
    end_positions = win.nodes[roots[win.elements]] + seps[win.elements]
    vectors = win.nodes[win.elements[:, 1]] - win.nodes[win.elements[:, 0]]
    cell = _assemble_solve(
        lat.name, ends, end_positions, vectors, len(master_nodes), lat.radius, mat,
        float(np.linalg.det(win.cell)),
    )
    return HomogenizationResult(
        stiffness=from_mandel(MandelMatrix(cell.mandel)),
        relative_density=relative_density(lat),
        dof_count=6 * len(master_nodes),
        residual=cell.residual,
    )


def homogenize_batch(
    catalogue,
    radii,
    mat: BeamMaterial = BeamMaterial(),
    threads: int = 1,
) -> list[BatchItem]:
    """Homogenize every (lattice, radius) pair, collecting per-item errors.

    Output order follows the input nesting (lattice-major, then radius).
    Domain failures (``ValueError``, which covers
    :class:`DisconnectedLatticeError` and :class:`SingularSystemError`, and
    ``LinAlgError``) are reported as ``BatchItem.error`` without aborting
    the rest; any other exception is a bug and propagates.  ``threads`` is
    accepted and ignored: items run serially, because a worker pool gained
    nothing measurable over the serial loop on any batch tried.
    """
    items = []
    for lat in catalogue:
        for radius in radii:
            radius = float(radius)
            started = time.perf_counter()
            try:
                result, error = homogenize(replace(lat, radius=radius), mat), None
            except (ValueError, np.linalg.LinAlgError) as exc:
                result, error = None, str(exc)
            items.append(BatchItem(lat.name, radius, result, error, time.perf_counter() - started))
    return items
