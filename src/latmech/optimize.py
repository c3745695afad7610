"""Gradient-based design of nodal positions toward a target stiffness.

The objective is the component loss between the homogenized and target
Mandel matrices.  Its gradient is exact and comes from the same cell
solve as the objective value: at equilibrium the homogenized matrix is
stationary in the nodal fluctuations, so only the explicit dependence of
each element stiffness on its strut vector contributes (the envelope
theorem; the adjoint of inverse homogenization).  Central finite differences of the full
homogenization remain available as :func:`fd_gradient`, the reference
the exact gradient is tested against.  The descent loop defaults to
backtracking so the objective history is nonincreasing; a plain
fixed-step mode is available.  Nodes move in transformed coordinates with
the cell held fixed, and any step that would collapse a strut below the
minimum length is rejected and halved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fe import BeamMaterial, _beam_kernel, _CellSolution, _solve_cell, _strut_sections, homogenize
from .lattice import Lattice, displace_nodes, edge_lengths, edge_matrix
from .metrics import l_comp
from .tensor4 import ElasticTensor4, to_mandel

MIN_EDGE_LENGTH = 1e-3
GRADIENT_STOP = 1e-8
MAX_HALVINGS = 20
# Found on the tessellated simple-cubic demo: large because the component
# loss of slender lattices is O(rho^2) while coordinates are O(1).
DEFAULT_STEP_SIZE = 3.0e3
DEFAULT_FD_STEP = 1e-5


@dataclass(frozen=True)
class DesignProblem:
    base: Lattice
    target: ElasticTensor4
    free_nodes: tuple = ()
    step_size: float = DEFAULT_STEP_SIZE
    max_steps: int = 50
    fd_step: float = DEFAULT_FD_STEP  # step of the fd_gradient reference check
    backtracking: bool = True

    def __post_init__(self):
        free = tuple(int(k) for k in self.free_nodes) or tuple(range(self.base.node_count))
        if any(not 0 <= k < self.base.node_count for k in free):
            raise ValueError("free_nodes contains an index outside the lattice")
        if len(set(free)) != len(free):
            raise ValueError("free_nodes contains duplicates")
        if not self.step_size > 0.0:
            raise ValueError("step_size must be positive")
        if not self.fd_step > 0.0:
            raise ValueError("fd_step must be positive")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        object.__setattr__(self, "free_nodes", free)


@dataclass(frozen=True)
class DesignTrace:
    objective_history: list[float]
    final_lattice: Lattice
    final_stiffness: ElasticTensor4


def _evaluate(
    lat: Lattice, target: ElasticTensor4, mat: BeamMaterial
) -> tuple[float, _CellSolution]:
    """:func:`objective` and the solved cell it came from, from one solve.

    The value goes through the same Mandel round trip as :func:`homogenize`,
    so it equals the loss of the homogenized stiffness bit for bit.
    """
    _density, cell = _solve_cell(lat, mat)
    return l_comp(to_mandel(cell.stiffness), to_mandel(target)), cell


def objective(lat: Lattice, target: ElasticTensor4, mat: BeamMaterial = BeamMaterial()) -> float:
    """Component loss between the homogenized and target Mandel matrices."""
    return _evaluate(lat, target, mat)[0]


def _displace_one(lat: Lattice, node: int, delta: np.ndarray) -> Lattice:
    deltas = np.zeros((lat.node_count, 3))
    deltas[node] = delta
    return displace_nodes(lat, deltas)


def fd_gradient(
    lat: Lattice,
    target: ElasticTensor4,
    free_nodes,
    fd_step: float,
    mat: BeamMaterial = BeamMaterial(),
) -> dict[int, np.ndarray]:
    """Central-difference gradient of :func:`objective` per free node.

    Returns a transformed-coordinate 3-vector for each index in
    ``free_nodes``; other nodes are absent from the output.  Costs six
    homogenizations per free node; :func:`gradient` is exact and costs one.
    """
    if not fd_step > 0.0:
        raise ValueError("fd_step must be positive")
    grad: dict[int, np.ndarray] = {}
    for node in (int(k) for k in free_nodes):
        g = np.empty(3)
        for axis in range(3):
            delta = np.zeros(3)
            delta[axis] = fd_step
            plus = objective(_displace_one(lat, node, delta), target, mat)
            minus = objective(_displace_one(lat, node, -delta), target, mat)
            g[axis] = (plus - minus) / (2.0 * fd_step)
        grad[node] = g
    return grad


def _node_gradient(
    lat: Lattice, cell: _CellSolution, target: ElasticTensor4, mat: BeamMaterial
) -> np.ndarray:
    """(N, 3) exact gradient of :func:`objective` at every node of a solved cell.

    With G = 2 (C - T) in Mandel form and D_e the solved total end
    displacements of element e, the derivative with respect to its strut
    vector v_e is ``<dK_e/dv_e, D_e G D_e^T> / V``; it is added to the head
    node and subtracted from the tail node, so self-edges cancel.  The
    affine load needs no term: moving a node shifts its affine displacement
    exactly as a change of its free fluctuation would, and the solved
    fluctuations make the energy stationary.  No solve happens here.
    """
    sections = _strut_sections([lat.radius], [lat.edge_count])
    _k, dk = _beam_kernel(edge_matrix(lat), sections, mat, derivative=True)
    weight = 2.0 * (cell.mandel - to_mandel(target).entries)
    d = cell.displacements
    w = d @ weight @ d.transpose(0, 2, 1)
    per_edge = np.einsum("emij,eij->em", dk, w)
    per_edge /= float(np.linalg.det(lat.cell))
    full = np.zeros((lat.node_count, 3))
    np.add.at(full, lat.edges[:, 1], per_edge)
    np.add.at(full, lat.edges[:, 0], -per_edge)
    return full


def gradient(
    lat: Lattice,
    target: ElasticTensor4,
    free_nodes,
    mat: BeamMaterial = BeamMaterial(),
) -> tuple[float, dict[int, np.ndarray]]:
    """:func:`objective` and its exact gradient per free node, from one solve.

    Returns the objective value and a transformed-coordinate 3-vector for
    each index in ``free_nodes``; see :func:`_node_gradient` for the formula.
    """
    value, cell = _evaluate(lat, target, mat)
    full = _node_gradient(lat, cell, target, mat)
    return value, {int(k): full[int(k)] for k in free_nodes}


def solve(
    prob: DesignProblem, mat: BeamMaterial = BeamMaterial(), threads: int = 1
) -> DesignTrace:
    """Run the descent loop and re-verify the final stiffness by a fresh solve.

    Each lattice is solved once: the solve that gives a candidate its
    objective value also gives the exact gradient of the next step.  Stops
    at ``max_steps`` or when the gradient norm falls below 1e-8.
    With backtracking enabled, a step that would increase the objective
    (or collapse a strut) halves the step size, up to 20 times; if no
    acceptable step remains the loop terminates.  ``threads`` is accepted
    and ignored: the loop runs serially.
    """
    lat = prob.base
    current, cell = _evaluate(lat, prob.target, mat)
    history = [current]
    fixed = np.setdiff1d(np.arange(lat.node_count), prob.free_nodes)

    for _ in range(prob.max_steps):
        direction = -_node_gradient(lat, cell, prob.target, mat)
        direction[fixed] = 0.0
        grad_norm = float(np.linalg.norm(direction))
        if grad_norm < GRADIENT_STOP:
            break

        step = prob.step_size
        accepted = None
        for _halving in range(MAX_HALVINGS + 1):
            candidate = displace_nodes(lat, step * direction)
            if edge_lengths(candidate).min(initial=np.inf) < MIN_EDGE_LENGTH:
                step *= 0.5
                continue
            value, candidate_cell = _evaluate(candidate, prob.target, mat)
            if prob.backtracking and value > current:
                step *= 0.5
                continue
            accepted = (candidate, value, candidate_cell)
            break
        if accepted is None:
            break
        lat, current, cell = accepted
        history.append(current)

    final = homogenize(lat, mat)
    return DesignTrace(
        objective_history=history,
        final_lattice=lat,
        final_stiffness=final.stiffness,
    )
