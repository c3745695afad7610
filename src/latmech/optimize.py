"""Gradient-based design of nodal positions toward a target stiffness.

This module owns the loss and the design loop.  The objective is the
component loss L = |C - T|^2 over the 36 entries of the homogenized and
target Mandel matrices, a least-squares misfit whose residual r = C - T has
the node Jacobian dC/dx that :mod:`fe` takes from the same solve as the
objective value: the cell problem, its moves and its sensitivity
(:func:`fe._stiffness_jacobian`, exact) belong to :mod:`fe`.  The gradient
is 2 J^T r.  :func:`fd_gradient`, central differences of the full
homogenization, is the reference the exact gradient is tested against, at
the class-wide step ``DesignProblem.fd_step``.  The loop takes
Levenberg-Marquardt steps on that Jacobian and accepts only a step that does
not increase the objective, so the objective history is nonincreasing; it
ends at the misfit stop (which ends runs toward a target that cannot be
reached), the gradient stop or ``max_steps``, and the trace names which.
Nodes move in transformed coordinates with the cell held fixed.  A run
builds one cell problem, for its base lattice, and each candidate moves that
cell's geometry; a step that would collapse a strut below the minimum length
is damped further, and only the final nodes become a :class:`Lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .fe import (
    BeamMaterial,
    _fundamental_cell,
    _moved,
    _solve_one,
    _stiffness_jacobian,
)
from .lattice import Lattice, displace_nodes
from .metrics import l_comp
from .tensor4 import ElasticTensor4, MandelMatrix, _row_norms, to_mandel

MIN_EDGE_LENGTH = 1e-3  # in units of det(A)^(1/3) of the base cell
GRADIENT_STOP = 1e-8  # of ||gradient|| det(A)^(1/3) / ||T||_F^2, free of units
MISFIT_STOP = 1e-8  # of the objective / ||T||_F^2, a relative Frobenius misfit of 1e-4
DAMPING = 1e-3  # the first step's damping, of tr(J^T J) / (3N)
MAX_REJECTIONS = 20


@dataclass(frozen=True)
class DesignProblem:
    base: Lattice
    target: ElasticTensor4
    free_nodes: tuple = ()
    max_steps: int = 50
    fd_step: ClassVar[float] = 1e-5  # class-wide step of the fd_gradient reference check

    def __post_init__(self):
        free = tuple(int(k) for k in self.free_nodes) or tuple(range(self.base.node_count))
        if any(not 0 <= k < self.base.node_count for k in free):
            raise ValueError("free_nodes contains an index outside the lattice")
        if len(set(free)) != len(free):
            raise ValueError("free_nodes contains duplicates")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        object.__setattr__(self, "free_nodes", free)


@dataclass(frozen=True)
class DesignTrace:
    """A design run: ``solves`` counts its cell solves, the first one and
    every candidate, the last accepted of which gives ``final_stiffness``;
    ``stop`` names the rule that ended it, ``"misfit"``, ``"gradient"``,
    ``"max_steps"`` or ``"no_step"`` (no acceptable step remains)."""

    objective_history: list[float]
    final_lattice: Lattice
    final_stiffness: ElasticTensor4
    solves: int
    stop: str

    def summary(self) -> str:
        """The objective's first and last values, the steps, the solves and the stop."""
        history = self.objective_history
        return (
            f"objective {history[0]:.6g} -> {history[-1]:.6g} in {len(history) - 1} steps, "
            f"{self.solves} solves ({self.stop} stop)"
        )


def _evaluate(cell, radius: float, target: MandelMatrix, mat: BeamMaterial):
    """:func:`objective` of a cell problem at ``radius``, and its solution.

    The value goes through the same Mandel round trip as :func:`homogenize`,
    so it equals the loss of the homogenized stiffness bit for bit.
    """
    _density, solution = _solve_one(cell, radius, mat)
    return l_comp(to_mandel(solution.stiffness), target), solution


def objective(lat: Lattice, target: ElasticTensor4, mat: BeamMaterial = BeamMaterial()) -> float:
    """Component loss between the homogenized and target Mandel matrices."""
    return _evaluate(_fundamental_cell(lat), lat.radius, to_mandel(target), mat)[0]


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
            deltas = np.zeros((lat.node_count, 3))
            deltas[node, axis] = fd_step
            plus = objective(displace_nodes(lat, deltas), target, mat)
            minus = objective(displace_nodes(lat, -deltas), target, mat)
            g[axis] = (plus - minus) / (2.0 * fd_step)
        grad[node] = g
    return grad


def gradient(
    lat: Lattice,
    target: ElasticTensor4,
    free_nodes,
    mat: BeamMaterial = BeamMaterial(),
) -> tuple[float, dict[int, np.ndarray]]:
    """:func:`objective` and its exact gradient per free node, from one solve.

    Returns the objective value and a transformed-coordinate 3-vector for
    each index in ``free_nodes``: the Jacobian dC/dx of
    :func:`fe._stiffness_jacobian` contracted with dL/dC = 2 (C - T).
    """
    cell, target = _fundamental_cell(lat), to_mandel(target)
    value, solution = _evaluate(cell, lat.radius, target, mat)
    jacobian = _stiffness_jacobian(cell, solution, lat.radius, mat)
    full = jacobian.reshape(-1, 3, 36) @ (2.0 * (solution.mandel - target.entries)).ravel()
    return value, {int(k): full[int(k)] for k in free_nodes}


def solve(
    prob: DesignProblem, mat: BeamMaterial = BeamMaterial(), threads: int = 1
) -> DesignTrace:
    """Run the design loop; the last accepted solve gives the final stiffness.

    Each candidate is one move of the base lattice's cell problem, solved
    once: the solve that gives its objective value also gives the exact
    Jacobian J = dC/dx of the next step, with the columns of fixed nodes
    zero.  The step is the Levenberg-Marquardt move -(J^T J + mu I)^-1 J^T r
    for the residual r = C - T.  The damping mu starts at ``DAMPING``
    times tr(J^T J) / (3N) and is divided by 3 after an accepted candidate;
    a candidate that would collapse a strut or increase the objective is
    rejected, mu is multiplied by 4 and the move re-solved, up to
    ``MAX_REJECTIONS`` times; if no acceptable candidate remains the loop
    terminates.  Stops at ``max_steps``; when the objective is at most
    ``MISFIT_STOP`` times the squared norm of the target's Mandel matrix,
    tested before the step's Jacobian is taken; or when the gradient norm
    |2 J^T r| times det(A)^(1/3) is at most ``GRADIENT_STOP`` times that
    squared norm: tests free of the length unit and the modulus, as is the
    step.  Only the final nodes become a :class:`Lattice`; its stiffness is
    the last accepted solve's, as its own cell problem is that candidate's.
    ``threads`` is accepted and ignored.
    """
    lat, radius = prob.base, prob.base.radius
    target = to_mandel(prob.target)
    nodes, edges, cell = lat.nodes, lat.edges, _fundamental_cell(lat)
    length_scale = np.cbrt(cell.volume)
    min_length = MIN_EDGE_LENGTH * length_scale
    target_norm = float(np.sum(target.entries**2))  # ||T||_F^2, the scale of both stops
    misfit_stop, gradient_stop = MISFIT_STOP * target_norm, GRADIENT_STOP * target_norm
    current, solution = _evaluate(cell, radius, target, mat)
    history = [current]
    solves = 1
    fixed = np.setdiff1d(np.arange(lat.node_count), prob.free_nodes)
    inverse = np.linalg.inv(lat.cell)
    identity, damping = np.eye(3 * lat.node_count), None

    stop = "max_steps"
    for _ in range(prob.max_steps):
        if current <= misfit_stop:
            stop = "misfit"
            break
        jacobian = _stiffness_jacobian(cell, solution, radius, mat)
        jacobian[fixed] = 0.0
        jacobian = jacobian.reshape(len(identity), 36)  # J^T
        slope = jacobian @ (solution.mandel - target.entries).ravel()  # J^T r, half the gradient
        if 2.0 * np.linalg.norm(slope) * length_scale <= gradient_stop:
            stop = "gradient"
            break
        normal = jacobian @ jacobian.T
        if damping is None:
            damping = DAMPING * np.trace(normal) / len(identity)

        for _rejection in range(MAX_REJECTIONS + 1):
            move = np.linalg.solve(normal + damping * identity, -slope).reshape(-1, 3)
            moved = _moved(cell, lat.cell, inverse, nodes, edges, move)
            candidate = moved[2]
            if _row_norms(candidate.vectors).min(initial=np.inf) < min_length:
                damping *= 4.0
                continue
            value, candidate_solution = _evaluate(candidate, radius, target, mat)
            solves += 1
            if not value > current:
                break
            damping *= 4.0
        else:
            stop = "no_step"
            break
        damping /= 3.0
        nodes, edges, cell = moved
        current, solution = value, candidate_solution
        history.append(current)

    return DesignTrace(
        objective_history=history,
        final_lattice=replace(lat, nodes=nodes, edges=edges),
        final_stiffness=solution.stiffness,
        solves=solves,
        stop=stop,
    )
