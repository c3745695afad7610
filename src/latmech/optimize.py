"""Gradient-based design of nodal positions toward a target stiffness.

This module owns the loss and the design loop.  The objective is the
component loss L between the homogenized and target Mandel matrices, and
its derivative dL/dC = 2 (C - T) is the weight that :mod:`fe` turns into
node gradients: the cell problem, its moves and its sensitivity
(:func:`fe._stiffness_gradient`, exact, from the same solve as the
objective value) belong to :mod:`fe`.  :func:`fd_gradient`, central
differences of the full homogenization, is the reference the exact
gradient is tested against.  The loop takes L-BFGS steps on the exact
gradient and accepts only a step that does not increase the objective,
so the objective history is nonincreasing; it ends at the misfit stop
(which ends runs toward a target that cannot be reached), the gradient
stop or ``max_steps``, and the trace names which.  Nodes move in
transformed coordinates with the cell held fixed.  A run builds one cell
problem, for its base lattice, and each candidate moves that cell's
geometry; a step that would collapse a strut below the minimum length is
halved, and only the final nodes become a :class:`Lattice`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .fe import (
    BeamMaterial,
    _fundamental_cell,
    _moved,
    _solve_one,
    _stiffness_gradient,
    homogenize,
)
from .lattice import Lattice, displace_nodes
from .metrics import l_comp
from .tensor4 import ElasticTensor4, MandelMatrix, _row_norms, to_mandel

MIN_EDGE_LENGTH = 1e-3  # in units of det(A)^(1/3) of the base cell
GRADIENT_STOP = 1e-8  # of ||gradient|| det(A)^(1/3) / ||T||_F^2, free of units
MISFIT_STOP = 1e-8  # of the objective / ||T||_F^2, a relative Frobenius misfit of 1e-4
MAX_HALVINGS = 20
MAX_PAIRS = 10  # curvature pairs kept for the L-BFGS direction
# The first step's scale, found on the tessellated simple-cubic demo.
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

    def __post_init__(self):
        free = tuple(int(k) for k in self.free_nodes) or tuple(range(self.base.node_count))
        if any(not 0 <= k < self.base.node_count for k in free):
            raise ValueError("free_nodes contains an index outside the lattice")
        if len(set(free)) != len(free):
            raise ValueError("free_nodes contains duplicates")
        if not 0.0 < self.step_size < np.inf:
            raise ValueError("step_size must be positive and finite")
        if not self.fd_step > 0.0:
            raise ValueError("fd_step must be positive")
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")
        object.__setattr__(self, "free_nodes", free)


@dataclass(frozen=True)
class DesignTrace:
    """A design run: ``solves`` counts its cell solves, the first one, every
    line-search candidate and the final re-verification; ``stop`` names the
    rule that ended it, ``"misfit"``, ``"gradient"``, ``"max_steps"`` or
    ``"no_step"`` (no acceptable step remains)."""

    objective_history: list[float]
    final_lattice: Lattice
    final_stiffness: ElasticTensor4
    solves: int
    stop: str


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
    each index in ``free_nodes``: the gradient of <C, dL/dC> with dL/dC =
    2 (C - T) held fixed, see :func:`fe._stiffness_gradient`.
    """
    cell, target = _fundamental_cell(lat), to_mandel(target)
    value, solution = _evaluate(cell, lat.radius, target, mat)
    weight = 2.0 * (solution.mandel - target.entries)
    full = _stiffness_gradient(cell, solution, lat.radius, weight, mat)
    return value, {int(k): full[int(k)] for k in free_nodes}


def _two_loop(grad: np.ndarray, pairs) -> np.ndarray:
    """The L-BFGS direction -H g from the curvature pairs ``(s, y, s.y)``,
    oldest first, with the initial inverse Hessian s.y / y.y of the newest."""
    q = grad.copy()
    alphas = []
    for s, y, sy in reversed(pairs):
        alphas.append(np.vdot(s, q) / sy)
        q -= alphas[-1] * y
    s, y, sy = pairs[-1]
    q *= sy / np.vdot(y, y)
    for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - np.vdot(y, q) / sy) * s
    return -q


def solve(
    prob: DesignProblem, mat: BeamMaterial = BeamMaterial(), threads: int = 1
) -> DesignTrace:
    """Run the design loop and re-verify the final stiffness by a fresh solve.

    Each candidate is one move of the base lattice's cell problem, solved
    once: the solve that gives its objective value also gives the exact
    gradient of the next step.  The first step is ``step_size`` times the
    negative gradient; later ones are the L-BFGS direction at step 1, from
    up to ``MAX_PAIRS`` accepted moves s and gradient changes y with s.y > 0
    (with none kept, the first step's rule).  Stops at ``max_steps``; when
    the objective is at most ``MISFIT_STOP`` times the squared norm of the
    target's Mandel matrix, tested before the step's gradient is taken; or
    when the gradient norm times det(A)^(1/3) is at most ``GRADIENT_STOP``
    times that squared norm: tests free of the length unit and the modulus.
    A step that would collapse a strut or increase the objective is halved,
    up to 20 times; if no acceptable step remains the loop terminates.
    Only the final nodes become a :class:`Lattice`.  ``threads`` is
    accepted and ignored.
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
    pairs, previous = deque(maxlen=MAX_PAIRS), None

    stop = "max_steps"
    for _ in range(prob.max_steps):
        if current <= misfit_stop:
            stop = "misfit"
            break
        weight = 2.0 * (solution.mandel - target.entries)
        grad = _stiffness_gradient(cell, solution, radius, weight, mat)
        grad[fixed] = 0.0
        if np.linalg.norm(grad) * length_scale <= gradient_stop:
            stop = "gradient"
            break
        if previous is not None:
            move, y = previous[0], grad - previous[1]
            sy = np.vdot(move, y)
            if sy > 0.0:
                pairs.append((move, y, sy))
        direction, step = (_two_loop(grad, pairs), 1.0) if pairs else (-grad, prob.step_size)

        for _halving in range(MAX_HALVINGS + 1):
            move = step * direction
            moved = _moved(cell, lat.cell, inverse, nodes, edges, move)
            candidate = moved[2]
            if _row_norms(candidate.vectors).min(initial=np.inf) < min_length:
                step *= 0.5
                continue
            value, candidate_solution = _evaluate(candidate, radius, target, mat)
            solves += 1
            if not value > current:
                break
            step *= 0.5
        else:
            stop = "no_step"
            break
        nodes, edges, cell = moved
        current, solution = value, candidate_solution
        history.append(current)
        previous = move, grad

    lat = replace(lat, nodes=nodes, edges=edges)
    final = homogenize(lat, mat)
    return DesignTrace(
        objective_history=history,
        final_lattice=lat,
        final_stiffness=final.stiffness,
        solves=solves + 1,  # with the final homogenize
        stop=stop,
    )
