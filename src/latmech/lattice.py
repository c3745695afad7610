"""Periodic strut-lattice unit cells.

A lattice is stored in its fundamental representation: lattice vectors
``A`` (columns of ``cell``), fundamental nodes in reduced coordinates
``0 <= x_i < 1``, and a multiset of edges ``(i, j, shift)`` where the
integer shift vector makes the strut span ``A (x_j - x_i + shift)``.
The windowed representation duplicates boundary crossings so every
element lies inside the cell; the two views are interconvertible.

Transformed (physical) coordinates are ``A x``; all lengths and
perturbation levels are expressed in transformed coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import sampling
from .tensor4 import check_rotation

_EDGE_LENGTH_TOL = 1e-9
_BOUNDARY_TOL = 1e-9


class NodeType(Enum):
    INNER = "inner"
    FACE = "face"
    EDGE = "edge"
    CORNER = "corner"


@dataclass(frozen=True)
class Lattice:
    """Fundamental representation of a periodic strut lattice.

    ``cell`` holds the lattice vectors as columns; ``nodes`` is an (N, 3)
    array of reduced coordinates in [0, 1); ``edges`` is an (E, 5) integer
    array of rows ``(i, j, tx, ty, tz)``; ``radius`` is the strut radius in
    the same length units as the cell.
    """

    name: str
    cell: np.ndarray
    nodes: np.ndarray
    edges: np.ndarray
    radius: float

    def __post_init__(self):
        cell = np.asarray(self.cell, dtype=float)
        nodes = np.asarray(self.nodes, dtype=float).reshape(-1, 3)
        edges = np.asarray(self.edges, dtype=int).reshape(-1, 5)
        if cell.shape != (3, 3) or not np.all(np.isfinite(cell)):
            raise ValueError(f"lattice {self.name!r}: cell must be a finite 3x3 matrix")
        if np.linalg.det(cell) <= 1e-12:
            raise ValueError(f"lattice {self.name!r}: cell must have positive determinant")
        if nodes.shape[0] == 0:
            raise ValueError(f"lattice {self.name!r}: needs at least one node")
        if not np.all(np.isfinite(nodes)):
            raise ValueError(f"lattice {self.name!r}: non-finite node coordinates")
        if np.any(nodes < 0.0) or np.any(nodes >= 1.0):
            bad = int(np.argwhere((nodes < 0.0) | (nodes >= 1.0))[0][0])
            raise ValueError(
                f"lattice {self.name!r}: node {bad} outside the reduced cell [0, 1)"
            )
        if not (self.radius > 0.0 and math.isfinite(self.radius)):
            raise ValueError(f"lattice {self.name!r}: radius must be positive")
        n = nodes.shape[0]
        if edges.shape[0] == 0:
            edges = edges.reshape(0, 5)
        if edges.size and (edges[:, :2].min() < 0 or edges[:, :2].max() >= n):
            raise ValueError(f"lattice {self.name!r}: edge references a missing node")
        seen: set[tuple] = set()
        for row in edges:
            key = _canonical_edge_key(row)
            if key in seen:
                raise ValueError(
                    f"lattice {self.name!r}: duplicate edge {tuple(int(v) for v in row)}"
                )
            seen.add(key)
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "radius", float(self.radius))
        lengths = np.linalg.norm(edge_matrix(self), axis=1) if edges.size else np.array([])
        if lengths.size and lengths.min() <= _EDGE_LENGTH_TOL:
            bad = int(np.argmin(lengths))
            raise ValueError(
                f"lattice {self.name!r}: edge {bad} has near-zero length {lengths.min():.3e}"
            )

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]

    def transformed_nodes(self) -> np.ndarray:
        """Physical node positions A x, shape (N, 3)."""
        return self.nodes @ self.cell.T


@dataclass(frozen=True)
class WindowedLattice:
    """Unit-cell view with boundary crossings materialized as image nodes.

    ``nodes`` are transformed coordinates (fundamental nodes first),
    ``elements`` are (tail, head) index pairs, and ``periodic_pairs`` are
    ``(master, slave, separation)`` triples with the separation equal to an
    integer combination of lattice vectors: x_slave = x_master + separation.
    """

    nodes: np.ndarray
    elements: np.ndarray
    periodic_pairs: tuple
    cell: np.ndarray
    fundamental_count: int
    name: str
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "nodes", np.asarray(self.nodes, dtype=float).reshape(-1, 3))
        object.__setattr__(self, "elements", np.asarray(self.elements, dtype=int).reshape(-1, 2))
        object.__setattr__(self, "cell", np.asarray(self.cell, dtype=float))


def _canonical_edge_key(row) -> tuple:
    i, j = int(row[0]), int(row[1])
    t = (int(row[2]), int(row[3]), int(row[4]))
    forward = (i, j, t)
    backward = (j, i, (-t[0], -t[1], -t[2]))
    return min(forward, backward)


def classify_node(x) -> NodeType:
    """Node type from the number of reduced coordinates on the cell boundary."""
    x = np.asarray(x, dtype=float)
    if x.shape != (3,):
        raise ValueError("reduced coordinate must be a 3-vector")
    if np.any(x < -_BOUNDARY_TOL) or np.any(x > 1.0 + _BOUNDARY_TOL):
        raise ValueError(f"reduced coordinate {x} outside [0, 1]")
    on_boundary = int(np.sum((np.abs(x) <= _BOUNDARY_TOL) | (np.abs(x - 1.0) <= _BOUNDARY_TOL)))
    return (NodeType.INNER, NodeType.FACE, NodeType.EDGE, NodeType.CORNER)[on_boundary]


def edge_vector(lat: Lattice, edge) -> np.ndarray:
    """Transformed strut vector A (x_j - x_i + shift) for one edge."""
    e = np.asarray(edge, dtype=int).reshape(5)
    i, j = int(e[0]), int(e[1])
    if not (0 <= i < lat.node_count and 0 <= j < lat.node_count):
        raise ValueError(f"edge ({i}, {j}) references a missing node")
    return lat.cell @ (lat.nodes[j] - lat.nodes[i] + e[2:].astype(float))


def edge_matrix(lat: Lattice) -> np.ndarray:
    """(E, 3) array of transformed strut vectors."""
    if lat.edge_count == 0:
        return np.zeros((0, 3))
    diff = lat.nodes[lat.edges[:, 1]] - lat.nodes[lat.edges[:, 0]] + lat.edges[:, 2:]
    return diff @ lat.cell.T


def edge_lengths(lat: Lattice) -> np.ndarray:
    return np.linalg.norm(edge_matrix(lat), axis=1)


def relative_density(lat: Lattice) -> float:
    """Strut volume fraction: sum of pi r^2 L over det(A), no joint correction."""
    volume = np.linalg.det(lat.cell)
    if volume <= 0.0:
        raise ValueError(f"lattice {lat.name!r}: degenerate cell (det <= 0)")
    return float(math.pi * lat.radius**2 * edge_lengths(lat).sum() / volume)


def rotate_lattice(lat: Lattice, r) -> Lattice:
    """Rigid rotation of the embedding: cell <- R A, reduced data unchanged."""
    r = check_rotation(r)
    return replace(lat, cell=r @ lat.cell)


def tessellate(lat: Lattice, n: int) -> Lattice:
    """n x n x n supercell describing the identical infinite structure."""
    if n < 1:
        raise ValueError("tessellation factor must be a positive integer")
    if n == 1:
        return lat
    offsets = np.array(
        [(a, b, c) for a in range(n) for b in range(n) for c in range(n)], dtype=int
    )
    n_nodes = lat.node_count
    new_nodes = np.concatenate([(lat.nodes + o) / n for o in offsets])
    offset_of = {tuple(o): k for k, o in enumerate(offsets)}
    new_edges = []
    for o in offsets:
        base = offset_of[tuple(o)] * n_nodes
        for i, j, *t in lat.edges:
            target = o + np.asarray(t, dtype=int)
            wrapped = target % n
            carry = (target - wrapped) // n
            new_edges.append(
                (base + i, offset_of[tuple(wrapped)] * n_nodes + j, *carry)
            )
    return Lattice(
        name=f"{lat.name}_x{n}",
        cell=n * lat.cell,
        nodes=new_nodes,
        edges=np.asarray(new_edges, dtype=int),
        radius=lat.radius,
    )


def displace_nodes(lat: Lattice, deltas) -> Lattice:
    """Move nodes by transformed-coordinate displacements, refolding into [0, 1).

    Wrap offsets are pushed into the incident edge shifts so the edge
    multiset keeps describing the same periodic connectivity.
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (lat.node_count, 3):
        raise ValueError(f"expected ({lat.node_count}, 3) displacements")
    reduced = lat.nodes + deltas @ np.linalg.inv(lat.cell).T
    wraps = np.floor(reduced).astype(int)
    folded = reduced - wraps
    # floor can leave a coordinate at exactly 1.0 after cancellation
    over = folded >= 1.0
    wraps += over.astype(int)
    folded = np.where(over, folded - 1.0, folded)
    edges = lat.edges.copy()
    if edges.size:
        edges[:, 2:] += wraps[edges[:, 1]] - wraps[edges[:, 0]]
    return replace(lat, nodes=folded, edges=edges)


def perturb(lat: Lattice, level: float, seed: int) -> Lattice:
    """Displace every node by exactly ``level`` along an independent random direction.

    Directions come from the counter-based stream keyed by (seed, node
    index), so realizations are reproducible across platforms.  Lattices
    with a single fundamental node cannot be meaningfully perturbed and
    are rejected.
    """
    if lat.node_count < 2:
        raise ValueError(f"lattice {lat.name!r}: perturbation needs at least 2 nodes")
    if level < 0.0:
        raise ValueError("perturbation level must be nonnegative")
    if level == 0.0:
        return lat
    dirs = np.array(
        [sampling.unit_vector(seed, k, sampling.DOMAIN_PERTURBATION) for k in range(lat.node_count)]
    )
    return displace_nodes(lat, level * dirs)


def perturbed_realizations(lat: Lattice, level: float, seed: int, count: int) -> list[Lattice]:
    """``count`` perturbations of ``lat``; realization ``k`` uses seed ``seed + k``
    and is named ``<name>_l<level>_r<k>``."""
    return [
        replace(perturb(lat, level, seed + k), name=f"{lat.name}_l{level:g}_r{k}")
        for k in range(count)
    ]


def _crossing_groups(p: np.ndarray, q: np.ndarray) -> list[tuple[float, list[tuple[int, int]]]]:
    """Sorted parameters s in (0, 1) where p + s (q - p) hits an integer plane.

    Each group is (s, [(axis, direction), ...]); simultaneous crossings
    (cell edges and corners) are merged into one group.
    """
    crossings: list[tuple[float, int, int]] = []
    for axis in range(3):
        dp = q[axis] - p[axis]
        if abs(dp) < 1e-14:
            continue
        direction = 1 if dp > 0 else -1
        start, stop = sorted((p[axis], q[axis]))
        first = math.floor(start) + 1
        plane = first
        while plane < stop + 1e-14:
            s = (plane - p[axis]) / dp
            if 1e-12 < s < 1.0 - 1e-12:
                crossings.append((s, axis, direction))
            plane += 1
    crossings.sort()
    groups: list[tuple[float, list[tuple[int, int]]]] = []
    for s, axis, direction in crossings:
        if groups and abs(s - groups[-1][0]) < 1e-12:
            groups[-1][1].append((axis, direction))
        else:
            groups.append((s, [(axis, direction)]))
    return groups


def window(lat: Lattice) -> WindowedLattice:
    """Windowed representation: split edges at periodic boundary crossings.

    Every crossing introduces a fresh exit/entry image-node pair recorded
    in ``periodic_pairs``; edges with zero shift pass through unchanged.
    """
    cell = lat.cell
    positions = [cell @ x for x in lat.nodes]
    elements: list[tuple[int, int]] = []
    pairs: list[tuple[int, int, np.ndarray]] = []

    def new_node(reduced_point: np.ndarray) -> int:
        positions.append(cell @ reduced_point)
        return len(positions) - 1

    for i, j, *t in lat.edges:
        p = lat.nodes[i].astype(float)
        q = lat.nodes[j] + np.asarray(t, dtype=float)
        # Cell currently containing the walk; a start exactly on a face
        # with the walk leaving through it belongs to the neighbor cell.
        offset = np.zeros(3, dtype=int)
        for axis in range(3):
            if abs(p[axis] - round(p[axis])) < 1e-12 and q[axis] < p[axis] - 1e-12:
                offset[axis] = int(round(p[axis])) - 1
            else:
                offset[axis] = math.floor(p[axis] + 1e-12)
        if np.any(offset != 0):
            tail = new_node(p - offset)
            pairs.append((int(i), tail, cell @ (p - offset) - positions[i]))
        else:
            tail = int(i)
        for s, axes in _crossing_groups(p, q):
            y = p + s * (q - p)
            far = new_node(y - offset)
            elements.append((tail, far))
            step = np.zeros(3, dtype=int)
            for axis, direction in axes:
                step[axis] = direction
            near = new_node(y - (offset + step))
            pairs.append((near, far, cell @ step.astype(float)))
            tail = near
            offset = offset + step
        shift = np.asarray(t, dtype=int)
        if np.array_equal(offset, shift):
            head = int(j)
        else:
            head = new_node(q - offset)
            pairs.append((int(j), head, cell @ (shift - offset).astype(float)))
        elements.append((tail, head))

    return WindowedLattice(
        nodes=np.asarray(positions),
        elements=np.asarray(elements, dtype=int).reshape(-1, 2),
        periodic_pairs=tuple((m, s, np.asarray(v, dtype=float)) for m, s, v in pairs),
        cell=cell,
        fundamental_count=lat.node_count,
        name=lat.name,
        radius=lat.radius,
    )


def fold(win: WindowedLattice) -> Lattice:
    """Reconstruct the fundamental lattice from a windowed representation.

    Walks element chains through the periodic pairs; every image node has
    exactly one incident element and one pair partner, so the chains are
    unambiguous.
    """
    n_fund = win.fundamental_count
    inv_cell = np.linalg.inv(win.cell)

    def integer_shift(separation: np.ndarray) -> np.ndarray:
        shift = inv_cell @ separation
        rounded = np.rint(shift).astype(int)
        if np.abs(shift - rounded).max() > 1e-9:
            raise ValueError("periodic pair separation is not a lattice vector")
        return rounded

    partner: dict[int, tuple[int, np.ndarray]] = {}
    for master, slave, sep in win.periodic_pairs:
        partner[slave] = (master, integer_shift(np.asarray(sep)))

    element_by_tail: dict[int, int] = {}
    starts: list[int] = []
    for idx, (tail, _head) in enumerate(win.elements):
        if tail < n_fund:
            starts.append(idx)
            continue
        if tail in element_by_tail:
            raise ValueError(f"windowed node {tail} is the tail of two elements")
        element_by_tail[tail] = idx
        # An image tail that is itself a pair slave starts a chain (the
        # fundamental node sits on a face and the edge leaves through it).
        if tail in partner:
            starts.append(idx)

    visited = set()
    edges: list[tuple[int, int, int, int, int]] = []
    for start in starts:
        if start in visited:
            continue
        idx = start
        tail = int(win.elements[idx][0])
        shift = np.zeros(3, dtype=int)
        if tail >= n_fund:
            master, step = partner[tail]
            if master >= n_fund:
                raise ValueError("chain starts at an image of a non-fundamental node")
            shift -= step
            tail = master
        while True:
            visited.add(idx)
            head = int(win.elements[idx][1])
            if head < n_fund:
                edges.append((tail, head, int(shift[0]), int(shift[1]), int(shift[2])))
                break
            master, step = partner[head]
            shift += step
            if master < n_fund:
                edges.append((tail, master, int(shift[0]), int(shift[1]), int(shift[2])))
                break
            idx = element_by_tail[master]
    if len(visited) != len(win.elements):
        raise ValueError("windowed elements contain pieces not reachable from any chain")

    reduced = (inv_cell @ win.nodes[:n_fund].T).T
    # the inverse transform reintroduces roundoff at exact-zero coordinates
    near_int = np.rint(reduced)
    snap = np.abs(reduced - near_int) < 1e-12
    reduced[snap] = near_int[snap]
    return Lattice(
        name=win.name,
        cell=win.cell,
        nodes=reduced,
        edges=np.asarray(edges, dtype=int).reshape(-1, 5),
        radius=win.radius,
    )


def edge_multiset(lat: Lattice) -> dict:
    """Canonical multiset of edges, orientation-insensitive."""
    counts: dict[tuple, int] = {}
    for row in lat.edges:
        key = _canonical_edge_key(row)
        counts[key] = counts.get(key, 0) + 1
    return counts


# ---------------------------------------------------------------------------
# Canonical catalogue lattices
# ---------------------------------------------------------------------------


def simple_cubic(radius: float = 0.05, a: float = 1.0) -> Lattice:
    """One node, three axis-aligned self-struts across the periodic boundary."""
    return Lattice(
        name="simple_cubic",
        cell=a * np.eye(3),
        nodes=np.array([[0.5, 0.5, 0.5]]),
        edges=np.array(
            [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]], dtype=int
        ),
        radius=radius,
    )


def body_centred_cubic(radius: float = 0.05, a: float = 1.0) -> Lattice:
    """Corner and centre nodes joined by the eight body-diagonal half-struts."""
    edges = [[1, 0, tx, ty, tz] for tx in (0, 1) for ty in (0, 1) for tz in (0, 1)]
    return Lattice(
        name="bcc",
        cell=a * np.eye(3),
        nodes=np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]]),
        edges=np.asarray(edges, dtype=int),
        radius=radius,
    )


def diamond(radius: float = 0.05, a: float = 1.0) -> Lattice:
    """Two-node diamond network in the rhombohedral (FCC primitive) cell."""
    cell = a * np.array([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    return Lattice(
        name="diamond",
        cell=cell,
        nodes=np.array([[0.0, 0.0, 0.0], [0.25, 0.25, 0.25]]),
        edges=np.array(
            [
                [0, 1, 0, 0, 0],
                [1, 0, 1, 0, 0],
                [1, 0, 0, 1, 0],
                [1, 0, 0, 0, 1],
            ],
            dtype=int,
        ),
        radius=radius,
    )
