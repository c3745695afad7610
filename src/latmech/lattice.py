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

import numpy as np

from . import sampling
from .tensor4 import _row_norms, check_rotation

_EDGE_LENGTH_TOL = 1e-9  # in units of det(A)^(1/3)


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
        volume = _cell_volume(self.name, cell)
        nodes, edges = _checked_graph(self.name, self.nodes, self.edges, self.radius)
        object.__setattr__(self, "cell", cell)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "radius", float(self.radius))
        _check_lengths(self.name, cell, volume, nodes, edges)

    @property
    def node_count(self) -> int:
        return self.nodes.shape[0]

    @property
    def edge_count(self) -> int:
        return self.edges.shape[0]


def _cell_volume(name: str, cell: np.ndarray) -> float:
    """det(A) of a float cell A, checked: finite 3x3, det(A) > 1e-12 prod |A_k|."""
    if cell.shape != (3, 3) or not np.isfinite(cell).all():
        raise ValueError(f"lattice {name!r}: cell must be a finite 3x3 matrix")
    volume = np.linalg.det(cell)
    if volume <= 1e-12 * math.prod(math.hypot(*column) for column in cell.T.tolist()):
        raise ValueError(f"lattice {name!r}: cell must have positive determinant")
    return volume


def _checked_graph(name: str, nodes, edges, radius) -> tuple[np.ndarray, np.ndarray]:
    """The checked (nodes, edges) of a lattice, with its radius: the fields a rotation keeps."""
    nodes = np.asarray(nodes, dtype=float).reshape(-1, 3)
    edges = np.asarray(edges, dtype=int).reshape(-1, 5)
    if nodes.shape[0] == 0:
        raise ValueError(f"lattice {name!r}: needs at least one node")
    if not np.isfinite(nodes).all():
        raise ValueError(f"lattice {name!r}: non-finite node coordinates")
    if nodes.min() < 0.0 or nodes.max() >= 1.0:
        bad = int(np.argwhere((nodes < 0.0) | (nodes >= 1.0))[0][0])
        raise ValueError(f"lattice {name!r}: node {bad} outside the reduced cell [0, 1)")
    if not (radius > 0.0 and math.isfinite(radius)):
        raise ValueError(f"lattice {name!r}: radius must be positive")
    if edges.size and (edges[:, :2].min() < 0 or edges[:, :2].max() >= nodes.shape[0]):
        raise ValueError(f"lattice {name!r}: edge references a missing node")
    canonical = _canonical_edges(edges)
    # a set of row tuples is the cheapest repeat test on cells of a few edges
    if len(set(map(tuple, canonical.tolist()))) < len(canonical):
        _, first, inverse = np.unique(canonical, axis=0, return_index=True, return_inverse=True)
        bad = np.flatnonzero(first[inverse.reshape(-1)] != np.arange(len(canonical)))[0]
        raise ValueError(f"lattice {name!r}: duplicate edge {tuple(edges[bad].tolist())}")
    return nodes, edges


def _check_lengths(name: str, cell, volume: float, nodes, edges) -> None:
    """Reject a strut no longer than ``_EDGE_LENGTH_TOL * det(A)^(1/3)``."""
    lengths = _row_norms(_strut_vectors(cell, nodes, edges))
    if edges.size and lengths.min() <= _EDGE_LENGTH_TOL * np.cbrt(volume):
        bad = int(np.argmin(lengths))
        raise ValueError(f"lattice {name!r}: edge {bad} has near-zero length {lengths.min():.3e}")


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


# row (i, j, t) -> its reverse (j, i, -t); weights that make the sign of a
# row difference dotted with them the sign of the lexicographic comparison
_REVERSE = np.array(
    [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0], [0, 0, -1, 0, 0], [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]]
)
_LEX_WEIGHTS = np.array([16, 8, 4, 2, 1])


def _canonical_edges(edges: np.ndarray) -> np.ndarray:
    """(E, 5) rows: each edge (i, j, t) or its reverse (j, i, -t), whichever
    is lexicographically smaller, so both orientations of a strut agree."""
    reverse = edges @ _REVERSE
    flip = np.sign(reverse - edges) @ _LEX_WEIGHTS < 0
    return np.where(flip[:, None], reverse, edges)


def edge_matrix(lat: Lattice) -> np.ndarray:
    """(E, 3) array of transformed strut vectors."""
    return _strut_vectors(lat.cell, lat.nodes, lat.edges)


def _strut_vectors(cell: np.ndarray, nodes: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """:func:`edge_matrix`, from a lattice's fields."""
    return (nodes[edges[:, 1]] - nodes[edges[:, 0]] + edges[:, 2:]) @ cell.T


def edge_lengths(lat: Lattice) -> np.ndarray:
    return np.linalg.norm(edge_matrix(lat), axis=1)


def relative_density(lat: Lattice) -> float:
    """Strut volume fraction: sum of pi r^2 L over det(A), no joint correction."""
    volume = np.linalg.det(lat.cell)
    return float(math.pi * lat.radius**2 * edge_lengths(lat).sum() / volume)


def rotate_lattice(lat: Lattice, r) -> Lattice:
    """Rigid rotation of the embedding: cell <- R A, reduced data unchanged.

    Only the rotation, the cell and the strut lengths are checked: the nodes,
    edges and radius are the lattice's own, so verdicts and messages are a
    full rebuild's."""
    return _rotated(lat, check_rotation(r))


def _rotated(lat: Lattice, r: np.ndarray) -> Lattice:
    """:func:`rotate_lattice` by a rotation ``r`` that is already checked."""
    cell = r @ lat.cell
    _check_lengths(lat.name, cell, _cell_volume(lat.name, cell), lat.nodes, lat.edges)
    return _unchecked(lat, cell=cell)


def _unchecked(lat: Lattice, **fields) -> Lattice:
    """``lat`` with ``fields`` replaced, built without a lattice's checks:
    the caller has made those that the new fields need."""
    changed = object.__new__(type(lat))
    vars(changed).update(vars(lat), **fields)
    return changed


def tessellate(lat: Lattice, n: int) -> Lattice:
    """n x n x n supercell describing the identical infinite structure."""
    if n < 1:
        raise ValueError("tessellation factor must be a positive integer")
    if n == 1:
        return lat
    # copy k sits at offset (a, b, c) with k = (a n + b) n + c
    offsets = np.indices((n, n, n)).reshape(3, -1).T
    n_nodes = lat.node_count
    new_nodes = ((lat.nodes + offsets[:, None]) / n).reshape(-1, 3)
    target = offsets[:, None] + lat.edges[:, 2:]  # (copies, E, 3)
    tails = np.arange(len(offsets))[:, None] * n_nodes + lat.edges[:, 0]
    heads = (target % n) @ np.array([n * n, n, 1]) * n_nodes + lat.edges[:, 1]
    new_edges = np.concatenate([tails[..., None], heads[..., None], target // n], axis=2)
    return Lattice(
        name=f"{lat.name}_x{n}",
        cell=n * lat.cell,
        nodes=new_nodes,
        edges=new_edges.reshape(-1, 5),
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
    nodes, edges = _folded(np.linalg.inv(lat.cell), lat.nodes, lat.edges, deltas)
    return replace(lat, nodes=nodes, edges=edges)


def _folded(inverse: np.ndarray, nodes: np.ndarray, edges: np.ndarray, deltas: np.ndarray):
    """The ``(nodes, edges)`` of :func:`displace_nodes`, from fields and the cell inverse."""
    reduced = nodes + deltas @ inverse.T
    wraps = np.floor(reduced).astype(int)
    folded = reduced - wraps
    # floor can leave a coordinate at exactly 1.0 after cancellation
    over = folded >= 1.0
    wraps += over.astype(int)
    folded = np.where(over, folded - 1.0, folded)
    edges = edges.copy()
    edges[:, 2:] += wraps[edges[:, 1]] - wraps[edges[:, 0]]
    return folded, edges


def check_perturbation(level: float, count: int = 0) -> None:
    """Reject a level that is not finite and nonnegative, or a negative count."""
    if not 0.0 <= level < math.inf:
        raise ValueError("perturbation level must be finite and nonnegative")
    if count < 0:
        raise ValueError("realization count must be nonnegative")


def perturb(lat: Lattice, level: float, seed: int) -> Lattice:
    """Displace every node by exactly ``level`` along an independent random direction.

    Node k's direction comes from the counter-based stream (seed, k), drawn
    by one generator re-keyed node to node, so realizations are reproducible
    across platforms.  Lattices with a single fundamental node cannot be
    meaningfully perturbed and are rejected.
    """
    if lat.node_count < 2:
        raise ValueError(f"lattice {lat.name!r}: perturbation needs at least 2 nodes")
    check_perturbation(level)
    if level == 0.0:
        return lat
    dirs = sampling._unit_draws(seed, sampling.DOMAIN_PERTURBATION, 0, lat.node_count, 3)
    return displace_nodes(lat, level * dirs)


def perturbed_realizations(lat: Lattice, level: float, seed: int, count: int) -> list[Lattice]:
    """``count`` perturbations of ``lat``; realization ``k`` uses seed ``seed + k``
    and is named ``<name>_l<level>_r<k>``.  Each is checked once: no check
    reads the name but to quote it."""
    check_perturbation(level, count)
    return [
        _unchecked(perturb(lat, level, seed + k), name=f"{lat.name}_l{level:g}_r{k}")
        for k in range(count)
    ]


def _crossings(p: np.ndarray, q: np.ndarray) -> list[float]:
    """Sorted parameters s in (1e-12, 1 - 1e-12) where p + s (q - p) meets an
    integer plane; parameters less than 1e-12 apart count once, at the first."""
    found = []
    for axis in range(3):
        dp = q[axis] - p[axis]
        if abs(dp) >= 1e-14:
            start, stop = sorted((p[axis], q[axis]))
            for plane in range(math.floor(start) + 1, math.ceil(stop + 1e-14)):
                found.append((plane - p[axis]) / dp)
    crossings: list[float] = []
    for s in sorted(found):
        if 1e-12 < s < 1.0 - 1e-12 and (not crossings or s - crossings[-1] >= 1e-12):
            crossings.append(s)
    return crossings


def window(lat: Lattice) -> WindowedLattice:
    """Windowed representation: split edges at periodic boundary crossings.

    A strut's pieces lie between its :func:`_crossings`, each in the cell
    that holds its midpoint, so every windowed node lies in the closed cell.
    Each crossing, and each strut end outside its piece's cell, adds an
    image node recorded in ``periodic_pairs``.
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
        cuts = _crossings(p, q)
        bounds = np.array([0.0, *cuts, 1.0])
        offsets = np.floor(p + 0.5 * (bounds[:-1] + bounds[1:])[:, None] * (q - p)).astype(int)
        tail = int(i)
        if offsets[0].any():
            tail = new_node(p - offsets[0])
            pairs.append((int(i), tail, cell @ (p - offsets[0]) - positions[i]))
        for s, offset, following in zip(cuts, offsets, offsets[1:]):
            y = p + s * (q - p)
            far = new_node(y - offset)
            elements.append((tail, far))
            tail = new_node(y - following)
            pairs.append((tail, far, cell @ (following - offset).astype(float)))
        head = int(j)
        if np.any(offsets[-1] != t):
            head = new_node(q - offsets[-1])
            pairs.append((int(j), head, cell @ (t - offsets[-1]).astype(float)))
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


def _jump(after: np.ndarray, values: np.ndarray, error: str) -> tuple[np.ndarray, np.ndarray]:
    """Each item's last item along successor links, and ``values`` summed to it.

    ``after[i]`` is the item after i, or ``len(after)`` where i ends its
    chain.  Pointer jumping ends a chain of k items in ceil(log2 k) jumps;
    links that close a loop never end and raise ``ValueError(error)``.
    """
    count = len(after)
    jump = np.append(after, count)
    last = np.arange(count + 1)
    total = np.vstack([values, np.zeros((1, values.shape[1]))])
    for _ in range(count.bit_length()):
        if np.all(jump == count):
            break
        last = np.where(jump < count, last[jump], last)
        total, jump = total + total[jump], jump[jump]
    if np.any(jump != count):
        raise ValueError(error)
    return last[:count], total[:count]


def _resolve_master(win: WindowedLattice) -> tuple[np.ndarray, np.ndarray]:
    """Root master of every windowed node and the accumulated separation to it.

    Returns ``(root, sep)`` of shapes (M,) and (M, 3), with
    x_node = x_root + sep; a node that is no pair's slave is its own root.
    """
    master = np.full(len(win.nodes), len(win.nodes))
    sep = np.zeros((len(win.nodes), 3))
    if win.periodic_pairs:
        masters, slaves, separations = zip(*win.periodic_pairs)
        master[list(slaves)] = masters
        sep[list(slaves)] = separations
    return _jump(master, sep, "periodic pairs form a closed loop")


def _cut_chains(win: WindowedLattice) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The struts a windowed view was cut from: one per chain of pieces.

    A piece whose tail resolves to a fundamental node starts a chain; one
    whose head resolves to an image continues into the piece whose tail
    resolves to that image.  Returns ``(ends, offsets, vectors)``, a row per
    chain in the order of its first piece: the fundamental tail and head
    (S, 2), each end's offset from its node (S, 2, 3; the tail's separation
    and the chain's summed head separations) and the summed pieces (S, 3).
    """
    n_fund = win.fundamental_count
    root, sep = _resolve_master(win)
    tails, heads = win.elements.T
    count = len(tails)
    uses = np.bincount(tails[tails >= n_fund], minlength=n_fund)
    if uses.max(initial=0) > 1:
        raise ValueError(f"windowed node {int(uses.argmax())} is the tail of two elements")
    starts = root[tails] < n_fund
    # piece index count, one past the last, marks the end of a chain
    following = np.full(len(win.nodes), count)
    following[root[tails[~starts]]] = np.flatnonzero(~starts)
    successor = following[root[heads]]
    pieces = np.hstack([sep[heads], win.nodes[heads] - win.nodes[tails]])
    unreachable = "windowed elements contain pieces not reachable from any chain"
    last, total = _jump(successor, pieces, unreachable)
    if not np.array_equal(np.bincount(successor, minlength=count + 1)[:count], ~starts):
        raise ValueError(unreachable)
    first = np.flatnonzero(starts)
    ends = np.stack([root[tails[first]], root[heads[last[first]]]], axis=1)
    offsets = np.stack([sep[tails[first]], total[first, :3]], axis=1)
    return ends, offsets, total[first, 3:]


def fold(win: WindowedLattice) -> Lattice:
    """Reconstruct the fundamental lattice from a windowed representation.

    Each chain of pieces (see :func:`_cut_chains`) becomes one edge, whose
    shift is the lattice vector between its two end offsets.
    """
    ends, offsets, _vectors = _cut_chains(win)
    inv_cell = np.linalg.inv(win.cell)
    shift = (offsets[:, 1] - offsets[:, 0]) @ inv_cell.T
    rounded = np.rint(shift)
    if np.abs(shift - rounded).max(initial=0.0) > 1e-9:
        raise ValueError("periodic pair separation is not a lattice vector")

    reduced = (inv_cell @ win.nodes[: win.fundamental_count].T).T
    # the inverse transform reintroduces roundoff: a coordinate within 1e-12
    # of the face at 0 goes onto it, and one that reaches the face at 1 stays
    # just inside the half-open cell [0, 1)
    reduced[np.abs(reduced) < 1e-12] = 0.0
    reduced[(reduced >= 1.0) & (reduced < 1.0 + 1e-12)] = np.nextafter(1.0, 0.0)
    return Lattice(
        name=win.name,
        cell=win.cell,
        nodes=reduced,
        edges=np.hstack([ends, rounded.astype(int)]),
        radius=win.radius,
    )


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
