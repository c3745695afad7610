import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latmech import sampling
from latmech.lattice import (
    Lattice,
    NodeType,
    body_centred_cubic,
    classify_node,
    diamond,
    edge_lengths,
    edge_multiset,
    edge_vector,
    fold,
    perturb,
    perturbed_realizations,
    relative_density,
    rotate_lattice,
    simple_cubic,
    tessellate,
    window,
)

from conftest import PERTURBED_CELLS, SKEW, perturbed_cell


def min_image_distance(cell: np.ndarray, displacement: np.ndarray) -> float:
    """Length of a displacement modulo lattice translations."""
    best = np.inf
    for tx in (-1, 0, 1):
        for ty in (-1, 0, 1):
            for tz in (-1, 0, 1):
                shift = cell @ np.array([tx, ty, tz], dtype=float)
                best = min(best, np.linalg.norm(displacement + shift))
    return best


def canonical_edge_key_reference(row) -> tuple:
    """Orientation-free key of one edge row, as a tuple minimum."""
    i, j = int(row[0]), int(row[1])
    t = (int(row[2]), int(row[3]), int(row[4]))
    return min((i, j, t), (j, i, (-t[0], -t[1], -t[2])))


def edge_multiset_reference(lat: Lattice) -> dict:
    counts: dict[tuple, int] = {}
    for row in lat.edges:
        key = canonical_edge_key_reference(row)
        counts[key] = counts.get(key, 0) + 1
    return counts


def edge_error_reference(name: str, node_count: int, edges) -> str | None:
    """The message ``Lattice`` gives for an edge list, one row at a time;
    None when it is accepted.  Assumes distinct nodes, so only a self-edge
    without a shift has zero length."""
    if any(not (0 <= v < node_count) for row in edges for v in row[:2]):
        return f"lattice {name!r}: edge references a missing node"
    seen = set()
    for row in edges:
        key = canonical_edge_key_reference(row)
        if key in seen:
            return f"lattice {name!r}: duplicate edge {tuple(int(v) for v in row)}"
        seen.add(key)
    for k, (i, j, *t) in enumerate(edges):
        if i == j and not any(t):
            return f"lattice {name!r}: edge {k} has near-zero length 0.000e+00"
    return None


def tessellate_reference(lat: Lattice, n: int) -> Lattice:
    """Supercell built by looping over copies and edges."""
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
            new_edges.append((base + i, offset_of[tuple(wrapped)] * n_nodes + j, *carry))
    return Lattice(
        name=f"{lat.name}_x{n}",
        cell=n * lat.cell,
        nodes=new_nodes,
        edges=np.asarray(new_edges, dtype=int),
        radius=lat.radius,
    )


class TestClassifyNode:
    def test_inner(self):
        assert classify_node([0.5, 0.5, 0.5]) is NodeType.INNER

    def test_face(self):
        assert classify_node([0.0, 0.3, 0.7]) is NodeType.FACE

    def test_edge(self):
        assert classify_node([0.0, 1.0, 0.7]) is NodeType.EDGE

    def test_corner(self):
        assert classify_node([1.0, 1.0, 1.0]) is NodeType.CORNER

    def test_boundary_tolerance(self):
        assert classify_node([1e-10, 0.5, 0.5]) is NodeType.FACE

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            classify_node([0.5, bad, 0.5])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            classify_node([1.5, 0.0, 0.0])


class TestEdgeVector:
    def test_self_edge_unit_cell(self):
        lat = simple_cubic()
        np.testing.assert_allclose(edge_vector(lat, [0, 0, 1, 0, 0]), [1.0, 0.0, 0.0])

    def test_zero_shift_difference(self):
        lat = body_centred_cubic()
        np.testing.assert_allclose(edge_vector(lat, [1, 0, 0, 0, 0]), [-0.5, -0.5, -0.5])

    def test_linear_in_cell(self):
        lat = simple_cubic(a=2.0)
        np.testing.assert_allclose(edge_vector(lat, [0, 0, 1, 0, 0]), [2.0, 0.0, 0.0])

    def test_rejects_dangling_index(self):
        with pytest.raises(ValueError, match="missing node"):
            edge_vector(simple_cubic(), [0, 5, 0, 0, 0])


class TestLatticeInvariants:
    def test_rejects_node_outside_cell(self):
        with pytest.raises(ValueError, match="outside"):
            Lattice("bad", np.eye(3), [[1.0, 0.5, 0.5]], np.zeros((0, 5), dtype=int), 0.05)

    def test_rejects_zero_length_edge(self):
        with pytest.raises(ValueError, match="length"):
            Lattice("bad", np.eye(3), [[0.5, 0.5, 0.5]], [[0, 0, 0, 0, 0]], 0.05)

    def test_rejects_duplicate_edges_same_shift(self):
        with pytest.raises(ValueError, match="duplicate"):
            Lattice(
                "bad",
                np.eye(3),
                [[0.5, 0.5, 0.5]],
                [[0, 0, 1, 0, 0], [0, 0, 1, 0, 0]],
                0.05,
            )

    def test_rejects_reversed_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Lattice(
                "bad",
                np.eye(3),
                [[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]],
                [[0, 1, 0, 0, 0], [1, 0, 0, 0, 0]],
                0.05,
            )

    def test_allows_duplicates_with_distinct_shifts(self):
        lat = Lattice(
            "ok",
            np.eye(3),
            [[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]],
            [[0, 1, 0, 0, 0], [1, 0, 1, 0, 0]],
            0.05,
        )
        assert lat.edge_count == 2

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError, match="radius"):
            simple_cubic(radius=-0.1)

    @pytest.mark.parametrize("a", [1e-5, 1.0, 1e4])
    def test_cell_verdicts_do_not_depend_on_scale(self, a):
        assert simple_cubic(radius=0.05 * a, a=a).cell[0, 0] == a
        flat = a * np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1e-13]])
        with pytest.raises(ValueError, match="positive determinant"):
            Lattice("flat", flat, [[0.5, 0.5, 0.5]], [[0, 0, 1, 0, 0]], 0.05 * a)
        nodes = [[0.5, 0.5, 0.5], [0.5 + 1e-10, 0.5, 0.5]]
        with pytest.raises(ValueError, match="near-zero length"):
            Lattice("short", a * np.eye(3), nodes, [[0, 1, 0, 0, 0]], 0.05 * a)


class TestWindow:
    def test_simple_cubic_split(self):
        win = window(simple_cubic())
        assert win.nodes.shape[0] == 7  # centre + six face images
        assert win.elements.shape[0] == 6  # three struts halved
        assert len(win.periodic_pairs) == 3
        for master, slave, sep in win.periodic_pairs:
            # pairs join opposite faces, one lattice vector apart
            assert sorted(np.abs(sep)) == pytest.approx([0.0, 0.0, 1.0])
            np.testing.assert_allclose(
                win.nodes[slave] - win.nodes[master], sep, atol=1e-12
            )

    def test_zero_shift_lattice_unchanged(self):
        lat = Lattice(
            "pair",
            np.eye(3),
            [[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]],
            [[0, 1, 0, 0, 0]],
            0.05,
        )
        win = window(lat)
        assert win.nodes.shape[0] == 2
        assert len(win.periodic_pairs) == 0
        np.testing.assert_array_equal(win.elements, [[0, 1]])

    def test_separations_are_lattice_vectors(self, catalogue_lattices):
        for lat in catalogue_lattices:
            win = window(lat)
            inv = np.linalg.inv(lat.cell)
            for _, _, sep in win.periodic_pairs:
                shift = inv @ sep
                assert np.abs(shift - np.rint(shift)).max() < 1e-9

    def test_fold_round_trip(self, catalogue_lattices):
        for lat in catalogue_lattices:
            back = fold(window(lat))
            assert edge_multiset(back) == edge_multiset(lat)
            np.testing.assert_allclose(back.nodes, lat.nodes, atol=1e-12)

    def test_fold_round_trip_multicrossing(self):
        # Edge crossing two boundary planes at distinct parameters.
        lat = Lattice(
            "zig",
            np.eye(3),
            [[0.6, 0.3, 0.5]],
            [[0, 0, 1, 1, 0], [0, 0, 1, 0, 0]],
            0.04,
        )
        win = window(lat)
        assert win.elements.shape[0] == 2 + 3  # one crossing + two crossings
        back = fold(win)
        assert edge_multiset(back) == edge_multiset(lat)

    def test_fold_keeps_name_and_radius(self, catalogue_lattices):
        for lat in catalogue_lattices:
            back = fold(window(replace(lat, radius=0.013)))
            assert (back.name, back.radius) == (lat.name, 0.013)

    def test_fold_round_trip_perturbed(self, catalogue_lattices):
        for lat in catalogue_lattices[1:]:
            moved = perturb(lat, 0.07, seed=3)
            back = fold(window(moved))
            assert edge_multiset(back) == edge_multiset(moved)

    @pytest.mark.parametrize(
        "lat",
        [
            # the node sits on three faces and every strut leaves through one
            Lattice(
                "sc_origin",
                np.eye(3),
                [[0.0, 0.0, 0.0]],
                [[0, 0, -1, 0, 0], [0, 0, 0, -1, 0], [0, 0, 0, 0, -1]],
                0.05,
            ),
            Lattice(
                "bcc_reversed",
                np.eye(3),
                [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]],
                [[0, 1, -x, -y, -z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                0.05,
            ),
        ],
    )
    def test_fold_round_trip_from_image_tails(self, lat):
        # a strut that starts on a face and leaves through it starts its
        # windowed chain at an image of its tail node
        win = window(lat)
        assert win.elements[-1, 0] >= lat.node_count
        back = fold(win)
        np.testing.assert_array_equal(back.edges, lat.edges)
        np.testing.assert_array_equal(back.nodes, lat.nodes)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("separation", "not a lattice vector"),
            ("shared_tail", "windowed node 2 is the tail of two elements"),
            ("stray_piece", "not reachable from any chain"),
            ("closed_loop", "not reachable from any chain"),
            ("pair_loop_2", "periodic pairs form a closed loop"),
            ("pair_loop_3", "periodic pairs form a closed loop"),
            ("pair_loop_4", "periodic pairs form a closed loop"),
        ],
    )
    def test_fold_rejects_malformed_view(self, case, message):
        # window(simple_cubic()) has pieces [0, 1], [2, 0], [0, 3], [4, 0],
        # [0, 5], [6, 0] and pairs (2, 1), (4, 3), (6, 5)
        win = window(simple_cubic())
        pairs, elements, nodes = list(win.periodic_pairs), win.elements.copy(), win.nodes
        if case == "separation":
            pairs[0] = (2, 1, np.array([1.5, 0.0, 0.0]))
        elif case == "shared_tail":
            elements[3] = [2, 0]
        elif case == "stray_piece":
            # a piece from an image that no other piece leads to
            nodes = np.vstack([nodes, np.zeros((1, 3))])
            elements = np.vstack([elements, [[7, 0]]])
        elif case == "pair_loop_2":
            # images 1 -> 2 -> 1, each the slave of the next
            pairs.append((1, 2, np.array([-1.0, 0.0, 0.0])))
        elif case == "pair_loop_3":
            # images 1 -> 2 -> 3 -> 1
            pairs[1] = (1, 3, np.array([0.0, 1.0, 0.0]))
            pairs.append((3, 2, np.array([-1.0, 0.0, 0.0])))
        elif case == "pair_loop_4":
            # images 1 -> 2 -> 3 -> 4 -> 1
            pairs += [(3, 2, np.array([-1.0, 0.0, 0.0])), (1, 4, np.array([0.0, 1.0, 0.0]))]
        else:
            # pieces 7 -> 8 and 9 -> 10, each head an image of the other's tail
            nodes = np.vstack([nodes, np.zeros((4, 3))])
            elements = np.vstack([elements, [[7, 8], [9, 10]]])
            pairs += [(9, 8, np.array([1.0, 0.0, 0.0])), (7, 10, np.array([-1.0, 0.0, 0.0]))]
        malformed = replace(win, nodes=nodes, elements=elements, periodic_pairs=tuple(pairs))
        with pytest.raises(ValueError, match=message):
            fold(malformed)


class TestTessellate:
    def test_identity_factor(self):
        lat = simple_cubic()
        assert tessellate(lat, 1) is lat

    def test_counts(self):
        lat = tessellate(simple_cubic(), 2)
        assert lat.node_count == 8
        assert lat.edge_count == 24

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tessellate(simple_cubic(), 0)

    def test_preserves_relative_density(self, catalogue_lattices):
        for lat in catalogue_lattices:
            assert relative_density(tessellate(lat, 2)) == pytest.approx(
                relative_density(lat), abs=1e-12
            )

    def test_preserves_edge_length_multiset(self, catalogue_lattices):
        for lat in catalogue_lattices:
            base = np.sort(edge_lengths(lat))
            scaled = np.sort(edge_lengths(tessellate(lat, 2)))
            np.testing.assert_allclose(scaled, np.repeat(base, 8), atol=1e-12)

    def test_matches_loop_reference(self, catalogue_lattices):
        lattices = catalogue_lattices + [
            perturb(body_centred_cubic(), 0.3, seed=4),
            perturb(diamond(), 0.3, seed=5),
        ]
        for lat in lattices:
            for n in (1, 2, 3, 4):
                got, want = tessellate(lat, n), tessellate_reference(lat, n)
                assert got.name == want.name
                np.testing.assert_array_equal(got.cell, want.cell)
                np.testing.assert_array_equal(got.nodes, want.nodes)
                np.testing.assert_array_equal(got.edges, want.edges)


class TestPerturb:
    def test_level_zero_identity(self):
        lat = body_centred_cubic()
        out = perturb(lat, 0.0, seed=0)
        np.testing.assert_array_equal(out.nodes, lat.nodes)
        np.testing.assert_array_equal(out.edges, lat.edges)

    def test_displacement_magnitude_exact(self, catalogue_lattices):
        for lat in catalogue_lattices[1:]:
            for seed in (0, 1, 99):
                moved = perturb(lat, 0.1, seed)
                before = lat.transformed_nodes()
                after = moved.transformed_nodes()
                for k in range(lat.node_count):
                    dist = min_image_distance(lat.cell, after[k] - before[k])
                    assert dist == pytest.approx(0.1, abs=1e-12)

    def test_deterministic(self):
        a = perturb(diamond(), 0.05, seed=42)
        b = perturb(diamond(), 0.05, seed=42)
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.edges, b.edges)

    def test_seed_changes_output(self):
        a = perturb(diamond(), 0.05, seed=1)
        b = perturb(diamond(), 0.05, seed=2)
        assert np.abs(a.nodes - b.nodes).max() > 1e-6

    def test_preserves_counts(self):
        lat = body_centred_cubic()
        out = perturb(lat, 0.3, seed=5)
        assert out.node_count == lat.node_count
        assert out.edge_count == lat.edge_count

    def test_rejects_single_node(self):
        with pytest.raises(ValueError, match="at least 2"):
            perturb(simple_cubic(), 0.1, seed=0)

    def test_realizations_named_and_seeded(self):
        lat = body_centred_cubic()
        out = perturbed_realizations(lat, 0.05, seed=7, count=3)
        assert [moved.name for moved in out] == ["bcc_l0.05_r0", "bcc_l0.05_r1", "bcc_l0.05_r2"]
        for k, moved in enumerate(out):
            direct = perturb(lat, 0.05, seed=7 + k)
            np.testing.assert_array_equal(moved.nodes, direct.nodes)
            np.testing.assert_array_equal(moved.edges, direct.edges)
        assert perturbed_realizations(lat, 0.05, seed=7, count=0) == []

    def test_rejects_negative_level(self):
        with pytest.raises(ValueError, match="nonnegative"):
            perturb(diamond(), -0.1, seed=0)

    def test_connectivity_preserved_under_wrap(self):
        # Large level forces nodes across the boundary; edge vectors must
        # keep the same multiset of lengths as direct displacement.
        lat = diamond()
        dirs = np.array(
            [sampling.unit_vector(77, k) for k in range(lat.node_count)]
        )
        level = 0.4
        moved = perturb(lat, level, seed=77)
        raw_nodes = lat.transformed_nodes() + level * dirs
        raw_vectors = []
        for i, j, *t in lat.edges:
            raw_vectors.append(
                raw_nodes[j] - raw_nodes[i] + lat.cell @ np.asarray(t, dtype=float)
            )
        np.testing.assert_allclose(
            np.sort(edge_lengths(moved)),
            np.sort(np.linalg.norm(raw_vectors, axis=1)),
            atol=1e-12,
        )


class TestRotateLattice:
    def test_identity(self):
        lat = diamond()
        out = rotate_lattice(lat, np.eye(3))
        np.testing.assert_array_equal(out.cell, lat.cell)

    def test_edge_vectors_rotate(self, catalogue_lattices, rotations):
        for lat in catalogue_lattices:
            r = rotations[0]
            rotated = rotate_lattice(lat, r)
            for e in lat.edges:
                np.testing.assert_allclose(
                    edge_vector(rotated, e), r @ edge_vector(lat, e), atol=1e-12
                )

    def test_preserves_lengths_and_density(self, rotations):
        lat = diamond()
        rotated = rotate_lattice(lat, rotations[1])
        np.testing.assert_allclose(edge_lengths(rotated), edge_lengths(lat), atol=1e-12)
        assert relative_density(rotated) == pytest.approx(relative_density(lat), abs=1e-15)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            rotate_lattice(diamond(), 2 * np.eye(3))


class TestRelativeDensity:
    def test_simple_cubic_hand_value(self):
        # Three unit struts: 3 * pi * r^2.
        assert relative_density(simple_cubic(radius=0.05)) == pytest.approx(
            3.0 * math.pi * 0.0025, rel=1e-12
        )

    def test_zero_edges(self):
        lat = Lattice("empty", np.eye(3), [[0.5, 0.5, 0.5]], np.zeros((0, 5), int), 0.05)
        assert relative_density(lat) == 0.0


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    level=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
)
def test_property_perturb_distance_and_determinism(seed, level):
    lat = body_centred_cubic()
    a = perturb(lat, level, seed)
    b = perturb(lat, level, seed)
    np.testing.assert_array_equal(a.nodes, b.nodes)
    before = lat.transformed_nodes()
    after = a.transformed_nodes()
    for k in range(lat.node_count):
        dist = min_image_distance(lat.cell, after[k] - before[k])
        assert dist == pytest.approx(level, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_property_window_fold_identity(seed):
    lat = perturb(diamond(), 0.1, seed)
    assert edge_multiset(fold(window(lat))) == edge_multiset(lat)


_SHIFT = st.integers(-1, 1)
_EDGE_SETS = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _SHIFT, _SHIFT, _SHIFT),
            max_size=6,
        ),
    )
)


@settings(max_examples=300, deadline=None)
@given(case=_EDGE_SETS)
# self-edges whose first nonzero shift is positive, then negative, each
# repeated in the other orientation; then a missing node
@example(case=(1, [(0, 0, 0, 1, -1), (0, 0, 1, 0, 0), (0, 0, 0, -1, 1)]))
@example(case=(1, [(0, 0, 0, 0, -1), (0, 0, -1, 1, 0), (0, 0, 1, -1, 0)]))
@example(case=(2, [(1, 0, 0, 1, 0), (0, 1, 0, -1, 0), (1, 1, 0, 0, 0)]))
@example(case=(2, [(0, 1, 0, 0, 0), (0, 2, 0, 0, 0)]))
def test_property_edge_checks_match_row_reference(case):
    node_count, edges = case
    nodes = [[0.1 + 0.2 * k, 0.3, 0.6] for k in range(node_count)]
    expected = edge_error_reference("g", node_count, edges)
    try:
        lat = Lattice("g", np.eye(3), nodes, np.asarray(edges, dtype=int).reshape(-1, 5), 0.05)
    except ValueError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    assert edge_multiset(lat) == edge_multiset_reference(lat)


@st.composite
def near_face_cells(draw):
    """Cells of 1-3 nodes, each coordinate on a quarter grid or 1e-15 .. 9e-13
    above the face at 0, joined by 1-4 struts with shifts -1 .. 1."""
    count = draw(st.integers(1, 3))
    coordinate = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75]), st.floats(1e-15, 9e-13))
    nodes = draw(st.lists(st.tuples(*[coordinate] * 3), min_size=count, max_size=count))
    node = st.integers(0, count - 1)
    edges = draw(st.lists(st.tuples(node, node, _SHIFT, _SHIFT, _SHIFT), min_size=1, max_size=4))
    try:
        return Lattice("near", SKEW if draw(st.booleans()) else np.eye(3), nodes, edges, 0.05)
    except ValueError:
        assume(False)


# a node 5e-13 from the face at x = 0 whose strut leaves through that face
NEAR_FACE = Lattice(
    "near_face",
    np.eye(3),
    [[5e-13, 0.5, 0.5], [0.7, 0.5, 0.5]],
    [[0, 1, -1, 0, 0], [0, 1, 0, 0, 0]],
    0.05,
)


@settings(max_examples=80, deadline=None)
@given(lat=st.one_of(st.builds(perturbed_cell, **PERTURBED_CELLS), near_face_cells()))
@example(lat=NEAR_FACE)
def test_property_window_invariants(lat):
    # Nodes within 1e-12 of the face at 1 are left out: fold snaps them onto
    # the face, where a lattice refuses them.
    win = window(lat)
    inverse = np.linalg.inv(lat.cell)
    reduced = win.nodes @ inverse.T
    assert reduced.min() >= -1e-9 and reduced.max() <= 1.0 + 1e-9
    scale = np.abs(lat.cell).max()
    for master, slave, sep in win.periodic_pairs:
        assert np.abs(win.nodes[slave] - win.nodes[master] - sep).max() <= 1e-12 * scale
        shift = inverse @ sep
        assert np.abs(shift - np.rint(shift)).max() <= 1e-12
    assert edge_multiset(fold(win)) == edge_multiset(lat)
