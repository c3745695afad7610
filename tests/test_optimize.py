from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latmech import fe, optimize, sampling
from latmech.fe import BeamMaterial, homogenize
from latmech.lattice import (
    Lattice,
    body_centred_cubic,
    diamond,
    displace_nodes,
    edge_lengths,
    perturb,
    rotate_lattice,
    simple_cubic,
    tessellate,
)
from latmech.optimize import DesignProblem, fd_gradient, gradient, objective, solve
from latmech.tensor4 import MandelMatrix, from_mandel, rotate, to_mandel

from conftest import PERTURBED_CELLS, perturbed_cell, transformed_nodes


def scaled_y_target(lat, factor: float = 0.8):
    """Target stiffness: entries on the Mandel 22-row/column scaled down."""
    m = to_mandel(homogenize(lat).stiffness).entries.copy()
    scale = np.ones((6, 6))
    scale[1, :] *= factor
    scale[:, 1] *= factor
    scale[1, 1] = factor
    return from_mandel(MandelMatrix(m * scale))


def reference_solve(prob: DesignProblem) -> tuple[list, Lattice, int]:
    """The Levenberg-Marquardt loop of :func:`solve` built from public functions
    and a lattice per candidate, each Jacobian from a fresh cell problem:
    ``(objective_history, final_lattice, solves)``."""
    lat, mat = prob.base, BeamMaterial()
    length_scale = np.cbrt(np.linalg.det(lat.cell))
    min_length = optimize.MIN_EDGE_LENGTH * length_scale
    target = to_mandel(prob.target).entries
    target_norm = np.sum(target**2)
    fixed = [k for k in range(lat.node_count) if k not in prob.free_nodes]
    history = [objective(lat, prob.target)]
    solves, damping = 1, None
    for _ in range(prob.max_steps):
        if history[-1] <= optimize.MISFIT_STOP * target_norm:
            break
        cell = fe._fundamental_cell(lat)
        _density, solution = fe._solve_one(cell, lat.radius, mat)
        jacobian = fe._stiffness_jacobian(cell, solution, lat.radius, mat)
        jacobian[fixed] = 0.0
        j = jacobian.reshape(-1, 36).T  # (36, 3N), a column per coordinate
        g = j.T @ (solution.mandel - target).ravel()
        if 2.0 * np.linalg.norm(g) * length_scale <= optimize.GRADIENT_STOP * target_norm:
            break
        normal = j.T @ j
        if damping is None:
            damping = optimize.DAMPING * np.trace(normal) / len(normal)
        accepted = None
        for _rejection in range(optimize.MAX_REJECTIONS + 1):
            move = np.linalg.solve(normal + damping * np.eye(len(normal)), -g)
            candidate = displace_nodes(lat, move.reshape(-1, 3))
            if edge_lengths(candidate).min() < min_length:
                damping *= 4.0
                continue
            value = objective(candidate, prob.target)
            solves += 1
            if value > history[-1]:
                damping *= 4.0
                continue
            accepted = candidate
            break
        if accepted is None:
            break
        damping /= 3.0
        lat = accepted
        history.append(value)
    return history, lat, solves


def misfit_bar(prob: DesignProblem) -> float:
    """1e-8 ||T||_F^2, the objective at which the misfit stop fires."""
    return 1e-8 * float(np.sum(to_mandel(prob.target).entries ** 2))


@pytest.fixture(scope="module")
def demo_runs():
    """``(problem, trace)`` of the y-softening demo of ``scripts/design_demo.py``
    on seeds 1-5, each run to its stop."""
    runs = []
    for seed in range(1, 6):
        lat = perturb(tessellate(simple_cubic(), 2), 0.02, seed=seed)
        prob = DesignProblem(base=lat, target=scaled_y_target(lat))
        runs.append((prob, solve(prob)))
    return runs


@pytest.fixture(scope="module")
def demo_lattice():
    # The perfectly symmetric tessellation sits at a stationary point of
    # the FE map (gradients vanish on collinear strut pairs), so the demo
    # starts from a seeded perturbation that breaks the symmetry.
    return perturb(tessellate(simple_cubic(), 2), 0.02, seed=11)


class TestObjective:
    def test_zero_at_target(self):
        lat = body_centred_cubic()
        assert objective(lat, homogenize(lat).stiffness) == 0.0

    def test_rotation_invariance_of_pair(self, demo_lattice):
        target = scaled_y_target(demo_lattice)
        base = objective(demo_lattice, target)
        r = sampling.random_rotation(23)
        rotated = objective(rotate_lattice(demo_lattice, r), rotate(target, r))
        assert rotated == pytest.approx(base, rel=1e-8)

    def test_positive_off_target_and_one_step_decreases(self, demo_lattice):
        target = scaled_y_target(demo_lattice, 0.9)
        start = objective(demo_lattice, target)
        assert start > 0.0
        prob = DesignProblem(base=demo_lattice, target=target, max_steps=1)
        trace = solve(prob)
        assert trace.objective_history[-1] < start


class TestFdGradient:
    def test_stationary_at_zero_residual(self):
        lat = perturb(body_centred_cubic(), 0.03, seed=2)
        target = homogenize(lat).stiffness
        grad = fd_gradient(lat, target, range(lat.node_count), fd_step=1e-5)
        norm = np.sqrt(sum(float(g @ g) for g in grad.values()))
        assert norm < 1e-6

    def test_step_bound_is_zero_exclusive(self, demo_lattice):
        target = scaled_y_target(demo_lattice)
        for step in (0.0, np.nextafter(0.0, -1.0)):
            with pytest.raises(ValueError, match="fd_step must be positive"):
                fd_gradient(demo_lattice, target, [0], fd_step=step)
        grad = fd_gradient(demo_lattice, target, [0], fd_step=np.nextafter(0.0, 1.0))
        assert set(grad) == {0} and np.isfinite(grad[0]).all()

    def test_respects_free_node_subset(self, demo_lattice):
        target = scaled_y_target(demo_lattice)
        grad = fd_gradient(demo_lattice, target, [0, 3], fd_step=1e-5)
        assert set(grad) == {0, 3}

    def test_directional_derivative_oracle(self, demo_lattice):
        # Secondary finite-difference check at a different step size: the
        # slope along the normalized gradient approximates its norm.
        target = scaled_y_target(demo_lattice)
        free = range(demo_lattice.node_count)
        grad = fd_gradient(demo_lattice, target, free, fd_step=1e-5)
        full = np.zeros((demo_lattice.node_count, 3))
        for node, g in grad.items():
            full[node] = g
        norm = float(np.linalg.norm(full))
        h = 1e-4
        from latmech.lattice import displace_nodes

        forward = objective(displace_nodes(demo_lattice, h * full / norm), target)
        backward = objective(displace_nodes(demo_lattice, -h * full / norm), target)
        slope = (forward - backward) / (2 * h)
        assert slope == pytest.approx(norm, rel=0.05)


def _stacked(grad: dict, nodes) -> np.ndarray:
    return np.array([grad[k] for k in nodes])


class TestGradient:
    @pytest.mark.parametrize(
        "lat",
        [
            perturb(tessellate(simple_cubic(), 2), 0.02, seed=11),
            perturb(body_centred_cubic(), 0.03, seed=2),
            perturb(diamond(), 0.03, seed=5),
        ],
        ids=["sc_x2", "bcc", "diamond"],
    )
    def test_matches_fd_gradient(self, lat):
        # The target comes from another realization, so the objective and
        # its gradient are well away from zero.
        target = scaled_y_target(perturb(lat, 0.05, seed=99))
        nodes = range(lat.node_count)
        value, grad = gradient(lat, target, nodes)
        assert value == pytest.approx(objective(lat, target), rel=1e-12)
        exact = _stacked(grad, nodes)
        reference = _stacked(fd_gradient(lat, target, nodes, fd_step=1e-5), nodes)
        assert np.linalg.norm(exact - reference) <= 1e-6 * np.linalg.norm(reference)

    def test_free_node_subset(self, demo_lattice):
        target = scaled_y_target(demo_lattice)
        _value, subset = gradient(demo_lattice, target, [0, 3])
        assert set(subset) == {0, 3}
        _value, full = gradient(demo_lattice, target, range(demo_lattice.node_count))
        reference = fd_gradient(demo_lattice, target, [0, 3], fd_step=1e-5)
        for node in (0, 3):
            np.testing.assert_array_equal(subset[node], full[node])
            assert np.linalg.norm(subset[node] - reference[node]) <= 1e-6 * np.linalg.norm(
                reference[node]
            )

    def test_self_edges_cancel_on_simple_cubic(self):
        # Every strut of the one-node cell is a self-edge: its head and tail
        # terms land on the same node and cancel.
        lat = simple_cubic()
        value, grad = gradient(lat, scaled_y_target(lat), [0])
        assert value > 0.0
        np.testing.assert_allclose(grad[0], 0.0, atol=1e-12 * value)


# perturbed cells, sheared or not, and targets off their own stiffness
_DESIGN_CASES = dict(
    cell=st.sampled_from([(simple_cubic, 2), (body_centred_cubic, 1), (diamond, 1)]),
    level=st.floats(0.02, 0.1),
    seed=st.integers(0, 10_000),
    skewed=st.booleans(),
    factor=st.floats(0.8, 0.95),
)


def design_case(cell, level, seed, skewed, factor):
    """``(lattice, target, all node indices)`` of one ``_DESIGN_CASES`` draw."""
    lat = perturbed_cell(*cell, level, seed, skewed)
    return lat, scaled_y_target(lat, factor), range(lat.node_count)


@settings(max_examples=10, deadline=None)
@given(**_DESIGN_CASES, rotation_seed=st.integers(0, 10_000))
def test_property_gradient_rotates_with_the_cell(cell, level, seed, skewed, factor, rotation_seed):
    # a node gradient is a physical vector: rotating the lattice and the
    # target together rotates every row
    lat, target, nodes = design_case(cell, level, seed, skewed, factor)
    r = sampling.random_rotation(rotation_seed)
    _value, grad = gradient(lat, target, nodes)
    _value, turned = gradient(rotate_lattice(lat, r), rotate(target, r), nodes)
    expected = _stacked(grad, nodes) @ r.T
    np.testing.assert_allclose(
        _stacked(turned, nodes), expected, rtol=0.0, atol=1e-11 * np.abs(expected).max()
    )


@settings(max_examples=10, deadline=None)
@given(**_DESIGN_CASES)
def test_property_gradient_sums_over_tessellated_copies(cell, level, seed, skewed, factor):
    # moving the 8 copies of a node of tessellate(L, 2) together moves that
    # node of L, so their gradients sum to its gradient
    lat, target, nodes = design_case(cell, level, seed, skewed, factor)
    value, grad = gradient(lat, target, nodes)
    big = tessellate(lat, 2)
    big_value, big_grad = gradient(big, target, range(big.node_count))
    summed = _stacked(big_grad, range(big.node_count)).reshape(8, lat.node_count, 3).sum(axis=0)
    expected = _stacked(grad, nodes)
    assert big_value == pytest.approx(value, rel=1e-11)
    np.testing.assert_allclose(summed, expected, rtol=0.0, atol=1e-11 * np.abs(expected).max())


def complex_bincount(index, values, length) -> np.ndarray:
    """``np.bincount`` of complex ``values``, its real and imaginary parts apart."""
    return np.bincount(index, values.real, length) + 1j * np.bincount(index, values.imag, length)


def complex_step_jacobian(lat: Lattice, node: int, h: float = 1e-30):
    """The Mandel matrix C of a lattice and its (3, 6, 6) derivative with
    respect to one node's position, by complex step.

    Each coordinate of the node moves by i h.  The element matrices are the
    dense feature-basis product of ``fe._kernel_features``, assembled dense
    and solved by LU on the pinned dofs, without conjugation, so C is
    analytic in the move.  Then dC/dx = Im(C) / h to roundoff, with no
    cancellation.
    """
    ends, n = lat.edges[:, :2], 6 * lat.node_count
    dofs = (6 * ends[:, :, None] + np.arange(6)).reshape(-1, 12)
    flat = (dofs[:, :, None] * n + dofs[:, None, :]).ravel()
    rhs_at = (6 * dofs[:, :, None] + np.arange(6)).ravel()
    sections = fe._strut_sections([lat.radius], [len(ends)])
    jacobian = np.empty((3, 6, 6))
    for axis in range(3):
        positions = transformed_nodes(lat).astype(complex)
        positions[node, axis] += 1j * h
        tails = positions[ends[:, 0]]
        heads = positions[ends[:, 1]] + lat.edges[:, 2:] @ lat.cell.T
        _length, _n, _m, coeff, pair = fe._kernel_features(heads - tails, sections, BeamMaterial())
        features = coeff.take(fe._FEATURE_COEFF, axis=0) * pair
        k_e = np.einsum("fe,fk->ek", features, fe._KERNEL_BASIS).reshape(-1, 12, 12)
        d_aff = np.zeros((len(ends), 2, 6, 6), dtype=complex)
        d_aff[:, :, :3] = np.einsum("aij,enj->enia", fe._UNIT_STRAINS, np.stack([tails, heads], 1))
        d_aff = d_aff.reshape(-1, 12, 6)
        k = complex_bincount(flat, k_e.ravel(), n * n).reshape(n, n)
        rhs = -complex_bincount(rhs_at, (k_e @ d_aff).ravel(), 6 * n).reshape(n, 6)
        u = np.zeros((n, 6), dtype=complex)
        u[3:] = np.linalg.solve(k[3:, 3:], rhs[3:])
        d = d_aff + u[dofs]
        c = d.reshape(-1, 6).T @ (k_e @ d).reshape(-1, 6) / np.linalg.det(lat.cell)
        jacobian[axis] = c.imag / h
    return c.real, jacobian


# up to two copies a side, since each dense complex solve costs n^3
@settings(max_examples=15, deadline=None)
@given(**dict(PERTURBED_CELLS, n=st.integers(1, 2)), factor=st.floats(0.8, 0.95),
       node=st.integers(0, 2**16))
def test_property_gradient_matches_complex_step(base, n, level, seed, skewed, factor, node):
    # an exact reference: a wrong per-strut term that still rotates and
    # tessellates correctly shows here at 1e-12, far below what a central
    # difference can see; a one-node cell, whose gradient is zero, has no scale
    lat = perturbed_cell(base, n, level, seed, skewed)
    assume(lat.node_count >= 2)
    target, node = scaled_y_target(lat, factor), node % lat.node_count
    _value, grad = gradient(lat, target, range(lat.node_count))
    scale = np.abs(_stacked(grad, range(lat.node_count))).max()
    c, reference = complex_step_jacobian(lat, node)
    complex_step_gradient = np.sum(2.0 * (c - to_mandel(target).entries) * reference, axis=(1, 2))
    assert np.abs(complex_step_gradient - grad[node]).max() <= 1e-12 * scale
    # the whole Jacobian, each of the 36 entries of C, not only its
    # contraction with the loss's weight
    cell = fe._fundamental_cell(lat)
    _density, solution = fe._solve_one(cell, lat.radius, BeamMaterial())
    jacobian = fe._stiffness_jacobian(cell, solution, lat.radius, BeamMaterial())
    assert np.abs(reference - jacobian[node]).max() <= 1e-12 * np.abs(jacobian).max()


def scaled_runs(lat: Lattice, scales, max_steps: int) -> list:
    """``(trace, e)`` of the y-softening design of ``lat`` for each ``(a, e)``:
    lengths scaled by a, and the modulus and target by e."""
    target = to_mandel(scaled_y_target(lat)).entries
    runs = []
    for a, e in scales:
        scaled = replace(lat, cell=lat.cell * a, radius=lat.radius * a)
        prob = DesignProblem(
            base=scaled, target=from_mandel(MandelMatrix(e * target)), max_steps=max_steps
        )
        runs.append((solve(prob, BeamMaterial(youngs_modulus=e)), e))
    return runs


class TestSolve:
    def test_zero_step_trace_at_optimum(self):
        lat = perturb(body_centred_cubic(), 0.03, seed=2)
        target = homogenize(lat).stiffness
        prob = DesignProblem(base=lat, target=target, max_steps=50)
        trace = solve(prob)
        assert trace.objective_history == [0.0]
        # the gradient there is roundoff, far below the stop: no line search
        assert trace.solves == 1

    def test_objective_history_nonincreasing(self, demo_lattice):
        target = scaled_y_target(demo_lattice)
        prob = DesignProblem(base=demo_lattice, target=target, max_steps=8)
        trace = solve(prob)
        history = trace.objective_history
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_final_stiffness_is_fresh_homogenize(self, demo_lattice, monkeypatch):
        # the last accepted solve is the result: a few steps on sc_x2, bcc
        # and diamond, no step at all, and no acceptable step (no_step)
        cases = [(demo_lattice, 3), (perturb(body_centred_cubic(), 0.03, seed=2), 2),
                 (perturb(diamond(), 0.03, seed=4), 2), (demo_lattice, 0)]
        traces = [solve(DesignProblem(base=lat, target=scaled_y_target(lat), max_steps=steps))
                  for lat, steps in cases]
        monkeypatch.setattr(optimize, "MIN_EDGE_LENGTH", np.inf)
        traces.append(solve(DesignProblem(base=demo_lattice, target=scaled_y_target(demo_lattice))))
        assert [t.stop for t in traces] == ["max_steps"] * 4 + ["no_step"]
        assert [len(t.objective_history) for t in traces] == [4, 3, 3, 1, 1]
        for trace in traces:
            reverified = homogenize(trace.final_lattice).stiffness
            assert trace.final_stiffness.components.tobytes() == reverified.components.tobytes()

    def test_demo_reaches_ten_percent(self, demo_lattice):
        target = scaled_y_target(demo_lattice)
        prob = DesignProblem(base=demo_lattice, target=target, max_steps=50)
        trace = solve(prob)
        history = trace.objective_history
        assert history[-1] <= 0.1 * history[0]

    def test_pipeline_equivariance(self, demo_lattice):
        # Rotating lattice and target together realizes the same descent
        # up to roundoff.
        target = scaled_y_target(demo_lattice)
        prob = DesignProblem(base=demo_lattice, target=target, max_steps=3)
        plain = solve(prob)
        r = sampling.random_rotation(31)
        rotated_prob = DesignProblem(
            base=rotate_lattice(demo_lattice, r), target=rotate(target, r), max_steps=3
        )
        rotated = solve(rotated_prob)
        np.testing.assert_allclose(
            rotated.objective_history, plain.objective_history, rtol=1e-10, atol=0.0
        )

    def test_solves_each_geometry_once(self, demo_lattice, monkeypatch):
        prob = DesignProblem(base=demo_lattice, target=scaled_y_target(demo_lattice), max_steps=4)
        solved = []
        solve_cells = fe._solve_cells

        def recording(problems, mat):
            problems = list(problems)
            solved.extend((c.end_positions.tobytes(), c.vectors.tobytes()) for c, _r in problems)
            return solve_cells(problems, mat)

        monkeypatch.setattr(fe, "_solve_cells", recording)
        trace = solve(prob)
        assert len(set(solved)) == len(solved) == trace.solves
        assert (trace.stop, len(trace.objective_history)) == ("misfit", 4)
        # the final lattice's geometry is the last step's accepted candidate,
        # the last geometry solved, and it is not solved again
        final = fe._fundamental_cell(trace.final_lattice)
        assert solved[-1] == (final.end_positions.tobytes(), final.vectors.tobytes())

    def test_matches_the_loop_built_from_public_functions(self, demo_lattice, monkeypatch):
        # past the misfit stop, 15 steps take 25 solves: rejected candidates
        # raise the damping, and accepted ones lower it
        monkeypatch.setattr(optimize, "MISFIT_STOP", 0.0)
        prob = DesignProblem(base=demo_lattice, target=scaled_y_target(demo_lattice), max_steps=15)
        trace = solve(prob)
        history, lat, solves = reference_solve(prob)
        assert (trace.stop, trace.solves) == ("max_steps", 25)
        assert trace.objective_history == history
        assert trace.solves == solves
        assert trace.final_lattice.nodes.tobytes() == lat.nodes.tobytes()
        assert trace.final_lattice.edges.tobytes() == lat.edges.tobytes()
        expected = homogenize(lat).stiffness.components
        assert trace.final_stiffness.components.tobytes() == expected.tobytes()

    def test_matches_the_loop_built_from_public_functions_to_the_stop(self, demo_runs):
        # seed 5 meets the misfit stop at step 4
        prob, trace = demo_runs[4]
        assert trace.stop == "misfit"
        history, lat, solves = reference_solve(prob)
        assert (trace.objective_history, trace.solves) == (history, solves)
        assert trace.final_lattice.nodes.tobytes() == lat.nodes.tobytes()

    def test_builds_one_lattice_per_run(self, demo_lattice, monkeypatch):
        prob = DesignProblem(base=demo_lattice, target=scaled_y_target(demo_lattice))
        built = []
        post_init = Lattice.__post_init__

        def counting(lat):
            built.append(lat.name)
            post_init(lat)

        monkeypatch.setattr(Lattice, "__post_init__", counting)
        trace = solve(prob)
        assert len(trace.objective_history) > 2
        assert built == [demo_lattice.name]

    def test_solves_counts_every_cell_solve(self, demo_lattice, monkeypatch):
        target = scaled_y_target(demo_lattice)
        received = []
        solve_cells = fe._solve_cells

        def counting(problems, mat):
            problems = list(problems)
            received.append(len(problems))
            return solve_cells(problems, mat)

        monkeypatch.setattr(fe, "_solve_cells", counting)
        trace = solve(DesignProblem(base=demo_lattice, target=target, max_steps=4))
        # one call per cell solve, and none after the loop
        assert received == [1] * trace.solves
        # the first solve and at least one candidate per step
        assert trace.solves >= len(trace.objective_history)

    def test_collapsing_candidate_is_damped_further(self, monkeypatch):
        # On this cell the first candidate shortens the shortest strut, and
        # four times the damping shortens it less, so a limit between the two
        # lengths rejects the first as a collapse, and the loop goes on as if
        # it had started at four times the damping, with no solve between
        lat = perturb(body_centred_cubic(), 0.03, seed=3)
        prob = DesignProblem(base=lat, target=scaled_y_target(lat), max_steps=1)
        full = solve(prob)
        monkeypatch.setattr(optimize, "DAMPING", 4.0 * optimize.DAMPING)
        damped = solve(prob)
        monkeypatch.undo()
        assert full.solves == damped.solves == 2
        shortest = [edge_lengths(t.final_lattice).min() for t in (full, damped)]
        assert shortest[0] < shortest[1] < edge_lengths(lat).min()
        # the limit is in units of the cell's length scale det(A)^(1/3)
        length_scale = np.cbrt(np.linalg.det(lat.cell))
        monkeypatch.setattr(optimize, "MIN_EDGE_LENGTH", sum(shortest) / 2 / length_scale)
        guarded = solve(prob)
        assert guarded.objective_history == damped.objective_history
        assert guarded.solves == 2
        np.testing.assert_array_equal(guarded.final_lattice.nodes, damped.final_lattice.nodes)

    def test_collapse_limit_is_a_thousandth_of_the_length_scale(self, monkeypatch):
        # the documented limit, not the constant read back: a candidate whose
        # shortest strut is exactly 1e-3 det(A)^(1/3) long is solved, and one
        # an ulp shorter is rejected and damped further, as a run started at
        # four times the damping shows
        lat = perturb(body_centred_cubic(), 0.03, seed=3)
        limit = 1e-3 * np.cbrt(np.linalg.det(lat.cell))
        prob = DesignProblem(base=lat, target=scaled_y_target(lat), max_steps=1)
        full = solve(prob)
        monkeypatch.setattr(optimize, "DAMPING", 4.0 * optimize.DAMPING)
        damped = solve(prob)
        monkeypatch.undo()
        row_norms = optimize._row_norms
        for shortest, expected in ((limit, full), (np.nextafter(limit, 0.0), damped)):
            pinned = []

            def first_pinned(vectors):
                lengths = row_norms(vectors)
                if not pinned:  # the first candidate's shortest strut
                    pinned.append(lengths.argmin())
                    lengths[pinned[0]] = shortest
                return lengths

            monkeypatch.setattr(optimize, "_row_norms", first_pinned)
            trace = solve(prob)
            assert pinned
            assert trace.objective_history == expected.objective_history
            assert trace.solves == expected.solves == 2
            np.testing.assert_array_equal(trace.final_lattice.nodes, expected.final_lattice.nodes)
        assert full.objective_history != damped.objective_history

    def test_increasing_candidate_is_damped_further(self, monkeypatch):
        # On this cell the first five candidates raise the objective: each is
        # solved, rejected and re-solved at four times the damping, and the
        # sixth is the first candidate of a run that starts at 4^5 times it
        lat = perturb(body_centred_cubic(), 0.03, seed=2)
        prob = DesignProblem(base=lat, target=scaled_y_target(lat), max_steps=1)
        trace = solve(prob)
        assert trace.objective_history[1] < trace.objective_history[0]
        assert trace.solves == 1 + 6
        monkeypatch.setattr(optimize, "DAMPING", 4.0**5 * optimize.DAMPING)
        damped = solve(prob)
        assert (damped.objective_history, damped.solves) == (trace.objective_history, 2)
        np.testing.assert_array_equal(trace.final_lattice.nodes, damped.final_lattice.nodes)

    def test_stops_when_no_halving_is_accepted(self, demo_lattice, monkeypatch):
        # every candidate collapses a strut, so no step is taken: the move is
        # re-solved at four times the damping MAX_REJECTIONS times, and no
        # candidate is solved
        monkeypatch.setattr(optimize, "MIN_EDGE_LENGTH", np.inf)
        moves = []
        moved = optimize._moved

        def counting(*args):
            moves.append(1)
            return moved(*args)

        monkeypatch.setattr(optimize, "_moved", counting)
        target = scaled_y_target(demo_lattice)
        trace = solve(DesignProblem(base=demo_lattice, target=target, max_steps=5))
        assert trace.objective_history == [objective(demo_lattice, target)]
        assert (trace.stop, trace.solves, len(moves)) == ("no_step", 1, optimize.MAX_REJECTIONS + 1)
        np.testing.assert_array_equal(trace.final_lattice.nodes, demo_lattice.nodes)

    def test_collapse_guard_does_not_depend_on_scale(self, demo_lattice):
        # scaling the cell and struts by a scales the Jacobian by 1/a and its
        # damping by 1/a^2, so the step makes the same moves in units of the cell
        traces = []
        for a in (1.0, 1e-3):
            lat = replace(demo_lattice, cell=demo_lattice.cell * a, radius=demo_lattice.radius * a)
            prob = DesignProblem(base=lat, target=scaled_y_target(lat), max_steps=2)
            traces.append(solve(prob))
        unit, small = traces
        assert len(small.objective_history) == len(unit.objective_history) == 3
        assert small.solves == unit.solves
        np.testing.assert_allclose(small.objective_history, unit.objective_history, rtol=1e-9)

    def test_stop_does_not_depend_on_scale(self, demo_lattice, monkeypatch):
        # the stop compares ||g|| det(A)^(1/3) with ||T||^2: scaling lengths by
        # a or the modulus and target by e (loss e^2) leaves the run as long
        # as at a = e = 1, past the misfit stop, with the same rejections
        monkeypatch.setattr(optimize, "MISFIT_STOP", 0.0)
        runs = scaled_runs(demo_lattice, ((1.0, 1.0), (1e3, 1.0), (1e5, 1.0), (1.0, 1e4)), 10)
        unit = runs[0][0].objective_history
        for trace, e in runs:
            assert len(trace.objective_history) == 11
            assert trace.solves == 16
            np.testing.assert_allclose(np.array(trace.objective_history) / e**2, unit, rtol=1e-9)

    def test_misfit_stop_does_not_depend_on_scale(self, demo_lattice):
        # the misfit stop compares the loss with ||T||^2, so the same scalings,
        # run to the stop, stop at the same step
        runs = scaled_runs(demo_lattice, ((1.0, 1.0), (1e3, 1.0), (1.0, 1e4)), 50)
        unit = runs[0][0]
        for trace, e in runs:
            assert trace.stop == "misfit"
            assert len(trace.objective_history) == len(unit.objective_history) < 51
            assert trace.solves == unit.solves
            # the scaled runs drift apart by roundoff, less than the bound
            np.testing.assert_allclose(
                np.array(trace.objective_history) / e**2, unit.objective_history, rtol=1e-7
            )

    def test_demo_reaches_a_millionth_in_few_solves(self, demo_runs):
        # Levenberg-Marquardt steps on the y-softening demo cut the objective
        # by 1e6 on every seed in at most 8 steps and 15 solves, where L-BFGS
        # took 15-33 steps and steepest descent 145-162 solves, and the misfit
        # stop ends the run at the first objective within its bar
        for prob, trace in demo_runs:
            history = trace.objective_history
            assert trace.stop == "misfit"
            assert len(history) <= 9
            assert history[-1] <= misfit_bar(prob) < history[-2]
            assert history[-1] <= 1e-6 * history[0]
            assert trace.solves <= 15

    def test_a_stopped_history_is_a_prefix_of_the_unstopped_one(self, demo_runs, monkeypatch):
        # the stop changes no step before it: without it the run goes on to
        # max_steps through the same objectives, bit for bit
        monkeypatch.setattr(optimize, "MISFIT_STOP", 0.0)
        for prob, trace in demo_runs:
            stopped = trace.objective_history
            longer = solve(prob)
            history, bar = longer.objective_history, misfit_bar(prob)
            assert (longer.stop, len(history)) == ("max_steps", 51)
            assert history[: len(stopped)] == stopped
            assert next(k for k, v in enumerate(history) if v <= bar) == len(stopped) - 1

    def test_misfit_stop_takes_no_gradient(self, demo_runs, monkeypatch):
        # the stop is tested before the step's Jacobian: a run stopped after
        # n steps takes the Jacobian n times
        prob, trace = demo_runs[0]
        calls = []
        stiffness_jacobian = optimize._stiffness_jacobian

        def counting(*args):
            calls.append(1)
            return stiffness_jacobian(*args)

        monkeypatch.setattr(optimize, "_stiffness_jacobian", counting)
        assert solve(prob).objective_history == trace.objective_history
        assert len(calls) == len(trace.objective_history) - 1

    def test_an_exact_match_stops_by_misfit(self, monkeypatch):
        # the bar is inclusive: at the target the misfit stop fires before
        # the gradient stop, even with a zero tolerance
        monkeypatch.setattr(optimize, "MISFIT_STOP", 0.0)
        lat = perturb(body_centred_cubic(), 0.03, seed=2)
        trace = solve(DesignProblem(base=lat, target=homogenize(lat).stiffness))
        assert (trace.objective_history, trace.stop, trace.solves) == ([0.0], "misfit", 1)

    def test_stop_names_the_rule_that_ended_the_run(self, demo_lattice, monkeypatch):
        # the one-node cell's self-edges cancel, so its gradient is roundoff
        # off the target; the demo cell runs out of steps, or of acceptable
        # ones when every candidate collapses a strut
        lat = simple_cubic()
        assert solve(DesignProblem(base=lat, target=scaled_y_target(lat))).stop == "gradient"
        prob = DesignProblem(base=demo_lattice, target=scaled_y_target(demo_lattice), max_steps=2)
        assert solve(prob).stop == "max_steps"
        assert solve(replace(prob, max_steps=0)).stop == "max_steps"
        monkeypatch.setattr(optimize, "MIN_EDGE_LENGTH", np.inf)
        assert solve(prob).stop == "no_step"

    @pytest.mark.parametrize("seed", [2, 3, 4, 5])
    def test_converges_on_perturbed_diamond(self, seed):
        # the run ends before max_steps because the gradient stop fires at
        # the final nodes, not because no step was acceptable
        lat = perturb(diamond(), 0.03, seed=seed)
        target = scaled_y_target(lat)
        prob = DesignProblem(base=lat, target=target)
        trace = solve(prob)
        assert len(trace.objective_history) - 1 < prob.max_steps
        _value, grad = gradient(trace.final_lattice, target, prob.free_nodes)
        norm = np.linalg.norm(_stacked(grad, prob.free_nodes))
        length_scale = np.cbrt(np.linalg.det(lat.cell))
        stop = optimize.GRADIENT_STOP * np.sum(to_mandel(target).entries ** 2)
        assert norm * length_scale <= stop


class TestDesignProblem:
    def test_defaults_free_all_nodes(self, demo_lattice):
        prob = DesignProblem(base=demo_lattice, target=homogenize(demo_lattice).stiffness)
        assert prob.free_nodes == tuple(range(demo_lattice.node_count))

    def test_rejects_bad_free_node(self):
        lat = body_centred_cubic()
        with pytest.raises(ValueError, match="outside"):
            DesignProblem(base=lat, target=homogenize(lat).stiffness, free_nodes=(5,))

    def test_fd_step_is_a_class_constant(self, demo_lattice):
        target = homogenize(demo_lattice).stiffness
        assert DesignProblem(demo_lattice, target).fd_step == DesignProblem.fd_step == 1e-5
        with pytest.raises(TypeError, match="fd_step"):
            DesignProblem(demo_lattice, target, fd_step=1e-4)
