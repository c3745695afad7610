import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmech import fe, sampling
from latmech.fe import (
    BeamMaterial,
    DisconnectedLatticeError,
    SingularSystemError,
    _beam_kernel,
    beam_stiffness,
    homogenize,
    homogenize_batch,
    homogenize_windowed,
)
from latmech.lattice import (
    Lattice,
    body_centred_cubic,
    diamond,
    perturb,
    rotate_lattice,
    simple_cubic,
    tessellate,
)
from latmech.tensor4 import (
    directional_modulus,
    kelvin_spectrum,
    rotate,
    to_mandel,
)


def block_rotation(r: np.ndarray) -> np.ndarray:
    return np.kron(np.eye(4), r)


def local_frame_beam_stiffness(length, radius, axis, mat) -> np.ndarray:
    """Reference element matrix: the textbook local-frame matrix, rotated.

    The local y axis is built from a reference vector that switches from z
    to x when |axis_z| >= 0.9.
    """
    e_mod, g_mod = mat.youngs_modulus, mat.shear_modulus
    inertia = math.pi * radius**4 / 4.0
    ea = e_mod * math.pi * radius**2 / length
    gj = g_mod * math.pi * radius**4 / 2.0 / length
    b12 = 12.0 * e_mod * inertia / length**3
    b6 = 6.0 * e_mod * inertia / length**2
    b4 = 4.0 * e_mod * inertia / length
    b2 = 2.0 * e_mod * inertia / length

    k = np.zeros((12, 12))
    k[0, 0] = k[6, 6] = ea
    k[0, 6] = -ea
    k[3, 3] = k[9, 9] = gj
    k[3, 9] = -gj
    # bending in the local x-y plane (v, rz)
    k[1, 1] = k[7, 7] = b12
    k[1, 7] = -b12
    k[1, 5] = k[1, 11] = b6
    k[5, 7] = k[7, 11] = -b6
    k[5, 5] = k[11, 11] = b4
    k[5, 11] = b2
    # bending in the local x-z plane (w, ry); opposite sign on the 6EI terms
    k[2, 2] = k[8, 8] = b12
    k[2, 8] = -b12
    k[2, 4] = k[2, 10] = -b6
    k[4, 8] = k[8, 10] = b6
    k[4, 4] = k[10, 10] = b4
    k[4, 10] = b2
    k = np.triu(k) + np.triu(k, 1).T

    axis = np.asarray(axis, dtype=float)
    ref = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    y = np.cross(ref, axis)
    y /= np.linalg.norm(y)
    t = block_rotation(np.vstack([axis, y, np.cross(axis, y)]))
    return t.T @ k @ t


class TestBeamStiffness:
    def test_axial_entry(self):
        mat = BeamMaterial(youngs_modulus=2.0)
        k = beam_stiffness(1.5, 0.1, [1.0, 0.0, 0.0], mat)
        assert k[0, 0] == pytest.approx(2.0 * math.pi * 0.01 / 1.5, rel=1e-12)

    def test_symmetric(self, rng):
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        k = beam_stiffness(0.8, 0.03, axis, BeamMaterial())
        np.testing.assert_allclose(k, k.T, atol=1e-12)

    def test_rigid_body_nullity_six(self, rng):
        for _ in range(5):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            length = float(rng.uniform(0.3, 2.0))
            radius = float(rng.uniform(0.01, 0.1))
            k = beam_stiffness(length, radius, axis, BeamMaterial())
            eigvals = np.linalg.eigvalsh(k)
            scale = np.abs(eigvals).max()
            assert np.sum(np.abs(eigvals) < 1e-9 * scale) == 6

    def test_frame_rotation_oracle(self, rng):
        # Assembling in a rotated frame equals conjugating by the block
        # rotation; circular sections make this exact for any rotation.
        axis = np.array([1.0, 0.0, 0.0])
        r = sampling.random_rotation(3)
        k_base = beam_stiffness(1.2, 0.05, axis, BeamMaterial())
        k_rotated = beam_stiffness(1.2, 0.05, r @ axis, BeamMaterial())
        t = block_rotation(r)
        np.testing.assert_allclose(k_rotated, t @ k_base @ t.T, atol=1e-10)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            beam_stiffness(0.0, 0.05, [1, 0, 0], BeamMaterial())
        with pytest.raises(ValueError):
            beam_stiffness(1.0, -0.05, [1, 0, 0], BeamMaterial())


# Axis z-components near 0.9 are where the local-frame reference switches
# its reference vector.
_AXIS_Z = st.one_of(st.floats(0.88, 0.92), st.floats(-0.92, -0.88), st.floats(-1.0, 1.0))


def _strut_vector(nz: float, azimuth: float, length: float) -> np.ndarray:
    rho = math.sqrt(max(1.0 - nz * nz, 0.0))
    return length * np.array([rho * math.cos(azimuth), rho * math.sin(azimuth), nz])


@settings(max_examples=40, deadline=None)
@given(
    nz=_AXIS_Z,
    azimuth=st.floats(0.0, 2.0 * math.pi),
    length=st.floats(0.2, 2.0),
    radius=st.floats(0.005, 0.1),
)
def test_property_kernel_matches_local_frame_reference(nz, azimuth, length, radius):
    mat = BeamMaterial(1.7, 0.27)
    v = _strut_vector(nz, azimuth, length)
    k, dk = _beam_kernel(v[None], radius, mat)
    assert dk is None
    reference = local_frame_beam_stiffness(length, radius, v / np.linalg.norm(v), mat)
    np.testing.assert_allclose(k[0], reference, rtol=0, atol=1e-13 * np.abs(reference).max())


@settings(max_examples=40, deadline=None)
@given(
    nz=_AXIS_Z,
    azimuth=st.floats(0.0, 2.0 * math.pi),
    length=st.floats(0.2, 2.0),
    radius=st.floats(0.005, 0.1),
)
def test_property_kernel_derivative_matches_central_differences(nz, azimuth, length, radius):
    mat = BeamMaterial(1.3, 0.3)
    v = _strut_vector(nz, azimuth, length)
    _k, dk = _beam_kernel(v[None], radius, mat, derivative=True)
    h = 1e-5 * length
    for m in range(3):
        step = np.zeros(3)
        step[m] = h
        plus, _ = _beam_kernel((v + step)[None], radius, mat)
        minus, _ = _beam_kernel((v - step)[None], radius, mat)
        central = (plus[0] - minus[0]) / (2.0 * h)
        np.testing.assert_allclose(
            dk[0, m], central, rtol=0, atol=1e-7 * np.abs(dk[0]).max()
        )


class TestHomogenize:
    def test_simple_cubic_axial_limit(self):
        # Under unit axial strain only the aligned strut works; the energy
        # route gives C_1111 = E A / a^2 = pi r^2 exactly.
        res = homogenize(simple_cubic(radius=0.05))
        assert res.stiffness.components[0, 0, 0, 0] == pytest.approx(
            math.pi * 0.05**2, rel=1e-6
        )
        assert res.residual < 1e-8

    def test_raw_mandel_symmetric_without_postprocessing(self, catalogue_lattices):
        for lat in catalogue_lattices:
            m = to_mandel(homogenize(perturb_if_possible(lat)).stiffness).entries
            scale = np.abs(m).max()
            assert np.abs(m - m.T).max() <= 1e-9 * scale

    def test_kelvin_psd(self, catalogue_lattices):
        for lat in catalogue_lattices:
            spectrum = kelvin_spectrum(homogenize(lat).stiffness)
            floor = -1e-9 * spectrum.eigenvalues.max()
            assert spectrum.eigenvalues.min() >= floor

    def test_linear_in_modulus(self):
        lat = body_centred_cubic()
        c1 = to_mandel(homogenize(lat, BeamMaterial(youngs_modulus=1.0)).stiffness).entries
        c2 = to_mandel(homogenize(lat, BeamMaterial(youngs_modulus=2.0)).stiffness).entries
        np.testing.assert_allclose(c2, 2.0 * c1, rtol=1e-12)

    def test_tessellation_invariance(self, catalogue_lattices):
        for lat in catalogue_lattices:
            base = to_mandel(homogenize(lat).stiffness).entries
            doubled = to_mandel(homogenize(tessellate(lat, 2)).stiffness).entries
            rel = np.linalg.norm(base - doubled) / np.linalg.norm(base)
            assert rel < 1e-8

    def test_rotation_equivariance(self, catalogue_lattices):
        for lat in catalogue_lattices:
            for s in range(3):
                r = sampling.random_rotation(50 + s)
                direct = homogenize(rotate_lattice(lat, r)).stiffness.components
                conjugated = rotate(homogenize(lat).stiffness, r).components
                rel = np.linalg.norm(direct - conjugated) / np.linalg.norm(conjugated)
                assert rel < 1e-8

    def test_windowed_path_agrees(self, catalogue_lattices):
        # On these tessellated bcc seeds the window splits struts into pieces
        # as short as 8e-5, whose bending stiffness dwarfs ordinary pivots
        # (regression for a pivot floor taken from the largest diagonal).
        lattices = [perturb_if_possible(lat) for lat in catalogue_lattices] + [
            perturb(tessellate(body_centred_cubic(), 2), 0.02, seed=s) for s in (9, 12, 17, 18)
        ]
        for lat in lattices:
            fundamental = to_mandel(homogenize(lat).stiffness).entries
            windowed = to_mandel(homogenize_windowed(lat).stiffness).entries
            rel = np.linalg.norm(fundamental - windowed) / np.linalg.norm(fundamental)
            assert rel < 1e-9

    def test_windowed_path_agrees_with_loaded_self_edges(self):
        # Skewed cell and a diagonal self-strut: the corrector field is
        # nonzero, so the self-edge blocks must accumulate onto the shared
        # node (regression for the duplicate-index scatter).
        cell = np.array(
            [
                [0.6026923, -0.07450849, 0.12613357],
                [0.34081396, 1.03291192, -0.1657942],
                [-0.23543411, 0.22462373, 1.49043491],
            ]
        )
        lat = Lattice(
            "skew_loop",
            cell,
            [[0.6371322, 0.26105918, 0.4414528], [0.92676757, 0.85790985, 0.80980793]],
            [[0, 1, 0, 0, 0], [1, 0, 1, 0, 1], [0, 0, 1, 1, 1]],
            0.02,
        )
        fundamental = to_mandel(homogenize(lat).stiffness).entries
        windowed = to_mandel(homogenize_windowed(lat).stiffness).entries
        rel = np.linalg.norm(fundamental - windowed) / np.linalg.norm(fundamental)
        assert rel < 1e-9

    def test_disconnected_names_node(self):
        lat = Lattice(
            "split",
            np.eye(3),
            [[0.5, 0.5, 0.5], [0.25, 0.25, 0.25]],
            [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 1, 1, 0, 0]],
            0.05,
        )
        with pytest.raises(DisconnectedLatticeError, match="node 1"):
            homogenize(lat)

    def test_floating_cluster_is_singular(self):
        # A triangle joined only within the cell does not span it: its three
        # rigid rotations about the pinned node stay free on both paths.
        lat = Lattice(
            "floating_triangle",
            np.eye(3),
            [[0.2, 0.2, 0.2], [0.5, 0.2, 0.2], [0.2, 0.5, 0.3]],
            [[0, 1, 0, 0, 0], [1, 2, 0, 0, 0], [0, 2, 0, 0, 0]],
            0.02,
        )
        for path in (homogenize, homogenize_windowed):
            with pytest.raises(SingularSystemError, match="floating_triangle") as raised:
                path(lat)
            assert raised.value.null_dim == 3

    def test_rejects_overdense(self):
        with pytest.raises(ValueError, match="density"):
            homogenize(simple_cubic(radius=0.4))

    def test_cubic_anisotropy_axis_vs_diagonal(self):
        c = homogenize(simple_cubic(radius=0.05)).stiffness
        axis_value = directional_modulus(c, [1.0, 0.0, 0.0])
        diag = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        diag_value = directional_modulus(c, diag)
        assert axis_value > 1.2 * diag_value


def perturb_if_possible(lat: Lattice) -> Lattice:
    return perturb(lat, 0.05, seed=8) if lat.node_count >= 2 else lat


class TestHomogenizeBatch:
    def test_singleton_matches_direct(self):
        lat = simple_cubic()
        items = homogenize_batch([lat], [0.05])
        assert len(items) == 1
        direct = homogenize(lat)
        np.testing.assert_allclose(
            items[0].result.stiffness.components, direct.stiffness.components
        )

    def test_monotone_in_radius(self):
        items = homogenize_batch([simple_cubic()], [0.03, 0.05, 0.08])
        dirs = sampling.unit_directions(40, seed=2)
        previous = None
        for item in items:
            values = np.array(
                [directional_modulus(item.result.stiffness, d) for d in dirs]
            )
            if previous is not None:
                assert np.all(values >= previous - 1e-12)
            previous = values

    def test_collects_errors_without_aborting(self):
        bad = Lattice(
            "lonely",
            np.eye(3),
            [[0.5, 0.5, 0.5], [0.25, 0.25, 0.25]],
            [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1], [1, 1, 1, 0, 0]],
            0.05,
        )
        items = homogenize_batch([simple_cubic(), bad, diamond()], [0.05])
        assert [item.error is None for item in items] == [True, False, True]
        assert "lonely" in items[1].name
        assert "unreachable" in items[1].error

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(lat, mat):
            raise TypeError("not a domain error")

        monkeypatch.setattr(fe, "homogenize", broken)
        with pytest.raises(TypeError, match="not a domain error"):
            homogenize_batch([simple_cubic()], [0.05])


class TestBeamMaterial:
    def test_shear_modulus(self):
        assert BeamMaterial(1.0, 0.25).shear_modulus == pytest.approx(0.4)

    def test_rejects_bad_poisson(self):
        with pytest.raises(ValueError):
            BeamMaterial(poisson_ratio=0.6)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            BeamMaterial(youngs_modulus=0.0)
