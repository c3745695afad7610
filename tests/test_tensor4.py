import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmech import sampling, tensor4
from latmech.fe import BeamMaterial, beam_stiffness, homogenize
from latmech.lattice import simple_cubic
from latmech.metrics import DirectionSet
from latmech.tensor4 import (
    SLOT_PAIRS,
    UNIT_TOL,
    ElasticTensor4,
    KelvinSpectrum,
    MandelMatrix,
    RotationPair,
    VoigtMatrix,
    _ROTATE_PATH,
    check_rotation,
    directional_moduli,
    directional_modulus,
    from_mandel,
    from_mandel_vector,
    kelvin_spectrum,
    mandel_rotation,
    relative_defect,
    rotate,
    rotate_mandel,
    rotation_defect,
    strain_energy,
    symmetrize,
    to_mandel,
    to_mandel_vector,
    to_voigt,
    voigt_rotation,
)

from conftest import random_symmetric_matrix, random_symmetric_tensor4

SQRT2 = math.sqrt(2.0)


def brute_force_rotate(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Independent oracle: explicit quadruple-loop index contraction."""
    out = np.zeros((3, 3, 3, 3))
    for i, j, k, l in itertools.product(range(3), repeat=4):
        acc = 0.0
        for a, b, cc, d in itertools.product(range(3), repeat=4):
            acc += r[i, a] * r[j, b] * r[k, cc] * r[l, d] * c[a, b, cc, d]
        out[i, j, k, l] = acc
    return out


def rotation_table_loops(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference Mandel and Voigt rotation matrices, one entry at a time."""
    slots = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
    rm = np.empty((6, 6))
    rv = np.empty((6, 6))
    for a, (i, j) in enumerate(slots):
        for b, (k, l) in enumerate(slots):
            term = r[i, k] * r[j, l] + r[i, l] * r[j, k]
            if a < 3 and b < 3:
                rm[a, b] = 0.5 * term
            elif a >= 3 and b >= 3:
                rm[a, b] = term
            else:
                rm[a, b] = term / SQRT2
            rv[a, b] = term / (1.0 + (k == l))
    return rm, rv


def count_mandel_checks(monkeypatch) -> list:
    """A list that grows by one on each :class:`MandelMatrix` validation."""
    calls = []
    check = MandelMatrix.__post_init__
    monkeypatch.setattr(MandelMatrix, "__post_init__", lambda self: calls.append(1) or check(self))
    return calls


def mandel_verdict_two_passes(m: np.ndarray) -> str | None:
    """Reference ``MandelMatrix`` verdict: a finiteness pass, then ``relative_defect``."""
    if not np.all(np.isfinite(m)):
        return "Mandel matrix has non-finite entries"
    defect = relative_defect(m, m.T)
    if defect > MandelMatrix._SYM_TOL:
        return f"Mandel matrix not symmetric: relative defect {defect:.3e}"
    return None


def cubic_tensor(c11: float, c12: float, c44: float) -> ElasticTensor4:
    c = np.zeros((3, 3, 3, 3))
    for i in range(3):
        c[i, i, i, i] = c11
        for j in range(3):
            if i != j:
                c[i, i, j, j] = c12
                c[i, j, i, j] = c[i, j, j, i] = c[j, i, i, j] = c[j, i, j, i] = c44
    return ElasticTensor4(c)


class TestSymmetrize:
    def test_idempotent_on_symmetric(self, rng):
        c = random_symmetric_tensor4(rng)
        out = symmetrize(c)
        np.testing.assert_allclose(out.components, c, atol=1e-15)

    def test_single_entry_orbit(self):
        # Hand enumeration of the 8-element permutation orbit of (0,1,0,0):
        # minor swaps give (0,1,0,0) and (1,0,0,0); the kl pair (0,0) is
        # fixed by its swap; the major swap maps these to (0,0,0,1) and
        # (0,0,1,0).  Four distinct positions, each visited twice -> 0.25.
        raw = np.zeros((3, 3, 3, 3))
        raw[0, 1, 0, 0] = 1.0
        expected = np.zeros((3, 3, 3, 3))
        for idx in ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0)):
            expected[idx] = 0.25
        np.testing.assert_allclose(symmetrize(raw).components, expected, atol=1e-16)

    def test_zero(self):
        np.testing.assert_array_equal(symmetrize(np.zeros((3, 3, 3, 3))).components, 0.0)

    def test_rejects_nonfinite(self):
        raw = np.zeros((3, 3, 3, 3))
        raw[0, 0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            symmetrize(raw)

    def test_projection_rank_is_21(self):
        # The symmetry projector on the 81-dimensional space has rank 21.
        basis_images = np.zeros((81, 81))
        for flat in range(81):
            raw = np.zeros(81)
            raw[flat] = 1.0
            basis_images[:, flat] = symmetrize(raw.reshape(3, 3, 3, 3)).components.reshape(81)
        assert np.linalg.matrix_rank(basis_images, tol=1e-10) == 21


class TestMandel:
    def test_isotropic_layout(self):
        # Substituting C_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk)
        # with lam = mu = 1 into the Mandel layout by hand.
        m = to_mandel(ElasticTensor4.isotropic(1.0, 1.0)).entries
        expected = np.array(
            [
                [3.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                [1.0, 3.0, 1.0, 0.0, 0.0, 0.0],
                [1.0, 1.0, 3.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 2.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 2.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, 2.0],
            ]
        )
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_zero(self):
        np.testing.assert_array_equal(to_mandel(ElasticTensor4.zero()).entries, 0.0)

    def test_pure_shear_component_gets_factor_two(self):
        raw = np.zeros((3, 3, 3, 3))
        raw[1, 2, 1, 2] = 1.0
        c = symmetrize(raw)
        # symmetrize spreads the unit value over 4 equal slots of the 2323
        # family, so rebuild with the full family set to 1.
        c = ElasticTensor4(c.components / c.components[1, 2, 1, 2])
        m = to_mandel(c).entries
        expected = np.zeros((6, 6))
        expected[3, 3] = 2.0
        np.testing.assert_allclose(m, expected, atol=1e-15)

    def test_round_trip(self, rng):
        c = ElasticTensor4(random_symmetric_tensor4(rng))
        back = from_mandel(to_mandel(c))
        np.testing.assert_allclose(back.components, c.components, atol=1e-15)
        m = to_mandel(c)
        np.testing.assert_allclose(to_mandel(from_mandel(m)).entries, m.entries, atol=1e-15)

    def test_from_identity_unit_axis_moduli(self):
        c = from_mandel(MandelMatrix(np.eye(6)))
        for axis in np.eye(3):
            assert directional_modulus(c, axis) == pytest.approx(1.0, abs=1e-14)

    def test_from_mandel_rejects_asymmetric(self):
        bad = np.eye(6)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            from_mandel(bad)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, 1e-6])
    def test_from_mandel_raises_the_mandel_matrix_error(self, entry):
        # from_mandel skips the tensor checks, so what it rejects must be
        # rejected by MandelMatrix, with MandelMatrix's message
        bad = np.eye(6)
        bad[0, 1] = entry
        with pytest.raises(ValueError) as expected:
            MandelMatrix(bad)
        with pytest.raises(ValueError) as got:
            from_mandel(bad)
        assert str(got.value) == str(expected.value)

    def test_to_mandel_validates_once_and_keeps_read_only_entries(self, monkeypatch, rng):
        calls = count_mandel_checks(monkeypatch)
        c = ElasticTensor4(random_symmetric_tensor4(rng))
        assert len(calls) == 1
        m = to_mandel(c)
        assert to_mandel(c) is m and len(calls) == 1
        with pytest.raises(ValueError, match="read-only"):
            m.entries[0, 0] = 1.0
        # a tensor from from_mandel is validated on its first to_mandel only
        t = from_mandel(m)
        assert len(calls) == 1
        mt = to_mandel(t)
        assert to_mandel(t) is mt and len(calls) == 2
        assert not mt.entries.flags.writeable

    def test_mandel_matrix_keeps_a_read_only_copy(self):
        a = np.eye(6)
        m = MandelMatrix(a)
        a[0, 1] = 1.0  # the caller's array stays writeable and apart
        assert m.entries[0, 1] == 0.0
        assert not m.entries.flags.writeable
        assert to_mandel(from_mandel(m)).entries.tobytes() == np.eye(6).tobytes()

    def test_components_are_a_read_only_copy(self, rng):
        raw = random_symmetric_tensor4(rng)
        before = raw.copy()
        c = ElasticTensor4(raw)
        raw[0, 0, 0, 0] += 1.0  # the caller's array stays writeable and apart
        assert c.components.tobytes() == before.tobytes()
        for tensor in (c, from_mandel(to_mandel(c))):
            with pytest.raises(ValueError, match="read-only"):
                tensor.components[0, 0, 0, 0] = 1.0

    def test_from_mandel_keeps_the_form_of_its_components_not_the_input(self, rng):
        # multiplying the components back by the weights moves some entries
        # of m by an ulp; the kept form is the one a fresh tensor would get
        moved = 0
        for _ in range(20):
            m = random_symmetric_matrix(rng)
            t = from_mandel(m)
            fresh = to_mandel(ElasticTensor4(t.components.copy())).entries
            assert to_mandel(t).entries.tobytes() == fresh.tobytes()
            moved += int(np.count_nonzero(fresh != m))
        assert moved > 0

    def test_vector_round_trip(self, rng):
        raw = rng.standard_normal((3, 3))
        eps = 0.5 * (raw + raw.T)
        v = to_mandel_vector(eps)
        np.testing.assert_allclose(from_mandel_vector(v), eps, atol=1e-15)

    def test_vector_norm_preservation(self, rng):
        for _ in range(50):
            raw = rng.standard_normal((3, 3))
            eps = 0.5 * (raw + raw.T)
            v = to_mandel_vector(eps)
            assert v @ v == pytest.approx(np.einsum("ij,ij->", eps, eps), rel=1e-13)


class TestVoigt:
    def test_single_shear_entry(self):
        raw = np.zeros((3, 3, 3, 3))
        raw[1, 2, 1, 2] = 1.0
        c = symmetrize(raw)
        c = ElasticTensor4(c.components / c.components[1, 2, 1, 2])
        v = to_voigt(c).entries
        expected = np.zeros((6, 6))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(v, expected, atol=1e-15)

    def test_isotropic(self):
        v = to_voigt(ElasticTensor4.isotropic(1.0, 1.0)).entries
        assert v[0, 0] == pytest.approx(3.0)
        assert v[3, 3] == pytest.approx(1.0)

    def test_zero(self):
        np.testing.assert_array_equal(to_voigt(ElasticTensor4.zero()).entries, 0.0)

    def test_voigt_rotation_matches_cartesian_path(self, rng, rotations):
        c = ElasticTensor4(random_symmetric_tensor4(rng))
        for r in rotations[:10]:
            rv = voigt_rotation(r)
            direct = to_voigt(rotate(c, r)).entries
            conjugated = rv @ to_voigt(c).entries @ rv.T
            np.testing.assert_allclose(direct, conjugated, atol=1e-12)

    def test_voigt_rotation_not_orthonormal(self, rotations):
        defects = [
            np.abs(voigt_rotation(r).T @ voigt_rotation(r) - np.eye(6)).max()
            for r in rotations[:10]
        ]
        assert max(defects) > 1e-2


class TestMandelRotation:
    def test_identity(self):
        rp = mandel_rotation(np.eye(3))
        np.testing.assert_allclose(rp.r_mandel, np.eye(6), atol=1e-15)

    def test_quarter_turn_about_z(self):
        # Hand substitution of R = [[0,-1,0],[1,0,0],[0,0,1]] into the
        # block formula: slots 0<->1 and 3<->4 swap, with signs on the
        # shear rows.
        r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        expected = np.array(
            [
                [0, 1, 0, 0, 0, 0],
                [1, 0, 0, 0, 0, 0],
                [0, 0, 1, 0, 0, 0],
                [0, 0, 0, 0, 1, 0],
                [0, 0, 0, -1, 0, 0],
                [0, 0, 0, 0, 0, -1],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(mandel_rotation(r).r_mandel, expected, atol=1e-15)

    def test_orthonormality_random(self, rotations):
        for r in rotations:
            rm = mandel_rotation(r).r_mandel
            assert np.abs(rm.T @ rm - np.eye(6)).max() < 1e-12

    def test_basis_contraction_oracle(self, rotations):
        # Independent construction: R^M_ab = B_a : (R B_b R^T) over the
        # orthonormal symmetric basis.
        basis = np.array([from_mandel_vector(row) for row in np.eye(6)])
        for r in rotations[:10]:
            oracle = np.einsum("aij,ik,jl,bkl->ab", basis, r, r, basis)
            np.testing.assert_allclose(mandel_rotation(r).r_mandel, oracle, atol=1e-13)

    def test_matches_entrywise_loops_bit_for_bit(self, rotations):
        for r in rotations:
            rm, rv = rotation_table_loops(r)
            np.testing.assert_array_equal(mandel_rotation(r).r_mandel, rm)
            np.testing.assert_array_equal(voigt_rotation(r), rv)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError, match="defect"):
            mandel_rotation(1.5 * np.eye(3))
        with pytest.raises(ValueError, match="defect"):
            mandel_rotation(np.diag([1.0, 1.0, -1.0]))  # reflection

    def test_checks_the_rotation_once(self, monkeypatch, rotations):
        calls = []
        monkeypatch.setattr(
            tensor4, "rotation_defect", lambda r: calls.append(r) or rotation_defect(r)
        )
        mandel_rotation(rotations[0])
        assert len(calls) == 1


class TestRotate:
    def test_identity(self, rng):
        c = ElasticTensor4(random_symmetric_tensor4(rng))
        np.testing.assert_allclose(rotate(c, np.eye(3)).components, c.components)

    def test_isotropic_invariant(self, rotations):
        c = ElasticTensor4.isotropic(1.3, 0.7)
        for r in rotations[:10]:
            np.testing.assert_allclose(rotate(c, r).components, c.components, atol=1e-12)

    def test_cubic_quarter_turn_invariant(self):
        c = cubic_tensor(2.0, 0.8, 0.5)
        r = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(rotate(c, r).components, c.components, atol=1e-14)

    def test_against_brute_force(self, rng):
        c = random_symmetric_tensor4(rng)
        r = sampling.random_rotation(7)
        np.testing.assert_allclose(
            rotate(ElasticTensor4(c), r).components, brute_force_rotate(c, r), atol=1e-12
        )

    def test_commuting_square(self, rng, rotations):
        # Cartesian rotation then Mandel vs Mandel conjugation.
        for k, r in enumerate(rotations[:25]):
            c = ElasticTensor4(random_symmetric_tensor4(rng))
            via_cartesian = to_mandel(rotate(c, r)).entries
            rp = mandel_rotation(r)
            via_mandel = rotate_mandel(to_mandel(c), rp).entries
            rel = np.linalg.norm(via_cartesian - via_mandel) / np.linalg.norm(via_cartesian)
            assert rel < 1e-10

    def test_einsum_search_picks_the_fixed_path(self, rng):
        c = random_symmetric_tensor4(rng)
        r = sampling.random_rotation(3)
        for optimize in (True, "greedy"):
            path, _ = np.einsum_path("ia,jb,kc,ld,abcd->ijkl", r, r, r, r, c, optimize=optimize)
            assert path == _ROTATE_PATH

    def test_rotate_mandel_identity(self, rng):
        m = to_mandel(ElasticTensor4(random_symmetric_tensor4(rng)))
        rp = mandel_rotation(np.eye(3))
        np.testing.assert_allclose(rotate_mandel(m, rp).entries, m.entries, atol=1e-15)


class TestDirectionalModulus:
    def test_isotropic_constant(self, rng):
        c = ElasticTensor4.isotropic(1.0, 1.0)
        for _ in range(10):
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            assert directional_modulus(c, d) == pytest.approx(3.0, rel=1e-12)

    def test_zero_tensor(self):
        assert directional_modulus(ElasticTensor4.zero(), [1.0, 0.0, 0.0]) == 0.0

    def test_single_component_pickout(self):
        c = np.zeros((3, 3, 3, 3))
        c[0, 0, 0, 0] = 1.0
        assert directional_modulus(ElasticTensor4(c), [1.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            directional_modulus(ElasticTensor4.zero(), [1.0, 1.0, 0.0])

    def test_vectorized_matches_scalar(self, rng):
        c = ElasticTensor4(random_symmetric_tensor4(rng))
        dirs = sampling.unit_directions(20, seed=5)
        values = directional_moduli(c, dirs)
        for q in range(20):
            assert values[q] == pytest.approx(directional_modulus(c, dirs[q]), rel=1e-12)


class TestStrainEnergy:
    def test_zero_strain(self, rng):
        c = ElasticTensor4(random_symmetric_tensor4(rng))
        assert strain_energy(c, np.zeros((3, 3))) == 0.0

    def test_pure_shear_isotropic(self):
        # psi = mu * 2 * eps_12^2 for traceless shear with lam irrelevant.
        eps = np.zeros((3, 3))
        eps[0, 1] = eps[1, 0] = 0.5
        assert strain_energy(ElasticTensor4.isotropic(1.0, 1.0), eps) == pytest.approx(0.5)

    def test_matches_mandel_quadratic_form(self, rng):
        c = ElasticTensor4(random_symmetric_tensor4(rng))
        m = to_mandel(c).entries
        for _ in range(20):
            raw = rng.standard_normal((3, 3))
            eps = 0.5 * (raw + raw.T)
            v = to_mandel_vector(eps)
            assert strain_energy(c, eps) == pytest.approx(0.5 * v @ m @ v, abs=1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            strain_energy(ElasticTensor4.zero(), np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))
        small = np.diag([1e-9, 2e-9, 3e-9])  # relative, not absolute, asymmetry
        small[0, 1] = 1e-15
        with pytest.raises(ValueError, match="symmetric"):
            strain_energy(ElasticTensor4.zero(), small)

    def test_nonnegative_for_psd_projected_tensor(self, rng):
        from latmech.psd import PsdMethod, project

        m = 0.5 * (rng.standard_normal((6, 6)) + rng.standard_normal((6, 6)).T)
        m = 0.5 * (m + m.T)
        c = from_mandel(MandelMatrix(project(m, PsdMethod.SQUARE)))
        for _ in range(1000):
            raw = rng.standard_normal((3, 3))
            eps = 0.5 * (raw + raw.T)
            assert strain_energy(c, eps) >= -1e-12


class TestKelvinSpectrum:
    def test_isotropic_eigenvalues(self):
        # Eigendecomposition of the hand-built Mandel matrix: {3 lam + 2 mu,
        # five copies of 2 mu}.
        spectrum = kelvin_spectrum(ElasticTensor4.isotropic(1.0, 1.0))
        np.testing.assert_allclose(
            spectrum.eigenvalues, [5.0, 2.0, 2.0, 2.0, 2.0, 2.0], atol=1e-10
        )

    def test_zero_tensor(self):
        spectrum = kelvin_spectrum(ElasticTensor4.zero())
        np.testing.assert_array_equal(spectrum.eigenvalues, np.zeros(6))

    def test_eigentensor_equation(self, rng):
        c = ElasticTensor4(random_symmetric_tensor4(rng))
        spectrum = kelvin_spectrum(c)
        for lam, e in zip(spectrum.eigenvalues, spectrum.eigentensors):
            stress = np.einsum("ijkl,kl->ij", c.components, e)
            np.testing.assert_allclose(stress, lam * e, atol=1e-9)

    def test_orthonormal_eigentensors(self, rng):
        spectrum = kelvin_spectrum(ElasticTensor4(random_symmetric_tensor4(rng)))
        gram = np.einsum("aij,bij->ab", spectrum.eigentensors, spectrum.eigentensors)
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-9)

    def test_reconstruction(self, rng):
        for _ in range(10):
            c = ElasticTensor4(random_symmetric_tensor4(rng))
            spectrum = kelvin_spectrum(c)
            rebuilt = np.einsum(
                "a,aij,akl->ijkl", spectrum.eigenvalues, spectrum.eigentensors,
                spectrum.eigentensors,
            )
            assert np.abs(rebuilt - c.components).max() < 1e-9

    def test_descending_order(self, rng):
        spectrum = kelvin_spectrum(ElasticTensor4(random_symmetric_tensor4(rng)))
        assert np.all(np.diff(spectrum.eigenvalues) <= 1e-12)


class TestVoigtFalsification:
    def test_square_projection_breaks_voigt_equivariance(self):
        # Concrete counterexample: matrix-square in Voigt coordinates does
        # not commute with the (non-orthonormal) Voigt rotation rule.
        c = cubic_tensor(2.0, 0.8, 0.5)
        r = sampling.axis_angle_rotation([1.0, 1.0, 0.0], math.radians(37.0))
        v = to_voigt(c).entries
        rv = voigt_rotation(r)
        rotate_then_square = (rv @ v @ rv.T) @ (rv @ v @ rv.T)
        square_then_rotate = rv @ (v @ v) @ rv.T
        defect = np.linalg.norm(rotate_then_square - square_then_rotate)
        defect /= np.linalg.norm(square_then_rotate)
        assert defect > 1e-3

    def test_mandel_square_does_commute_same_pair(self):
        c = cubic_tensor(2.0, 0.8, 0.5)
        r = sampling.axis_angle_rotation([1.0, 1.0, 0.0], math.radians(37.0))
        m = to_mandel(c).entries
        rm = mandel_rotation(r).r_mandel
        rotate_then_square = (rm @ m @ rm.T) @ (rm @ m @ rm.T)
        square_then_rotate = rm @ (m @ m) @ rm.T
        defect = np.linalg.norm(rotate_then_square - square_then_rotate)
        defect /= np.linalg.norm(square_then_rotate)
        assert defect < 1e-12


class TestTypeInvariants:
    def test_tensor_rejects_asymmetric(self):
        raw = np.zeros((3, 3, 3, 3))
        raw[0, 1, 0, 0] = 1.0
        with pytest.raises(ValueError, match="symmetry"):
            ElasticTensor4(raw)

    def test_mandel_symmetry_check_is_relative(self):
        # Simple cubic at r = 0.01 has entries up to pi r^2 ~ 3.1e-4, so a
        # 5e-11 asymmetry is a relative defect of 1.6e-7.
        m = to_mandel(homogenize(simple_cubic(radius=0.01)).stiffness).entries.copy()
        MandelMatrix(m)
        m[0, 1] += 5e-11
        with pytest.raises(ValueError, match="not symmetric"):
            MandelMatrix(m)

    def test_rotation_pair_rejects_bad_mandel_block(self):
        with pytest.raises(ValueError, match="orthonormal"):
            RotationPair(np.eye(3), 2.0 * np.eye(6))

    def test_rotation_pair_checks_r_as_check_rotation_does(self):
        # just outside the rotation tolerance, and a reflection
        for r in (np.diag([1.0, 1.0, 1.0 + 2e-10]), np.diag([1.0, 1.0, -1.0])):
            with pytest.raises(ValueError, match="not a proper rotation") as raised:
                RotationPair(r, np.eye(6))
            with pytest.raises(ValueError) as expected:
                check_rotation(r)
            assert str(raised.value) == str(expected.value)

    def test_kelvin_shape_check(self):
        with pytest.raises(ValueError):
            KelvinSpectrum(np.zeros(5), np.zeros((6, 3, 3)))

    @pytest.mark.parametrize("kind", [MandelMatrix, VoigtMatrix])
    def test_array_protocol_takes_the_copy_keyword(self, kind):
        # numpy 2 passes copy= to __array__ and warns when it is not accepted
        matrix = kind(np.eye(6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fresh = np.array(matrix)
            shared = np.asarray(matrix)
            uncopied = np.array(matrix, copy=False)
            single = np.asarray(matrix, dtype=np.float32)
            with pytest.raises(ValueError):
                np.array(matrix, dtype=np.float32, copy=False)
        assert fresh is not matrix.entries and fresh.flags.writeable
        np.testing.assert_array_equal(fresh, matrix.entries)
        assert shared is matrix.entries and uncopied is matrix.entries
        assert single.dtype == np.float32
        if kind is MandelMatrix:
            assert not shared.flags.writeable


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_round_trip_and_norms(seed):
    rng = np.random.default_rng(seed)
    c = ElasticTensor4(random_symmetric_tensor4(rng))
    m = to_mandel(c)
    np.testing.assert_allclose(from_mandel(m).components, c.components, atol=1e-14)
    # Frobenius norm is preserved between tensor and Mandel pictures.
    assert np.linalg.norm(m.entries) == pytest.approx(
        np.linalg.norm(c.components), rel=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_rotation_preserves_spectrum(seed):
    rng = np.random.default_rng(seed)
    c = ElasticTensor4(random_symmetric_tensor4(rng))
    r = sampling.random_rotation(seed)
    before = kelvin_spectrum(c).eigenvalues
    after = kelvin_spectrum(rotate(c, r)).eigenvalues
    np.testing.assert_allclose(before, after, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_directional_moduli_match_four_index_contraction(seed):
    rng = np.random.default_rng(seed)
    c = random_symmetric_tensor4(rng) * 10.0 ** rng.uniform(-8, 8)
    d = sampling.unit_directions(60, seed=seed % 1000)
    reference = np.einsum("ijkl,qi,qj,qk,ql->q", c, d, d, d, d)
    values = directional_moduli(ElasticTensor4(c), d)
    np.testing.assert_allclose(values, reference, rtol=0, atol=1e-12 * np.abs(reference).max())


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_scale=st.floats(-10.0, 2.0),
    asymmetry=st.floats(0.0, 1.0),
)
def test_property_from_mandel_passes_the_tensor_checks_it_skips(seed, log_scale, asymmetry):
    # asymmetry up to the MandelMatrix tolerance, less a margin for rounding,
    # on one off-diagonal pair
    rng = np.random.default_rng(seed)
    m = random_symmetric_matrix(rng) * 10.0**log_scale
    a, b = rng.choice(6, size=2, replace=False)
    m[a, b] += asymmetry * (1.0 - 1e-4) * MandelMatrix._SYM_TOL * np.abs(m).max()
    mandel = MandelMatrix(m)
    c = from_mandel(mandel)
    checked = ElasticTensor4(c.components)
    assert checked.components.tobytes() == c.components.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_scale=st.floats(-10.0, 2.0),
    log_defect=st.floats(-14.0, math.log10(2e-8)),
)
def test_property_a_built_tensor_passes_every_mandel_check(seed, log_scale, log_defect):
    # one major-symmetry pair (ij, kl) is put out of balance by up to 2e-8 of
    # the largest component; its minor images move with it, so only the
    # major symmetry is broken
    rng = np.random.default_rng(seed)
    c = random_symmetric_tensor4(rng) * 10.0**log_scale
    p, q = rng.choice(6, size=2, replace=False)
    (i, j), (k, l) = SLOT_PAIRS[p], SLOT_PAIRS[q]
    c[[i, j, i, j], [j, i, j, i], [k, k, l, l], [l, l, k, k]] += (
        10.0**log_defect * np.abs(c).max()
    )
    try:
        tensor = ElasticTensor4(c)
    except ValueError:
        return
    to_mandel(tensor)
    directional_moduli(tensor, sampling.unit_directions(20, seed=seed % 1000))
    kelvin_spectrum(tensor)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), log_scale=st.floats(-10.0, 2.0))
def test_property_rotate_matches_the_searched_einsum_bit_for_bit(seed, log_scale):
    rng = np.random.default_rng(seed)
    c = random_symmetric_tensor4(rng) * 10.0**log_scale
    r = sampling.random_rotation(seed)
    searched = np.einsum("ia,jb,kc,ld,abcd->ijkl", r, r, r, r, c, optimize=True)
    assert rotate(ElasticTensor4(c), r).components.tobytes() == searched.tobytes()


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    log_scale=st.floats(-10.0, 2.0),
    case=st.sampled_from(
        ["clean", "nan", "inf", "-inf", "huge", "huge-opposite", "huge-diagonal", "asymmetric"]
    ),
    log_defect=st.floats(-13.0, -8.0),
)
def test_property_mandel_check_verdicts_match_two_passes(seed, log_scale, case, log_defect):
    rng = np.random.default_rng(seed)
    m = random_symmetric_matrix(rng) * 10.0**log_scale
    a, b = rng.choice(6, size=2, replace=False)
    if case in ("nan", "inf", "-inf"):
        m[a, b] = float(case)
    elif case == "huge":
        m[a, b] = m[b, a] = 1.7e308
    elif case == "huge-opposite":  # m - m.T overflows to inf
        m[a, b], m[b, a] = 1.7e308, -1.7e308
    elif case == "huge-diagonal":
        m[a, a] = -1.79e308
    elif case == "asymmetric":  # around the 1e-10 tolerance
        m[a, b] += 10.0**log_defect * np.abs(m).max()
    with np.errstate(over="ignore"):
        expected = mandel_verdict_two_passes(m)
        if expected is None:
            MandelMatrix(m)
        else:
            with pytest.raises(ValueError) as raised:
                MandelMatrix(m)
            assert str(raised.value) == expected


def _accepts(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    offsets=st.lists(
        st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-14.0, -9.0)), min_size=1, max_size=5
    ),
)
def test_property_every_unit_check_gives_one_verdict(seed, offsets):
    # rows off unit length by +-1e-14...1e-9, on both sides of UNIT_TOL
    scale = np.array([1.0 + sign * 10.0**log_offset for sign, log_offset in offsets])
    d = sampling.unit_directions(len(offsets), seed=seed % 1000) * scale[:, None]
    c = ElasticTensor4.isotropic(1.0, 1.0)
    rows = [
        {
            _accepts(DirectionSet, row[None, :], 0),
            _accepts(directional_moduli, c, row[None, :]),
            _accepts(directional_modulus, c, row),
            _accepts(beam_stiffness, 1.0, 0.05, row, BeamMaterial()),
        }
        for row in d
    ]
    assert all(len(verdicts) == 1 for verdicts in rows)
    whole = all(verdict for (verdict,) in rows)
    assert _accepts(DirectionSet, d, 0) == _accepts(directional_moduli, c, d) == whole
    assert whole == bool(np.abs(np.linalg.norm(d, axis=1) - 1.0).max() <= UNIT_TOL)
