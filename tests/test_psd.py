import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmech import psd, sampling, tensor4
from latmech.psd import (
    MATRIX_METHODS,
    PsdMethod,
    cholesky_assemble,
    equivariance_defect,
    lower_triangle_params,
    project,
)
from latmech.fe import homogenize
from latmech.lattice import simple_cubic
from latmech.tensor4 import MandelMatrix, mandel_rotation, to_mandel

from conftest import random_symmetric_matrix


def eig_oracle(m: np.ndarray, fn) -> np.ndarray:
    """Independent eigendecomposition route for matrix functions."""
    w, v = np.linalg.eigh(m)
    return (v * fn(w)) @ v.T


class TestProject:
    def test_square_identity(self):
        np.testing.assert_array_equal(project(np.eye(6), PsdMethod.SQUARE), np.eye(6))

    def test_square_diagonal(self):
        diag = np.diag([1.0, -2.0, 3.0, 0.0, 1.0, 1.0])
        out = project(diag, PsdMethod.SQUARE)
        np.testing.assert_allclose(out, np.diag([1.0, 4.0, 9.0, 0.0, 1.0, 1.0]))

    def test_square_is_exact_matrix_product(self, rng):
        m = random_symmetric_matrix(rng)
        np.testing.assert_array_equal(project(m, PsdMethod.SQUARE), m @ m)

    def test_fourth_matches_eig_oracle(self, rng):
        m = random_symmetric_matrix(rng)
        np.testing.assert_allclose(
            project(m, PsdMethod.FOURTH), eig_oracle(m, lambda w: w**4), atol=1e-10
        )

    def test_exp_eigenvalues_match_oracle(self, rng):
        for _ in range(20):
            m = random_symmetric_matrix(rng)
            out = project(m, PsdMethod.EXP)
            expected = np.exp(np.linalg.eigvalsh(m))
            np.testing.assert_allclose(np.linalg.eigvalsh(out), expected, rtol=1e-9)

    def test_exp_strictly_positive(self, rng):
        m = random_symmetric_matrix(rng)
        assert np.linalg.eigvalsh(project(m, PsdMethod.EXP)).min() > 0.0

    def test_trunc_exp2_formula(self, rng):
        m = random_symmetric_matrix(rng)
        t = np.eye(6) + m / 2.0
        np.testing.assert_allclose(project(m, PsdMethod.TRUNC_EXP2), t @ t, atol=1e-14)
        assert np.linalg.eigvalsh(project(m, PsdMethod.TRUNC_EXP2)).min() >= -1e-12

    def test_trunc_exp4_formula(self, rng):
        m = random_symmetric_matrix(rng)
        t = np.eye(6) + m / 4.0
        np.testing.assert_allclose(
            project(m, PsdMethod.TRUNC_EXP4), (t @ t) @ (t @ t), atol=1e-13
        )

    def test_eigclamp_matches_relu_oracle(self, rng):
        m = random_symmetric_matrix(rng)
        np.testing.assert_allclose(
            project(m, PsdMethod.EIGEN_CLAMP),
            eig_oracle(m, lambda w: np.maximum(w, 0.0)),
            atol=1e-12,
        )

    def test_eigclamp_relu_idempotent(self, rng):
        m = random_symmetric_matrix(rng)
        once = project(m, PsdMethod.EIGEN_CLAMP)
        twice = project(once, PsdMethod.EIGEN_CLAMP)
        assert np.abs(twice - once).max() < 1e-10

    def test_all_methods_psd_floor(self, rng):
        for method in sorted(MATRIX_METHODS, key=lambda m: m.value):
            for _ in range(100):
                m = random_symmetric_matrix(rng)
                out = project(m, method)
                floor = -1e-10 * np.linalg.norm(out)
                assert np.linalg.eigvalsh(out).min() >= floor, method

    def test_rejects_asymmetric(self):
        bad = np.eye(6)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError, match="symmetric"):
            project(bad, PsdMethod.SQUARE)

    def test_cholesky_is_not_a_matrix_map(self):
        # cholesky_assemble takes 21 parameters, not a matrix
        with pytest.raises(ValueError, match="cholesky"):
            PsdMethod("cholesky")

    @pytest.mark.parametrize("method", ["square", "bogus", None])
    def test_unknown_method_is_a_value_error_naming_the_six(self, method):
        names = "square, fourth, exp, trunc2, trunc4, eigclamp"
        rp = mandel_rotation(np.eye(3))
        message = f"^unknown PSD method {method!r}: expected a PsdMethod, one of {names}$"
        with pytest.raises(ValueError, match=message):
            project(np.eye(6), method)
        with pytest.raises(ValueError, match=message):
            equivariance_defect(method, np.eye(6), rp)

    def test_symmetry_check_is_relative(self):
        m = to_mandel(homogenize(simple_cubic(radius=0.01)).stiffness).entries.copy()
        m[0, 1] += 5e-11
        with pytest.raises(ValueError, match="not symmetric"):
            project(m, PsdMethod.SQUARE)


class TestExpKernel:
    def test_matches_eig_exp_tightly(self, rng):
        for scale in (0.1, 1.0, 5.0):
            m = scale * random_symmetric_matrix(rng)
            rel = np.linalg.norm(project(m, PsdMethod.EXP) - eig_oracle(m, np.exp))
            rel /= np.linalg.norm(eig_oracle(m, np.exp))
            assert rel < 1e-12

    def test_truncation_ladder_converges_monotonically(self):
        # (I + M/2^k)^(2^k) approaches exp(M) from below per eigenvalue, so
        # the Frobenius error decreases in k for a fixed matrix.
        rng = np.random.default_rng(4)
        m = random_symmetric_matrix(rng)
        exact = project(m, PsdMethod.EXP)
        errors = []
        for k in range(1, 9):
            approx = np.linalg.matrix_power(np.eye(6) + m / 2.0**k, 2**k)
            errors.append(np.linalg.norm(approx - exact))
        assert all(b < a for a, b in zip(errors, errors[1:]))


class TestCholeskyAssemble:
    def test_zero_params_exp_map_gives_identity(self):
        np.testing.assert_allclose(cholesky_assemble(np.zeros(21), "exp"), np.eye(6))

    def test_zero_params_relu_map_gives_zero(self):
        np.testing.assert_array_equal(cholesky_assemble(np.zeros(21), "relu"), np.zeros((6, 6)))

    def test_random_params_psd(self, rng):
        for _ in range(50):
            out = cholesky_assemble(rng.standard_normal(21), "exp")
            assert np.linalg.eigvalsh(out).min() >= -1e-12

    def test_parameter_layout_row_major_lower(self):
        params = np.arange(21, dtype=float)
        out = cholesky_assemble(params, "relu")
        lower = np.zeros((6, 6))
        rows, cols = np.tril_indices(6)
        lower[rows, cols] = params
        np.testing.assert_allclose(out, lower @ lower.T)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="21"):
            cholesky_assemble(np.zeros(20), "exp")


class TestEquivariance:
    def test_identity_rotation_zero_defect(self, rng):
        m = random_symmetric_matrix(rng)
        rp = mandel_rotation(np.eye(3))
        assert equivariance_defect(PsdMethod.SQUARE, m, rp) == 0.0

    def test_matrix_methods_equivariant(self, rng):
        methods = [
            PsdMethod.SQUARE,
            PsdMethod.FOURTH,
            PsdMethod.EXP,
            PsdMethod.TRUNC_EXP2,
            PsdMethod.TRUNC_EXP4,
        ]
        for k in range(40):
            m = random_symmetric_matrix(rng)
            rp = mandel_rotation(sampling.random_rotation(900 + k))
            for method in methods:
                assert equivariance_defect(method, m, rp) < 1e-9, method

    @pytest.mark.parametrize("method", sorted(MATRIX_METHODS, key=lambda m: m.value))
    def test_validates_each_input_once(self, monkeypatch, rng, method):
        m = random_symmetric_matrix(rng)
        rp = mandel_rotation(sampling.random_rotation(21))
        # the defect as composed from public calls, each validating its input
        rm = rp.r_mandel
        s = 0.5 * (m + m.T)
        projected = project(s, method)
        gap = project(rm @ s @ rm.T, method) - rm @ projected @ rm.T
        composed = float(np.linalg.norm(gap) / np.linalg.norm(projected))
        calls, built = [], []
        check, build = tensor4._check_mandel_entries, MandelMatrix.__post_init__

        def counting(entries):
            calls.append(1)
            return check(entries)

        # the one verdict, wherever it is called from, and no matrix built
        monkeypatch.setattr(tensor4, "_check_mandel_entries", counting)
        monkeypatch.setattr(psd, "_check_mandel_entries", counting)
        monkeypatch.setattr(MandelMatrix, "__post_init__", lambda self: built.append(1) or build(self))
        assert project(m, method).tobytes() == projected.tobytes()
        assert len(calls) == 1
        assert equivariance_defect(method, m, rp) == composed
        assert len(calls) == 2
        assert built == []

    @pytest.mark.parametrize("method", sorted(MATRIX_METHODS, key=lambda m: m.value))
    def test_does_not_check_a_mandel_matrix_again(self, monkeypatch, rng, method):
        raw = random_symmetric_matrix(rng)
        m = MandelMatrix(raw)
        rp = mandel_rotation(sampling.random_rotation(21))
        projected, defect = project(raw, method), equivariance_defect(method, raw, rp)
        calls = []
        check = MandelMatrix.__post_init__
        monkeypatch.setattr(
            MandelMatrix, "__post_init__", lambda self: calls.append(1) or check(self)
        )
        assert project(m, method).tobytes() == projected.tobytes()
        assert equivariance_defect(method, m, rp) == defect
        assert len(calls) == 0

    def test_cholesky_reassembly_not_equivariant(self):
        # Treat the 21 parameters as raw Mandel components: rotate the
        # symmetric matrix they fill, read its lower triangle back, and
        # re-assemble.  A concrete (params, rotation) pair shows the gap.
        rng = np.random.default_rng(12)
        params = rng.standard_normal(21)
        rp = mandel_rotation(sampling.random_rotation(13))
        filled = np.zeros((6, 6))
        rows, cols = np.tril_indices(6)
        filled[rows, cols] = params
        filled = filled + np.tril(filled, -1).T
        rotated_params = lower_triangle_params(rp.r_mandel @ filled @ rp.r_mandel.T)
        reassembled = cholesky_assemble(rotated_params, "exp")
        rotated_output = rp.r_mandel @ cholesky_assemble(params, "exp") @ rp.r_mandel.T
        defect = np.linalg.norm(reassembled - rotated_output) / np.linalg.norm(rotated_output)
        assert defect > 1e-2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_property_outputs_are_psd(seed):
    rng = np.random.default_rng(seed)
    m = random_symmetric_matrix(rng)
    for method in (PsdMethod.SQUARE, PsdMethod.EXP, PsdMethod.TRUNC_EXP4, PsdMethod.EIGEN_CLAMP):
        out = project(m, method)
        assert np.linalg.eigvalsh(out).min() >= -1e-10 * max(np.linalg.norm(out), 1e-30)
        np.testing.assert_allclose(out, out.T, atol=1e-13)


def _accepts(check, m) -> bool:
    try:
        check(m)
    except ValueError:
        return False
    return True


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    asymmetry=st.sampled_from([0.0, 1e-14, 1e-12, 1e-11, 1e-9, 1e-8, 1e-6]),
    log_scale=st.floats(min_value=-8.0, max_value=8.0),
)
def test_property_symmetry_verdict_is_scale_free(seed, asymmetry, log_scale):
    rng = np.random.default_rng(seed)
    m = random_symmetric_matrix(rng)
    m /= np.abs(m).max()
    i, j = rng.choice(6, size=2, replace=False)
    m[i, j] += asymmetry
    scale = 10.0**log_scale
    for check in (MandelMatrix, lambda a: project(a, PsdMethod.SQUARE)):
        assert _accepts(check, m) == (asymmetry < 1e-10)
        assert _accepts(check, scale * m) == _accepts(check, m)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    case=st.sampled_from(["clean", "defect", "nan", "inf", "shape"]),
    side=st.sampled_from([-1e-3, -1e-14, 0.0, 1e-14, 1e-3]),
    log_scale=st.floats(-300.0, 300.0),
    method=st.sampled_from(sorted(MATRIX_METHODS, key=lambda m: m.value)),
)
def test_property_a_raw_array_projects_as_its_mandelmatrix(seed, case, side, log_scale, method):
    # the verdict on a raw array is MandelMatrix's, near the 1e-10 line too,
    # and a passing array projects to the bits of its checked matrix
    rng = np.random.default_rng(seed)
    m = random_symmetric_matrix(rng)
    m = m / np.abs(m).max() * 10.0**log_scale
    a, b = rng.choice(6, size=2, replace=False)
    if case == "defect":
        m[a, b] += 1e-10 * (1.0 + side) * np.abs(m).max()
    elif case in ("nan", "inf"):
        m[a, b] = float(case)
    elif case == "shape":
        m = m[:5]
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        try:
            checked = MandelMatrix(m)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                project(m, method)
            assert str(raised.value) == str(exc)
            return
        assert project(m, method).tobytes() == project(checked, method).tobytes()
