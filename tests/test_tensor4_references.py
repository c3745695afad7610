"""The flat index tables and one-pass checks of ``tensor4``, and ``psd``'s
exponential, against the fancy-index formulas and check code they replaced.

The references below are those earlier forms, kept here only as oracles:
every gather must give the same bits, and every check the same verdict and
the same message.  The one value allowed to move is the determinant in
:func:`rotation_defect`, a cofactor expansion where LAPACK's LU was used; it
must stay within 1e-15 of the LAPACK figure.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmech import psd, sampling, tensor4
from latmech.tensor4 import (
    ROTATION_TOL,
    ElasticTensor4,
    MandelMatrix,
    RotationPair,
    _pair_products,
    _row_norms,
    _unit_dyads,
    check_rotation,
    from_mandel,
    mandel_rotation,
    rotation_defect,
    to_mandel,
    to_voigt,
    voigt_rotation,
)

from conftest import random_symmetric_matrix, random_symmetric_tensor4

SQRT2 = math.sqrt(2.0)
PAIR_I = np.array([0, 1, 2, 1, 0, 0])
PAIR_J = np.array([0, 1, 2, 2, 2, 1])
SLOT_OF = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])
WEIGHTS = np.array([1.0, 1.0, 1.0, SQRT2, SQRT2, SQRT2])
WEIGHT_PRODUCTS = np.outer(WEIGHTS, WEIGHTS)
WEIGHT_PRODUCTS[3:, 3:] = 2.0
MANDEL_DIVISORS = np.full((6, 6), SQRT2)
MANDEL_DIVISORS[:3, :3] = 2.0
MANDEL_DIVISORS[3:, 3:] = 1.0
VOIGT_DIVISORS = np.where(np.arange(6) < 3, 2.0, 1.0)


# --- the fancy-index formulas the take tables replaced ----------------------


def slot_table_reference(c: np.ndarray) -> np.ndarray:
    return c[PAIR_I[:, None], PAIR_J[:, None], PAIR_I[None, :], PAIR_J[None, :]]


def from_mandel_reference(m: np.ndarray) -> np.ndarray:
    left, right = SLOT_OF[:, :, None, None], SLOT_OF[None, None, :, :]
    return m[left, right] / WEIGHT_PRODUCTS[left, right]


def pair_products_reference(r: np.ndarray) -> np.ndarray:
    i, j = PAIR_I[:, None], PAIR_J[:, None]
    k, l = PAIR_I[None, :], PAIR_J[None, :]
    return r[i, k] * r[j, l] + r[i, l] * r[j, k]


def unit_dyads_reference(d: np.ndarray) -> np.ndarray:
    return WEIGHTS * d[:, PAIR_I] * d[:, PAIR_J]


def expm_reference(m: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(m, 1)
    theta = 1.0 / 32.0
    squarings = 0 if norm <= theta else int(math.ceil(math.log2(norm / theta)))
    x = m / (2.0**squarings)
    eye = np.eye(6)
    acc = eye + x / 6.0
    for k in (5.0, 4.0, 3.0, 2.0, 1.0):
        acc = eye + (x @ acc) / k
    for _ in range(squarings):
        acc = acc @ acc
    return acc


# --- the check code the one-pass checks replaced: a message, or None --------


def relative_defect_reference(a, b) -> float:
    return float(abs(a - b).max()) / max(float(abs(a).max()), 1e-30)


def mandel_message_reference(a) -> str | None:
    m = np.asarray(a, dtype=float)
    if m.shape != (6, 6):
        return f"Mandel matrix must be 6x6, got shape {m.shape}"
    scale = float(abs(m).max())
    if not math.isfinite(scale):
        return "Mandel matrix has non-finite entries"
    defect = float(abs(m - m.T).max()) / max(scale, 1e-30)
    if defect > 1e-10:
        return f"Mandel matrix not symmetric: relative defect {defect:.3e}"
    return None


def tensor_message_reference(components) -> str | None:
    c = np.array(components, dtype=float)
    if c.shape != (3, 3, 3, 3):
        return f"stiffness tensor must be 3x3x3x3, got {c.shape}"
    if not np.all(np.isfinite(c)):
        return "stiffness tensor has non-finite entries"
    for axes in ((1, 0, 2, 3), (0, 1, 3, 2)):
        defect = relative_defect_reference(c, c.transpose(axes))
        if defect > 1e-8:
            return f"tensor violates index symmetry {axes}: relative defect {defect:.3e}"
    return mandel_message_reference(WEIGHT_PRODUCTS * slot_table_reference(c))


def rotation_defect_reference(r: np.ndarray) -> float:
    ortho = np.abs(r.T @ r - np.eye(3)).max()
    with np.errstate(invalid="ignore"):  # LAPACK warns on a non-finite matrix
        det = np.linalg.det(r)
    return max(ortho, abs(det - 1.0))


def rotation_message_reference(r) -> str | None:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return f"rotation must be 3x3, got shape {r.shape}"
    defect = rotation_defect_reference(r)
    if not defect <= ROTATION_TOL:
        return f"not a proper rotation: orthonormality defect {defect:.3e}"
    return None


def rotation_pair_message_reference(r, rm) -> str | None:
    message = rotation_message_reference(r)
    if message is not None:
        return message
    rm = np.asarray(rm, dtype=float)
    if rm.shape != (6, 6):
        return f"Mandel rotation must be 6x6, got shape {rm.shape}"
    defect = np.abs(rm.T @ rm - np.eye(6)).max()
    if not defect <= ROTATION_TOL:
        return f"Mandel rotation not orthonormal: defect {defect:.3e}"
    return None


def message_of(build, *args) -> str | None:
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            build(*args)
    except ValueError as exc:
        return str(exc)
    return None


# --- inputs -----------------------------------------------------------------

# -0.0, subnormals, the smallest normal, 1e+-300 and ordinary values: the
# gathers must carry each one's bits, sign of zero included
SPECIAL = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300, 1e300, -1e300]
)
ENTRY = st.one_of(SPECIAL, st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True))


def symmetric_6x6(values) -> np.ndarray:
    """The symmetric 6x6 matrix with ``values`` on and above its diagonal."""
    m = np.zeros((6, 6))
    m[np.triu_indices(6)] = values
    lower = np.tril_indices(6, -1)
    m[lower] = m.T[lower]
    return m


def symmetric_tensor(values) -> np.ndarray:
    """The 3x3x3x3 tensor with both index symmetries whose slot table is
    the symmetric 6x6 matrix of ``values``: exact symmetry, whatever they are."""
    return symmetric_6x6(values)[SLOT_OF[:, :, None, None], SLOT_OF[None, None, :, :]]


def perturbed_rotation(seed: int, index: int, log_noise: float) -> np.ndarray:
    """A seeded rotation with entries moved by up to 10^log_noise."""
    r = sampling.random_rotation(seed, index)
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 3))
    return r + 10.0**log_noise * noise


ROTATIONS = dict(
    seed=st.integers(0, 2**32 - 1),
    index=st.integers(0, 1000),
    log_noise=st.one_of(st.just(-math.inf), st.floats(-16.0, -11.5)),
)


# --- gathers: the same index maps as the fancy-index formulas ---------------
#
# A gather does no arithmetic, so two gathers agree bit for bit on every
# input if and only if their index maps are equal, and one call on an input
# whose entries are all distinct (``np.arange``) compares the maps exactly.
# A weight or divisor table applied after such a gather is the same
# element-wise product or quotient on equal operands once the tables are
# equal; one call on special values then ties each function to that form.

DISTINCT3 = np.arange(9.0).reshape(3, 3)
DISTINCT4 = np.arange(81.0).reshape(3, 3, 3, 3)
SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-300, -1e-300,
                  1e300, -1e300, 3.5, -0.75, 1.0 / 3.0]


def test_slot_table_is_the_fancy_index_map():
    assert tensor4._slot_table(ElasticTensor4._unchecked(DISTINCT4.copy())).tobytes() == (
        slot_table_reference(DISTINCT4).tobytes()
    )
    assert tensor4._WEIGHT_PRODUCTS.tobytes() == WEIGHT_PRODUCTS.tobytes()
    c = symmetric_tensor((SPECIAL_VALUES * 2)[:21])
    tensor = ElasticTensor4(c)
    assert to_mandel(tensor).entries.tobytes() == (
        WEIGHT_PRODUCTS * slot_table_reference(c)
    ).tobytes()
    assert to_voigt(tensor).entries.tobytes() == slot_table_reference(c).tobytes()


def test_pair_product_tables_are_the_fancy_index_maps():
    i, j = PAIR_I[:, None], PAIR_J[:, None]
    k, l = PAIR_I[None, :], PAIR_J[None, :]
    for table, rows, cols in ((tensor4._R_IK, i, k), (tensor4._R_JL, j, l),
                              (tensor4._R_IL, i, l), (tensor4._R_JK, j, k)):
        assert DISTINCT3.take(table).tobytes() == DISTINCT3[rows, cols].tobytes()
    a = np.array(SPECIAL_VALUES[:9]).reshape(3, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        got, expected = _pair_products(a), pair_products_reference(a)
    assert got.tobytes() == expected.tobytes()


def test_rotation_forms_divide_the_pair_products_by_the_same_divisors():
    assert tensor4._MANDEL_ROTATION_DIVISORS.tobytes() == MANDEL_DIVISORS.tobytes()
    assert tensor4._VOIGT_ROTATION_DIVISORS.tobytes() == VOIGT_DIVISORS.tobytes()
    r = perturbed_rotation(7, 3, -12.0)
    assert mandel_rotation(r).r_mandel.tobytes() == (
        pair_products_reference(r) / MANDEL_DIVISORS
    ).tobytes()
    assert voigt_rotation(r).tobytes() == (pair_products_reference(r) / VOIGT_DIVISORS).tobytes()


# from_mandel divides its entries by the weights before it gathers, where the
# formula gathers both, so it keeps its property over many inputs
@settings(max_examples=150, deadline=None)
@given(values=st.lists(ENTRY, min_size=21, max_size=21))
def test_property_from_mandel_matches_the_fancy_index_formula(values):
    m = symmetric_6x6(values)
    assert from_mandel(m).components.tobytes() == from_mandel_reference(m).tobytes()
    assert from_mandel(MandelMatrix(m)).components.tobytes() == from_mandel_reference(m).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 300),
    log_offset=st.one_of(st.just(-math.inf), st.floats(-16.0, -12.5)),
)
def test_property_unit_dyads_match_the_fancy_index_formula(seed, n, log_offset):
    d = sampling.unit_directions(n, seed) * (1.0 + 10.0**log_offset)
    assert _unit_dyads(d).tobytes() == unit_dyads_reference(d).tobytes()
    # and a column slice, which is not contiguous, gathers the same
    wide = np.repeat(d, 2, axis=1)[:, ::2]
    assert _unit_dyads(wide).tobytes() == unit_dyads_reference(d).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(0, 40),
    cols=st.integers(1, 12),
    log_scale=st.floats(-150.0, 150.0),
)
def test_property_row_norms_match_linalg_norm(seed, rows, cols, log_scale):
    x = np.random.default_rng(seed).standard_normal((rows, cols)) * 10.0**log_scale
    for layout in (x, np.asfortranarray(x), x[:, ::-1]):
        assert _row_norms(layout).tobytes() == np.linalg.norm(layout, axis=1).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-12.0, 1.5))
def test_property_psd_exponential_matches_the_linalg_norm_form(seed, log_scale):
    m = random_symmetric_matrix(np.random.default_rng(seed)) * 10.0**log_scale
    assert psd._expm(m).tobytes() == expm_reference(m).tobytes()


# --- checks: the same verdict and message as the code they replaced ---------


# finite, non-finite and asymmetric 6x6 inputs are compared with the same
# check code in test_tensor4.py::test_property_mandel_check_verdicts_match_two_passes
@pytest.mark.parametrize("shape", [(5, 5), (6,), (36,), (6, 6, 1), (7, 6)])
def test_mandel_check_rejects_each_wrong_shape_as_before(shape):
    m = np.ones(shape)
    assert message_of(MandelMatrix, m) == mandel_message_reference(m)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-300.0, 300.0),
    case=st.sampled_from(
        ["clean", "nan", "inf", "-inf", "shape", "minor-half", "minor-double", "major-half",
         "major-double"]
    ),
)
def test_property_tensor_check_matches_the_replaced_check(seed, log_scale, case):
    rng = np.random.default_rng(seed)
    c = random_symmetric_tensor4(rng) * 10.0**log_scale
    where = tuple(rng.integers(0, 3, size=4))
    ratio = 0.5 if case.endswith("half") else 2.0
    if case in ("nan", "inf", "-inf"):
        c[where] = float(case)
    elif case == "shape":
        c = c[: rng.integers(1, 3)]
    elif case.startswith("minor"):  # one component, so both index symmetries break
        c[where] += ratio * 1e-8 * np.abs(c).max()
    elif case.startswith("major"):  # (ij, kl) against (kl, ij), minor images moved alike
        p, q = rng.choice(6, size=2, replace=False)
        (i, j), (k, l) = tensor4.SLOT_PAIRS[p], tensor4.SLOT_PAIRS[q]
        c[[i, j, i, j], [j, i, j, i], [k, k, l, l], [l, l, k, k]] += (
            ratio * 1e-10 * np.abs(c).max() / (WEIGHTS[p] * WEIGHTS[q])
        )
    assert message_of(ElasticTensor4, c) == tensor_message_reference(c)


@settings(max_examples=150, deadline=None)
@given(
    **ROTATIONS,
    case=st.sampled_from(["clean", "nan", "inf", "-inf", "shape", "half", "double"]),
    a=st.integers(0, 2),
    b=st.integers(1, 2),
)
def test_property_rotation_checks_match_the_replaced_checks(seed, index, log_noise, case, a, b):
    # a symmetric, traceless stretch (I + e S) moves R^T R by 2e S and det R
    # only by e^2, so at 0.5x and 2x the tolerance the orthonormality term,
    # computed as before, decides; the determinant's turn is the test below
    r = perturbed_rotation(seed, index, log_noise)
    b = (a + b) % 3
    if case in ("nan", "inf", "-inf"):
        r[a, b] = float(case)
    elif case == "shape":
        r = r[:a + 1] if a < 2 else np.ones((4, 4))
    elif case in ("half", "double"):
        stretch = np.eye(3)
        stretch[a, b] = stretch[b, a] = (0.25 if case == "half" else 1.0) * ROTATION_TOL
        r = r @ stretch
    expected = rotation_message_reference(r)
    assert message_of(check_rotation, r) == expected
    rm = pair_products_reference(r) / MANDEL_DIVISORS if np.shape(r) == (3, 3) else np.eye(6)
    assert message_of(RotationPair, r, rm) == rotation_pair_message_reference(r, rm)
    if expected is None:
        assert message_of(mandel_rotation, r) is None


@settings(max_examples=150, deadline=None)
@given(
    **ROTATIONS,
    case=st.sampled_from(["nan", "inf", "shape", "half", "double"]),
    a=st.integers(0, 5),
    b=st.integers(1, 5),
)
def test_property_rotation_pair_mandel_check_matches_the_replaced_check(
    seed, index, log_noise, case, a, b
):
    r = perturbed_rotation(seed, index, log_noise)
    rm = pair_products_reference(r) / MANDEL_DIVISORS
    b = (a + b) % 6
    if case in ("nan", "inf"):
        rm[a, b] = float(case)
    elif case == "shape":
        rm = rm[:a + 1]
    else:
        stretch = np.eye(6)
        stretch[a, b] = stretch[b, a] = (0.25 if case == "half" else 1.0) * ROTATION_TOL
        rm = rm @ stretch
    assert message_of(RotationPair, r, rm) == rotation_pair_message_reference(r, rm)


@settings(max_examples=200, deadline=None)
@given(
    **ROTATIONS,
    log_stretch=st.one_of(st.just(-math.inf), st.floats(-13.0, -8.0)),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_property_cofactor_determinant_is_within_1e_15_of_lapack(
    seed, index, log_noise, log_stretch, sign
):
    # a uniform stretch (1 + s) moves det R by 3s, so that term decides
    r = perturbed_rotation(seed, index, log_noise) * (1.0 + sign * 10.0**log_stretch)
    got, expected = rotation_defect(r), rotation_defect_reference(r)
    assert abs(got - expected) <= 1e-15
    if abs(expected - ROTATION_TOL) > 1e-15:
        assert (message_of(check_rotation, r) is None) == (expected <= ROTATION_TOL)


def test_rotation_checks_of_a_reflection_and_a_stretch_read_as_before():
    for r in (np.diag([1.0, 1.0, -1.0]), np.diag([1.0, 1.0, 1.0 + 2e-10]),
              np.diag([1.0, 1.0, 1.0 + 2e-11])):
        assert message_of(check_rotation, r) == rotation_message_reference(r)
        assert message_of(RotationPair, r, np.eye(6)) == rotation_pair_message_reference(
            r, np.eye(6)
        )
