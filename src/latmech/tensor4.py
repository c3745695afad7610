"""Fourth-order elasticity tensors and their 6x6 matrix representations.

The stiffness tensor ``C_ijkl`` carries minor (``ij``/``ji``, ``kl``/``lk``)
and major (``ij``/``kl``) index symmetries, leaving 21 independent
components.  This module provides:

* construction and validation of such tensors,
* the orthonormal Mandel matrix form (slot order 11, 22, 33, 23, 13, 12,
  with sqrt(2) weights on the shear slots) and its exact inverse,
* the conventional Voigt matrix form (kept for comparison; its rotation
  rule is conjugation by a non-orthogonal matrix),
* the 6x6 representation of SO(3) acting on Mandel space,
* rotation in both the Cartesian and Mandel pictures,
* directional stiffness, strain energy, and the Kelvin eigendecomposition.

A tensor is checked where it is built: the constructor checks its Mandel
form and keeps it, and a tensor from :func:`from_mandel` stands for the
checked matrix it came from.  All values are pure data; every function is
side-effect free, apart from a tensor keeping its Mandel matrix once built,
a target keeping its moduli along the directions ``metrics.l_dir`` last
scored it on, and a :class:`DirectionSet` keeping its dyad table here.
Components, Mandel entries and directions lie over immutable bytes, so no
caller can make them writable and leave a kept form stale.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import sampling

# Mandel/Voigt slot order: 11, 22, 33, 23, 13, 12 (0-based pairs).
SLOT_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
_SQRT2 = math.sqrt(2.0)
_WEIGHTS = np.array([1.0, 1.0, 1.0, _SQRT2, _SQRT2, _SQRT2])
# Pairwise weight products with the shear-shear block pinned to exactly 2.
_WEIGHT_PRODUCTS = np.outer(_WEIGHTS, _WEIGHTS)
_WEIGHT_PRODUCTS[3:, 3:] = 2.0
# SLOT_OF[i, j] = Mandel slot of the (i, j) component of a symmetric tensor.
_SLOT_OF = np.array([[0, 5, 4], [5, 1, 3], [4, 3, 2]])
_I6 = np.arange(6)
_PAIR_I = np.array([p[0] for p in SLOT_PAIRS])
_PAIR_J = np.array([p[1] for p in SLOT_PAIRS])

# An index map of a small fixed-size array is one ``take`` from a flat table
# built once here: a flat gather costs a fraction of fancy indexing with
# several index arrays.  (One index array on a 1-D array, or the column
# picks of an (n, 3) array, are cheaper as they are.)
_FLAT3 = np.arange(9).reshape(3, 3)
_FLAT4 = np.arange(81).reshape(3, 3, 3, 3)
# C_ijkl over slot pairs (ij), (kl)
_SLOT_TABLE = _FLAT4[_PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I[None, :], _PAIR_J[None, :]]
# Mandel entry (SLOT_OF[i, j], SLOT_OF[k, l]) of each component C_ijkl
_COMPONENT_SLOTS = 6 * _SLOT_OF[:, :, None, None] + _SLOT_OF[None, None, :, :]
# r_ik, r_jl, r_il and r_jk over slot pairs (ij), (kl)
_R_IK = _FLAT3[_PAIR_I[:, None], _PAIR_I[None, :]]
_R_JL = _FLAT3[_PAIR_J[:, None], _PAIR_J[None, :]]
_R_IL = _FLAT3[_PAIR_I[:, None], _PAIR_J[None, :]]
_R_JK = _FLAT3[_PAIR_J[:, None], _PAIR_I[None, :]]
# C_jikl and C_ijlk: the images of C_ijkl under the two minor symmetries
_MINOR_IMAGES = (
    ((1, 0, 2, 3), _FLAT4.transpose(1, 0, 2, 3).copy()),
    ((0, 1, 3, 2), _FLAT4.transpose(0, 1, 3, 2).copy()),
)

_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
_EYE6 = np.eye(6)
_EYE6.setflags(write=False)

# Divisors turning the table of r_ik r_jl + r_il r_jk into each rotation form.
_MANDEL_ROTATION_DIVISORS = np.full((6, 6), _SQRT2)
_MANDEL_ROTATION_DIVISORS[:3, :3] = 2.0
_MANDEL_ROTATION_DIVISORS[3:, 3:] = 1.0
_VOIGT_ROTATION_DIVISORS = np.where(_I6 < 3, 2.0, 1.0)

ROTATION_TOL = 1e-10
UNIT_TOL = 1e-12  # largest |1 - |d|| of a unit direction or beam axis

# The contraction order numpy's greedy search picks for :func:`rotate`,
# fixed so that each call skips the search, which costs more than the
# contraction; the order, and so every bit of the result, is the same.
_ROTATE_PATH = ["einsum_path", (0, 4), (0, 3), (0, 2), (0, 1)]


def relative_defect(a, b) -> float:
    """``max|a - b|`` relative to ``max|a|``: a verdict that does not depend on scale."""
    return float(abs(a - b).max()) / max(float(abs(a).max()), 1e-30)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(x, axis=1)`` of a 2-D float array, bit for bit: the
    ops it runs for one axis, without its wrapper."""
    return np.sqrt(np.add.reduce(x * x, axis=1))


def _frozen(a: np.ndarray) -> np.ndarray:
    """A copy of a float array over immutable bytes, which cannot be made writable."""
    return np.frombuffer(a.tobytes()).reshape(a.shape)


def _as_square(a, n: int, what: str) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.shape != (n, n):
        raise ValueError(f"{what} must be {n}x{n}, got shape {arr.shape}")
    return arr


def rotation_defect(r) -> float:
    """Max of the orthonormality defect ``|R^T R - I|`` and ``|det R - 1|``.

    The determinant is the cofactor expansion along the first row, within
    about an ulp of LAPACK's, at a fraction of ``np.linalg.det``'s cost."""
    r = _as_square(r, 3, "rotation")
    ortho = np.abs(r.T @ r - _EYE3).max()
    (a, b, c), (d, e, f), (g, h, i) = r.tolist()
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return max(ortho, abs(det - 1.0))


def check_rotation(r) -> np.ndarray:
    """Validate that ``r`` is a proper rotation; returns it as an array."""
    r = _as_square(r, 3, "rotation")
    defect = rotation_defect(r)
    if not defect <= ROTATION_TOL:
        raise ValueError(f"not a proper rotation: orthonormality defect {defect:.3e}")
    return r


@dataclass(frozen=True)
class ElasticTensor4:
    """Fourth-order stiffness tensor with minor and major symmetries.

    The constructor checks the major symmetry as its :class:`MandelMatrix`'s
    and keeps the matrix for :func:`to_mandel`; a target of ``metrics.l_dir``
    keeps its moduli for the last directions scored.  ``components`` is a
    read-only array the tensor owns, so no kept form can disagree with it."""

    components: np.ndarray
    _mandel: MandelMatrix | None = field(default=None, init=False, repr=False, compare=False)
    _moduli: tuple | None = field(default=None, init=False, repr=False, compare=False)

    _SYM_TOL = 1e-8

    def __post_init__(self):
        c = _frozen(np.asarray(self.components, dtype=float))
        if c.shape != (3, 3, 3, 3):
            raise ValueError(f"stiffness tensor must be 3x3x3x3, got {c.shape}")
        # as in MandelMatrix, one reduction gives the finiteness verdict and
        # the scale that both minor-symmetry defects are relative to
        scale = float(abs(c).max())
        if not math.isfinite(scale):
            raise ValueError("stiffness tensor has non-finite entries")
        for axes, image in _MINOR_IMAGES:
            defect = float(abs(c - c.take(image)).max()) / max(scale, 1e-30)
            if defect > self._SYM_TOL:
                raise ValueError(
                    f"tensor violates index symmetry {axes}: relative defect {defect:.3e}"
                )
        object.__setattr__(self, "components", c)
        object.__setattr__(self, "_mandel", MandelMatrix(_WEIGHT_PRODUCTS * _slot_table(self)))

    @classmethod
    def _unchecked(cls, components: np.ndarray) -> "ElasticTensor4":
        """A tensor of float (3, 3, 3, 3) ``components`` that are known to
        pass every check of ``__post_init__``, built without repeating them
        on a copy that cannot be made writable."""
        tensor = object.__new__(cls)
        object.__setattr__(tensor, "components", _frozen(components))
        object.__setattr__(tensor, "_mandel", None)
        object.__setattr__(tensor, "_moduli", None)
        return tensor

    @classmethod
    def zero(cls) -> "ElasticTensor4":
        return cls(np.zeros((3, 3, 3, 3)))

    @classmethod
    def isotropic(cls, lam: float, mu: float) -> "ElasticTensor4":
        """C_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk)."""
        eye = np.eye(3)
        c = (
            lam * np.einsum("ij,kl->ijkl", eye, eye)
            + mu * np.einsum("ik,jl->ijkl", eye, eye)
            + mu * np.einsum("il,jk->ijkl", eye, eye)
        )
        return cls(c)


@dataclass(frozen=True)
class MandelMatrix:
    """Symmetric 6x6 stiffness matrix in the orthonormal Mandel basis.

    ``entries`` is a copy that the matrix owns and that cannot be made
    writable, so a matrix that passed its checks stays valid whatever the
    caller does to its input."""

    entries: np.ndarray

    _SYM_TOL = 1e-10

    def __post_init__(self):
        m = _frozen(_as_square(self.entries, 6, "Mandel matrix"))
        object.__setattr__(self, "entries", _check_mandel_entries(m))

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype, copy=copy)

    @classmethod
    def _unchecked(cls, entries: np.ndarray) -> "MandelMatrix":
        """A matrix of immutable float (6, 6) ``entries`` that are known to
        pass every check of ``__post_init__``, built without repeating them."""
        matrix = object.__new__(cls)
        object.__setattr__(matrix, "entries", entries)
        return matrix


def _check_mandel_entries(m: np.ndarray) -> np.ndarray:
    """The one verdict on a float (6, 6) array as a :class:`MandelMatrix`; returns it.
    One reduction, NaN or inf exactly when an entry is, also scales the defect."""
    scale = float(abs(m).max())
    if not math.isfinite(scale):
        raise ValueError("Mandel matrix has non-finite entries")
    defect = float(abs(m - m.T).max()) / max(scale, 1e-30)
    if defect > MandelMatrix._SYM_TOL:
        raise ValueError(f"Mandel matrix not symmetric: relative defect {defect:.3e}")
    return m


def _mandel_stack(stack: np.ndarray) -> list:
    """The :class:`MandelMatrix` of each matrix of a float (B, 6, 6) ``stack``,
    or the ``ValueError`` that ``MandelMatrix`` raises for it.

    Each verdict is MandelMatrix's, from the same maxima and quotient taken
    in whole-stack steps.  A failing matrix goes through MandelMatrix, so the
    messages have one owner.  The passing matrices are views of one copy of
    the stack that cannot be made writable.
    """
    stack = _frozen(stack)
    flat = stack.reshape(-1, 36)
    scale = abs(flat).max(axis=1)
    finite = np.isfinite(scale)
    # as in MandelMatrix, a non-finite matrix fails before its defect is taken
    flat = flat if finite.all() else np.where(finite[:, None], flat, 0.0)
    defect = abs(flat - flat.reshape(-1, 6, 6).transpose(0, 2, 1).reshape(-1, 36)).max(axis=1)
    passed = (finite & (defect / np.maximum(scale, 1e-30) <= MandelMatrix._SYM_TOL)).tolist()
    out = []
    for m, ok in zip(stack, passed):
        if ok:
            out.append(MandelMatrix._unchecked(m))
            continue
        try:
            out.append(MandelMatrix(m))
        except ValueError as exc:
            out.append(exc)
    return out


def _checked_mandel(m) -> MandelMatrix:
    """``m`` as a :class:`MandelMatrix`: one that is passed in already passed
    the checks when it was built and its entries cannot be written, so it is
    returned as it is; anything else is checked."""
    return m if isinstance(m, MandelMatrix) else MandelMatrix(m)


@dataclass(frozen=True)
class VoigtMatrix:
    """6x6 stiffness matrix in conventional (stress-form) Voigt notation."""

    entries: np.ndarray

    def __post_init__(self):
        m = _as_square(self.entries, 6, "Voigt matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("Voigt matrix has non-finite entries")
        object.__setattr__(self, "entries", m)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.entries, dtype=dtype, copy=copy)


@dataclass(frozen=True)
class RotationPair:
    """A proper rotation together with its 6x6 Mandel-space representation."""

    r: np.ndarray
    r_mandel: np.ndarray

    def __post_init__(self):
        r = check_rotation(self.r)
        rm = _as_square(self.r_mandel, 6, "Mandel rotation")
        defect = np.abs(rm.T @ rm - _EYE6).max()
        if not defect <= ROTATION_TOL:
            raise ValueError(f"Mandel rotation not orthonormal: defect {defect:.3e}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "r_mandel", rm)


@dataclass(frozen=True)
class KelvinSpectrum:
    """Eigenvalues (descending) and orthonormal strain eigentensors of a stiffness."""

    eigenvalues: np.ndarray
    eigentensors: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.eigenvalues, dtype=float)
        e = np.asarray(self.eigentensors, dtype=float)
        if w.shape != (6,) or e.shape != (6, 3, 3):
            raise ValueError("Kelvin spectrum needs 6 eigenvalues and 6 3x3 eigentensors")
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigentensors", e)


def _slot_table(c: ElasticTensor4) -> np.ndarray:
    """6x6 table of ``C_ijkl`` over slot pairs ``(ij)``, ``(kl)``."""
    return c.components.take(_SLOT_TABLE)


def to_mandel(c: ElasticTensor4) -> MandelMatrix:
    """6x6 Mandel matrix: sqrt(2) on normal-shear blocks, 2 on shear-shear.

    The constructor checked the matrix and kept it, so it is returned as it
    is.  A tensor from :func:`from_mandel` stands for the checked matrix it
    came from, so its matrix is converted, not checked, on the first call
    and kept from then on.  Its entries are read-only, so no caller can
    change what the next one reads.
    """
    m = c._mandel
    if m is None:
        m = MandelMatrix._unchecked(_frozen(_WEIGHT_PRODUCTS * _slot_table(c)))
        object.__setattr__(c, "_mandel", m)
    return m


def from_mandel(m: MandelMatrix | np.ndarray) -> ElasticTensor4:
    """Exact inverse of :func:`to_mandel`.

    The tensor is not checked: ``m``'s check stands for it.  The slot table
    gives exact minor symmetry, and the round trip moves each entry by at
    most an ulp, so the relative symmetry defect by at most about 3.1e-16.

    The tensor does not keep ``m``: ``to_mandel(from_mandel(m))`` can differ
    from it by an ulp in some entries, and that result, built on the first
    :func:`to_mandel` call and kept, is what every Mandel-form operation reads.
    """
    # dividing the 36 entries, then gathering, divides each component as a
    # gather of both tables would
    comp = (_checked_mandel(m).entries / _WEIGHT_PRODUCTS).take(_COMPONENT_SLOTS)
    return ElasticTensor4._unchecked(comp)


def to_voigt(c: ElasticTensor4) -> VoigtMatrix:
    """6x6 Voigt stiffness: raw components, no weight factors."""
    return VoigtMatrix(_slot_table(c))


def _pair_products(r: np.ndarray) -> np.ndarray:
    """6x6 table of ``r_ik r_jl + r_il r_jk`` over slot pairs ``(ij)``, ``(kl)``."""
    return r.take(_R_IK) * r.take(_R_JL) + r.take(_R_IL) * r.take(_R_JK)


def mandel_rotation(r) -> RotationPair:
    """6x6 representation of a rotation on Mandel space.

    Block structure: squared entries in the normal block, sqrt(2)-weighted
    products in the mixed blocks, and sums of products in the shear block.
    The result is orthonormal, so stiffness rotates by plain conjugation.
    """
    r = _as_square(r, 3, "rotation")
    return RotationPair(r, _pair_products(r) / _MANDEL_ROTATION_DIVISORS)


def voigt_rotation(r) -> np.ndarray:
    """6x6 stress-side Voigt rotation matrix (not orthonormal).

    Voigt stiffness rotates as ``R_v C_v R_v^T`` with this matrix; because
    ``R_v^T R_v != I`` the rule does not commute with matrix powers.
    """
    return _pair_products(check_rotation(r)) / _VOIGT_ROTATION_DIVISORS


def rotate(c: ElasticTensor4, r) -> ElasticTensor4:
    """Cartesian rotation C'_ijkl = R_ia R_jb R_kc R_ld C_abcd."""
    r = check_rotation(r)
    rotated = np.einsum(
        "ia,jb,kc,ld,abcd->ijkl", r, r, r, r, c.components, optimize=_ROTATE_PATH
    )
    return ElasticTensor4(rotated)


def rotate_mandel(m: MandelMatrix, rp: RotationPair) -> MandelMatrix:
    """Mandel-space rotation by conjugation with the orthonormal 6x6 matrix; the
    symmetrized result is symmetric bit for bit, so it is trusted once finite."""
    rm = rp.r_mandel
    out = rm @ m.entries @ rm.T
    out = 0.5 * (out + out.T)
    if not math.isfinite(abs(out).max()):
        raise ValueError("Mandel matrix has non-finite entries")
    return MandelMatrix._unchecked(_frozen(out))


def directional_modulus(c: ElasticTensor4, d) -> float:
    """Stiffness along unit direction d: C_ijkl d_i d_j d_k d_l."""
    _unit_dyads([d])  # d must be one unit 3-vector
    return float(np.einsum("ijkl,i,j,k,l->", c.components, d, d, d, d))


def directional_moduli(c: ElasticTensor4, directions) -> np.ndarray:
    """Vectorized :func:`directional_modulus` over an ``(n, 3)`` direction array
    or a :class:`DirectionSet`, whose kept dyad table it reads."""
    return _mandel_moduli(to_mandel(c).entries, _unit_dyads(directions))


# id of each live DirectionSet's directions -> their checked dyad table
_KEPT_DYADS: dict[int, np.ndarray] = {}


@dataclass(frozen=True)
class DirectionSet:
    """Deterministic, nonempty set of unit directions on the sphere.

    It owns a copy of ``directions`` that cannot be made writable, checked
    once, and keeps their Mandel dyad table in ``_KEPT_DYADS``, which every
    metric and :func:`directional_moduli`, given the set or its
    ``directions``, read without checking again."""

    directions: np.ndarray
    seed: int

    def __post_init__(self):
        d = _frozen(np.asarray(self.directions, dtype=float))
        _KEPT_DYADS[id(d)] = _unit_dyads(d)
        # the entry goes with the array, so no later array that reuses its id finds it
        weakref.finalize(d, _KEPT_DYADS.pop, id(d))
        if not len(d):
            raise ValueError("a direction set needs at least one direction")
        object.__setattr__(self, "directions", d)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.directions, dtype=dtype, copy=copy)

    @property
    def n(self) -> int:
        return self.directions.shape[0]

    @classmethod
    def sample(cls, n: int = 250, seed: int = 0) -> "DirectionSet":
        return cls(directions=sampling.unit_directions(n, seed), seed=seed)


def _unit_dyads(directions) -> np.ndarray:
    """Mandel vectors of ``d (x) d`` for an ``(n, 3)`` array of directions, each
    checked to lie within :data:`UNIT_TOL` of unit length: the one check of every
    direction and beam axis.  One table serves any number of tensors.  A
    :class:`DirectionSet`'s own array gets its kept table; any other array, a
    copy or a view of it included, is checked."""
    d = np.asarray(directions, dtype=float)
    if id(d) in _KEPT_DYADS:
        return _KEPT_DYADS[id(d)]
    if d.ndim != 2 or d.shape[1] != 3:
        raise ValueError("directions must be an (n, 3) array")
    off = np.abs(_row_norms(d) - 1.0).max(initial=0.0)
    if not off <= UNIT_TOL:
        raise ValueError(f"directions must be unit length, |1 - |d|| = {off:.3e}")
    return _dyad_table(d)


def _dyad_table(d: np.ndarray) -> np.ndarray:
    """:func:`_unit_dyads` of a float ``(..., 3)`` array of directions, unchecked:
    for rows known to be unit, such as checked directions under a checked rotation."""
    return _WEIGHTS * d[..., _PAIR_I] * d[..., _PAIR_J]


def _mandel_moduli(m: np.ndarray, dyads: np.ndarray) -> np.ndarray:
    """``C_ijkl d_i d_j d_k d_l = v^T M v`` for each row ``v`` of a :func:`_unit_dyads`
    table and Mandel entries ``m``, one (6, 6) matrix or a (B, 6, 6) stack; a
    stack gives each matrix the bits of its own call."""
    return np.add.reduce((dyads @ m) * dyads, axis=-1)


def to_mandel_vector(t) -> np.ndarray:
    """Symmetric 3x3 tensor -> 6-vector with sqrt(2)-weighted shear slots."""
    t = _as_square(t, 3, "symmetric tensor")
    return _WEIGHTS * t[_PAIR_I, _PAIR_J]


def from_mandel_vector(v) -> np.ndarray:
    """Inverse of :func:`to_mandel_vector`."""
    v = np.asarray(v, dtype=float)
    if v.shape != (6,):
        raise ValueError("Mandel vector must have 6 entries")
    return (v / _WEIGHTS)[_SLOT_OF]


def strain_energy(c: ElasticTensor4, eps) -> float:
    """Deformation energy 0.5 * eps_ij C_ijkl eps_kl for a symmetric strain."""
    eps = _as_square(eps, 3, "strain")
    if relative_defect(eps, eps.T) > 1e-10:
        raise ValueError("strain tensor must be symmetric")
    return 0.5 * float(np.einsum("ij,ijkl,kl->", eps, c.components, eps))


def kelvin_spectrum(c: ElasticTensor4) -> KelvinSpectrum:
    """Eigenvalues and strain eigentensors of the stiffness.

    The six eigenvalues are those of the Mandel matrix; each eigenvector is
    rearranged back into a symmetric 3x3 strain tensor (shear slots divided
    by sqrt(2)), giving pairwise orthonormal eigentensors under double
    contraction and the reconstruction C = sum_i lambda_i E_i (x) E_i.
    """
    m = to_mandel(c).entries
    eigvals, eigvecs = np.linalg.eigh(m)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    tensors = np.array([from_mandel_vector(eigvecs[:, k]) for k in order])
    return KelvinSpectrum(eigvals, tensors)
