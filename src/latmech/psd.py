"""Positive-(semi-)definite maps for symmetric 6x6 stiffness matrices.

One table holds the six matrix maps that :func:`project` applies, named by
:class:`PsdMethod`: the even powers (square, fourth power), the matrix
exponential by scaling-and-squaring and its truncations (I + M/2)^2 and
(I + M/4)^4, and eigenvalue clamping at zero.  :func:`cholesky_assemble`
builds a PSD matrix from 21 free parameters instead.  The matrix maps
commute with conjugation by orthonormal matrices and are therefore
equivariant under the Mandel rotation representation; the Cholesky
assembly, which treats its parameters as independent scalars, is not.
:func:`equivariance_defect` measures this directly.

Note on gradients: eigendecomposition-based maps are numerically unstable
to differentiate; this toolkit performs no automatic differentiation, so
eigenvalue clamping is retained purely for comparison.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .tensor4 import _EYE6, MandelMatrix, RotationPair, _as_square, _check_mandel_entries


class PsdMethod(Enum):
    """The positive-(semi-)definite matrix maps of :func:`project`."""

    SQUARE = "square"
    FOURTH = "fourth"
    EXP = "exp"
    TRUNC_EXP2 = "trunc2"
    TRUNC_EXP4 = "trunc4"
    EIGEN_CLAMP = "eigclamp"


MATRIX_METHODS = frozenset(PsdMethod)

# Scaling threshold for the exponential: with a degree-6 Taylor kernel the
# truncation error at ||X||_1 < 1/32 is below 1e-14, which the repeated
# squaring cannot amplify past ~1e-12 relative for the matrix sizes here.
_EXP_THETA = 1.0 / 32.0


def _check_symmetric(m) -> np.ndarray:
    """``m`` validated as a :class:`MandelMatrix`, then exactly symmetrized.
    A :class:`MandelMatrix` passed its checks when built and is read-only, so
    it is not checked again; a raw array gets its verdict without a copy."""
    raw = not isinstance(m, MandelMatrix)
    entries = _check_mandel_entries(_as_square(m, 6, "Mandel matrix")) if raw else m.entries
    return 0.5 * (entries + entries.T)


def _expm(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor kernel."""
    # the 1-norm by the ops np.linalg.norm(m, 1) runs, without its wrapper
    norm = np.add.reduce(np.abs(m), axis=0).max()
    squarings = 0 if norm <= _EXP_THETA else int(math.ceil(math.log2(norm / _EXP_THETA)))
    x = m / (2.0**squarings)
    # Horner evaluation of the degree-6 Taylor polynomial.
    acc = _EYE6 + x / 6.0
    for k in (5.0, 4.0, 3.0, 2.0, 1.0):
        acc = _EYE6 + (x @ acc) / k
    for _ in range(squarings):
        acc = acc @ acc
    return acc


def _square(m: np.ndarray) -> np.ndarray:
    return m @ m


def _eigen_clamp(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.maximum(w, 0.0)) @ v.T


_MAPS = {
    PsdMethod.SQUARE: _square,
    PsdMethod.FOURTH: lambda m: _square(_square(m)),
    PsdMethod.EXP: _expm,
    PsdMethod.TRUNC_EXP2: lambda m: _square(_EYE6 + m / 2.0),
    PsdMethod.TRUNC_EXP4: lambda m: _square(_square(_EYE6 + m / 4.0)),
    PsdMethod.EIGEN_CLAMP: _eigen_clamp,
}


def project(m, method: PsdMethod) -> np.ndarray:
    """Apply the PSD map ``method`` to a symmetric 6x6 matrix."""
    return _project(_check_symmetric(m), method)


def _project(m: np.ndarray, method: PsdMethod) -> np.ndarray:
    """:func:`project` of an exactly symmetric matrix, not validated again."""
    if (apply := _MAPS.get(method)) is None:
        names = ", ".join(p.value for p in PsdMethod)
        raise ValueError(f"unknown PSD method {method!r}: expected a PsdMethod, one of {names}")
    out = apply(m)
    return 0.5 * (out + out.T)


def cholesky_assemble(params, diag_map: str = "exp") -> np.ndarray:
    """Assemble L L^T from 21 parameters filling the lower triangle row-wise.

    Diagonal slots pass through ``diag_map`` ("exp" for positive definite,
    "relu" for semi-definite); the product is PSD by construction.
    """
    p = np.asarray(params, dtype=float)
    if p.shape != (21,):
        raise ValueError(f"expected 21 parameters, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite parameters")
    if diag_map not in ("exp", "relu"):
        raise ValueError(f"unknown diagonal map {diag_map!r}")
    lower = np.zeros((6, 6))
    rows, cols = np.tril_indices(6)
    lower[rows, cols] = p
    diag = lower.diagonal().copy()
    diag = np.exp(diag) if diag_map == "exp" else np.maximum(diag, 0.0)
    np.fill_diagonal(lower, diag)
    return lower @ lower.T


def lower_triangle_params(m) -> np.ndarray:
    """Read a symmetric matrix's lower triangle into the 21-parameter layout."""
    m = _check_symmetric(m)
    rows, cols = np.tril_indices(6)
    return m[rows, cols]


def equivariance_defect(method: PsdMethod, m, rp: RotationPair) -> float:
    """Relative commutation defect of a PSD map with a Mandel rotation.

    ``|| f(R M R^T) - R f(M) R^T ||_F / || f(M) ||_F`` for the orthonormal
    6x6 rotation ``R = rp.r_mandel``.
    """
    m = _check_symmetric(m)
    rm = rp.r_mandel
    projected = _project(m, method)
    rotated = rm @ m @ rm.T
    rotated_first = _project(0.5 * (rotated + rotated.T), method)
    rotated_after = rm @ projected @ rm.T
    denom = np.linalg.norm(projected)
    if denom == 0.0:
        return float(np.linalg.norm(rotated_first - rotated_after))
    return float(np.linalg.norm(rotated_first - rotated_after) / denom)
