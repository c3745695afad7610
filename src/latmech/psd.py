"""Positive-(semi-)definite maps for symmetric 6x6 stiffness matrices.

Implements the even-power family (square, fourth power), the matrix
exponential and its truncations, eigenvalue clamping, and the
Cholesky-style assembly of a PSD matrix from 21 free parameters.  The
matrix-function methods commute with conjugation by orthonormal matrices
and are therefore equivariant under the Mandel rotation representation;
the Cholesky assembly, which treats its parameters as independent
scalars, is not.  :func:`equivariance_defect` measures this directly.

Note on gradients: eigendecomposition-based maps are numerically unstable
to differentiate; this toolkit performs no automatic differentiation, so
eigenvalue clamping is retained purely for comparison.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .tensor4 import MandelMatrix, RotationPair


class PsdMethod(Enum):
    """Available positive-(semi-)definite maps."""

    SQUARE = "square"
    FOURTH = "fourth"
    EXP = "exp"
    TRUNC_EXP2 = "trunc2"
    TRUNC_EXP4 = "trunc4"
    EIGEN_CLAMP = "eigclamp"
    CHOLESKY_ASSEMBLE = "cholesky"


MATRIX_METHODS = frozenset(
    {
        PsdMethod.SQUARE,
        PsdMethod.FOURTH,
        PsdMethod.EXP,
        PsdMethod.TRUNC_EXP2,
        PsdMethod.TRUNC_EXP4,
        PsdMethod.EIGEN_CLAMP,
    }
)

# Scaling threshold for the exponential: with a degree-6 Taylor kernel the
# truncation error at ||X||_1 < 1/32 is below 1e-14, which the repeated
# squaring cannot amplify past ~1e-12 relative for the matrix sizes here.
_EXP_THETA = 1.0 / 32.0


def _check_symmetric(m) -> np.ndarray:
    """``m`` validated as a :class:`MandelMatrix`, then exactly symmetrized.
    A :class:`MandelMatrix` passed the checks when it was built and its
    entries are read-only, so it is not checked again."""
    if not isinstance(m, MandelMatrix):
        m = MandelMatrix(m)
    return 0.5 * (m.entries + m.entries.T)


def expm_symmetric(m) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor kernel."""
    return _expm(_check_symmetric(m))


def _expm(m: np.ndarray) -> np.ndarray:
    """:func:`expm_symmetric` of a matrix that is already exactly symmetric."""
    norm = np.linalg.norm(m, 1)
    squarings = 0 if norm <= _EXP_THETA else int(math.ceil(math.log2(norm / _EXP_THETA)))
    x = m / (2.0**squarings)
    # Horner evaluation of the degree-6 Taylor polynomial.
    eye = np.eye(6)
    acc = eye + x / 6.0
    for k in (5.0, 4.0, 3.0, 2.0, 1.0):
        acc = eye + (x @ acc) / k
    for _ in range(squarings):
        acc = acc @ acc
    return 0.5 * (acc + acc.T)


def project(m, method: PsdMethod, eig_map: str = "relu") -> np.ndarray:
    """Apply a matrix-input PSD map to a symmetric 6x6 matrix.

    ``eig_map`` selects the eigenvalue transform for ``EIGEN_CLAMP``
    ("relu" for the semi-definite variant, "exp" for strictly definite);
    it is ignored by the other methods.
    """
    _require_matrix_method(method)
    return _project(_check_symmetric(m), method, eig_map)


def _require_matrix_method(method: PsdMethod) -> None:
    if method is PsdMethod.CHOLESKY_ASSEMBLE:
        raise ValueError(
            "CHOLESKY_ASSEMBLE consumes a 21-parameter vector; use cholesky_assemble"
        )


def _project(m: np.ndarray, method: PsdMethod, eig_map: str) -> np.ndarray:
    """:func:`project` of an exactly symmetric matrix, not validated again."""
    if method is PsdMethod.SQUARE:
        out = m @ m
    elif method is PsdMethod.FOURTH:
        m2 = m @ m
        out = m2 @ m2
    elif method is PsdMethod.EXP:
        out = _expm(m)
    elif method is PsdMethod.TRUNC_EXP2:
        t = np.eye(6) + m / 2.0
        out = t @ t
    elif method is PsdMethod.TRUNC_EXP4:
        t = np.eye(6) + m / 4.0
        t2 = t @ t
        out = t2 @ t2
    elif method is PsdMethod.EIGEN_CLAMP:
        if eig_map not in ("relu", "exp"):
            raise ValueError(f"unknown eigenvalue map {eig_map!r}")
        w, v = np.linalg.eigh(m)
        w = np.maximum(w, 0.0) if eig_map == "relu" else np.exp(w)
        out = (v * w) @ v.T
    else:  # pragma: no cover - exhaustive over enum
        raise ValueError(f"unknown method {method}")
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


def equivariance_defect(method: PsdMethod, m, rp: RotationPair, eig_map: str = "relu") -> float:
    """Relative commutation defect of a PSD map with a Mandel rotation.

    ``|| f(R M R^T) - R f(M) R^T ||_F / || f(M) ||_F`` for the orthonormal
    6x6 rotation ``R = rp.r_mandel``.
    """
    m = _check_symmetric(m)
    _require_matrix_method(method)
    rm = rp.r_mandel
    projected = _project(m, method, eig_map)
    rotated = rm @ m @ rm.T
    rotated_first = _project(0.5 * (rotated + rotated.T), method, eig_map)
    rotated_after = rm @ projected @ rm.T
    denom = np.linalg.norm(projected)
    if denom == 0.0:
        return float(np.linalg.norm(rotated_first - rotated_after))
    return float(np.linalg.norm(rotated_first - rotated_after) / denom)
