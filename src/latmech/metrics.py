"""Evaluation metrics for predicted vs. target stiffness tensors.

Per-lattice component loss operates on the 36 Mandel entries; the
aggregate training-style loss normalizes each pair by the mean-square of
the target entries.  Directional losses probe the tensors along random
unit directions, and the rotation-consistency loss measures how far a
predictor is from commuting with rigid rotations of its input lattice.
It rotates no tensor: ``rotate(C, R)`` along ``d`` has exactly ``C``'s
modulus along ``R^T d``, so it reads ``C`` along the rotated directions.
:class:`DirectionSet` lives in :mod:`tensor4`, beside the dyad table it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .lattice import Lattice, _rotated, rotate_lattice
from .tensor4 import (
    DirectionSet,
    ElasticTensor4,
    MandelMatrix,
    _checked_mandel,
    _dyad_table,
    _mandel_moduli,
    _unit_dyads,
    directional_moduli,
    to_mandel,
)

# Relative floor below which a Kelvin eigenvalue counts as negative.
NEGATIVE_EIG_REL_TOL = 1e-10


@dataclass(frozen=True)
class MetricReport:
    l_comp: float
    l_dir: float
    l_dir_rel: float
    negative_eig_fraction: float
    l_equiv: float | None = None

    def __post_init__(self):
        for name, value in self.as_dict().items():
            if not (name == "l_equiv" and value is None or 0.0 <= value < np.inf):
                raise ValueError(f"{name} must be finite and nonnegative")

    def as_dict(self) -> dict:
        return {
            "l_comp": self.l_comp,
            "l_dir": self.l_dir,
            "l_dir_rel": self.l_dir_rel,
            "l_equiv": self.l_equiv,
            "negative_eig_fraction": self.negative_eig_fraction,
        }


def l_comp(pred: MandelMatrix, target: MandelMatrix) -> float:
    """Sum of squared deviations over the 36 Mandel entries (one lattice).

    Either matrix may also be given as an array, which is checked as a
    :class:`MandelMatrix`; a :class:`MandelMatrix` is not checked again."""
    diff = _checked_mandel(pred).entries - _checked_mandel(target).entries
    return float(np.add.reduce(diff * diff, axis=None))


def target_mean_square(target: MandelMatrix) -> float:
    """Normalizer: mean square of the 36 target entries, checked as :func:`l_comp` checks."""
    t = _checked_mandel(target).entries
    return float(np.add.reduce(t * t, axis=None) / 36.0)


def aggregate_training_loss(pairs: Sequence[tuple[MandelMatrix, MandelMatrix]]) -> float:
    """Batch-mean of per-lattice component losses, each normalized by the
    target mean square; invariant to jointly rescaling pred and target."""
    if not pairs:
        raise ValueError("needs at least one (pred, target) pair")
    total = 0.0
    for index, (pred, target) in enumerate(pairs):
        pred, target = _checked_mandel(pred), _checked_mandel(target)
        gamma = target_mean_square(target)
        if gamma == 0.0:
            raise ValueError(f"pair {index}: zero target stiffness (normalizer undefined)")
        total += l_comp(pred, target) / gamma
    return total / len(pairs)


def l_dir(
    pred: ElasticTensor4, target: ElasticTensor4, dirs: DirectionSet
) -> tuple[float, float]:
    """Mean absolute directional-stiffness deviation, raw and target-relative.
    The target, the fixed side of a scoring loop, keeps its moduli and mean
    square for the last directions (or an equal copy) it was scored on; only
    a success is kept, so a target of zero stiffness raises on every call."""
    d, kept = dirs.directions, target._moduli
    if kept is None or not (kept[0] is d or kept[0].tobytes() == d.tobytes()):
        gamma = target_mean_square(to_mandel(target))
        if gamma == 0.0:
            raise ValueError("zero target stiffness (relative directional loss undefined)")
        kept = (d, directional_moduli(target, d), gamma)
        object.__setattr__(target, "_moduli", kept)
    # the ops np.mean runs, without its wrapper
    raw = float(np.add.reduce(abs(directional_moduli(pred, d) - kept[1])) / dirs.n)
    return raw, raw / np.sqrt(kept[2])


def l_equiv(
    predict: Callable[[Lattice], ElasticTensor4],
    lattices: Sequence[Lattice],
    rotations: Sequence[np.ndarray],
    dirs: DirectionSet,
    threads: int = 1,
) -> float:
    """Rotation self-consistency of a predictor, from predictions alone.

    Mean absolute directional projection of
    ``rotate(predict(L), R) - predict(rotate_lattice(L, R))`` over all
    (lattice, rotation, direction) triples.  No tensor is rotated: the
    modulus of ``rotate(C, R)`` along ``d`` is exactly ``C``'s modulus along
    ``R^T d``, so each rotation gets one dyad table of the rows
    ``dirs.directions @ R``, which equals the rotated form up to rounding.
    ``threads`` is accepted and ignored: the predictor is called serially,
    every base lattice first, then each lattice under each rotation.
    """
    if len(rotations) < 1:
        raise ValueError("needs at least one rotation")
    if not lattices:
        raise ValueError("needs at least one lattice")
    base = [predict(lat) for lat in lattices]
    dyads = _unit_dyads(dirs.directions)
    tables = None
    total = 0.0
    for lat, base_prediction in zip(lattices, base):
        if tables is None:
            # rotate_lattice checks each rotation where the first lattice reaches
            # it; later lattices, and the rows d R, images of checked unit
            # directions, are not checked again
            rotated = [predict(rotate_lattice(lat, r)) for r in rotations]
            turns = np.array(rotations, dtype=float)
            tables = _dyad_table(dirs.directions @ turns)
        else:
            rotated = [predict(_rotated(lat, r)) for r in turns]
        forms = [to_mandel(c).entries for c in (base_prediction, *rotated)]
        values = _mandel_moduli(forms[0], tables) - _mandel_moduli(np.array(forms[1:]), dyads)
        # per pair, the ops np.mean runs, summed in lattice-major order
        for mean in (np.add.reduce(abs(values), axis=1) / dirs.n).tolist():
            total += mean
    return total / (len(lattices) * len(rotations))


def negative_eig_fraction(preds: Sequence[ElasticTensor4]) -> float:
    """Fraction of tensors with a negative Kelvin eigenvalue.

    An eigenvalue counts as negative below ``-NEGATIVE_EIG_REL_TOL`` times
    the tensor's largest eigenvalue magnitude.  PSD projections keep their
    eigenvalues above that floor, but the exact zeros of a clamp come back
    from reconstruction as roundoff of either sign, so a zero threshold
    would count them.  The relative floor also makes the verdict
    independent of the stiffness scale.
    """
    if not preds:
        raise ValueError("needs at least one tensor")
    # the Kelvin eigenvalues, without the eigentensors: a stacked eigh gives
    # each matrix the bits of its own call
    eigenvalues = np.linalg.eigh(np.array([to_mandel(c).entries for c in preds]))[0]
    floor = -NEGATIVE_EIG_REL_TOL * np.abs(eigenvalues).max(axis=1)
    return int(np.count_nonzero(eigenvalues.min(axis=1) < floor)) / len(preds)


def negative_modulus_penalty(
    c: ElasticTensor4, dirs: DirectionSet, multiplier: float
) -> float:
    """Mean hinge penalty ``k * relu(-c_q)`` on directional stiffness samples."""
    return float(multiplier * np.mean(np.maximum(-directional_moduli(c, dirs), 0.0)))
