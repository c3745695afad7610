"""Seedable random sampling for directions, displacements, and rotations.

All randomness in the package flows through counter-based Philox streams
keyed by ``(seed, domain, index)``, so any draw is reproducible from its
key alone, independent of draw order, platform, and thread count.  Every
per-index run (rotations, node perturbations) re-keys one generator to a
fresh keyed Philox's state (:func:`_rekey`), so no stream changes by a bit.
A rotation draw is built once per ``(seed, start, count)`` and kept
read-only (:func:`_rotations`); each call returns a writable copy of it.
"""

from __future__ import annotations

import functools

import numpy as np

_MASK64 = (1 << 64) - 1

# Domain tags keep the streams for different purposes disjoint even when
# the same user seed is reused across them.
DOMAIN_PERTURBATION = 1
DOMAIN_DIRECTION = 2
DOMAIN_ROTATION = 3


def _stream_key(seed: int, domain: int, index: int) -> tuple[int, int]:
    """The two 64-bit words of the Philox key of stream ``(seed, domain, index)``."""
    if not 0 <= index < (1 << 48):
        raise ValueError(f"stream index {index} out of range")
    return seed & _MASK64, ((domain & 0xFFFF) << 48) | index


def keyed_generator(seed: int, domain: int, index: int = 0) -> np.random.Generator:
    """Philox generator for stream ``(seed, domain, index)``."""
    key = np.array(_stream_key(seed, domain, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekey(rng: np.random.Generator, key: tuple[int, int]) -> None:
    """Give a :func:`keyed_generator` the state of a fresh ``Philox(key=key)``:
    counter 0 and an empty buffer.  Building one costs more, since a Philox
    given a key still draws a seed sequence from OS entropy."""
    zeros = (0, 0, 0, 0)
    rng.bit_generator.state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                               "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _unit_draws(seed: int, domain: int, start: int, count: int, size: int) -> np.ndarray:
    """``(count, size)`` array whose row ``k`` is a normalized standard-normal
    draw of stream ``(seed, domain, start + k)``, redrawn while its norm is
    <= 1e-12; one generator is re-keyed from stream to stream."""
    out = np.empty((count, size))
    rng = keyed_generator(seed, domain, start)
    for k in range(count):
        if k:
            _rekey(rng, _stream_key(seed, domain, start + k))
        v = rng.standard_normal(size)
        while (norm := np.linalg.norm(v)) <= 1e-12:
            v = rng.standard_normal(size)
        out[k] = v / norm
    return out


def unit_directions(n: int, seed: int) -> np.ndarray:
    """``(n, 3)`` array of uniformly random unit vectors (normalized Gaussians)."""
    if n < 0:
        raise ValueError("direction count must be nonnegative")
    rng = keyed_generator(seed, DOMAIN_DIRECTION)
    out = np.empty((0, 3))
    # Short rows are redrawn from the continuing stream, as a row-at-a-time loop would.
    while out.shape[0] < n:
        v = rng.standard_normal((n - out.shape[0], 3))
        # A row-wise dot through matmul rounds as np.linalg.norm does on one row.
        norms = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
        keep = norms > 1e-12
        out = np.concatenate([out, v[keep] / norms[keep, None]])
    return out


def random_rotation(seed: int, index: int = 0) -> np.ndarray:
    """Uniformly random proper rotation (unit-quaternion method)."""
    return _rotations(seed, index, 1)[0].copy()


def random_rotations(count: int, seed: int) -> np.ndarray:
    """``(count, 3, 3)`` array of independent uniformly random rotations."""
    if count < 0:
        raise ValueError("rotation count must be nonnegative")
    return _rotations(seed, 0, count).copy()


# A scoring round draws two batches per seed, one of them once per PSD map,
# and a CLI run one rotation: 16 keys, at 72 bytes a rotation, hold either.
@functools.lru_cache(maxsize=16, typed=True)
def _rotations(seed: int, start: int, count: int) -> np.ndarray:
    """The rotations of streams ``start`` to ``start + count - 1``, from unit
    quaternions, kept read-only per typed key; an error is not kept.
    Python floats round as numpy's float64 scalars do."""
    out = np.empty((count, 3, 3))
    for k, (w, x, y, z) in enumerate(_unit_draws(seed, DOMAIN_ROTATION, start, count, 4).tolist()):
        out[k] = (
            (1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)),
            (2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)),
            (2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)),
        )
    out.flags.writeable = False
    return out


def axis_angle_rotation(axis, angle: float) -> np.ndarray:
    """Rotation by ``angle`` radians about ``axis`` (Rodrigues formula)."""
    a = np.asarray(axis, dtype=float)
    if not (np.all(np.isfinite(a)) and np.isfinite(angle)):
        raise ValueError("rotation axis and angle must be finite")
    norm = np.linalg.norm(a)
    if norm < 1e-12:
        raise ValueError("rotation axis must be nonzero")
    a = a / norm
    k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)
