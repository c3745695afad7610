"""Text formats: stiffness records and lattice catalogues.

Both formats are line-delimited JSON.  A stiffness record is a flat
object with keys ``mandel`` (36 reals, row-major 6x6), ``basis``
(always "mandel"), and optionally ``relative_density`` plus free-form
metadata such as ``name``.  A catalogue record has keys ``name``,
``cell`` (9 reals, row-major), ``nodes`` (flat list of 3N reduced
coordinates), ``edges`` (lists ``[i, j, tx, ty, tz]``), and ``radius``.

Floats in records are serialized with Python's shortest round-trip
representation (at most 17 significant digits), so write/read cycles are
bit-exact.  Both readers reject a malformed record, or a byte that is
not UTF-8, with a :class:`CatalogueError` holding its line number and the
reason.  The stiffness reader checks the matrices of a file as one stack,
after every line is parsed, and still names the first bad line.

Directional-modulus tables write every number as ``format(x, ".17g")``
does, through :func:`format_floats`, which computes that text for a whole
array at once.  Any element it cannot vouch for (zero, inf, nan, a decimal
exponent outside [-29, 16], a value within 1e-9 of a rounding tie) is
written by ``format(x, ".17g")`` itself.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable

import numpy as np

from .lattice import Lattice
from .tensor4 import MandelMatrix, _mandel_stack


class CatalogueError(ValueError):
    """Malformed catalogue or stiffness record, tagged with its line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


# ---------------------------------------------------------------------------
# ``%.17g`` text of whole arrays
# ---------------------------------------------------------------------------
#
# A finite x whose decimal exponent e lies in [_E_MIN, _E_MAX] is written
# from the 17-digit integer N = round(|x| 10^q), q = 16 - e.  For
# 0 <= q <= 45, 10^q = 5^q 2^q splits exactly into two doubles hi + lo, and
# |x| hi is an exact Dekker two-product (no FMA needed).  Only |x| lo (at
# most about 11) and the sum of the small terms round, so the fraction of
# |x| 10^q is known to about 1e-14, far inside the 1e-9 tie margin.

_E_MIN, _E_MAX = -29, 16
_SIGNIFICANT = 17
_TIE_MARGIN = 1e-9
_SPLITTER = 134217729.0  # 2^27 + 1


def _power10_parts():
    """``hi``, ``lo``, and ``hi``'s Veltkamp halves, for 10^q, q = 0 .. 16 - _E_MIN."""
    powers = [10**q for q in range(_E_MAX - _E_MIN + 1)]
    hi = np.array([float(p) for p in powers])
    lo = np.array([float(p - int(float(p))) for p in powers])
    scaled = hi * _SPLITTER
    high = scaled - (scaled - hi)
    return hi, lo, high, hi - high


_P10_HI, _P10_LO, _P10_HIGH, _P10_LOW = _power10_parts()


def _quad_tables():
    """The four ASCII digits of each 0 .. 9999 as one native uint32, and
    the number of trailing zero digits of each (4 for 0)."""
    quads = np.empty((10, 10, 10, 10, 4), np.uint8)
    for j in range(4):
        quads[..., j] = np.arange(48, 58, dtype=np.uint8).reshape((10,) + (1,) * (3 - j))
    zero = (np.arange(10) == 0).astype(np.uint8)
    zeros = zero * (1 + zero[:, None] * (1 + zero[:, None, None] * (1 + zero[:, None, None, None])))
    return quads.reshape(10000, 4).view(np.uint32).reshape(10000), zeros.reshape(10000)


_QUADS, _QUAD_ZEROS = _quad_tables()

# A value's row of source bytes: five four-digit groups holding its 17
# digits at bytes 3 .. 19, then a tail of three words chosen by e: the two
# digits of |e| and the constants.  A layout names its bytes by the letters
# A .. Q (digits), X and Y (exponent digits) and the constants themselves.
_CONSTANTS = b"\0-.e0"
_TAILS = np.frombuffer(b"".join(
    f"{abs(e):02d}".encode() + _CONSTANTS.ljust(10, b"\0") for e in range(_E_MIN, _E_MAX + 1)
), np.uint32).reshape(-1, 3)
_ROW_BYTES = 32
_WIDTH = 24  # the longest %.17g text, as in "-2.2250738585072014e-308"
_GATHER_ROWS = 512


def _layout(e: int, k: int) -> str:
    """The ``%.17g`` text of a positive value with exponent ``e`` (any
    e < -4 reads as e = -5) and ``k`` significant digits, in layout letters."""
    digits = "ABCDEFGHIJKLMNOPQ"
    if e >= 0:
        return digits[: e + 1] + ("." + digits[e + 1 : k] if k > e + 1 else "")
    if e >= -4:
        return "0." + "0" * (-e - 1) + digits[:k]
    return digits[0] + ("." + digits[1:k] if k > 1 else "") + "e-XY"


def _layout_tables():
    """Source-byte index of each layout, by ``(max(e, -5) + 5) * 17 + k - 1``,
    plus 374 for a negative value."""
    texts = [_layout(e, k) for e in range(-5, _E_MAX + 1) for k in range(1, _SIGNIFICANT + 1)]
    texts += ["-" + t for t in texts]
    raw = np.frombuffer("".join(t.ljust(_WIDTH, "\0") for t in texts).encode(), np.uint8)
    source = np.zeros(256, np.uint8)
    source[np.frombuffer(b"ABCDEFGHIJKLMNOPQXY", np.uint8)] = [*range(3, 22)]
    source[np.frombuffer(_CONSTANTS, np.uint8)] = range(22, 22 + len(_CONSTANTS))
    return source[raw].reshape(len(texts), _WIDTH)


_LAYOUT_SOURCE = _layout_tables()


def _significands(magnitude: np.ndarray):
    """The decimal exponent e and 17-digit integer N = round(m 10^(16 - e))
    of each magnitude m, and whether the array path cannot vouch for N."""
    with np.errstate(divide="ignore", invalid="ignore"):
        exponent = np.floor(np.log10(magnitude))
    inside = (exponent >= _E_MIN) & (exponent <= _E_MAX)
    e = np.where(inside, exponent, 0.0).astype(np.intp)
    q = _E_MAX - e
    m = np.where(inside, magnitude, 1.0)
    # m 10^q = product + error + m lo, the first two exactly.
    product = m * _P10_HI.take(q)
    scaled = m * _SPLITTER
    m_high = scaled - (scaled - m)
    m_low = m - m_high
    high, low = _P10_HIGH.take(q), _P10_LOW.take(q)
    error = ((m_high * high - product) + m_high * low + m_low * high) + m_low * low
    rest = error + m * _P10_LO.take(q)
    step = np.rint(rest)
    fraction = rest - step
    big = product.astype(np.int64) + step.astype(np.int64)
    fallback = (
        ~inside
        | (np.abs(np.abs(fraction) - 0.5) < _TIE_MARGIN)
        | (big < 10**16)
        | (big >= 10**17)
        | ((big == 10**16) & (fraction < 0))  # m 10^q < 1e16: e is one too high
    )
    big[fallback] = 10**16
    return e, big, fallback


def format_floats(values) -> np.ndarray:
    """``format(x, ".17g")`` of every element of ``values``, as a bytes
    array of the same shape (dtype ``S24``, wide enough for any float).

    Computed in whole-array steps; an element outside the exponent window
    [-29, 16], non-finite or zero, or whose rounding falls within 1e-9 of a
    tie, is written by ``format`` itself."""
    x = np.asarray(values, dtype=float)
    flat = x.reshape(-1)
    n = flat.size
    e, big, fallback = _significands(np.abs(flat))
    head, tail = np.divmod(big, 10**8)
    g1, g2 = np.divmod(head % 10**8, 10**4)
    g3, g4 = np.divmod(tail, 10**4)
    source = np.empty((n, _ROW_BYTES // 4), np.uint32)
    for j, group in enumerate((head // 10**8, g1, g2, g3, g4)):
        source[:, j] = _QUADS.take(group)
    source[:, 5:] = _TAILS.take(e - _E_MIN, axis=0)
    # Trailing zero digits of an 8-digit half (8 if it is 0), then of N.
    tail_zeros = np.where(g4 != 0, _QUAD_ZEROS.take(g4), 4 + _QUAD_ZEROS.take(g3))
    head_zeros = np.where(g2 != 0, _QUAD_ZEROS.take(g2), 4 + _QUAD_ZEROS.take(g1))
    zeros = np.where(tail != 0, tail_zeros, 8 + head_zeros)
    layout = np.maximum(e + 5, 0) * _SIGNIFICANT + (_SIGNIFICANT - 1 - zeros)
    layout += np.signbit(flat) * (len(_LAYOUT_SOURCE) // 2)

    out = np.empty((n, _WIDTH), np.uint8)
    row_bytes = source.view(np.uint8).reshape(-1)
    offsets = (np.arange(n) * _ROW_BYTES)[:, None]
    for start in range(0, n, _GATHER_ROWS):  # bounds the index array
        rows = slice(start, start + _GATHER_ROWS)
        index = _LAYOUT_SOURCE.take(layout[rows], axis=0) + offsets[rows]
        row_bytes.take(index, out=out[rows], mode="clip")
    out = out.view(f"S{_WIDTH}").reshape(n)
    out[fallback] = [format(v, ".17g").encode() for v in flat[fallback].tolist()]
    return out.reshape(x.shape)


# ---------------------------------------------------------------------------
# Stiffness records
# ---------------------------------------------------------------------------


def stiffness_record(
    mandel: MandelMatrix | np.ndarray,
    relative_density: float | None = None,
    name: str | None = None,
    **extra,
) -> dict:
    record = with_mandel({} if name is None else {"name": name}, mandel)
    record["basis"] = "mandel"
    if relative_density is not None:
        record["relative_density"] = float(relative_density)
    record.update(extra)
    return record


def with_mandel(raw: dict, mandel: MandelMatrix | np.ndarray) -> dict:
    """A copy of the record ``raw`` with its ``mandel`` field set to ``mandel``'s
    36 entries, row-major; every other field keeps its place."""
    return {**raw, "mandel": [float(v) for v in np.asarray(mandel, dtype=float).reshape(36)]}


def _check_mandel_field(obj: dict, line: int) -> None:
    """Check the fields of a stiffness record object, and that each of its
    36 numbers is a float or an integer in the float range."""
    if not isinstance(obj, dict):
        raise CatalogueError(line, "stiffness record must be an object")
    if obj.get("basis") != "mandel":
        raise CatalogueError(line, f"unsupported stiffness basis {obj.get('basis')!r}")
    values = obj.get("mandel")
    if not _reals(values) or len(values) != 36:
        raise CatalogueError(line, "field 'mandel' must hold 36 reals")
    if int in map(type, values):  # only an integer can overflow the float range
        try:
            list(map(float, values))
        except OverflowError:
            raise CatalogueError(line, "int too large to convert to float") from None


# A bool is an int to Python, and numpy would read a one-element list or a
# numeric string as a real, so each entry's exact type is checked.
_NUMBER_TYPES = frozenset({float, int})


def _reals(values) -> bool:
    """Whether ``values`` is a flat list of JSON numbers."""
    return isinstance(values, list) and set(map(type, values)) <= _NUMBER_TYPES


def _json_lines(path):
    """``(line, obj)`` for each nonblank line's JSON object, in file order;
    a byte that is not UTF-8 is read as a lone surrogate, a fault of its line."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise CatalogueError(line_no, f"not UTF-8 (byte 0x{byte:02x})") from None
            line = line.strip()
            if not line:
                continue
            try:
                yield line_no, json.loads(line)
            except json.JSONDecodeError as exc:
                raise CatalogueError(line_no, f"invalid JSON ({exc.msg})") from exc


def write_json_lines(path, objects: Iterable[dict]) -> None:
    """Write each object as one line of JSON; the CLI's reports use it too."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj) + "\n")


def write_stiffness_records(path, records: Iterable[dict]) -> None:
    write_json_lines(path, records)


def read_stiffness_records(path) -> list[tuple[MandelMatrix, dict]]:
    """Parse a stiffness-record file into ``(matrix, raw record)`` pairs.

    Each line's JSON and fields are checked as it is read, and then the
    matrices of the lines before the first fault as one stack; the error
    names the earliest bad line, whatever its fault.
    """
    lines, objects, fault = [], [], None
    try:
        for line, obj in _json_lines(path):
            _check_mandel_field(obj, line)
            lines.append(line)
            objects.append(obj)
    except CatalogueError as exc:
        fault = exc
    values = np.array([obj["mandel"] for obj in objects], dtype=float)
    matrices = _mandel_stack(values.reshape(-1, 6, 6))
    for line, matrix in zip(lines, matrices):
        if isinstance(matrix, ValueError):
            raise CatalogueError(line, str(matrix)) from matrix
    if fault is not None:
        raise fault
    return list(zip(matrices, objects))


# ---------------------------------------------------------------------------
# Lattice catalogues
# ---------------------------------------------------------------------------


def lattice_record(lat: Lattice) -> dict:
    return {
        "name": lat.name,
        "cell": [float(v) for v in lat.cell.reshape(9)],
        "nodes": [float(v) for v in lat.nodes.reshape(-1)],
        "edges": [[int(v) for v in row] for row in lat.edges],
        "radius": float(lat.radius),
    }


def lattice_from_record(obj: dict, line: int = 1) -> Lattice:
    if not isinstance(obj, dict):
        raise CatalogueError(line, "record must be an object")
    missing = [k for k in ("name", "cell", "nodes", "edges", "radius") if k not in obj]
    if missing:
        raise CatalogueError(line, f"missing fields {missing}")
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise CatalogueError(line, "field 'name' must be a nonempty string")
    cell, nodes, radius = obj["cell"], obj["nodes"], obj["radius"]
    if not _reals(cell) or len(cell) != 9:
        raise CatalogueError(line, "field 'cell' must hold 9 reals")
    if not _reals(nodes) or len(nodes) % 3 != 0 or not nodes:
        raise CatalogueError(line, "field 'nodes' must hold 3N reals")
    if type(radius) not in _NUMBER_TYPES:
        raise CatalogueError(line, "field 'radius' must be a real")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise CatalogueError(line, "field 'edges' must be a list")
    # one pass over all rows gives the verdict; a bad list is walked again
    # row by row for the first bad row and its message
    if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {5}
            and set(map(type, chain.from_iterable(edges))) <= {int}):
        for k, row in enumerate(edges):
            if not isinstance(row, list) or len(row) != 5:
                raise CatalogueError(line, f"edge {k} must be [i, j, tx, ty, tz]")
            if not set(map(type, row)) <= {int}:
                raise CatalogueError(line, f"edge {k} entries must be integers")
    try:
        cell = np.asarray(cell, dtype=float)
        nodes = np.asarray(nodes, dtype=float)
        radius = float(radius)
        edges = np.asarray(edges, dtype=int)
    except OverflowError as exc:
        raise CatalogueError(line, str(exc)) from exc
    try:
        return Lattice(
            name=name,
            cell=cell.reshape(3, 3),
            nodes=nodes.reshape(-1, 3),
            edges=edges.reshape(-1, 5),
            radius=radius,
        )
    except ValueError as exc:
        raise CatalogueError(line, str(exc)) from exc


def read_catalogue(path) -> list[Lattice]:
    """Parse a catalogue file, rejecting bad records with line and reason."""
    return [lattice_from_record(obj, line) for line, obj in _json_lines(path)]


def write_catalogue(path, lattices: Iterable[Lattice]) -> None:
    write_json_lines(path, map(lattice_record, lattices))
