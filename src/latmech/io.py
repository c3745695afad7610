"""Text formats: stiffness records and lattice catalogues.

Both formats are line-delimited JSON.  A stiffness record is a flat
object with keys ``mandel`` (36 reals, row-major 6x6), ``basis``
(always "mandel"), and optionally ``relative_density`` plus free-form
metadata such as ``name``.  A catalogue record has keys ``name``,
``cell`` (9 reals, row-major), ``nodes`` (flat list of 3N reduced
coordinates), ``edges`` (lists ``[i, j, tx, ty, tz]``), and ``radius``.

Floats are serialized with Python's shortest round-trip representation
(at most 17 significant digits), so write/read cycles are bit-exact.  Both
readers reject a malformed record with a :class:`CatalogueError` holding
its line number and the reason.
"""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .lattice import Lattice
from .tensor4 import MandelMatrix


class CatalogueError(ValueError):
    """Malformed catalogue or stiffness record, tagged with its line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


def format_float(x: float) -> str:
    """17-significant-digit formatting for plot tables."""
    return format(float(x), ".17g")


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


def parse_stiffness_record(obj: dict, line: int) -> tuple[MandelMatrix, dict]:
    """Validate the record object on line ``line``; returns the matrix and the raw record."""
    if not isinstance(obj, dict):
        raise CatalogueError(line, "stiffness record must be an object")
    if obj.get("basis") != "mandel":
        raise CatalogueError(line, f"unsupported stiffness basis {obj.get('basis')!r}")
    values = obj.get("mandel")
    if not _reals(values) or len(values) != 36:
        raise CatalogueError(line, "field 'mandel' must hold 36 reals")
    try:
        return MandelMatrix(np.asarray(values, dtype=float).reshape(6, 6)), obj
    except (ValueError, OverflowError) as exc:
        raise CatalogueError(line, str(exc)) from exc


# A bool is an int to Python, and numpy would read a one-element list or a
# numeric string as a real, so each entry's exact type is checked.
_NUMBER_TYPES = frozenset({float, int})


def _reals(values) -> bool:
    """Whether ``values`` is a flat list of JSON numbers."""
    return isinstance(values, list) and set(map(type, values)) <= _NUMBER_TYPES


def _read_lines(path, parse) -> list:
    """``parse(obj, line)`` of each nonblank line's JSON object, in file order."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CatalogueError(line_no, f"invalid JSON ({exc.msg})") from exc
            out.append(parse(obj, line_no))
    return out


def write_json_lines(path, objects: Iterable[dict]) -> None:
    """Write each object as one line of JSON; the CLI's reports use it too."""
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objects:
            fh.write(json.dumps(obj) + "\n")


def write_stiffness_records(path, records: Iterable[dict]) -> None:
    write_json_lines(path, records)


def read_stiffness_records(path) -> list[tuple[MandelMatrix, dict]]:
    return _read_lines(path, parse_stiffness_record)


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
    return _read_lines(path, lattice_from_record)


def write_catalogue(path, lattices: Iterable[Lattice]) -> None:
    write_json_lines(path, map(lattice_record, lattices))
