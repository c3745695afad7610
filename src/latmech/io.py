"""Text formats: stiffness records and lattice catalogues.

Both formats are line-delimited JSON.  A stiffness record is a flat
object with keys ``mandel`` (36 reals, row-major 6x6), ``basis``
(always "mandel"), and optionally ``relative_density`` plus free-form
metadata such as ``name``.  A catalogue record has keys ``name``,
``cell`` (9 reals, row-major), ``nodes`` (flat list of 3N reduced
coordinates), ``edges`` (lists ``[i, j, tx, ty, tz]``), and ``radius``.

Floats are serialized with Python's shortest round-trip representation
(at most 17 significant digits), so write/read cycles are bit-exact.
"""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .lattice import Lattice
from .tensor4 import MandelMatrix


class CatalogueError(ValueError):
    """Malformed catalogue record, tagged with its line number."""

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
    m = mandel.entries if isinstance(mandel, MandelMatrix) else np.asarray(mandel, dtype=float)
    record: dict = {}
    if name is not None:
        record["name"] = name
    record["mandel"] = [float(v) for v in m.reshape(36)]
    record["basis"] = "mandel"
    if relative_density is not None:
        record["relative_density"] = float(relative_density)
    record.update(extra)
    return record


def parse_stiffness_record(obj: dict, line: int = 0) -> tuple[MandelMatrix, dict]:
    """Validate a record object; returns the matrix and the raw record."""
    where = f"line {line}: " if line else ""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}stiffness record must be an object")
    if obj.get("basis") != "mandel":
        raise ValueError(f"{where}unsupported stiffness basis {obj.get('basis')!r}")
    values = obj.get("mandel")
    if not isinstance(values, list) or len(values) != 36:
        raise ValueError(f"{where}field 'mandel' must hold 36 reals")
    matrix = np.asarray(values, dtype=float).reshape(6, 6)
    return MandelMatrix(matrix), obj


def write_stiffness_records(path, records: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def read_stiffness_records(path) -> list[tuple[MandelMatrix, dict]]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
            out.append(parse_stiffness_record(obj, line_no))
    return out


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
    try:
        cell = np.asarray(obj["cell"], dtype=float)
        nodes = np.asarray(obj["nodes"], dtype=float)
        radius = float(obj["radius"])
    except (TypeError, ValueError) as exc:
        raise CatalogueError(
            line, f"fields 'cell', 'nodes' and 'radius' must hold reals ({exc})"
        ) from exc
    if cell.size != 9:
        raise CatalogueError(line, "field 'cell' must hold 9 reals")
    if nodes.size % 3 != 0 or nodes.size == 0:
        raise CatalogueError(line, "field 'nodes' must hold 3N reals")
    edges = obj["edges"]
    if not isinstance(edges, list):
        raise CatalogueError(line, "field 'edges' must be a list")
    rows = []
    for k, row in enumerate(edges):
        if not isinstance(row, list) or len(row) != 5:
            raise CatalogueError(line, f"edge {k} must be [i, j, tx, ty, tz]")
        if any(not isinstance(v, int) or isinstance(v, bool) for v in row):
            raise CatalogueError(line, f"edge {k} entries must be integers")
        rows.append(row)
    try:
        return Lattice(
            name=name,
            cell=cell.reshape(3, 3),
            nodes=nodes.reshape(-1, 3),
            edges=np.asarray(rows, dtype=int).reshape(-1, 5),
            radius=radius,
        )
    except ValueError as exc:
        raise CatalogueError(line, str(exc)) from exc


def read_catalogue(path) -> list[Lattice]:
    """Parse a catalogue file, rejecting bad records with line and reason."""
    lattices = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CatalogueError(line_no, f"invalid JSON ({exc.msg})") from exc
            lattices.append(lattice_from_record(obj, line_no))
    return lattices


def write_catalogue(path, lattices: Iterable[Lattice]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for lat in lattices:
            fh.write(json.dumps(lattice_record(lat)) + "\n")
