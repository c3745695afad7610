"""Command-line front door.

Subcommands: homogenize, surface, psd-project, metrics, perturb,
optimize, rotate, validate.  Data goes to files or stdout; diagnostics go
to stderr.  Exit codes: 0 success, 1 domain error, 2 usage error.  A
command fails by raising ``ValueError`` or ``OSError`` (a malformed
record is an :class:`io.CatalogueError`, which names its line);
:func:`dispatch` prints ``error: <message>`` and returns 1, and any other
exception is a bug and propagates.  Every output file gets a sibling
``<path>.manifest.json`` recording the command, arguments, seed, tool
version, and timestamps; rerunning with the same arguments reproduces
seeded outputs bit-exactly.  No environment variables are consulted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, io, metrics, optimize, psd, sampling
from .fe import BeamMaterial, homogenize_batch
from .lattice import check_perturbation, perturbed_realizations, rotate_lattice
from .tensor4 import (
    _mandel_moduli,
    _unit_dyads,
    from_mandel,
    mandel_rotation,
    rotate_mandel,
    to_mandel,
)


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, BeamMaterial):
        return {"E": value.youngs_modulus, "nu": value.poisson_ratio}
    if isinstance(value, np.ndarray):
        return [float(v) for v in value.reshape(-1)]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _manifest(args: argparse.Namespace, **extra):
    """The writer of ``<path>.manifest.json`` for an output ``path``: the
    command, its arguments followed by ``extra``, the seed (0 for a command
    without one), the tool version, this call's time and the write's time."""
    arguments = {k: v for k, v in vars(args).items() if k != "func" and v is not None}
    record = {
        "command": args.subcommand,
        "arguments": {k: _jsonable(v) for k, v in {**arguments, **extra}.items()},
        "seed": getattr(args, "seed", 0),
        "tool_version": __version__,
        "started": _timestamp(),
    }

    def write_for(output_path: str) -> None:
        with open(f"{output_path}.manifest.json", "w", encoding="utf-8") as fh:
            json.dump({**record, "finished": _timestamp()}, fh, indent=2)
            fh.write("\n")

    return write_for


def _parse_material(text: str) -> BeamMaterial:
    values = {}
    for part in text.split(","):
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in ("E", "nu") or not raw:
            raise argparse.ArgumentTypeError(
                f"material must look like 'E=1,nu=0.3', got {text!r}"
            )
        values[key] = float(raw)
    return BeamMaterial(
        youngs_modulus=values.get("E", 1.0), poisson_ratio=values.get("nu", 0.3)
    )


def _parse_vector(text: str) -> np.ndarray:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected 'x,y,z', got {text!r}")
    return np.asarray(parts)


# Lines per chunk of whole blocks that _write_surface formats at once: large
# enough to spread numpy's per-call cost, small enough that no table-sized
# temporary raises the peak memory.
_SURFACE_CHUNK_LINES = 2048


def _write_surface(path: str, label_columns: str, directions: np.ndarray, blocks: list) -> None:
    """Directional-modulus table: one line per direction of each ``(label, mandel)``
    block, where ``label`` is the tab-terminated text under ``label_columns`` and
    ``mandel`` the (6, 6) Mandel entries of a stiffness.  A chunk's moduli are
    one stacked product, with the bits of each matrix's own; numbers are
    written as :func:`io.format_floats` writes them, and a block's lines are
    joined with its label as the separator."""
    count = len(directions)
    dyads = _unit_dyads(directions)
    tab = b"\t"
    dx, dy, dz = io.format_floats(directions).T
    prefix = np.char.add(np.char.add(np.char.add(dx, tab), np.char.add(dy, tab)),
                         np.char.add(dz, tab))
    with open(path, "wb") as fh:
        fh.write(f"{label_columns}dx\tdy\tdz\tmodulus\n".encode())
        if count == 0:
            return  # a table of no directions is its header alone
        per_chunk = max(1, _SURFACE_CHUNK_LINES // count)
        for start in range(0, len(blocks), per_chunk):
            chunk = blocks[start : start + per_chunk]
            moduli = io.format_floats(_mandel_moduli(np.array([m for _, m in chunk]), dyads))
            parts = []
            for (label, _), tails in zip(chunk, np.char.add(prefix, moduli)):
                label = label.encode()
                parts += [label, (b"\n" + label).join(tails.tolist()), b"\n"]
            fh.write(b"".join(parts))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    lattices = io.read_catalogue(args.catalogue)
    nodes = sum(l.node_count for l in lattices)
    edges = sum(l.edge_count for l in lattices)
    print(f"catalogue ok: {len(lattices)} lattices, {nodes} nodes, {edges} edges")
    return 0


def _cmd_homogenize(args) -> int:
    lattices = io.read_catalogue(args.catalogue)
    write_manifest = _manifest(args)
    directions = sampling.unit_directions(args.surface, args.seed)
    items = homogenize_batch(lattices, args.radius, args.material)
    records = []
    surface_blocks = []
    failures = 0
    for item in items:
        if item.error is not None:
            failures += 1
            print(f"error: {item.name} (r={item.radius:g}): {item.error}", file=sys.stderr)
            continue
        result = item.result
        mandel = to_mandel(result.stiffness)
        records.append(
            io.stiffness_record(
                mandel,
                relative_density=result.relative_density,
                name=item.name,
                radius=item.radius,
                residual=result.residual,
                dof_count=result.dof_count,
            )
        )
        print(
            f"{item.name} (r={item.radius:g}): {result.dof_count} dofs, "
            f"min pivot ratio {result.min_pivot_ratio:.3e}, {item.seconds:.3g}s",
            file=sys.stderr,
        )
        if args.surface:
            label = f"{item.name}\t{item.radius:.17g}\t"
            surface_blocks.append((label, mandel.entries))
    io.write_stiffness_records(args.out, records)
    write_manifest(args.out)
    if args.surface:
        path = f"{args.out}.surface.tsv"
        _write_surface(path, "name\tradius\t", directions, surface_blocks)
        write_manifest(path)
    return 1 if failures else 0


def _cmd_surface(args) -> int:
    records = io.read_stiffness_records(args.stiffness)
    if not records:
        raise ValueError("no stiffness records in input")
    if not 0 <= args.index < len(records):
        raise ValueError(f"record index {args.index} out of range")
    write_manifest = _manifest(args)
    matrix, _ = records[args.index]
    directions = sampling.unit_directions(args.n, args.seed)
    _write_surface(args.out, "", directions, [("", to_mandel(from_mandel(matrix)).entries)])
    write_manifest(args.out)
    return 0


def _cmd_psd_project(args) -> int:
    records = io.read_stiffness_records(args.input)
    write_manifest = _manifest(args)
    method = psd.PsdMethod(args.method)
    io.write_stiffness_records(args.out, [
        io.with_mandel(raw, psd.project(matrix, method))
        for matrix, raw in records
    ])
    write_manifest(args.out)
    return 0


def _cmd_metrics(args) -> int:
    preds = io.read_stiffness_records(args.pred)
    targets = io.read_stiffness_records(args.target)
    if len(preds) != len(targets):
        raise ValueError(f"{len(preds)} predictions vs {len(targets)} targets")
    if not preds:
        raise ValueError("empty record files")
    dirs = metrics.DirectionSet.sample(args.dirs, args.seed)
    pairs = [(p, t) for (p, _), (t, _) in zip(preds, targets)]
    pred_tensors = [from_mandel(p) for p, _ in preds]
    target_tensors = [from_mandel(t) for t, _ in targets]
    l_comp = metrics.aggregate_training_loss(pairs)  # first: it names a zero target's pair
    dir_losses = [
        metrics.l_dir(p, t, dirs) for p, t in zip(pred_tensors, target_tensors)
    ]
    report = metrics.MetricReport(
        l_comp=l_comp,
        l_dir=float(np.mean([v[0] for v in dir_losses])),
        l_dir_rel=float(np.mean([v[1] for v in dir_losses])),
        negative_eig_fraction=metrics.negative_eig_fraction(pred_tensors),
        l_equiv=None,
    )
    if args.out:
        write_manifest = _manifest(args)
        io.write_json_lines(args.out, [report.as_dict()])
        write_manifest(args.out)
    else:
        print(json.dumps(report.as_dict()))
    return 0


def _cmd_perturb(args) -> int:
    check_perturbation(args.level, args.realizations)
    lattices = io.read_catalogue(args.catalogue)
    write_manifest = _manifest(args)
    out = []
    skipped = 0
    for lat in lattices:
        if lat.node_count < 2:
            skipped += 1
            print(
                f"warning: {lat.name}: single-node lattice, perturbation skipped",
                file=sys.stderr,
            )
            continue
        out += perturbed_realizations(lat, args.level, args.seed, args.realizations)
    io.write_catalogue(args.out, out)
    write_manifest(args.out)
    print(
        f"perturbed {len(out)} lattices ({skipped} skipped)",
        file=sys.stderr,
    )
    return 0


def _cmd_rotate(args) -> int:
    if args.random:
        rotation = sampling.random_rotation(args.seed)
    else:
        rotation = sampling.axis_angle_rotation(args.axis, math.radians(args.angle_deg))
    write_manifest = _manifest(args, rotation_matrix=rotation)
    if args.catalogue is not None:
        lattices = [rotate_lattice(lat, rotation) for lat in io.read_catalogue(args.catalogue)]
        io.write_catalogue(args.out, lattices)
    else:
        pair = mandel_rotation(rotation)
        io.write_stiffness_records(args.out, [
            io.with_mandel(raw, rotate_mandel(matrix, pair))
            for matrix, raw in io.read_stiffness_records(args.stiffness)
        ])
    write_manifest(args.out)
    return 0


def _cmd_optimize(args) -> int:
    lattices = io.read_catalogue(args.catalogue)
    by_name = {lat.name: lat for lat in lattices}
    if args.name not in by_name:
        raise ValueError(f"lattice {args.name!r} not in catalogue")
    records = io.read_stiffness_records(args.target)
    if not records:
        raise ValueError("no target stiffness record")
    write_manifest = _manifest(args)
    target = from_mandel(records[0][0])
    problem = optimize.DesignProblem(
        base=by_name[args.name],
        target=target,
        max_steps=args.steps,
    )
    trace = optimize.solve(problem, args.material)
    payload = {
        "objective_history": trace.objective_history,
        "final_lattice": io.lattice_record(trace.final_lattice),
        "final_stiffness": io.stiffness_record(
            to_mandel(trace.final_stiffness), name=f"{args.name}_optimized"
        ),
    }
    io.write_json_lines(args.out, [payload])
    write_manifest(args.out)
    print(trace.summary(), file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latmech",
        description="Periodic strut-lattice homogenization and stiffness algebra",
    )
    parser.add_argument(
        "--threads", type=int, default=1,
        help="accepted and ignored; every operation runs on one thread",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("validate", help="check a lattice catalogue")
    p.add_argument("--catalogue", required=True)
    p.set_defaults(func=_cmd_validate)

    p = subs.add_parser("homogenize", help="homogenize a catalogue at given radii")
    p.add_argument("--catalogue", required=True)
    p.add_argument("--radius", type=float, action="append", required=True)
    p.add_argument("--material", type=_parse_material, default=BeamMaterial())
    p.add_argument("--out", required=True)
    p.add_argument("--surface", type=int, default=0, metavar="N",
                   help="also sample N directional moduli per result")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_homogenize)

    p = subs.add_parser("surface", help="directional-modulus table for a stiffness record")
    p.add_argument("--stiffness", required=True)
    p.add_argument("--index", type=int, default=0, help="record index in the input file")
    p.add_argument("-n", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_surface)

    p = subs.add_parser("psd-project", help="apply a PSD map to stiffness records")
    p.add_argument("--input", required=True)
    p.add_argument(
        "--method", choices=sorted(m.value for m in psd.MATRIX_METHODS), required=True
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_psd_project)

    p = subs.add_parser("metrics", help="compare predicted vs target stiffness records")
    p.add_argument("--pred", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--dirs", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_metrics)

    p = subs.add_parser("perturb", help="expand a catalogue with nodal perturbations")
    p.add_argument("--catalogue", required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--realizations", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_perturb)

    p = subs.add_parser("rotate", help="rotate a catalogue or stiffness records")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--catalogue", default=None)
    source.add_argument("--stiffness", default=None)
    p.add_argument("--axis", type=_parse_vector, default=np.array([0.0, 0.0, 1.0]))
    p.add_argument("--angle-deg", type=float, default=90.0)
    p.add_argument("--random", action="store_true", help="draw a seeded random rotation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rotate)

    p = subs.add_parser("optimize", help="Levenberg-Marquardt design toward a target stiffness")
    p.add_argument("--catalogue", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--target", required=True, help="stiffness record file")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--material", type=_parse_material, default=BeamMaterial())
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every :func:`dispatch` call, built at the first."""
    return build_parser()


def dispatch(argv) -> int:
    """Route argv to a subcommand: 0 success, 1 domain error, 2 usage error."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
