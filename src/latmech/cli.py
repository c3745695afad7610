"""Command-line front door.

Subcommands: homogenize, surface, psd-project, metrics, perturb,
optimize, rotate, validate.  Data goes to files or stdout; diagnostics go
to stderr.  Exit codes: 0 success, 1 domain error, 2 usage error.  Every
output file gets a sibling ``<path>.manifest.json`` recording the command,
arguments, seed, tool version, and timestamps; rerunning with the same
arguments reproduces seeded outputs bit-exactly.  No environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__, io, metrics, optimize, psd, sampling
from .fe import BeamMaterial, homogenize_batch
from .lattice import perturbed_realizations, rotate_lattice
from .tensor4 import (
    directional_moduli,
    from_mandel,
    mandel_rotation,
    rotate_mandel,
    to_mandel,
)

@dataclass
class RunManifest:
    command: str
    arguments: dict
    seed: int
    tool_version: str = __version__
    started: str = ""
    finished: str = ""

    def write_for(self, output_path: str) -> None:
        self.finished = _timestamp()
        with open(f"{output_path}.manifest.json", "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "command": self.command,
                    "arguments": self.arguments,
                    "seed": self.seed,
                    "tool_version": self.tool_version,
                    "started": self.started,
                    "finished": self.finished,
                },
                fh,
                indent=2,
            )
            fh.write("\n")


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


def _manifest(args: argparse.Namespace, seed: int = 0) -> RunManifest:
    arguments = {
        k: _jsonable(v)
        for k, v in vars(args).items()
        if k not in ("func",) and v is not None
    }
    return RunManifest(
        command=args.subcommand,
        arguments=arguments,
        seed=seed,
        started=_timestamp(),
    )


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


def _write_surface(path: str, label_columns: str, directions: np.ndarray, blocks) -> None:
    """Directional-modulus table: one line per direction of each ``(label, moduli)``
    block, where ``label`` is the tab-terminated text under ``label_columns``.
    Numbers are written as :func:`io.format_float` writes them."""
    prefixes = [f"{x:.17g}\t{y:.17g}\t{z:.17g}\t" for x, y, z in directions.tolist()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{label_columns}dx\tdy\tdz\tmodulus\n")
        for label, moduli in blocks:
            fh.write("".join([f"{label}{p}{m:.17g}\n" for p, m in zip(prefixes, moduli.tolist())]))


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
    mat = args.material
    manifest = _manifest(args, seed=args.seed)
    items = homogenize_batch(lattices, args.radius, mat)
    records = []
    surface_blocks = []
    directions = sampling.unit_directions(args.surface, args.seed)
    failures = 0
    for item in items:
        if item.error is not None:
            failures += 1
            print(f"error: {item.name} (r={item.radius:g}): {item.error}", file=sys.stderr)
            continue
        result = item.result
        records.append(
            io.stiffness_record(
                to_mandel(result.stiffness),
                relative_density=result.relative_density,
                name=item.name,
                radius=item.radius,
                residual=result.residual,
                dof_count=result.dof_count,
            )
        )
        print(
            f"{item.name} (r={item.radius:g}): {result.dof_count} dofs, "
            f"{item.seconds:.3f}s",
            file=sys.stderr,
        )
        if args.surface:
            label = f"{item.name}\t{io.format_float(item.radius)}\t"
            surface_blocks.append((label, directional_moduli(result.stiffness, directions)))
    io.write_stiffness_records(args.out, records)
    manifest.write_for(args.out)
    if args.surface:
        path = f"{args.out}.surface.tsv"
        _write_surface(path, "name\tradius\t", directions, surface_blocks)
        manifest.write_for(path)
    return 1 if failures else 0


def _cmd_surface(args) -> int:
    records = io.read_stiffness_records(args.stiffness)
    if not records:
        print("error: no stiffness records in input", file=sys.stderr)
        return 1
    if not 0 <= args.index < len(records):
        print(f"error: record index {args.index} out of range", file=sys.stderr)
        return 1
    manifest = _manifest(args, seed=args.seed)
    matrix, _ = records[args.index]
    directions = sampling.unit_directions(args.n, args.seed)
    moduli = directional_moduli(from_mandel(matrix), directions)
    _write_surface(args.out, "", directions, [("", moduli)])
    manifest.write_for(args.out)
    return 0


def _cmd_psd_project(args) -> int:
    records = io.read_stiffness_records(args.input)
    manifest = _manifest(args, seed=0)
    method = psd.PsdMethod(args.method)
    out_records = []
    for matrix, raw in records:
        projected = psd.project(matrix.entries, method, eig_map=args.eig_map)
        record = dict(raw)
        record["mandel"] = [float(v) for v in projected.reshape(36)]
        out_records.append(record)
    io.write_stiffness_records(args.out, out_records)
    manifest.write_for(args.out)
    return 0


def _cmd_metrics(args) -> int:
    preds = io.read_stiffness_records(args.pred)
    targets = io.read_stiffness_records(args.target)
    if len(preds) != len(targets):
        print(
            f"error: {len(preds)} predictions vs {len(targets)} targets",
            file=sys.stderr,
        )
        return 1
    if not preds:
        print("error: empty record files", file=sys.stderr)
        return 1
    dirs = metrics.DirectionSet.sample(args.dirs, args.seed)
    pairs = [(p, t) for (p, _), (t, _) in zip(preds, targets)]
    pred_tensors = [from_mandel(p) for p, _ in preds]
    target_tensors = [from_mandel(t) for t, _ in targets]
    dir_losses = [
        metrics.l_dir(p, t, dirs) for p, t in zip(pred_tensors, target_tensors)
    ]
    report = metrics.MetricReport(
        l_comp=metrics.aggregate_training_loss(pairs),
        l_dir=float(np.mean([v[0] for v in dir_losses])),
        l_dir_rel=float(np.mean([v[1] for v in dir_losses])),
        negative_eig_fraction=metrics.negative_eig_fraction(pred_tensors),
        l_equiv=None,
    )
    text = json.dumps(report.as_dict())
    if args.out:
        manifest = _manifest(args, seed=args.seed)
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        manifest.write_for(args.out)
    else:
        print(text)
    return 0


def _cmd_perturb(args) -> int:
    lattices = io.read_catalogue(args.catalogue)
    manifest = _manifest(args, seed=args.seed)
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
    manifest.write_for(args.out)
    print(
        f"perturbed {len(out)} lattices ({skipped} skipped)",
        file=sys.stderr,
    )
    return 0


def _cmd_rotate(args) -> int:
    if (args.catalogue is None) == (args.stiffness is None):
        print("error: pass exactly one of --catalogue or --stiffness", file=sys.stderr)
        return 2
    if args.random:
        rotation = sampling.random_rotation(args.seed)
    else:
        rotation = sampling.axis_angle_rotation(args.axis, math.radians(args.angle_deg))
    manifest = _manifest(args, seed=args.seed)
    manifest.arguments["rotation_matrix"] = [float(v) for v in rotation.reshape(9)]
    if args.catalogue is not None:
        lattices = [rotate_lattice(lat, rotation) for lat in io.read_catalogue(args.catalogue)]
        io.write_catalogue(args.out, lattices)
    else:
        pair = mandel_rotation(rotation)
        out_records = []
        for matrix, raw in io.read_stiffness_records(args.stiffness):
            rotated = rotate_mandel(matrix, pair)
            record = dict(raw)
            record["mandel"] = [float(v) for v in rotated.entries.reshape(36)]
            out_records.append(record)
        io.write_stiffness_records(args.out, out_records)
    manifest.write_for(args.out)
    return 0


def _cmd_optimize(args) -> int:
    lattices = io.read_catalogue(args.catalogue)
    by_name = {lat.name: lat for lat in lattices}
    if args.name not in by_name:
        print(f"error: lattice {args.name!r} not in catalogue", file=sys.stderr)
        return 1
    records = io.read_stiffness_records(args.target)
    if not records:
        print("error: no target stiffness record", file=sys.stderr)
        return 1
    manifest = _manifest(args, seed=0)
    target = from_mandel(records[0][0])
    problem = optimize.DesignProblem(
        base=by_name[args.name],
        target=target,
        step_size=args.lr,
        max_steps=args.steps,
        backtracking=not args.plain,
    )
    trace = optimize.solve(problem, args.material)
    payload = {
        "objective_history": trace.objective_history,
        "final_lattice": io.lattice_record(trace.final_lattice),
        "final_stiffness": io.stiffness_record(
            to_mandel(trace.final_stiffness), name=f"{args.name}_optimized"
        ),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    manifest.write_for(args.out)
    print(
        f"objective {trace.objective_history[0]:.6g} -> {trace.objective_history[-1]:.6g} "
        f"in {len(trace.objective_history) - 1} steps",
        file=sys.stderr,
    )
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
    p.add_argument("--eig-map", choices=("relu", "exp"), default="relu")
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
    p.add_argument("--catalogue", default=None)
    p.add_argument("--stiffness", default=None)
    p.add_argument("--axis", type=_parse_vector, default=np.array([0.0, 0.0, 1.0]))
    p.add_argument("--angle-deg", type=float, default=90.0)
    p.add_argument("--random", action="store_true", help="draw a seeded random rotation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_rotate)

    p = subs.add_parser("optimize", help="gradient-descent design toward a target stiffness")
    p.add_argument("--catalogue", required=True)
    p.add_argument("--name", required=True)
    p.add_argument("--target", required=True, help="stiffness record file")
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--lr", type=float, default=optimize.DEFAULT_STEP_SIZE)
    p.add_argument("--plain", action="store_true", help="disable backtracking")
    p.add_argument("--material", type=_parse_material, default=BeamMaterial())
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize)

    return parser


def dispatch(argv) -> int:
    """Route argv to a subcommand: 0 success, 1 domain error, 2 usage error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
