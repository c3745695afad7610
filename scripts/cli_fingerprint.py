#!/usr/bin/env python3
"""SHA-256 of every seeded CLI output, to check that a change keeps their bytes.

Writes the four built-in cells of ``scripts/make_catalogue.py`` and two
seeded perturbed realizations of each multi-node cell to a catalogue in a
temporary directory, then runs the CLI in-process on it: ``homogenize``
with ``--surface``, ``surface``, ``rotate`` on stiffness records and on the
catalogue, ``perturb``, ``psd-project`` with each matrix method and with
``--eig-map exp``, ``metrics`` to a file and to stdout (whose report is
saved as ``metrics.stdout.json``) and a five-step ``optimize``.  Prints
``sha256  name`` for each output file.  A manifest is hashed without its
``started`` and ``finished`` timestamps and with the temporary directory
written as ``<tmp>``, so that it too hashes the same on every run.  Run it
on two checkouts and compare:

    PYTHONPATH=src python scripts/cli_fingerprint.py > after.txt
    (cd ../other && PYTHONPATH=src python /path/to/cli_fingerprint.py) > before.txt
    diff before.txt after.txt
"""

import contextlib
import hashlib
import json
import os
import sys
import tempfile
from io import StringIO

from latmech import io, psd
from latmech.cli import dispatch
from latmech.lattice import (
    body_centred_cubic,
    diamond,
    perturbed_realizations,
    simple_cubic,
    tessellate,
)


def run(*argv: str) -> str:
    """``latmech argv`` in-process; returns its stdout, and shows its stderr
    only if it fails."""
    stdout, stderr = StringIO(), StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = dispatch(list(argv))
    if code != 0:
        sys.exit(f"latmech {' '.join(argv)} exited {code}:\n{stderr.getvalue()}")
    return stdout.getvalue()


def write_outputs(out: str) -> None:
    """Writes the catalogue and every command output into the directory ``out``."""
    def path(name: str) -> str:
        return os.path.join(out, name)

    cells = [simple_cubic(), tessellate(simple_cubic(), 2), body_centred_cubic(), diamond()]
    lattices = list(cells)
    for lat in cells:
        if lat.node_count >= 2:
            lattices += perturbed_realizations(lat, 0.05, seed=4, count=2)
    io.write_catalogue(path("cells.lats"), lattices)

    stiff = path("stiff.jsonl")
    run("homogenize", "--catalogue", path("cells.lats"), "--radius", "0.05",
        "--radius", "0.08", "--surface", "50", "--seed", "4", "--out", stiff)
    run("surface", "--stiffness", stiff, "--index", "5", "-n", "50", "--seed", "2",
        "--out", path("surface.tsv"))
    run("rotate", "--stiffness", stiff, "--random", "--seed", "3", "--out", path("rotated.jsonl"))
    run("rotate", "--catalogue", path("cells.lats"), "--axis", "1,1,0", "--angle-deg", "30",
        "--out", path("rotated.lats"))
    run("perturb", "--catalogue", path("cells.lats"), "--level", "0.03", "--seed", "5",
        "--realizations", "2", "--out", path("perturbed.lats"))
    for method in sorted(m.value for m in psd.MATRIX_METHODS):
        run("psd-project", "--input", stiff, "--method", method,
            "--out", path(f"psd-{method}.jsonl"))
    run("psd-project", "--input", stiff, "--method", "eigclamp", "--eig-map", "exp",
        "--out", path("psd-eigclamp-exp.jsonl"))
    run("metrics", "--pred", path("rotated.jsonl"), "--target", stiff, "--dirs", "100",
        "--seed", "6", "--out", path("metrics.json"))
    report = run("metrics", "--pred", path("rotated.jsonl"), "--target", stiff, "--dirs", "100",
                 "--seed", "6")
    with open(path("metrics.stdout.json"), "w", encoding="utf-8") as fh:
        fh.write(report)

    target = [raw for _m, raw in io.read_stiffness_records(stiff) if raw["name"] == "bcc_l0.05_r0"]
    io.write_stiffness_records(path("target.jsonl"), target[:1])
    run("optimize", "--catalogue", path("cells.lats"), "--name", "bcc",
        "--target", path("target.jsonl"), "--steps", "5", "--out", path("optimize.json"))


def manifest_bytes(path: str, out: str) -> bytes:
    """The manifest at ``path`` without its timestamps, ``out`` written as ``<tmp>``."""
    with open(path, encoding="utf-8") as fh:
        manifest = json.loads(fh.read().replace(out, "<tmp>"))
    del manifest["started"], manifest["finished"]
    return json.dumps(manifest, indent=2).encode()


def main() -> None:
    with tempfile.TemporaryDirectory() as out:
        write_outputs(out)
        for name in sorted(os.listdir(out)):
            path = os.path.join(out, name)
            if name.endswith(".manifest.json"):
                data = manifest_bytes(path, out)
            else:
                with open(path, "rb") as fh:
                    data = fh.read()
            print(f"{hashlib.sha256(data).hexdigest()}  {name}")


if __name__ == "__main__":
    main()
