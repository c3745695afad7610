#!/usr/bin/env python3
"""Write the built-in unit cells (and optional perturbed realizations) to a catalogue."""

import argparse

from latmech import io
from latmech.lattice import (
    body_centred_cubic,
    diamond,
    perturbed_realizations,
    simple_cubic,
    tessellate,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="catalogue.lats")
    parser.add_argument("--radius", type=float, default=0.05)
    parser.add_argument("--perturb-level", type=float, default=0.0)
    parser.add_argument("--realizations", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    lattices = [
        simple_cubic(radius=args.radius),
        tessellate(simple_cubic(radius=args.radius), 2),
        body_centred_cubic(radius=args.radius),
        diamond(radius=args.radius),
    ]
    out = list(lattices)
    if args.perturb_level > 0.0:
        for lat in lattices:
            if lat.node_count < 2:
                continue
            out += perturbed_realizations(lat, args.perturb_level, args.seed, args.realizations)
    io.write_catalogue(args.out, out)
    print(f"wrote {len(out)} lattices to {args.out}")


if __name__ == "__main__":
    main()
