"""The four benchmark workloads: input generation, one round, and output checks.

Every workload has the same shape.  ``generate_<name>(seed, workdir)``
makes the inputs from the seed and writes them to files; it is the timed
set-up.  The runner class reads them back untimed; its ``run()`` performs
one round, the same operations every time, and returns a :class:`Round`.
``check(first)`` compares the first round's outputs with computations
made apart from latmech, or with properties the method must have, and
returns a list of problems; ``same(first, later)`` confirms that a later
round reproduced the first.

latmech is always called through module attributes (``fe.homogenize``,
never a name bound at import) so that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from latmech import cli, fe, io, lattice, metrics, optimize, psd, sampling, tensor4

CATALOGUE_RADII = (0.05, 0.08)
CATALOGUE_REALIZATIONS = 20
PERTURB_LEVEL = 0.02
SURFACE_DIRECTIONS = 200
SUPERCELL_RADIUS = 0.05
EVALUATE_CELLS = 48
EVALUATE_RADII = (0.005, 0.1)
EVALUATE_NOISE = 1e-2
EVALUATE_DIRECTIONS = 250
EQUIV_LATTICES = 8
EQUIV_ROTATIONS = 4
# The PSD-contract batch is built from this fixed seed, whatever --seed is,
# so its verdict is the same in every run.
CONTRACT_SEED = 0
CONTRACT_CELLS = 32


@dataclass
class Round:
    """What one round did: ``items`` feed the throughput metric; ``attempted``
    and ``failed`` count operations; ``output`` is checked outside the timer."""

    items: int
    attempted: int
    failed: int
    output: dict = field(default_factory=dict)


def _derived_seed(seed: int, stream: int) -> int:
    return (seed * 1_000_003 + stream) & ((1 << 63) - 1)


def _perturbed(lat, level: float, seed: int, name: str):
    moved = lattice.perturb(lat, level, seed)
    return lattice.Lattice(name=name, cell=moved.cell, nodes=moved.nodes, edges=moved.edges,
                           radius=moved.radius)


def _psd_problems(label: str, m: np.ndarray, rel: float = 1e-12) -> list[str]:
    scale = np.abs(m).max()
    problems = []
    if np.abs(m - m.T).max() > rel * scale:
        problems.append(f"{label}: Mandel matrix not symmetric")
    eig = np.linalg.eigvalsh(0.5 * (m + m.T))
    if eig.min() < -rel * eig.max():
        problems.append(f"{label}: negative eigenvalue {eig.min():.3e} (max {eig.max():.3e})")
    return problems


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _rotation_tensor(c: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.einsum("ia,jb,kc,ld,abcd->ijkl", r, r, r, r, c)


_MANDEL_PAIRS = ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1))
_MANDEL_WEIGHTS = np.array([1.0, 1.0, 1.0, math.sqrt(2.0), math.sqrt(2.0), math.sqrt(2.0)])


def _mandel_of(c: np.ndarray) -> np.ndarray:
    """Mandel matrix of a 3x3x3x3 array, written out apart from tensor4."""
    m = np.empty((6, 6))
    for a, (i, j) in enumerate(_MANDEL_PAIRS):
        for b, (k, l) in enumerate(_MANDEL_PAIRS):
            m[a, b] = _MANDEL_WEIGHTS[a] * _MANDEL_WEIGHTS[b] * c[i, j, k, l]
    return m


def _strut_density(lat) -> float:
    """pi r^2 sum(L) / det(A), from the raw lattice arrays."""
    ends = lat.nodes[lat.edges[:, 1]] + lat.edges[:, 2:] - lat.nodes[lat.edges[:, 0]]
    lengths = np.sqrt(((ends @ lat.cell.T) ** 2).sum(axis=1))
    return math.pi * lat.radius**2 * lengths.sum() / np.linalg.det(lat.cell)


# ---------------------------------------------------------------------------
# catalogue: the standard 64-cell catalogue through the CLI, then read back
# ---------------------------------------------------------------------------


def _catalogue_cells(seed: int) -> list:
    sc = lattice.simple_cubic()
    bases = [sc, lattice.tessellate(sc, 2), lattice.body_centred_cubic(), lattice.diamond()]
    cells = list(bases)
    for stream, base in enumerate(bases[1:], start=1):
        for r in range(CATALOGUE_REALIZATIONS):
            cells.append(_perturbed(base, PERTURB_LEVEL, _derived_seed(seed, 100 * stream + r),
                                    f"{base.name}_r{r}"))
    return cells


class CatalogueRun:
    def __init__(self, seed: int, workdir: str, threads: int):
        self.catalogue = os.path.join(workdir, "catalogue.lats")
        self.out = os.path.join(workdir, "stiffness.jsonl")
        self.lattices = {lat.name: lat for lat in io.read_catalogue(self.catalogue)}
        self.argv = ["--threads", str(threads), "homogenize", "--catalogue", self.catalogue]
        for radius in CATALOGUE_RADII:
            self.argv += ["--radius", repr(radius)]
        self.argv += ["--out", self.out, "--surface", str(SURFACE_DIRECTIONS), "--seed", str(seed)]

    def run(self) -> Round:
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            code = cli.dispatch(self.argv)
        records = io.read_stiffness_records(self.out)
        items = len(self.lattices) * len(CATALOGUE_RADII)
        return Round(items=items, attempted=items, failed=items - len(records),
                     output={"code": code, "records": records})

    def check(self, first: Round) -> list[str]:
        problems = []
        if first.output["code"] != 0:
            problems.append(f"latmech homogenize exited with {first.output['code']}")
        by_key = {}
        for matrix, raw in first.output["records"]:
            by_key[(raw["name"], raw["radius"])] = (matrix.entries, raw)
        for radius in CATALOGUE_RADII:
            sc, _ = by_key[("simple_cubic", radius)]
            expected = math.pi * radius**2
            if abs(sc[0, 0] - expected) > 1e-9 * expected:
                problems.append(f"simple cubic C_1111 {sc[0, 0]!r} != pi r^2 at r={radius}")
            doubled, _ = by_key[("simple_cubic_x2", radius)]
            if _rel(doubled, sc) > 1e-8:
                problems.append(f"sc vs sc_x2 differ by {_rel(doubled, sc):.2e} at r={radius}")
        for (name, radius), (m, raw) in by_key.items():
            lat = replace(self.lattices[name], radius=radius)
            density = _strut_density(lat)
            if abs(raw["relative_density"] - density) > 1e-12 * density:
                problems.append(f"{name} r={radius}: relative density {raw['relative_density']!r}"
                                f" != {density!r}")
            problems += _psd_problems(f"{name} r={radius}", m)
            direct = tensor4.to_mandel(fe.homogenize(lat).stiffness).entries
            if not np.array_equal(direct, m):
                problems.append(f"{name} r={radius}: record read back differs from homogenize")
        return problems

    @staticmethod
    def same(first: Round, later: Round) -> bool:
        return later.output["code"] == first.output["code"] and all(
            np.array_equal(a.entries, b.entries)
            for (a, _), (b, _) in zip(first.output["records"], later.output["records"])
        ) and len(first.output["records"]) == len(later.output["records"])


def generate_catalogue(seed: int, workdir: str) -> None:
    io.write_catalogue(os.path.join(workdir, "catalogue.lats"), _catalogue_cells(seed))


# ---------------------------------------------------------------------------
# supercell: a few large perturbed tessellations through homogenize_batch
# ---------------------------------------------------------------------------


def _supercells(seed: int) -> list:
    plans = [(lattice.simple_cubic(), 6), (lattice.body_centred_cubic(), 4),
             (lattice.diamond(), 4), (lattice.simple_cubic(), 8)]
    cells = []
    for stream, (base, n) in enumerate(plans):
        big = lattice.tessellate(base, n)
        cells.append(_perturbed(big, PERTURB_LEVEL, _derived_seed(seed, stream), big.name))
    return cells


class SupercellRun:
    def __init__(self, seed: int, workdir: str, threads: int):
        self.seed = seed
        self.threads = threads
        self.lattices = io.read_catalogue(os.path.join(workdir, "supercells.lats"))

    def run(self) -> Round:
        items = fe.homogenize_batch(self.lattices, [SUPERCELL_RADIUS], threads=self.threads)
        failed = sum(1 for item in items if item.error is not None)
        return Round(items=len(items), attempted=len(items), failed=failed, output={"items": items})

    def check(self, first: Round) -> list[str]:
        problems = [f"{item.name}: {item.error}" for item in first.output["items"] if item.error]
        results = {item.name: item.result for item in first.output["items"] if item.result}
        for name, result in results.items():
            problems += _psd_problems(name, tensor4.to_mandel(result.stiffness).entries)
        cells = {lat.name: replace(lat, radius=SUPERCELL_RADIUS) for lat in self.lattices}
        rng = np.random.default_rng(_derived_seed(self.seed, 7))
        for name in ("bcc_x4", "diamond_x4"):
            lat = cells[name]
            shift = np.tile(rng.uniform(-0.5, 0.5, 3), (lat.node_count, 1))
            moved = fe.homogenize(lattice.displace_nodes(lat, shift)).stiffness.components
            deviation = _rel(moved, results[name].stiffness.components)
            if deviation > 1e-10:
                problems.append(f"{name}: rigid shift changes C by {deviation:.2e}")
        r = sampling.random_rotation(_derived_seed(self.seed, 8))
        lat = cells["diamond_x4"]
        rotated = fe.homogenize(lattice.rotate_lattice(lat, r)).stiffness.components
        expected = _rotation_tensor(results["diamond_x4"].stiffness.components, r)
        if _rel(rotated, expected) > 1e-10:
            problems.append(f"diamond_x4: C(R L) != R C(L) by {_rel(rotated, expected):.2e}")
        return problems

    @staticmethod
    def same(first: Round, later: Round) -> bool:
        # threaded LAPACK may sum in another order from one factorization to the next
        return all(
            (a.result is None and b.result is None)
            or _rel(a.result.stiffness.components, b.result.stiffness.components) <= 1e-12
            for a, b in zip(first.output["items"], later.output["items"])
        )


def generate_supercell(seed: int, workdir: str) -> None:
    io.write_catalogue(os.path.join(workdir, "supercells.lats"), _supercells(seed))


# ---------------------------------------------------------------------------
# design: the y-softening demo, 50 backtracking FD-gradient steps
# ---------------------------------------------------------------------------


def generate_design(seed: int, workdir: str) -> None:
    base = lattice.perturb(lattice.tessellate(lattice.simple_cubic(), 2), PERTURB_LEVEL, seed)
    m = tensor4.to_mandel(fe.homogenize(base).stiffness).entries
    scale = np.ones((6, 6))
    scale[1, :] *= 0.8
    scale[:, 1] *= 0.8
    scale[1, 1] = 0.8
    io.write_catalogue(os.path.join(workdir, "design_base.lats"), [base])
    io.write_stiffness_records(os.path.join(workdir, "design_target.jsonl"),
                               [io.stiffness_record(m * scale, name="y_softened")])


class DesignRun:
    def __init__(self, seed: int, workdir: str, threads: int):
        self.seed = seed
        self.threads = threads
        (base,) = io.read_catalogue(os.path.join(workdir, "design_base.lats"))
        ((target, _),) = io.read_stiffness_records(os.path.join(workdir, "design_target.jsonl"))
        self.problem = optimize.DesignProblem(base=base, target=tensor4.from_mandel(target))

    def run(self) -> Round:
        trace = optimize.solve(self.problem, threads=self.threads)
        return Round(items=1, attempted=1, failed=0, output={"trace": trace})

    def check(self, first: Round) -> list[str]:
        trace = first.output["trace"]
        history = trace.objective_history
        problems = []
        if any(b > a for a, b in zip(history, history[1:])):
            problems.append("objective history increases")
        if not history[-1] <= 0.1 * history[0]:
            problems.append(f"objective only fell to {history[-1] / history[0]:.1%} of the start")
        fresh = fe.homogenize(trace.final_lattice).stiffness.components
        if not np.array_equal(fresh, trace.final_stiffness.components):
            problems.append("final_stiffness differs from a fresh homogenize of final_lattice")
        prob = self.problem
        grad = optimize.fd_gradient(prob.base, prob.target, prob.free_nodes, prob.fd_step)
        rng = np.random.default_rng(_derived_seed(self.seed, 9))
        direction = rng.standard_normal((prob.base.node_count, 3))
        direction /= np.linalg.norm(direction)
        h = prob.fd_step
        plus = optimize.objective(lattice.displace_nodes(prob.base, h * direction), prob.target)
        minus = optimize.objective(lattice.displace_nodes(prob.base, -h * direction), prob.target)
        along = (plus - minus) / (2.0 * h)
        predicted = sum(float(direction[node] @ g) for node, g in grad.items())
        if abs(predicted - along) > 1e-5 * abs(along):
            problems.append(f"fd_gradient . d = {predicted!r}, central difference {along!r}")
        return problems

    @staticmethod
    def same(first: Round, later: Round) -> bool:
        return first.output["trace"].objective_history == later.output["trace"].objective_history


# ---------------------------------------------------------------------------
# evaluate: PSD maps, metrics, rotation and sampling on noisy predictions
# ---------------------------------------------------------------------------

METHODS = tuple(m for m in psd.PsdMethod if m in psd.MATRIX_METHODS)

# Pre-image of a target eigenvalue under each map, so that the map of a
# noise-free prediction gives the target back.
_PRE_IMAGE = {
    psd.PsdMethod.SQUARE: np.sqrt,
    psd.PsdMethod.FOURTH: lambda w: w**0.25,
    psd.PsdMethod.EXP: np.log,
    psd.PsdMethod.TRUNC_EXP2: lambda w: 2.0 * (np.sqrt(w) - 1.0),
    psd.PsdMethod.TRUNC_EXP4: lambda w: 4.0 * (w**0.25 - 1.0),
    psd.PsdMethod.EIGEN_CLAMP: lambda w: w,
}


def _evaluate_cells(seed: int, count: int) -> list:
    bases = [lattice.tessellate(lattice.simple_cubic(), 2), lattice.body_centred_cubic(),
             lattice.diamond()]
    rng = np.random.default_rng(_derived_seed(seed, 10))
    low, high = np.log(EVALUATE_RADII[0]), np.log(EVALUATE_RADII[1])
    cells = []
    for k in range(count):
        base = replace(bases[k % len(bases)], radius=float(np.exp(rng.uniform(low, high))))
        cells.append(_perturbed(base, PERTURB_LEVEL, _derived_seed(seed, 1000 + k),
                                f"{base.name}_e{k}"))
    return cells


def _predictions(targets: np.ndarray, seed: int) -> dict[str, np.ndarray]:
    """Noisy symmetric predictions in each map's input space."""
    rng = np.random.default_rng(_derived_seed(seed, 11))
    out = {}
    for method in METHODS:
        preds = np.empty_like(targets)
        for k, target in enumerate(targets):
            w, v = np.linalg.eigh(target)
            w = np.maximum(w, 1e-14 * w.max())
            pre = (v * _PRE_IMAGE[method](w)) @ v.T
            noise = rng.standard_normal((6, 6))
            preds[k] = pre + EVALUATE_NOISE * np.linalg.norm(pre) / 6.0 * 0.5 * (noise + noise.T)
        out[method.value] = preds
    return out


def _homogenized(cells) -> np.ndarray:
    return np.array([tensor4.to_mandel(fe.homogenize(lat).stiffness).entries for lat in cells])


def generate_evaluate(seed: int, workdir: str) -> None:
    cells = _evaluate_cells(seed, EVALUATE_CELLS)
    targets = _homogenized(cells)
    contract = _homogenized(_evaluate_cells(CONTRACT_SEED, CONTRACT_CELLS))
    io.write_catalogue(os.path.join(workdir, "evaluate_cells.lats"), cells)
    np.savez(os.path.join(workdir, "evaluate.npz"), targets=targets,
             **{f"pred_{k}": v for k, v in _predictions(targets, seed).items()},
             **{f"contract_{k}": v for k, v in _predictions(contract, CONTRACT_SEED).items()})


def _affine_stiffness(lat) -> tensor4.ElasticTensor4:
    """Closed-form stretch-only (affine) stiffness, E = 1: rotation-equivariant."""
    vectors = lattice.edge_matrix(lat)
    lengths = np.linalg.norm(vectors, axis=1)
    n = vectors / lengths[:, None]
    c = np.einsum("e,ei,ej,ek,el->ijkl", lengths, n, n, n, n)
    return tensor4.ElasticTensor4(math.pi * lat.radius**2 * c / np.linalg.det(lat.cell))


def equivariant_predictor(lat) -> tensor4.ElasticTensor4:
    m = tensor4.to_mandel(_affine_stiffness(lat)).entries
    return tensor4.from_mandel(m @ m)


_VOIGT_TO_MANDEL = np.outer(_MANDEL_WEIGHTS, _MANDEL_WEIGHTS)


def voigt_predictor(lat) -> tensor4.ElasticTensor4:
    """Squares the closed form in Voigt notation, which does not commute with rotation."""
    v = tensor4.to_voigt(_affine_stiffness(lat)).entries
    return tensor4.from_mandel((v @ v) * _VOIGT_TO_MANDEL)


class EvaluateRun:
    def __init__(self, seed: int, workdir: str, threads: int):
        self.seed = seed
        self.threads = threads
        data = np.load(os.path.join(workdir, "evaluate.npz"))
        self.targets = [tensor4.MandelMatrix(t) for t in data["targets"]]
        self.target_tensors = [tensor4.from_mandel(t) for t in self.targets]
        self.preds = {m: data[f"pred_{m.value}"] for m in METHODS}
        self.contract = {m: data[f"contract_{m.value}"] for m in METHODS}
        cells = io.read_catalogue(os.path.join(workdir, "evaluate_cells.lats"))
        self.equiv_cells = cells[:EQUIV_LATTICES]

    def _score(self, method) -> dict:
        outs = [psd.project(p, method) for p in self.preds[method]]
        mats = [tensor4.MandelMatrix(o) for o in outs]
        tensors = [tensor4.from_mandel(m) for m in mats]
        dirs = metrics.DirectionSet.sample(EVALUATE_DIRECTIONS, self.seed)
        loss = metrics.aggregate_training_loss(list(zip(mats, self.targets)))
        dir_losses = [metrics.l_dir(p, t, dirs) for p, t in zip(tensors, self.target_tensors)]
        negative = metrics.negative_eig_fraction(tensors)
        rotations = sampling.random_rotations(len(mats), self.seed)
        rotated = [tensor4.rotate_mandel(m, tensor4.mandel_rotation(r))
                   for m, r in zip(mats, rotations)]
        sampled = [tensor4.directional_moduli(tensor4.from_mandel(m), dirs.directions)
                   for m in rotated]
        return {"outs": outs, "loss": loss, "dir_losses": dir_losses, "negative": negative,
                "rotations": rotations, "rotated": rotated, "sampled": sampled,
                "directions": dirs.directions}

    def _contract_holds(self, method) -> bool:
        outs = [tensor4.from_mandel(psd.project(p, method)) for p in self.contract[method]]
        return metrics.negative_eig_fraction(outs) == 0.0

    def run(self) -> Round:
        scores = {m: self._score(m) for m in METHODS}
        # Every map promises PSD outputs, so the negative-eigenvalue fraction
        # must read 0; a method batch where it does not is a failed operation.
        broken = [m.value for m in METHODS if not self._contract_holds(m)]
        rotations = sampling.random_rotations(EQUIV_ROTATIONS, self.seed)
        dirs = metrics.DirectionSet.sample(EVALUATE_DIRECTIONS, self.seed)
        equiv = {
            "equivariant": metrics.l_equiv(equivariant_predictor, self.equiv_cells, rotations,
                                           dirs, threads=self.threads),
            "voigt": metrics.l_equiv(voigt_predictor, self.equiv_cells, rotations, dirs,
                                     threads=self.threads),
        }
        return Round(
            items=len(self.targets) * len(METHODS),
            attempted=2 * len(METHODS) + len(equiv),
            failed=len(broken),
            output={"scores": scores, "equiv": equiv, "broken": broken},
        )

    def check(self, first: Round) -> list[str]:
        problems = []
        scores = first.output["scores"]
        for method in METHODS:
            s = scores[method]
            for k, (pred, out) in enumerate(zip(self.preds[method], s["outs"])):
                label = f"{method.value} #{k}"
                if method is psd.PsdMethod.EXP:
                    reference = scipy.linalg.expm(pred)
                elif method is psd.PsdMethod.SQUARE:
                    reference = pred @ pred
                elif method is psd.PsdMethod.FOURTH:
                    reference = np.linalg.matrix_power(pred, 4)
                elif method is psd.PsdMethod.EIGEN_CLAMP:
                    w, v = scipy.linalg.eigh(pred)
                    reference = (v * np.clip(w, 0.0, None)) @ v.T
                else:
                    reference = None
                if reference is not None and _rel(out, reference) > 1e-10:
                    problems.append(f"{label}: map differs from reference by "
                                    f"{_rel(out, reference):.2e}")
            for k in range(4):
                rp = tensor4.mandel_rotation(s["rotations"][k])
                defect = psd.equivariance_defect(method, self.preds[method][k], rp)
                if defect >= 1e-10:
                    problems.append(f"{method.value} #{k}: equivariance defect {defect:.2e}")
            for k, (out, rotated, r) in enumerate(zip(s["outs"], s["rotated"], s["rotations"])):
                expected = _mandel_of(_rotation_tensor(tensor4.from_mandel(out).components, r))
                if _rel(rotated.entries, expected) > 1e-12:
                    problems.append(f"{method.value} #{k}: rotate_mandel differs from einsum")
                    break
            d = s["directions"]
            dd = np.stack([d[:, 0] ** 2, d[:, 1] ** 2, d[:, 2] ** 2, math.sqrt(2) * d[:, 1] * d[:, 2],
                           math.sqrt(2) * d[:, 0] * d[:, 2], math.sqrt(2) * d[:, 0] * d[:, 1]], 1)
            for k, (out, target) in enumerate(zip(s["outs"], self.targets)):
                raw = float(np.mean(np.abs(np.einsum("qa,ab,qb->q", dd, out - target.entries, dd))))
                if abs(raw - s["dir_losses"][k][0]) > 1e-10 * raw:
                    problems.append(f"{method.value} #{k}: l_dir {s['dir_losses'][k][0]!r} "
                                    f"!= {raw!r}")
                    break
        equiv = first.output["equiv"]
        if not equiv["equivariant"] < 1e-10:
            problems.append(f"l_equiv of the equivariant predictor is {equiv['equivariant']:.2e}")
        directions = scores[METHODS[0]]["directions"]
        scale = np.mean([np.abs(tensor4.directional_moduli(voigt_predictor(lat), directions)).mean()
                         for lat in self.equiv_cells])
        if not equiv["voigt"] > 1e-3 * scale:
            problems.append(f"l_equiv of the Voigt predictor is only {equiv['voigt']:.2e}")
        return problems

    @staticmethod
    def same(first: Round, later: Round) -> bool:
        a, b = first.output, later.output
        return a["broken"] == b["broken"] and a["equiv"] == b["equiv"] and all(
            a["scores"][m]["loss"] == b["scores"][m]["loss"]
            and a["scores"][m]["negative"] == b["scores"][m]["negative"]
            for m in METHODS
        )


WORKLOADS = {
    "catalogue": (generate_catalogue, CatalogueRun),
    "supercell": (generate_supercell, SupercellRun),
    "design": (generate_design, DesignRun),
    "evaluate": (generate_evaluate, EvaluateRun),
}
