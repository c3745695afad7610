"""Span tracing of latmech's layers from outside the package.

:class:`Tracer` replaces every public function of the latmech modules at
each module attribute it is looked up through (``latmech.optimize.homogenize``
is the same function as ``latmech.fe.homogenize`` and gets the same
wrapper), plus ``Lattice.__post_init__`` and the two ``scipy.linalg``
Cholesky calls that ``fe`` makes.  Each call records one span
``(id, parent, name, start, end, note)`` in memory; ``note`` is a small
value read from the call (matrix size, PSD method, items, bytes) where a
per-layer metric needs one.  :func:`layer_metrics` turns the spans of a
number of identical rounds into per-round figures.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import os
import sys
import threading
from time import perf_counter

LAYERS = ("cli", "io", "lattice", "fe", "optimize", "psd", "tensor4", "metrics", "sampling")


def _file_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _batch_outcome(args, kwargs, result):
    return [len(result), sum(1 for item in result if item.error is not None)]


# Values a span keeps from its call, for the metrics that need more than time.
NOTES = {
    "fe.homogenize": lambda args, kwargs, result: result.dof_count,
    "fe.homogenize_batch": _batch_outcome,
    "fe.cho_factor": lambda args, kwargs, result: int(result[0].shape[0]),
    "optimize.solve": lambda args, kwargs, result: len(result.objective_history) - 1,
    "psd.project": lambda args, kwargs, result: (args[1] if len(args) > 1 else kwargs["method"]).value,
    "io.write_stiffness_records": _file_size,
}


class Tracer:
    """Collects spans from wrapped functions; patches are undone by :meth:`remove`."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result, returned = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                # a call that raised keeps its span, without a note
                noted = note(args, kwargs, result) if note and returned else None
                self.spans.append((span_id, parent, name, start, end, noted))

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import scipy.linalg

        import latmech
        from latmech import lattice

        modules = [latmech] + [sys.modules[f"latmech.{layer}"] for layer in LAYERS]
        wrappers: dict[int, tuple] = {}
        for module in modules[1:]:
            for attr, value in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if value.__module__.startswith("latmech.") and id(value) not in wrappers:
                    wrappers[id(value)] = (value, self.wrap(f"{layer}.{value.__name__}", value))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])
        self._patch(lattice.Lattice, "__post_init__",
                    self.wrap("lattice.construct", lattice.Lattice.__post_init__))
        self._patch(scipy.linalg, "cho_factor", self.wrap("fe.cho_factor", scipy.linalg.cho_factor))
        self._patch(scipy.linalg, "cho_solve", self.wrap("fe.cho_solve", scipy.linalg.cho_solve))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> list[tuple]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


def write_spans(path: str, header: dict, phases: dict[str, list[tuple]]) -> None:
    """One JSON header line, then one ``[phase, id, parent, name, start, end, note]`` per span."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for phase, spans in phases.items():
            for span in spans:
                fh.write(json.dumps([phase, *span]) + "\n")


def _self_times(spans: list[tuple]) -> dict[int, float]:
    """Span duration minus the time its children cover (children never overlap
    within one thread; spans from pool threads have no parent)."""
    covered: dict[int, float] = {}
    for _id, parent, _name, start, end, _note in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    return {
        span_id: max(end - start - covered.get(span_id, 0.0), 0.0)
        for span_id, _parent, _name, start, end, _note in spans
    }


PSD_METHODS = ("square", "fourth", "exp", "trunc2", "trunc4", "eigclamp")
TIMED = (
    "fe.homogenize", "fe.beam_stiffness", "fe.cho_factor", "fe.cho_solve",
    "optimize.fd_gradient", "lattice.construct", "lattice.displace_nodes",
    "psd.project", "psd.expm_symmetric",
    "tensor4.from_mandel", "tensor4.to_mandel", "tensor4.mandel_rotation",
    "tensor4.rotate_mandel", "tensor4.rotate", "tensor4.kelvin_spectrum",
    "tensor4.directional_moduli",
    "metrics.aggregate_training_loss", "metrics.l_dir", "metrics.negative_eig_fraction",
    "metrics.l_equiv", "sampling.unit_directions",
    "io.read_catalogue", "io.write_stiffness_records", "io.read_stiffness_records",
    "cli.dispatch",
)
COUNTED = (
    "fe.homogenize", "fe.beam_stiffness", "optimize.fd_gradient", "optimize.objective",
    "lattice.construct", "lattice.displace_nodes", "psd.project", "tensor4.from_mandel",
)
SET_UP = ("lattice.tessellate", "lattice.perturb")


def layer_metrics(round_spans: list[tuple], rounds: int, setup_spans: list[tuple]) -> dict[str, float]:
    """Per-round layer figures from the spans of ``rounds`` identical rounds.

    ``lattice.tessellate.s`` and ``lattice.perturb.s`` are read from one
    traced input generation instead, because only set-up calls them.
    """
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    by_name: dict[str, list[tuple]] = {}
    for span in round_spans:
        name = span[2]
        total[name] = total.get(name, 0.0) + (span[4] - span[3])
        calls[name] = calls.get(name, 0) + 1
        by_name.setdefault(name, []).append(span)
    self_time = _self_times(round_spans)
    names = {span[0]: span[2] for span in round_spans}
    per = float(rounds)

    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = calls.get(name, 0) / per
    for name in TIMED:
        out[f"{name}.s"] = total.get(name, 0.0) / per
    out["fe.homogenize.self_s"] = sum(self_time[s[0]] for s in by_name.get("fe.homogenize", [])) / per
    out["cli.self_s"] = sum(t for i, t in self_time.items() if names[i].startswith("cli.")) / per

    homogenize = by_name.get("fe.homogenize", [])
    out["fe.dofs"] = sum(s[5] or 0 for s in homogenize) / per
    factor_sizes = [s[5] for s in by_name.get("fe.cho_factor", []) if s[5] is not None]
    out["fe.factor_gflop"] = sum(n**3 / 3.0 for n in factor_sizes) / 1e9 / per
    out["fe.k_mb_max"] = max((8.0 * n * n / 1e6 for n in factor_sizes), default=0.0)
    batches = by_name.get("fe.homogenize_batch", [])
    out["fe.batch.items"] = sum(s[5][0] for s in batches if s[5]) / per
    out["fe.batch.failed"] = sum(s[5][1] for s in batches if s[5]) / per

    solves = by_name.get("optimize.solve", [])
    solve_ids = {s[0] for s in solves}
    # objective calls made by solve itself: one initial value, then the line search
    line_search = sum(1 for s in by_name.get("optimize.objective", []) if s[1] in solve_ids) - len(solves)
    steps = sum(s[5] or 0 for s in solves)
    out["optimize.line_search.evals"] = line_search / per
    out["optimize.steps"] = steps / per
    out["optimize.accept_ratio"] = steps / line_search if line_search else 0.0

    for method in PSD_METHODS:
        out[f"psd.project.{method}.s"] = sum(
            s[4] - s[3] for s in by_name.get("psd.project", []) if s[5] == method
        ) / per
    written = by_name.get("io.write_stiffness_records", [])
    out["io.bytes_written"] = sum(s[5] or 0 for s in written) / per

    for name in SET_UP:
        out[f"{name}.s"] = sum(s[4] - s[3] for s in setup_spans if s[2] == name)
    return out
