"""Run one latmech benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; latmech is imported from its ``src``.
With ``--trace 0`` the run times set-up in fresh processes, then repeats
whole rounds of the workload for about ``--seconds`` and reports the
end-to-end metrics.  With ``--trace 1`` it runs untraced and traced rounds
in turn for about ``--seconds`` and reports per-layer metrics per traced
round plus the tracing overhead.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the host.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

PER_LAYER_UNITS = {
    "fe.factor_gflop": "computed_GFLOP",
    "fe.k_mb_max": "computed_MB",
    "io.bytes_written": "bytes",
    "optimize.accept_ratio": "ratio",
}


def _unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith((".s", "_s")) else "count"


def _openblas() -> dict:
    """OpenBLAS build string and thread count of the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    return {"openblas": config().decode(), "blas_threads": threads()}
    return {"openblas": None, "blas_threads": None}


def host_facts(threads: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_openblas(),
        "latmech_threads": threads,
    }


def timed_setup(workload: str, seed: int, workdir: str) -> list[float]:
    """Seconds of each fresh-process set-up; the last one leaves its inputs in ``workdir``."""
    script = os.path.join(HERE, "setup_inputs.py")
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, script, workload, str(seed), workdir],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def _tally(runner, outcome, state: dict) -> None:
    """Count a round's operations; keep the first round's output and compare later ones to it."""
    state["attempted"] += outcome.attempted
    state["failed"] += outcome.failed
    state["items"] = outcome.items
    if state["first"] is None:
        state["first"] = outcome
    elif not runner.same(state["first"], outcome):
        state["problems"].append("a later round differs from the first")


def repeat_rounds(runner, seconds: float, state: dict, probe) -> list[float]:
    """Wall times of whole rounds run until another would pass ``seconds``; at least one.

    Each round's time at the reference host speed goes to ``state``.
    """
    times = []
    started = time.perf_counter()
    while True:
        since = len(probe.samples)
        t0 = time.perf_counter()
        outcome = runner.run()
        t1 = time.perf_counter()
        elapsed = t1 - t0
        times.append(elapsed)
        state["reference_times"].append(probe.reference_seconds(t0, t1, since))
        _tally(runner, outcome, state)
        if time.perf_counter() - started + elapsed > seconds:
            return times


def alternate_rounds(runner, tracer, seconds: float, state: dict) -> tuple[list, list]:
    """Wall times of untraced and traced rounds, taken in turn so that drift in
    host speed falls on both; pairs run until another would pass ``seconds``."""
    plain, traced = [], []
    started = time.perf_counter()
    while True:
        for times, trace in ((plain, False), (traced, True)):
            if trace:
                tracer.install()
            try:
                t0 = time.perf_counter()
                outcome = runner.run()
                times.append(time.perf_counter() - t0)
            finally:
                if trace:
                    tracer.remove()
            _tally(runner, outcome, state)
        if time.perf_counter() - started + plain[-1] + traced[-1] > seconds:
            return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalogue", "supercell", "design", "evaluate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="latmech worker threads (reference figures only)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latmech", "__init__.py")):
        print(f"error: no latmech sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if not 1 <= args.threads <= nproc:
        print(f"error: --threads must lie in 1..{nproc}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import latmech

    if not os.path.abspath(latmech.__file__).startswith(SRC + os.sep):
        print(f"error: latmech imported from {latmech.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import speed
    import tracing
    import workloads

    generate, runner_class = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    state = {"attempted": 0, "failed": 0, "items": 0, "first": None, "problems": [],
             "reference_times": []}
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                generate(args.seed, workdir)
            finally:
                tracer.remove()
            setup_spans = tracer.take()
            runner = runner_class(args.seed, workdir, args.threads)
            plain, traced = alternate_rounds(runner, tracer, args.seconds, state)
            round_spans = tracer.take()
            values = tracing.layer_metrics(round_spans, len(traced), setup_spans)
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            host = host_facts(args.threads)
            tracing.write_spans(
                os.path.join(OUT, f"trace-{args.workload}.jsonl"),
                {"workload": args.workload, "seed": args.seed, "traced_rounds": len(traced),
                 "host": host},
                {"setup": setup_spans, "rounds": round_spans},
            )
            metrics = {name: {"value": value, "unit": _unit(name)} for name, value in values.items()}
        else:
            setups = timed_setup(args.workload, args.seed, workdir)
            runner = runner_class(args.seed, workdir, args.threads)
            with speed.SpeedProbe() as probe:
                times = repeat_rounds(runner, args.seconds, state, probe)
            host = host_facts(args.threads)
            host["rounds"] = len(times)
            host["wall_items_per_s"] = state["items"] / statistics.median(times)
            host["probe_median_s"] = statistics.median(probe.samples)
            metrics = {
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "items_per_ref_s": {
                    "value": state["items"] / statistics.median(state["reference_times"]),
                    "unit": "1/s",
                },
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
        state["problems"] += runner.check(state["first"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in state["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"host": host}))
    print(json.dumps({
        "correct": not state["problems"],
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
