"""The benchmark harness (``perfbench/``) and the scripts (``scripts/``) call
latmech by name.  Every module attribute and imported name they use must
exist, every keyword they pass to a latmech callable must be in its
signature, and the CLI must parse the options they put ahead of the
subcommand.  The files are read with ``ast``; none of them is imported."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path
from types import ModuleType

import pytest

from latmech import cli

ROOT = Path(__file__).resolve().parent.parent
CALLERS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("scripts/*.py")])
MISSING = object()


def _member(owner, name: str):
    """``owner.name``, importing it if it is a submodule not yet imported."""
    value = getattr(owner, name, MISSING)
    if value is MISSING and isinstance(owner, ModuleType):
        try:
            value = importlib.import_module(f"{owner.__name__}.{name}")
        except ModuleNotFoundError:
            pass
    return value


def _bindings(tree: ast.Module) -> tuple[dict, list[str]]:
    """Names bound to latmech objects by the file's imports, wherever they
    stand, and the ``from latmech... import`` names that do not exist."""
    bound, missing = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "latmech":
                    continue
                module = importlib.import_module(alias.name)
                if alias.asname:
                    bound[alias.asname] = module
                else:
                    bound["latmech"] = importlib.import_module("latmech")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] != "latmech":
                continue
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = _member(module, alias.name)
                if value is MISSING:
                    missing.append(f"line {node.lineno}: {node.module}.{alias.name}")
                else:
                    bound[alias.asname or alias.name] = value
    return bound, missing


def _resolve(node, bound: dict):
    """The latmech object that a name or a dotted attribute chain reads, or
    ``MISSING``; attributes are followed only on latmech modules and classes."""
    if isinstance(node, ast.Name):
        return bound.get(node.id, MISSING)
    if not isinstance(node, ast.Attribute):
        return MISSING
    owner = _resolve(node.value, bound)
    return _member(owner, node.attr) if isinstance(owner, (ModuleType, type)) else MISSING


def _problems(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound, missing = _bindings(tree)
    problems = [f"{path.name} {entry}" for entry in missing]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = _resolve(node.value, bound)
            if isinstance(owner, (ModuleType, type)) and _member(owner, node.attr) is MISSING:
                problems.append(f"{path.name} line {node.lineno}: {ast.unparse(node)}")
        if not isinstance(node, ast.Call):
            continue
        func = _resolve(node.func, bound)
        if func is MISSING or not callable(func):
            continue
        try:
            params = inspect.signature(func).parameters
        except (TypeError, ValueError):
            continue
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        for keyword in node.keywords:
            if keyword.arg is not None and keyword.arg not in params:
                problems.append(
                    f"{path.name} line {node.lineno}: {ast.unparse(node.func)}"
                    f" takes no keyword {keyword.arg!r}"
                )
    return problems


def test_the_callers_are_found():
    names = {path.name for path in CALLERS}
    assert {"workloads.py", "tracing.py", "fe_layers.py", "design_demo.py"} <= names


@pytest.mark.parametrize("path", CALLERS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_latmech_name_and_keyword_a_caller_uses_exists(path):
    assert _problems(path) == []


def test_the_check_sees_a_missing_name_and_a_stray_keyword(tmp_path):
    caller = tmp_path / "caller.py"
    caller.write_text(
        "from latmech import fe, metrics\n"
        "from latmech.tensor4 import _dyad_moduli\n"
        "fe.homogenize_batch([], [0.05], threads=1)\n"
        "fe.homogenize(lat, workers=2)\n"
        "metrics.DirectionSet.sample(4, seed=0).directions\n"
        "metrics._kept_directions(d)\n",
        encoding="utf-8",
    )
    assert _problems(caller) == [
        "caller.py line 2: latmech.tensor4._dyad_moduli",
        "caller.py line 4: fe.homogenize takes no keyword 'workers'",
        "caller.py line 6: metrics._kept_directions",
    ]


def test_the_cli_parses_threads_ahead_of_the_subcommand():
    # the catalogue workload's argv starts "--threads", str(threads), "homogenize"
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    heads = [
        [ast.unparse(e) for e in node.elts[:3]]
        for node in ast.walk(tree)
        if isinstance(node, ast.List) and node.elts
        and isinstance(node.elts[0], ast.Constant) and node.elts[0].value == "--threads"
    ]
    assert heads == [["'--threads'", "str(threads)", "'homogenize'"]]
    args = cli.build_parser().parse_args(
        ["--threads", "1", "homogenize", "--catalogue", "catalogue.lats", "--radius", "0.05",
         "--radius", "0.08", "--out", "stiffness.jsonl", "--surface", "200", "--seed", "4"]
    )
    assert (args.threads, args.subcommand, args.radius) == (1, "homogenize", [0.05, 0.08])
