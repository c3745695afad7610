import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import latmech
from latmech import cli, io, sampling
from latmech.cli import dispatch
from latmech.fe import homogenize
from latmech.lattice import body_centred_cubic, diamond, simple_cubic
from latmech.tensor4 import (
    ElasticTensor4,
    directional_moduli,
    directional_modulus,
    from_mandel,
    to_mandel,
)

TESTS = os.path.dirname(os.path.abspath(__file__))


@pytest.fixture
def catalogue_path(tmp_path):
    path = tmp_path / "cells.lats"
    io.write_catalogue(path, [simple_cubic(), body_centred_cubic(), diamond()])
    return path


def read_lines(path):
    return [json.loads(line) for line in open(path) if line.strip()]


class TestValidate:
    def test_ok(self, catalogue_path, capsys):
        assert dispatch(["validate", "--catalogue", str(catalogue_path)]) == 0
        out = capsys.readouterr().out
        assert "3 lattices" in out

    def test_rejects_with_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.lats"
        good = io.lattice_record(simple_cubic())
        bad = dict(good)
        bad["radius"] = -1.0
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        assert dispatch(["validate", "--catalogue", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "radius" in err

    def test_missing_file(self, tmp_path):
        assert dispatch(["validate", "--catalogue", str(tmp_path / "nope")]) == 1

    @pytest.mark.parametrize("line", [1, 2, 3])
    @pytest.mark.parametrize("command", ["homogenize", "surface"])
    def test_a_byte_that_is_not_utf8_names_its_line(
        self, catalogue_path, tmp_path, capsys, command, line
    ):
        # the byte 0xa3 inside a name on the given line, in a catalogue or a
        # stiffness-record file of three lines
        if command == "homogenize":
            path = catalogue_path
            argv = ["homogenize", "--catalogue", str(path), "--radius", "0.05"]
        else:
            path = tmp_path / "stiff.jsonl"
            io.write_stiffness_records(
                path, [io.stiffness_record(np.eye(6), name=f"m{k}") for k in range(3)]
            )
            argv = ["surface", "--stiffness", str(path)]
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1].replace(b'"name": "', b'"name": "\xa3', 1)
        path.write_bytes(b"\n".join(lines))
        assert dispatch(argv + ["--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: line {line}: not UTF-8 (byte 0xa3)\n"

    @pytest.mark.parametrize(
        "field, value", [("radius", None), ("cell", {"x": 1}), ("nodes", "abc")]
    )
    def test_malformed_field_reports_line(self, tmp_path, capsys, field, value):
        path = tmp_path / "bad.lats"
        record = io.lattice_record(simple_cubic())
        record[field] = value
        path.write_text(json.dumps(record) + "\n")
        assert dispatch(["validate", "--catalogue", str(path)]) == 1
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nodes", lambda v: [str(x) for x in v]),
            ("nodes", lambda v: v[:-1] + [False]),
            ("nodes", lambda v: v[:-1] + [None]),
            ("nodes", lambda v: [v]),
            ("cell", lambda v: [[x] for x in v]),  # numpy would read these as reals
            ("cell", lambda v: v[:8] + [True]),
            ("cell", lambda v: v[:8] + [10**400]),
            ("radius", lambda v: True),
            ("radius", lambda v: "0.05"),
            ("radius", lambda v: [v]),
            ("radius", lambda v: 10**400),
            ("edges", lambda v: v[:-1] + [[0, 0, 10**29, 0, 0]]),
            ("edges", lambda v: v[:-1] + [[0, 0, 0, -(10**29), 0]]),
        ],
        ids=["nodes-strings", "nodes-bool", "nodes-null", "nodes-nested", "cell-nested",
             "cell-bool", "cell-huge-int", "radius-bool", "radius-string", "radius-list",
             "radius-huge-int", "edges-huge-shift", "edges-huge-negative-shift"],
    )
    def test_non_number_field_reports_line(self, tmp_path, capsys, field, value):
        good = io.lattice_record(simple_cubic())
        bad = dict(good, **{field: value(good[field])})
        path = tmp_path / "bad.lats"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        assert dispatch(["validate", "--catalogue", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: line 2: ")

    @pytest.mark.parametrize(
        "entries",
        [
            lambda m: [[v] for v in m],  # numpy would reshape 36 1-lists to 6x6
            lambda m: m[:3] + ["a"] + m[4:],
            lambda m: m[:3] + [None] + m[4:],
            lambda m: m[:3] + [True] + m[4:],  # a bool is not a real
            lambda m: m[:3] + [math.nan] + m[4:],
            lambda m: m[:1] + [m[1] + 1.0] + m[2:],  # not symmetric
        ],
        ids=["nested", "string", "null", "bool", "nan", "asymmetric"],
    )
    def test_malformed_stiffness_entry_reports_line(self, tmp_path, capsys, entries):
        good = io.stiffness_record(to_mandel(ElasticTensor4.isotropic(1.0, 1.0)))
        bad = dict(good, mandel=entries(good["mandel"]))
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        code = dispatch(["surface", "--stiffness", str(path), "--out", str(tmp_path / "s.tsv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: line 2: ")


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag(self, capsys):
        assert dispatch(["validate"]) == 2

    def test_parser_is_built_once(self, monkeypatch, catalogue_path, capsys):
        builds = []

        def counting():
            builds.append(1)
            return build_parser()

        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        try:
            assert dispatch(["validate", "--catalogue", str(catalogue_path)]) == 0
            assert dispatch(["frobnicate"]) == 2
            assert dispatch(["validate", "--catalogue", str(catalogue_path)]) == 0
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1


class TestHomogenize:
    def test_writes_records_and_manifest(self, catalogue_path, tmp_path):
        out = tmp_path / "stiff.jsonl"
        code = dispatch(
            [
                "homogenize",
                "--catalogue", str(catalogue_path),
                "--radius", "0.05",
                "--radius", "0.08",
                "--material", "E=1,nu=0.3",
                "--out", str(out),
            ]
        )
        assert code == 0
        records = read_lines(out)
        assert len(records) == 6
        assert all(r["basis"] == "mandel" for r in records)
        manifest = json.loads((tmp_path / "stiff.jsonl.manifest.json").read_text())
        assert manifest["command"] == "homogenize"
        assert manifest["seed"] == 0
        assert manifest["tool_version"]

    def test_round_trip_bit_exact(self, catalogue_path, tmp_path):
        out = tmp_path / "stiff.jsonl"
        dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--out", str(out)]
        )
        loaded = io.read_stiffness_records(out)
        direct = to_mandel(homogenize(simple_cubic(radius=0.05)).stiffness)
        np.testing.assert_array_equal(loaded[0][0].entries, direct.entries)

    def test_stderr_reports_each_items_min_pivot_ratio(self, catalogue_path, tmp_path, capsys):
        out = tmp_path / "stiff.jsonl"
        dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert captured.out == ""
        reported = {}
        for line in captured.err.splitlines():
            head, _, tail = line.partition("min pivot ratio ")
            ratio, seconds = tail.split(", ")
            reported[head.split(" ")[0]] = float(ratio)
            # sub-millisecond solves print with their significant digits
            assert float(seconds.removesuffix("s")) > 0.0
        for lat in (simple_cubic(), body_centred_cubic(), diamond()):
            expected = homogenize(lat).min_pivot_ratio
            assert reported[lat.name] == pytest.approx(expected, rel=1e-3)
            assert 0.0 < reported[lat.name] <= 1.0

    def test_disconnected_lattice_exit_one(self, tmp_path, capsys):
        lat = io.lattice_record(simple_cubic())
        lat["name"] = "split"
        lat["nodes"] = [0.5, 0.5, 0.5, 0.25, 0.25, 0.25]
        path = tmp_path / "bad.lats"
        path.write_text(json.dumps(lat) + "\n")
        out = tmp_path / "out.jsonl"
        code = dispatch(
            ["homogenize", "--catalogue", str(path), "--radius", "0.05", "--out", str(out)]
        )
        assert code == 1
        assert "unreachable" in capsys.readouterr().err

    def test_surface_table_matches_surface_command(self, catalogue_path, tmp_path):
        out = tmp_path / "stiff.jsonl"
        assert dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--radius", "0.08", "--surface", "23", "--seed", "6", "--out", str(out)]
        ) == 0
        records = read_lines(out)
        lines = (tmp_path / "stiff.jsonl.surface.tsv").read_text().splitlines()
        assert lines[0] == "name\tradius\tdx\tdy\tdz\tmodulus"
        assert len(lines) == 1 + 23 * len(records)
        for k, record in enumerate(records):
            block = [line.split("\t") for line in lines[1 + 23 * k : 1 + 23 * (k + 1)]]
            assert {(cols[0], float(cols[1])) for cols in block} == {
                (record["name"], record["radius"])
            }
            table = tmp_path / f"surf{k}.tsv"
            assert dispatch(
                ["surface", "--stiffness", str(out), "--index", str(k), "-n", "23",
                 "--seed", "6", "--out", str(table)]
            ) == 0
            body = table.read_text().splitlines()[1:]
            assert ["\t".join(cols[2:]) for cols in block] == body

    def test_surface_builds_one_dyad_table(self, catalogue_path, tmp_path, monkeypatch):
        # the directions are checked and turned into dyads once per command,
        # not once per stiffness
        built = []
        unit_dyads = cli._unit_dyads

        def counting(directions):
            built.append(len(directions))
            return unit_dyads(directions)

        monkeypatch.setattr(cli, "_unit_dyads", counting)
        out = tmp_path / "stiff.jsonl"
        assert dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--radius", "0.08", "--surface", "23", "--seed", "6", "--out", str(out)]
        ) == 0
        assert len(read_lines(out)) == 6
        assert built == [23]

    def test_negative_surface_fails_before_the_batch(self, catalogue_path, tmp_path,
                                                     monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("homogenize_batch called")

        monkeypatch.setattr(cli, "homogenize_batch", never)
        out = tmp_path / "stiff.jsonl"
        assert dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--surface", "-1", "--out", str(out)]
        ) == 1
        assert "direction count must be nonnegative" in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == [catalogue_path.name]

    def test_a_runtime_error_is_a_bug_and_propagates(self, catalogue_path, tmp_path,
                                                     monkeypatch):
        # only ValueError and OSError are domain errors that exit with 1
        def broken(*args, **kwargs):
            raise RuntimeError("broken batch")

        monkeypatch.setattr(cli, "homogenize_batch", broken)
        with pytest.raises(RuntimeError, match="broken batch"):
            dispatch(["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
                      "--out", str(tmp_path / "stiff.jsonl")])

    def test_rerun_bit_identical(self, catalogue_path, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            dispatch(
                ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
                 "--out", str(out)]
            )
        assert a.read_text() == b.read_text()


class TestSurface:
    def test_table_shape_and_determinism(self, catalogue_path, tmp_path):
        stiff = tmp_path / "stiff.jsonl"
        dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--out", str(stiff)]
        )
        table = tmp_path / "surf.tsv"
        code = dispatch(
            ["surface", "--stiffness", str(stiff), "-n", "40", "--seed", "3",
             "--out", str(table)]
        )
        assert code == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "dx\tdy\tdz\tmodulus"
        assert len(lines) == 41
        # rerun is bit-identical
        table2 = tmp_path / "surf2.tsv"
        dispatch(
            ["surface", "--stiffness", str(stiff), "-n", "40", "--seed", "3",
             "--out", str(table2)]
        )
        assert table.read_text() == table2.read_text()

    def test_empty_table(self, catalogue_path, tmp_path):
        stiff = tmp_path / "stiff.jsonl"
        dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--out", str(stiff)]
        )
        table = tmp_path / "surf.tsv"
        assert dispatch(
            ["surface", "--stiffness", str(stiff), "-n", "0", "--out", str(table)]
        ) == 0
        assert table.read_bytes() == b"dx\tdy\tdz\tmodulus\n"

    def test_all_failed_homogenize_writes_only_the_header(self, tmp_path):
        lat = io.lattice_record(simple_cubic())
        lat["name"] = "split"
        lat["nodes"] = [0.5, 0.5, 0.5, 0.25, 0.25, 0.25]
        path = tmp_path / "bad.lats"
        path.write_text(json.dumps(lat) + "\n")
        out = tmp_path / "out.jsonl"
        assert dispatch(
            ["homogenize", "--catalogue", str(path), "--radius", "0.05", "--surface", "10",
             "--out", str(out)]
        ) == 1
        table = tmp_path / "out.jsonl.surface.tsv"
        assert table.read_bytes() == b"name\tradius\tdx\tdy\tdz\tmodulus\n"

    @pytest.mark.parametrize("scale", [1.0, 1e-31])
    def test_signed_and_tiny_moduli_read_as_format_17g(self, tmp_path, scale):
        # An indefinite record has negative moduli in some directions; scaled
        # to 1e-31 every modulus lies below the formatter's exponent window,
        # so each is written by format itself.
        a = np.random.default_rng(3).standard_normal((6, 6))
        stiff = tmp_path / "indefinite.jsonl"
        io.write_stiffness_records(stiff, [io.stiffness_record(scale * (a + a.T))])
        table = tmp_path / "surf.tsv"
        assert dispatch(
            ["surface", "--stiffness", str(stiff), "-n", "60", "--seed", "5", "--out", str(table)]
        ) == 0
        matrix, _ = io.read_stiffness_records(stiff)[0]
        directions = sampling.unit_directions(60, 5)
        moduli = directional_moduli(from_mandel(matrix), directions)
        assert (moduli < 0).any() and (moduli > 0).any()
        assert (np.abs(moduli) < 1e-29).all() == (scale < 1.0)
        expected = ["dx\tdy\tdz\tmodulus"] + [
            "\t".join(format(v, ".17g") for v in (*d, m))
            for d, m in zip(directions.tolist(), moduli.tolist())
        ]
        assert table.read_text().splitlines() == expected

    def test_isotropic_constant_column(self, tmp_path):
        stiff = tmp_path / "iso.jsonl"
        io.write_stiffness_records(
            stiff, [io.stiffness_record(to_mandel(ElasticTensor4.isotropic(1.0, 1.0)))]
        )
        table = tmp_path / "surf.tsv"
        dispatch(["surface", "--stiffness", str(stiff), "-n", "25", "--out", str(table)])
        values = [float(line.split("\t")[3]) for line in table.read_text().splitlines()[1:]]
        assert max(values) - min(values) < 1e-12 * max(values)

    def test_simple_cubic_axis_stiffer_than_diagonal(self, catalogue_path, tmp_path):
        stiff = tmp_path / "stiff.jsonl"
        dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--out", str(stiff)]
        )
        matrix, _ = io.read_stiffness_records(stiff)[0]
        from latmech.tensor4 import from_mandel

        c = from_mandel(matrix)
        axis = directional_modulus(c, [1.0, 0.0, 0.0])
        diagonal = directional_modulus(c, np.ones(3) / math.sqrt(3.0))
        assert axis > diagonal


class TestPsdProject:
    def test_square_method(self, tmp_path, rng):
        from conftest import random_symmetric_matrix

        m = random_symmetric_matrix(rng)
        src = tmp_path / "m.jsonl"
        io.write_stiffness_records(src, [io.stiffness_record(m)])
        out = tmp_path / "p.jsonl"
        code = dispatch(
            ["psd-project", "--input", str(src), "--method", "square", "--out", str(out)]
        )
        assert code == 0
        loaded, _ = io.read_stiffness_records(out)[0]
        np.testing.assert_allclose(loaded.entries, m @ m, atol=1e-14)

    def test_all_method_names(self, tmp_path, rng):
        from conftest import random_symmetric_matrix

        src = tmp_path / "m.jsonl"
        io.write_stiffness_records(src, [io.stiffness_record(random_symmetric_matrix(rng))])
        for method in ("square", "fourth", "exp", "trunc2", "trunc4", "eigclamp"):
            out = tmp_path / f"{method}.jsonl"
            assert dispatch(
                ["psd-project", "--input", str(src), "--method", method, "--out", str(out)]
            ) == 0
            loaded, _ = io.read_stiffness_records(out)[0]
            assert np.linalg.eigvalsh(loaded.entries).min() >= -1e-10 * np.linalg.norm(
                loaded.entries
            )

    def test_has_no_eigenvalue_map_option(self, tmp_path, rng):
        from conftest import random_symmetric_matrix

        src = tmp_path / "m.jsonl"
        io.write_stiffness_records(src, [io.stiffness_record(random_symmetric_matrix(rng))])
        out = tmp_path / "p.jsonl"
        assert dispatch(
            ["psd-project", "--input", str(src), "--method", "eigclamp", "--eig-map", "exp",
             "--out", str(out)]
        ) == 2
        assert not out.exists()


class TestMetrics:
    def test_self_comparison_all_zero(self, catalogue_path, tmp_path, capsys):
        stiff = tmp_path / "stiff.jsonl"
        dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--out", str(stiff)]
        )
        code = dispatch(
            ["metrics", "--pred", str(stiff), "--target", str(stiff), "--dirs", "30"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["l_comp"] == 0.0
        assert report["l_dir"] == 0.0
        assert report["l_dir_rel"] == 0.0
        assert report["negative_eig_fraction"] == 0.0
        assert report["l_equiv"] is None

    def test_out_file_holds_the_stdout_line(self, catalogue_path, tmp_path, capsys):
        stiff = tmp_path / "stiff.jsonl"
        dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--radius", "0.08", "--out", str(stiff)]
        )
        pred = tmp_path / "pred.jsonl"
        pred.write_text("".join(open(stiff).readlines()[::-1]))
        args = ["metrics", "--pred", str(pred), "--target", str(stiff), "--dirs", "30"]
        capsys.readouterr()
        assert dispatch(args) == 0
        printed = capsys.readouterr().out
        report = tmp_path / "report.json"
        assert dispatch(args + ["--out", str(report)]) == 0
        assert capsys.readouterr().out == ""
        assert report.read_text() == printed
        assert json.loads(printed)["l_comp"] > 0.0
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["command"] == "metrics"
        assert manifest["arguments"]["out"] == str(report)

    def test_mismatched_lengths(self, catalogue_path, tmp_path, capsys):
        stiff = tmp_path / "stiff.jsonl"
        dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--out", str(stiff)]
        )
        short = tmp_path / "short.jsonl"
        short.write_text(open(stiff).readline())
        assert dispatch(
            ["metrics", "--pred", str(stiff), "--target", str(short)]
        ) == 1

    def test_no_directions_is_an_error_not_a_nan_report(self, catalogue_path, tmp_path, capsys):
        stiff = tmp_path / "stiff.jsonl"
        dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--out", str(stiff)]
        )
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(
                ["metrics", "--pred", str(stiff), "--target", str(stiff), "--dirs", "0"]
            )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "direction" in captured.err

    def test_a_zero_target_is_named_by_its_pair(self, tmp_path, capsys):
        from conftest import random_symmetric_matrix

        rng = np.random.default_rng(8)
        matrices = [random_symmetric_matrix(rng) for _ in range(4)]
        pred, target = tmp_path / "pred.jsonl", tmp_path / "target.jsonl"
        io.write_stiffness_records(pred, [io.stiffness_record(m) for m in matrices])
        matrices[2] = np.zeros((6, 6))
        io.write_stiffness_records(target, [io.stiffness_record(m) for m in matrices])
        code = dispatch(["metrics", "--pred", str(pred), "--target", str(target), "--dirs", "9"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: pair 2: zero target stiffness")


class TestPerturbCommand:
    def test_expands_catalogue(self, catalogue_path, tmp_path, capsys):
        out = tmp_path / "perturbed.lats"
        code = dispatch(
            ["perturb", "--catalogue", str(catalogue_path), "--level", "0.1",
             "--seed", "4", "--realizations", "3", "--out", str(out)]
        )
        assert code == 0
        # simple cubic (1 node) is skipped with a warning; bcc+diamond expand
        lattices = io.read_catalogue(out)
        assert len(lattices) == 6
        assert "skipped" in capsys.readouterr().err

    def test_seeded_rerun_identical(self, catalogue_path, tmp_path):
        a = tmp_path / "a.lats"
        b = tmp_path / "b.lats"
        for out in (a, b):
            dispatch(
                ["perturb", "--catalogue", str(catalogue_path), "--level", "0.05",
                 "--seed", "9", "--realizations", "2", "--out", str(out)]
            )
        assert a.read_text() == b.read_text()

    @pytest.mark.parametrize(
        "option, message",
        [
            (["--level", "nan"], "perturbation level must be finite and nonnegative"),
            (["--level", "inf"], "perturbation level must be finite and nonnegative"),
            (
                ["--level", "nan", "--realizations", "0"],
                "perturbation level must be finite and nonnegative",
            ),
            (["--level", "0.1", "--realizations", "-2"], "realization count must be nonnegative"),
        ],
    )
    def test_bad_level_or_count_fails_without_warning(
        self, catalogue_path, tmp_path, capsys, option, message
    ):
        out = tmp_path / "perturbed.lats"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(
                ["perturb", "--catalogue", str(catalogue_path), *option, "--out", str(out)]
            )
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_bad_level_fails_on_single_node_cells(self, tmp_path, capsys):
        # every cell would be skipped, but the options are checked first
        catalogue, out = tmp_path / "sc.lats", tmp_path / "perturbed.lats"
        io.write_catalogue(catalogue, [simple_cubic()])
        code = dispatch(
            ["perturb", "--catalogue", str(catalogue), "--level", "nan", "--out", str(out)]
        )
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: perturbation level must be finite and nonnegative\n"


class TestRotateCommand:
    @pytest.mark.parametrize(
        "option", [["--axis", "nan,0,0"], ["--axis", "inf,0,0"], ["--angle-deg", "inf"]]
    )
    def test_non_finite_rotation_fails_without_warning(
        self, catalogue_path, tmp_path, capsys, option
    ):
        out = tmp_path / "rot.lats"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = dispatch(["rotate", "--catalogue", str(catalogue_path), *option, "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: rotation axis and angle must be finite\n"

    def test_rotate_catalogue(self, catalogue_path, tmp_path):
        out = tmp_path / "rot.lats"
        code = dispatch(
            ["rotate", "--catalogue", str(catalogue_path), "--axis", "0,0,1",
             "--angle-deg", "90", "--out", str(out)]
        )
        assert code == 0
        rotated = io.read_catalogue(out)
        assert len(rotated) == 3
        base = simple_cubic()
        np.testing.assert_allclose(
            rotated[0].cell,
            np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]) @ base.cell,
            atol=1e-12,
        )

    def test_rotate_stiffness_consistent_with_lattice_rotation(
        self, catalogue_path, tmp_path
    ):
        stiff = tmp_path / "stiff.jsonl"
        dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--out", str(stiff)]
        )
        rot_stiff = tmp_path / "rot_stiff.jsonl"
        dispatch(
            ["rotate", "--stiffness", str(stiff), "--random", "--seed", "5",
             "--out", str(rot_stiff)]
        )
        rot_cat = tmp_path / "rot.lats"
        dispatch(
            ["rotate", "--catalogue", str(catalogue_path), "--random", "--seed", "5",
             "--out", str(rot_cat)]
        )
        stiff2 = tmp_path / "stiff2.jsonl"
        dispatch(["homogenize", "--catalogue", str(rot_cat), "--radius", "0.05",
                  "--out", str(stiff2)])
        a = io.read_stiffness_records(rot_stiff)
        b = io.read_stiffness_records(stiff2)
        for (ma, _), (mb, _) in zip(a, b):
            np.testing.assert_allclose(ma.entries, mb.entries, atol=1e-10)

    def test_requires_exactly_one_input(self, catalogue_path, tmp_path, capsys):
        assert dispatch(["rotate", "--out", str(tmp_path / "x")]) == 2
        assert dispatch(
            ["rotate", "--catalogue", str(catalogue_path), "--stiffness", str(catalogue_path),
             "--out", str(tmp_path / "x")]
        ) == 2
        assert not (tmp_path / "x").exists()


class TestOptimizeCommand:
    def test_end_to_end(self, tmp_path, capsys):
        from latmech.lattice import perturb, tessellate

        lat = perturb(tessellate(simple_cubic(), 2), 0.02, seed=11)
        cat = tmp_path / "cells.lats"
        io.write_catalogue(cat, [lat])
        m = to_mandel(homogenize(lat).stiffness).entries.copy()
        scale = np.ones((6, 6))
        scale[1, :] *= 0.9
        scale[:, 1] *= 0.9
        scale[1, 1] = 0.9
        target = tmp_path / "target.jsonl"
        io.write_stiffness_records(target, [io.stiffness_record(m * scale)])
        out = tmp_path / "trace.json"
        code = dispatch(
            ["optimize", "--catalogue", str(cat), "--name", lat.name,
             "--target", str(target), "--steps", "5", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        history = payload["objective_history"]
        assert history[-1] < history[0]
        assert all(b <= a for a, b in zip(history, history[1:]))
        assert payload["final_stiffness"]["basis"] == "mandel"
        io.lattice_from_record(payload["final_lattice"])

    @pytest.mark.parametrize("steps, ending", [("2", "2 steps, 3 solves (max_steps stop)"),
                                               ("50", "3 steps, 4 solves (misfit stop)")])
    def test_stderr_names_the_rule_that_ended_the_run(self, tmp_path, capsys, steps, ending):
        # the y-softening demo of seed 11; stdout stays empty
        from latmech.lattice import perturb, tessellate

        lat = perturb(tessellate(simple_cubic(), 2), 0.02, seed=11)
        cat = tmp_path / "cells.lats"
        io.write_catalogue(cat, [lat])
        soften = np.outer([1.0, 0.8, 1.0, 1.0, 1.0, 1.0], [1.0, 0.8, 1.0, 1.0, 1.0, 1.0])
        soften[1, 1] = 0.8
        target = tmp_path / "target.jsonl"
        m = to_mandel(homogenize(lat).stiffness).entries
        io.write_stiffness_records(target, [io.stiffness_record(m * soften)])
        assert dispatch(
            ["optimize", "--catalogue", str(cat), "--name", lat.name, "--target", str(target),
             "--steps", steps, "--out", str(tmp_path / "trace.json")]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f" in {ending}\n")

    def test_unknown_lattice_name(self, catalogue_path, tmp_path):
        target = tmp_path / "target.jsonl"
        io.write_stiffness_records(target, [io.stiffness_record(np.eye(6))])
        assert dispatch(
            ["optimize", "--catalogue", str(catalogue_path), "--name", "nope",
             "--target", str(target), "--out", str(tmp_path / "t.json")]
        ) == 1

    def test_plain_is_a_usage_error(self, catalogue_path, tmp_path):
        # every step accepts only a candidate that does not increase the
        # objective, so there is no plain mode to ask for
        target = tmp_path / "target.jsonl"
        io.write_stiffness_records(target, [io.stiffness_record(np.eye(6))])
        out = tmp_path / "t.json"
        assert dispatch(
            ["optimize", "--catalogue", str(catalogue_path), "--name", "bcc",
             "--target", str(target), "--plain", "--out", str(out)]
        ) == 2
        assert not out.exists()


class TestRecordRoundTrip:
    def test_bit_exact_floats(self, tmp_path, rng):
        from conftest import random_symmetric_matrix

        values = random_symmetric_matrix(rng) * 1e-7
        path = tmp_path / "r.jsonl"
        io.write_stiffness_records(
            path, [io.stiffness_record(values, relative_density=0.0123456789012345678)]
        )
        loaded, raw = io.read_stiffness_records(path)[0]
        np.testing.assert_array_equal(loaded.entries, values)
        assert raw["relative_density"] == 0.0123456789012345678

    def test_with_mandel_keeps_every_other_field_in_place(self):
        raw = io.stiffness_record(np.eye(6), relative_density=0.25, name="a", seed=3)
        out = io.with_mandel(raw, 2.0 * np.eye(6))
        assert list(out) == list(raw)
        assert out["mandel"] == [float(v) for v in 2.0 * np.eye(6).reshape(36)]
        assert {k: v for k, v in out.items() if k != "mandel"} == {
            k: v for k, v in raw.items() if k != "mandel"
        }
        assert raw["mandel"] == [float(v) for v in np.eye(6).reshape(36)]


class TestStiffnessRecordErrors:
    @pytest.mark.parametrize(
        "bad, line, reason",
        [
            (lambda good: "{not json", 3,
             "invalid JSON (Expecting property name enclosed in double quotes)"),
            (lambda good: json.dumps(dict(good, basis="voigt")), 3,
             "unsupported stiffness basis 'voigt'"),
            (lambda good: json.dumps(dict(good, mandel=["1"] + good["mandel"][1:])), 3,
             "field 'mandel' must hold 36 reals"),
            (lambda good: json.dumps(dict(good, mandel=good["mandel"][:1] + [1.0]
                                          + good["mandel"][2:])), 3,
             "Mandel matrix not symmetric: relative defect 5.000e-01"),
        ],
        ids=["json", "basis", "non-number", "asymmetric"],
    )
    def test_raise_a_catalogue_error_with_line_and_reason(self, tmp_path, bad, line, reason):
        good = io.stiffness_record(2.0 * np.eye(6))
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(good) + "\n\n" + bad(good) + "\n" + json.dumps(good) + "\n")
        with pytest.raises(io.CatalogueError) as got:
            io.read_stiffness_records(path)
        assert got.value.line == line
        assert got.value.reason == reason
        assert str(got.value) == f"line {line}: {reason}"


MANIFEST_KEYS = ["command", "arguments", "seed", "tool_version", "started", "finished"]


def read_manifest(path) -> dict:
    """The manifest beside the output ``path``, checked for its key order and times."""
    manifest = json.loads(open(f"{path}.manifest.json").read())
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["tool_version"] == latmech.__version__
    assert manifest["started"] <= manifest["finished"]
    return manifest


class TestManifests:
    @pytest.fixture
    def stiff(self, catalogue_path, tmp_path):
        out = tmp_path / "stiff.jsonl"
        assert dispatch(
            ["homogenize", "--catalogue", str(catalogue_path), "--radius", "0.05",
             "--surface", "10", "--seed", "7", "--out", str(out)]
        ) == 0
        return out

    def test_homogenize_with_surface(self, catalogue_path, stiff):
        for path in (stiff, f"{stiff}.surface.tsv"):
            manifest = read_manifest(path)
            assert manifest["command"] == "homogenize"
            assert manifest["seed"] == 7
            assert manifest["arguments"] == {
                "threads": 1, "subcommand": "homogenize", "catalogue": str(catalogue_path),
                "radius": [0.05], "material": {"E": 1.0, "nu": 0.3}, "out": str(stiff),
                "surface": 10, "seed": 7,
            }

    def test_psd_project(self, stiff, tmp_path):
        out = tmp_path / "psd.jsonl"
        assert dispatch(
            ["psd-project", "--input", str(stiff), "--method", "exp", "--out", str(out)]
        ) == 0
        manifest = read_manifest(out)
        assert (manifest["command"], manifest["seed"]) == ("psd-project", 0)
        assert list(manifest["arguments"]) == [
            "threads", "subcommand", "input", "method", "out"
        ]

    def test_rotate_ends_its_arguments_with_the_rotation(self, stiff, tmp_path):
        out = tmp_path / "rot.jsonl"
        assert dispatch(
            ["rotate", "--stiffness", str(stiff), "--random", "--seed", "5", "--out", str(out)]
        ) == 0
        manifest = read_manifest(out)
        assert (manifest["command"], manifest["seed"]) == ("rotate", 5)
        arguments = manifest["arguments"]
        assert list(arguments)[-1] == "rotation_matrix"
        assert arguments["stiffness"] == str(stiff) and arguments["random"] is True
        assert arguments["rotation_matrix"] == [
            float(v) for v in sampling.random_rotation(5).reshape(9)
        ]

    def test_metrics_out(self, stiff, tmp_path):
        out = tmp_path / "report.json"
        assert dispatch(
            ["metrics", "--pred", str(stiff), "--target", str(stiff), "--dirs", "20",
             "--seed", "3", "--out", str(out)]
        ) == 0
        manifest = read_manifest(out)
        assert (manifest["command"], manifest["seed"]) == ("metrics", 3)
        assert list(manifest["arguments"]) == [
            "threads", "subcommand", "pred", "target", "dirs", "seed", "out"
        ]

    def test_optimize(self, catalogue_path, stiff, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text(open(stiff).readlines()[1])
        out = tmp_path / "trace.json"
        assert dispatch(
            ["optimize", "--catalogue", str(catalogue_path), "--name", "bcc",
             "--target", str(target), "--steps", "1", "--out", str(out)]
        ) == 0
        manifest = read_manifest(out)
        assert (manifest["command"], manifest["seed"]) == ("optimize", 0)
        assert list(manifest["arguments"]) == [
            "threads", "subcommand", "catalogue", "name", "target", "steps", "material", "out",
        ]


def run_module(module: str, *argv: str) -> subprocess.CompletedProcess:
    """``python -m <module> argv`` in a fresh interpreter that finds this latmech."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(latmech.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True,
        timeout=120,
    )


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["latmech", "latmech.cli"])
    def test_help_exits_zero(self, module):
        proc = run_module(module, "--help")
        assert proc.returncode == 0
        assert "homogenize" in proc.stdout

    def test_missing_catalogue_fails(self, tmp_path):
        proc = run_module("latmech", "validate", "--catalogue", str(tmp_path / "missing.lats"))
        assert proc.returncode != 0
        assert "error" in proc.stderr


def load_fingerprint():
    """``scripts/cli_fingerprint.py`` as a module."""
    path = os.path.join(TESTS, os.pardir, "scripts", "cli_fingerprint.py")
    spec = importlib.util.spec_from_file_location("cli_fingerprint", path)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    return fingerprint


def test_seeded_outputs_match_the_recorded_hashes(tmp_path):
    # Every output of scripts/cli_fingerprint.py keeps the bytes recorded in
    # tests/cli_fingerprint.json.  The bytes depend on the numpy and scipy
    # versions and on the BLAS kernels the CPU selects, so on another
    # machine, CPU or version a difference is an expected failure that names
    # both stacks, never a pass.
    fingerprint = load_fingerprint()
    with open(os.path.join(TESTS, "cli_fingerprint.json"), encoding="utf-8") as fh:
        recorded = json.load(fh)
    fingerprint.write_outputs(str(tmp_path))
    got = fingerprint.hashes(str(tmp_path))
    names = recorded["hashes"].keys() | got.keys()
    changed = sorted(name for name in names if recorded["hashes"].get(name) != got.get(name))
    if changed and fingerprint.stack() != recorded["stack"]:
        pytest.xfail(f"{changed} differ on {fingerprint.stack()}, recorded on {recorded['stack']}")
    assert not changed, "seeded outputs changed; if on purpose, regenerate the file as the script says"


def test_fingerprint_stack_needs_no_build_config(monkeypatch):
    # numpy < 1.26 and scipy < 1.11 have show_config() without mode=; the
    # stack is read from versions and the CPU alone, so it works there too.
    fingerprint = load_fingerprint()
    for module in (fingerprint.numpy, fingerprint.scipy):
        monkeypatch.setattr(module, "show_config", lambda: None)
    stack = fingerprint.stack()
    assert list(stack) == ["machine", "cpu", "numpy", "scipy"]
    assert (stack["numpy"], stack["scipy"]) == (np.__version__, fingerprint.scipy.__version__)
    assert all(isinstance(value, str) for value in stack.values())
