"""``io.format_floats`` against ``format(x, ".17g")``, element by element,
and the record readers' verdicts and line numbers."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latmech import io
from latmech.lattice import body_centred_cubic, diamond, simple_cubic
from latmech.tensor4 import MandelMatrix


def assert_formats_like_format(values):
    values = np.asarray(values, dtype=float)
    text = io.format_floats(values)
    assert text.shape == values.shape
    assert text.reshape(-1).tolist() == [
        format(v, ".17g").encode() for v in values.reshape(-1).tolist()
    ]


def exact_ties(rng, per_exponent=20):
    """Doubles whose exact decimal value has 18 significant digits ending in
    5, such as 1234567890123456.75: m / 2^(q+1) with m odd, so that
    m 5^q / 2 = N + 1/2 with N a 17-digit integer."""
    out = []
    for q in range(1, 25):
        five = 5**q
        low = -(-(2 * 10**16 + 1) // five)
        high = min(2 * 10**17 // five, 2**53 - 1)
        if low <= high:
            out += [math.ldexp(int(m) | 1, -(q + 1))
                    for m in rng.integers(low, high, per_exponent, endpoint=True)]
    return out


def near_ties():
    """Doubles x with x 10^q within t / 2^k of N + 1/2 (t = ±1, ±2, k = 40 .. 59),
    for q = 23 .. 45, where 10^q has a nonzero low double: x = m 2^-(q+k) with
    m 5^q = 2^(k-1) + t modulo 2^k."""
    out = []
    for q in range(23, 46):
        five = 5**q
        for k in range(40, 60):
            low = -(-(10**16 << k) // five)
            high = min(-(-(10**17 << k) // five), 1 << 53)
            for t in (-2, -1, 1, 2):
                residue = ((1 << (k - 1)) + t) * pow(five, -1, 1 << k) % (1 << k)
                first = low + (residue - low) % (1 << k)
                out += [math.ldexp(m, -(q + k)) for m in range(first, high, 1 << k)[:4]]
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_property_format_floats_is_format_17g(values):
    assert_formats_like_format(values)


def test_format_floats_sweep():
    # Random bit patterns, 200k with a binary exponent in the array path's
    # window (2^-100 .. 2^57) and 20k of any exponent; the powers of ten and
    # their neighbours at the exponent boundaries; exact and near rounding
    # ties, which the array path must hand to format.
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2**64, 220_000, dtype=np.uint64, endpoint=False)
    exponents = rng.integers(1023 - 100, 1023 + 57, 200_000, dtype=np.uint64, endpoint=True)
    bits[:200_000] = bits[:200_000] & ~np.uint64(0x7FF << 52) | exponents << np.uint64(52)
    powers = np.array([10.0**k for k in range(-30, 18)])
    ties = np.array(exact_ties(rng) + near_ties())
    assert len(ties) > 500
    assert_formats_like_format(np.concatenate([
        bits.view(np.float64), powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        ties, -ties, [1234567890123456.75, -1234567890123456.75],
    ]))


def test_format_floats_keeps_the_shape():
    assert_formats_like_format(np.linspace(-2.0, 2.0, 12).reshape(3, 4))
    assert_formats_like_format(0.1)
    assert_formats_like_format(np.zeros((0, 3)))


def test_powers_of_ten_split_exactly_into_two_doubles():
    # The double-double 10^q = hi + lo the formatter multiplies by is exact.
    for q, (hi, lo) in enumerate(zip(io._P10_HI.tolist(), io._P10_LO.tolist())):
        assert int(hi) + int(lo) == 10**q


def record_line(mandel, **extra) -> str:
    return json.dumps(io.stiffness_record(np.asarray(mandel, dtype=float), **extra))


GOOD = record_line(2.0 * np.eye(6))
SKEWED = np.eye(6)
SKEWED[0, 1] = 1.0
ASYMMETRIC = record_line(SKEWED)
ASYMMETRIC_REASON = "Mandel matrix not symmetric: relative defect 1.000e+00"
JSON_REASON = "invalid JSON (Expecting property name enclosed in double quotes)"


def read_error(tmp_path, lines) -> io.CatalogueError:
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(io.CatalogueError) as got:
        io.read_stiffness_records(path)
    return got.value


@pytest.mark.parametrize(
    "lines, reason",
    [
        ([GOOD, ASYMMETRIC, GOOD, "{not json"], ASYMMETRIC_REASON),
        ([GOOD, "{not json", GOOD, ASYMMETRIC], JSON_REASON),
        ([GOOD, ASYMMETRIC, record_line(np.eye(6), basis="voigt")], ASYMMETRIC_REASON),
    ],
    ids=["matrix-then-json", "json-then-matrix", "matrix-then-field"],
)
def test_reader_names_the_earliest_bad_line_whatever_its_fault(tmp_path, lines, reason):
    error = read_error(tmp_path, lines)
    assert (error.line, error.reason) == (2, reason)


def test_an_overflowing_entry_names_its_own_line(tmp_path):
    huge = GOOD.replace("2.0", "1e999", 1)
    error = read_error(tmp_path, [GOOD, GOOD, huge, ASYMMETRIC])
    assert (error.line, error.reason) == (3, "Mandel matrix has non-finite entries")
    # an integer beyond the float range fails on its own line, after an
    # earlier bad matrix and before a later one
    big = GOOD.replace("2.0", str(10**400), 1)
    error = read_error(tmp_path, [GOOD, big, ASYMMETRIC])
    assert (error.line, error.reason) == (2, "int too large to convert to float")
    error = read_error(tmp_path, [ASYMMETRIC, big])
    assert (error.line, error.reason) == (1, ASYMMETRIC_REASON)


def test_reader_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(["", GOOD, "   ", "", GOOD, ""]) + "\n")
    assert len(io.read_stiffness_records(path)) == 2
    error = read_error(tmp_path, ["", GOOD, "  ", ASYMMETRIC])
    assert error.line == 4


def test_read_matrices_are_read_only_and_those_of_the_record_parser(tmp_path, rng):
    from conftest import random_symmetric_matrix

    matrices = [random_symmetric_matrix(rng) * 10.0**k for k in range(-6, 2)]
    path = tmp_path / "records.jsonl"
    path.write_text("\n\n".join(record_line(m, name=f"m{k}") for k, m in enumerate(matrices)))
    records = io.read_stiffness_records(path)
    assert len(records) == len(matrices)
    lines = path.read_text().splitlines()
    for line, (matrix, raw) in zip(range(1, 2 * len(matrices), 2), records):
        assert raw == json.loads(lines[line - 1])
        expected = MandelMatrix(np.array(raw["mandel"], dtype=float).reshape(6, 6))
        assert matrix.entries.tobytes() == expected.entries.tobytes()
        assert not matrix.entries.flags.writeable


def edge_fault_reference(edges) -> str | None:
    """The message for an edge list, one row at a time; None when it passes."""
    for k, row in enumerate(edges):
        if not isinstance(row, list) or len(row) != 5:
            return f"edge {k} must be [i, j, tx, ty, tz]"
        if any(type(v) is not int for v in row):
            return f"edge {k} entries must be integers"
    return None


@pytest.mark.parametrize(
    "edges",
    [
        [[0, 0, 1, 0, 0], [0, 0, 0, 1, 0]],
        [[0, 0, 1, 0, 0], (0, 0, 0, 1, 0)],
        [[0, 0, 1, 0, 0], [0, 0, 0, 1]],
        [[0, 0, 1, 0, 0, 0]],
        [[0, 0, 1, 0, 0], [0, 0, 0, 1.0, 0], [0, 0, 0, 1]],
        [[0, 0, True, 0, 0]],
        [[0, 0, 1, 0, 0], [0, 0, 0, 1, "0"]],
        [[0, 0, 1, 0, 0], "edge"],
        [[0, 0, 1, 0, 0], [0, 0, 0, 1, None], [0, 0, 0, 1]],
    ],
)
def test_edge_rows_report_the_first_bad_row(edges):
    record = io.lattice_record(simple_cubic())
    record["edges"] = edges
    expected = edge_fault_reference(edges)
    if expected is None:
        assert io.lattice_from_record(record).edge_count == len(edges)
    else:
        with pytest.raises(io.CatalogueError) as got:
            io.lattice_from_record(record, 7)
        assert (got.value.line, got.value.reason) == (7, expected)


def mutated(data: bytes, edits) -> bytes:
    """``data`` with each edit ``(at, cut, insert)`` in turn: the ``cut``
    bytes from ``at`` (modulo the length plus one) replaced by ``insert``."""
    for at, cut, insert in edits:
        at %= len(data) + 1
        data = data[:at] + insert + data[at + cut:]
    return data


@pytest.fixture(scope="module")
def written_files(tmp_path_factory):
    """A catalogue of three cells and a stiffness-record file of three
    matrices, each written by ``io``, and a directory for mutated copies."""
    from conftest import random_symmetric_matrix

    folder = tmp_path_factory.mktemp("written")
    io.write_catalogue(folder / "cells.lats", [simple_cubic(), body_centred_cubic(), diamond()])
    rng = np.random.default_rng(3)
    io.write_stiffness_records(
        folder / "stiff.jsonl",
        [io.stiffness_record(random_symmetric_matrix(rng), name=f"m{k}") for k in range(3)],
    )
    return folder


def lattice_fields(lattices) -> list:
    """Each lattice's name and radius, and its arrays' bytes."""
    return [(lat.name, float(lat.radius), lat.cell.tobytes(), lat.nodes.tobytes(),
             lat.edges.tobytes()) for lat in lattices]


def record_fields(records) -> list:
    """Each record's matrix bytes and its raw JSON text."""
    return [(matrix.entries.tobytes(), json.dumps(raw)) for matrix, raw in records]


@settings(max_examples=60, deadline=None)
@given(
    catalogue=st.booleans(),
    edits=st.lists(
        st.tuples(st.integers(0, 2**16), st.integers(0, 4), st.binary(max_size=4)),
        min_size=1, max_size=4,
    ),
)
def test_property_a_mutated_file_reads_as_a_value_or_a_catalogue_error(
    written_files, catalogue, edits
):
    # arbitrary bytes, not only text: a byte that is not UTF-8 is a fault
    # of its line like any other; a value read writes and reads back the same
    name = "cells.lats" if catalogue else "stiff.jsonl"
    path, again = written_files / "mutated", written_files / "again"
    path.write_bytes(mutated((written_files / name).read_bytes(), edits))
    try:
        read = io.read_catalogue(path) if catalogue else io.read_stiffness_records(path)
    except io.CatalogueError:
        return
    if catalogue:
        io.write_catalogue(again, read)
        assert lattice_fields(io.read_catalogue(again)) == lattice_fields(read)
    else:
        io.write_stiffness_records(again, [raw for _matrix, raw in read])
        assert record_fields(io.read_stiffness_records(again)) == record_fields(read)


def test_a_byte_that_is_not_utf8_is_a_fault_of_its_line(tmp_path):
    # a bad byte far past the reader's first buffer, at the end of the file
    # (a cut sequence) or after a lone carriage return, which ends a line;
    # an earlier fault of another kind is named first
    path = tmp_path / "records.jsonl"
    head = ((GOOD + "\n") * 300 + "\n").encode()
    cases = [
        (head + b"x\xe2\x82\n" + GOOD.encode(), (302, "not UTF-8 (byte 0xe2)")),
        (head + b"x\xe2\x82", (302, "not UTF-8 (byte 0xe2)")),
        (head + b"{not json\nx\xe2\x82\n", (302, JSON_REASON)),
        (head + b"\r\r\n\xa3", (304, "not UTF-8 (byte 0xa3)")),
    ]
    for data, expected in cases:
        path.write_bytes(data)
        with pytest.raises(io.CatalogueError) as got:
            io.read_stiffness_records(path)
        assert (got.value.line, got.value.reason) == expected
