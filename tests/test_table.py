"""The CSV writer against a per-value reference.

``write_table`` formats numbers with an array kernel (tables of fewer than
``_KERNEL_CELLS`` cells one value at a time); each cell must be byte for
byte what one Python format per value gives: ``'%.17g'`` for floats,
``'%d'`` for integer and bool arrays, ``'%s'`` for list entries.
"""

import locale
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lgeo._table import _BLOCK, _KERNEL_CELLS, write_table


def reference(header, columns, newline="\n") -> bytes:
    """The table as one format per value, the writer's specification, in
    the encoding that ``open`` writes text in."""
    def cell(col, i):
        if isinstance(col, list):
            return "%s" % (col[i],)
        return ("%.17g" if col.dtype.kind == "f" else "%d") % col[i]

    rows = [",".join(header)]
    rows += [",".join(cell(col, i) for col in columns) for i in range(len(columns[0]))]
    return "".join(row + newline for row in rows).encode(locale.getpreferredencoding(False))


@pytest.fixture(autouse=True)
def runtime_warnings_fail():
    # the CLI curves run under -W error::RuntimeWarning in CI
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


def written(tmp_path, header, columns, newline="\n") -> bytes:
    path = tmp_path / "table.csv"
    write_table(path, header, columns, newline=newline)
    return path.read_bytes()


def assert_floats_written_exactly(tmp_path, x):
    # repeated up to the kernel's table size: smaller tables are written one
    # value at a time
    x = np.resize(np.asarray(x, dtype=float), max(len(x), _KERNEL_CELLS))
    assert written(tmp_path, ["x"], [x]) == reference(["x"], [x])


def neighbours(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=50))
def test_hypothesis_floats(tmp_path_factory, values):
    x = np.array(values)
    assert_floats_written_exactly(tmp_path_factory.mktemp("t"), np.concatenate([x, -x]))


def test_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(27).integers(0, 2**64, 20_000, dtype=np.uint64)
    assert_floats_written_exactly(tmp_path, bits.view(np.float64))


def test_scaled_normals_and_short_decimals(tmp_path):
    rng = np.random.default_rng(28)
    x = rng.standard_normal(20_000) * 10.0 ** rng.uniform(-30, 30, 20_000)
    short = np.round(rng.standard_normal(5_000), 3) * 10.0 ** rng.integers(-8, 22, 5_000)
    assert_floats_written_exactly(tmp_path, np.concatenate([x, short]))


def test_ties_round_half_even(tmp_path):
    # 18 significant digits ending in 5: %.17g rounds them half-even
    rng = np.random.default_rng(29)
    ties = 1.0 + rng.integers(0, 2**20, 5_000) / 2.0 ** rng.integers(10, 30, 5_000)
    assert_floats_written_exactly(tmp_path, np.concatenate([[1 + 2**-17, 1 + 3 * 2**-17], ties]))


def test_powers_of_ten_and_their_neighbours(tmp_path):
    p10 = np.array([float(f"1e{k}") for k in range(-30, 31)])
    assert_floats_written_exactly(tmp_path, neighbours(np.concatenate([p10, -p10])))


def test_notation_switches(tmp_path):
    # fixed for exponents -4 ... 16 of the rounded value, else exponential
    edges = [1e-5, 1e-4, 1e16, 1e17, 9.99999999999999955e-5, 99999999999999995.0,
             123456789012345678.0, 0.1, 0.30000000000000004, 1.5, 100.0, 2.0**53]
    assert_floats_written_exactly(tmp_path, neighbours(np.concatenate([edges, np.negative(edges)])))


def test_special_and_extreme_values(tmp_path):
    tiny = np.finfo(float).tiny
    x = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.5e-320,
         tiny, np.nextafter(tiny, 0), 1e300, -1e300, 1e-300, -1e-300, np.finfo(float).max]
    assert_floats_written_exactly(tmp_path, neighbours(x))


@pytest.mark.parametrize("n", [20, 300])
def test_integer_bool_and_list_columns(tmp_path, n):
    rng = np.random.default_rng(30)
    ints = rng.integers(-2**62, 2**62, n) >> rng.integers(0, 62, n)
    ints[:4] = [0, -1, 2**53 - 1, -(2**53 - 1)]
    big = ints.copy()
    big[5] = 2**63 - 1  # past 2**53: the column is formatted by %d
    small = np.arange(n, dtype=np.int32) - 7
    flags = rng.random(n) < 0.5
    stamps = [f"2020-01-{i % 28 + 1:02d}" if i % 3 else i for i in range(n)]
    header = ["t", "a", "b", "c", "d", "x"]
    columns = [stamps, ints, big, small, flags, rng.standard_normal(n)]
    for newline in ("\n", "\r\n"):
        assert written(tmp_path, header, columns, newline) == reference(header, columns, newline)


@pytest.mark.parametrize("n", [3, 300])
def test_non_ascii_stamps(tmp_path, n):
    columns = [["März", "août", "plain"] * n, np.resize([0.5, -0.0, 1e-7], 3 * n)]
    assert written(tmp_path, ["t", "x"], columns, "\r\n") == reference(["t", "x"], columns, "\r\n")


@pytest.mark.parametrize("rows", [1, 2, 5, _KERNEL_CELLS // 5 - 1, _KERNEL_CELLS // 5, 129, 801,
                                  _BLOCK, _BLOCK + 1, 2 * _BLOCK + 17])
def test_tables_of_every_size(tmp_path, rows):
    # from one row, on both sides of the kernel's table size, up to tables
    # that span three blocks, with values that repeat within and across
    # columns, as the region's lattice does
    rng = np.random.default_rng(rows)
    lattice = rng.integers(0, 40, (rows, 2)) / 40
    columns = [np.linspace(0.0, 1.0, rows), *lattice.T, rng.standard_normal(rows) * 1e-3,
               rng.random(rows) < 0.3]
    header = ["t", "q1", "q2", "gap", "in"]
    assert written(tmp_path, header, columns) == reference(header, columns)
