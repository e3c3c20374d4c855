"""csvtext: every float cell the bytes of repr, every int64 cell of str."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unif_lab import csvtext

FULL = os.environ.get("UNIF_LAB_FULL", "") == "1"
# random bit patterns swept through the formatter (UNIF_LAB_FULL: 2^20)
SWEEP = 1 << 20 if FULL else 1 << 15


def cells(values, dtype=np.float64, block=4096):
    """One column through csvtext.rows: the text of each cell."""
    text = "".join(csvtext.rows([np.asarray(values, dtype)], block))
    assert text.endswith("\n")
    return text[:-1].split("\n")


def assert_repr(values):
    x = np.asarray(values, np.float64)
    assert cells(x) == [repr(v) for v in x.tolist()]


def _neighbours(v):
    return [np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)]


CORPUS = {
    "zeros": [0.0, -0.0],
    # 1, 2 and 3 ulp: the first two take the scaled (C_TINY) step
    "tiny": [5e-324, 1e-323, 1.5e-323],
    "normal-edges": [float.fromhex("0x0.fffffffffffffp-1022"),
                     sys.float_info.min, sys.float_info.max],
    "powers-of-two": [2.0 ** j for j in range(-1074, 1024)],
    "powers-of-ten": [v for j in range(-323, 309)
                      for v in _neighbours(float(f"1e{j}"))],
    # the last fixed-notation values next to the first exponent-form ones
    "notation-switches": [9999999999999998.0, 1e16, 0.0001,
                          9.999999999999999e-05],
    "integral": [2.0 ** 53 - 1, 2.0 ** 53 + 1, 2.0 ** 53 + 2, -2.0 ** 63,
                 1.0, 100.0, 1e15, 123456789012345.0],
}


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["pos", "neg"])
def test_corpus_matches_repr(name, sign):
    assert_repr([sign * v for v in CORPUS[name]])


def test_int64_edges_match_str():
    values = [0, 1, -1, 9, 10, -10, 2 ** 53 - 1, 2 ** 53 + 1, -2 ** 53 - 1,
              10 ** 18, -10 ** 18, 2 ** 63 - 1, -2 ** 63]
    assert cells(values, np.int64) == [str(v) for v in values]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=64))
def test_floats_match_repr(values):
    assert_repr(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=64))
def test_ints_match_str(values):
    assert cells(values, np.int64) == [str(v) for v in values]


def test_random_bit_patterns_match_repr():
    rng = np.random.default_rng(20_201)
    x = rng.integers(0, 2 ** 64, SWEEP, dtype=np.uint64).view(np.float64)
    assert_repr(x[np.isfinite(x)])


def test_decimal_friendly_values_match_repr():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1e6, 1e6, 4096)
    x = np.concatenate([np.round(x, d) for d in range(9)])
    assert_repr(np.concatenate([x, x * 1e-12, x * 1e12]))


def test_mixed_columns_across_blocks():
    # runs of each kind, split at block edges of 3 rows
    n = 10
    ns = np.arange(-5, 5, dtype=np.int64) * 10 ** 17
    a = np.linspace(-1e-5, 1e17, n)
    b = np.array([0.0, -0.0, 5e-324, 1e16, 0.5, -3.0, 1e-4, 2.0 ** 60,
                  -1e-300, 12.25])
    text = "".join(csvtext.rows([a, ns, b, a, ns], 3))
    want = "".join(f"{x!r},{n},{y!r},{x!r},{n}\n"
                   for x, n, y in zip(a.tolist(), ns.tolist(), b.tolist()))
    assert text == want


def test_import_and_parser_leave_the_table_unbuilt():
    # the power-of-ten table is built by the first CSV call, so a cold
    # start (import plus build_parser) never pays for it
    code = ("import unif_lab.cli as cli; cli.build_parser(); "
            "assert cli.csvtext._tables is None, 'table built at setup'")
    subprocess.run([sys.executable, "-c", code], check=True)
    cells([1.5])
    assert csvtext._tables is not None
