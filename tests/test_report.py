"""The file format of report.py, byte for byte.

CSV: RFC 4180, cells by csv_cell (floats at 17 significant digits, true and
false, empty for None, quoted text), CRLF after every line.  JSON: sorted
keys, two-space indent, a final newline, floats in the shortest form that
round-trips.  write_text writes either as it is.
"""

import math

import numpy as np

from lsequiv.report import csv_text, fmt_float, json_text, write_text

CELLS = [1.5, np.float64(0.1), -0.0, 5e-324, math.nan, math.inf, True, False, None, 7, 'a,"b']


def test_csv_text_bytes():
    assert csv_text([["x", "y"], CELLS]) == (
        'x,y\r\n1.5,0.10000000000000001,-0,4.9406564584124654e-324,nan,inf,true,false,,7,"a,""b"\r\n'
    )


def test_json_text_bytes():
    keys = ["float", "np", "negzero", "tiny", "nan", "inf", "t", "f", "none", "int", "text"]
    assert json_text(dict(zip(keys, CELLS))) == (
        "{\n"
        '  "f": false,\n'
        '  "float": 1.5,\n'
        '  "inf": Infinity,\n'
        '  "int": 7,\n'
        '  "nan": NaN,\n'
        '  "negzero": -0.0,\n'
        '  "none": null,\n'
        '  "np": 0.1,\n'
        '  "t": true,\n'
        '  "text": "a,\\"b",\n'
        '  "tiny": 5e-324\n'
        "}\n"
    )


def test_json_float_form_needs_no_rounding():
    # json writes a float and an np.float64 alike, in the shortest form that
    # round-trips, so passing either through the 17-digit form first moves no
    # byte
    bits = np.random.default_rng(0).integers(0, 2**64, size=20_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert json_text(list(values)) == json_text([float(v) for v in values])
    assert json_text([float(fmt_float(v)) for v in values]) == json_text([float(v) for v in values])


def test_write_text_keeps_crlf(tmp_path):
    path = tmp_path / "out.csv"
    write_text(path, "a,b\r\n1,2\r\n")
    assert path.read_bytes() == b"a,b\r\n1,2\r\n"
