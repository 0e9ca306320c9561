import json
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nlsid.serialize import read_signal_record, write_csv, write_json, write_signal_record
from nlsid.signals import SignalRecord

EDGES = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
         1.7e308, -1.7e308, 1.7976931348623157e308, 0.1, 1.0 / 3.0]

samples = arrays(np.float64, st.tuples(st.integers(1, 40), st.just(2)),
                 elements=st.floats(allow_nan=False, allow_infinity=False))


def reference_csv_text(header, columns):
    """Reference: a row loop that formats one cell at a time."""
    def cell(v):
        return f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v)

    rows = [",".join(header)]
    for vals in zip(*columns):
        rows.append(",".join(cell(v) for v in vals))
    return "\n".join(rows) + "\n"


@settings(max_examples=60, deadline=None)
@given(samples, st.sampled_from([1.0, 3.0, 128.0, 0.1]))
@example(np.array(EDGES * 2).reshape(-1, 2), 2.0)
def test_record_csv_bytes_and_values(tmp_path_factory, data, fs):
    path = tmp_path_factory.mktemp("rec") / "record.csv"
    rec = SignalRecord(fs, len(data), 1, data[:, 0], data[:, 1])
    write_signal_record(path, rec)
    text = path.read_text()
    t = np.arange(len(data)) / fs
    assert text == reference_csv_text(["t", "u", "y"], [t, rec.input, rec.output])
    parsed = np.array([[float(v) for v in row.split(",")] for row in text.splitlines()[1:]])
    back = read_signal_record(path)
    for got, want in ((back.input, parsed[:, 1]), (back.output, parsed[:, 2])):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.array_equal(back.input, rec.input) and np.array_equal(back.output, rec.output)


def test_write_csv_bytes_equal_the_row_loop(tmp_path):
    columns = [np.array(EDGES), np.array([f"c{i}" for i in range(len(EDGES))], dtype=object),
               np.arange(len(EDGES)), (np.arange(len(EDGES)) / 3.0).astype(np.float32),
               np.arange(len(EDGES)) % 2 == 0]
    header = ["f", "label", "i", "f32", "flag"]
    write_csv(tmp_path / "c.csv", header, columns)
    assert (tmp_path / "c.csv").read_text() == reference_csv_text(header, columns)


def reference_normalize(obj):
    """The JSON normalization with a 17-digit round trip of every float."""
    if isinstance(obj, dict):
        return {str(k): reference_normalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_normalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [reference_normalize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(f"{float(obj):.17g}")
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": reference_normalize(obj.real), "im": reference_normalize(obj.imag)}
    return obj


any_float = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
leaves = st.one_of(
    any_float, st.sampled_from(EDGES + [np.inf, -np.inf, np.nan]),
    any_float.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-10**6, 10**6).map(np.int64),
    st.booleans().map(np.bool_), st.complex_numbers(allow_nan=True, allow_infinity=True),
    arrays(np.float64, st.integers(0, 5), elements=any_float),
    st.integers(), st.booleans(), st.none(), st.text(max_size=5))
payloads = st.recursive(leaves, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(payloads)
def test_write_json_bytes_equal_the_17_digit_round_trip(tmp_path_factory, payload):
    path = tmp_path_factory.mktemp("json") / "p.json"
    write_json(path, {"payload": payload})
    want = json.dumps(reference_normalize({"payload": payload}), indent=2, sort_keys=True) + "\n"
    assert path.read_text() == want


def reference_write_csv(path, header, columns):
    """The column-wise writer: each column's cells formatted, then zipped."""
    def format_column(column):
        if isinstance(column, np.ndarray):
            if column.dtype.kind == "f":
                return [f"{v:.17g}" for v in column.tolist()]
            column = column.tolist()
        return [f"{float(v):.17g}" if isinstance(v, (float, np.floating)) else str(v)
                for v in column]

    cells = [format_column(column) for column in columns]
    Path(path).write_text("\n".join([",".join(header), *map(",".join, zip(*cells))]) + "\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30).flatmap(lambda n: st.tuples(
    arrays(np.float64, n, elements=st.floats(allow_subnormal=True)),
    arrays(np.int64, n, elements=st.integers(-10**12, 10**12)),
    st.lists(st.sampled_from(["excited", "odd", "even", "noise"]), min_size=n, max_size=n))))
def test_write_csv_bytes_equal_the_column_writer(tmp_path_factory, data):
    floats, ints, labels = data
    # bla.csv-like floats, correlations.csv lags, the distortion.csv class column
    columns = [floats, ints, np.array(labels, dtype=object), list(floats), ints + 0.5]
    header = ["f", "lag", "class", "f_list", "half"]
    out = tmp_path_factory.mktemp("csv")
    write_csv(out / "new.csv", header, columns)
    reference_write_csv(out / "old.csv", header, columns)
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()
