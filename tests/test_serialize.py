import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nlsid.serialize import read_signal_record, write_csv, write_signal_record
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
