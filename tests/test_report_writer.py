"""Property tests of the report writer at the edges of its row blocks.

Reports with ResultColumns are written ROW_BLOCK rows per piece; these
tests draw columns, vector columns among them, at 0, 1, B - 1, B, B + 1
and 2B + 1 rows for B = ROW_BLOCK and check the bytes against json.dumps
and the CSV read-back.
"""

import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

from boundarykit import ResultColumns, UnencodableReport, emit_report, read_report_csv
from boundarykit.reports import ReportEnvelope, _write_report
from boundarykit.sampling import ROW_BLOCK

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

ROW_COUNTS = [0, 1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1]

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), finite_floats, st.text())


def cycled(values, n):
    """n cells repeating the drawn values, so hypothesis draws few of them."""
    return [values[i % len(values)] for i in range(n)]


def vector_column(draw, n, dtype):
    """An (n, width) column of drawn finite entries, width 1 to 4."""
    width = draw(st.integers(1, 4))
    parts = 2 if dtype is np.complex128 else 1
    entries = cycled(draw(st.lists(finite_floats, min_size=1, max_size=12)), n * width * parts)
    return np.array(entries, dtype=np.float64).view(dtype).reshape(n, width)


@st.composite
def envelopes(draw, n):
    floats = draw(st.lists(finite_floats, min_size=1, max_size=12))
    columns = {
        "index": range(n),
        "value": np.array(cycled(floats, n), dtype=np.float64),
        "count": np.arange(n, dtype=np.int64) * draw(st.integers(-2 ** 40, 2 ** 40)),
        draw(st.text(min_size=1)): cycled(draw(st.lists(st.text(), min_size=1, max_size=12)), n),
        "mixed": cycled(draw(st.lists(scalars, min_size=1, max_size=12)), n),
        "vector": vector_column(draw, n, np.float64),
        "lift": vector_column(draw, n, np.complex128),
    }
    summary = {"count": n, "note": draw(st.text()), "level": draw(finite_floats)}
    return ReportEnvelope(command="x", seed=draw(st.integers(0, 2 ** 31)),
                          config={"tolerance": 1e-9}, results=ResultColumns(columns),
                          summary=summary)


def written(envelope, format, directory):
    """The report as emit_report writes it to a file and _write_report to a stream."""
    path = os.path.join(directory, f"report.{format}")
    emit_report(envelope, format, path)
    stream = io.StringIO()
    _write_report(envelope, format, stream)
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read(), stream.getvalue()


def csv_cell(value):
    """A cell as read back from CSV: str() of the value, None as empty."""
    return "" if value is None else str(value)


SETTINGS = hypothesis.settings(max_examples=5, deadline=None)


@pytest.mark.parametrize("n", ROW_COUNTS)
@SETTINGS
@hypothesis.given(data=st.data())
def test_json_pieces_are_json_dumps(n, data):
    envelope = data.draw(envelopes(n))
    expected = json.dumps(envelope.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        assert written(envelope, "json", tmp) == (expected, expected)


@pytest.mark.parametrize("n", ROW_COUNTS)
@SETTINGS
@hypothesis.given(data=st.data())
def test_csv_pieces_read_back(n, data):
    envelope = data.draw(envelopes(n))
    names = list(envelope.results.columns)
    cells = [csv_cell(v) for row in envelope.results for v in row.values()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.csv")
        if not n:
            with pytest.raises(ValueError, match="empty results"):
                emit_report(envelope, "csv", path)
        elif any("\r" in cell for cell in names + cells):
            # a carriage return is refused: written unquoted, it would end a line
            with pytest.raises(UnencodableReport, match="carriage return"):
                emit_report(envelope, "csv", path)
        else:
            from_file, from_stream = written(envelope, "csv", tmp)
            assert from_file == from_stream
            header, rows = read_report_csv(path)
            assert header == names
            assert [list(row.values()) for row in rows] == [
                cells[i:i + len(names)] for i in range(0, len(cells), len(names))]
            return
        assert os.listdir(tmp) == []


@pytest.mark.parametrize("n", ROW_COUNTS[1:])
@hypothesis.settings(max_examples=5, deadline=None)
@hypothesis.given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), in_list=st.booleans())
def test_a_non_finite_value_in_the_last_block_writes_nothing(n, bad, in_list):
    values = np.linspace(-1.0, 1.0, n)
    values[-1] = bad
    column = values.tolist() if in_list else values
    envelope = ReportEnvelope(command="x", seed=0, config={}, summary={},
                              results=ResultColumns({"index": range(n), "value": column}))
    stream = io.StringIO()
    with pytest.raises(UnencodableReport, match="not JSON compliant"):
        _write_report(envelope, "json", stream)
    assert stream.getvalue() == ""
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(UnencodableReport, match="not JSON compliant"):
            emit_report(envelope, "json", os.path.join(tmp, "report.json"))
        assert os.listdir(tmp) == []
