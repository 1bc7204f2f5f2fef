"""Sampled columns, configuration-space probes, and report serialization.

Every command produces a ReportEnvelope: a plain-data record holding the
command name, the seed, a config echo (with tolerances), flat result rows,
summary statistics and the package version.  Results are ResultColumns,
which read as rows, or a list of row dicts with one key set and scalar
cells, read as ResultColumns.from_rows; one writer encodes them column by
column.  Serialization is deterministic (sorted keys, stable row order,
repr-based floats), so a fixed seed reproduces reports byte for byte.

JSON reports are single objects with exactly the keys
command/seed/config/results/summary/version, in the bytes of
`json.dump(..., sort_keys=True, indent=2)` plus a newline.  CSV reports
contain the result rows under a header equal to the row keys;
`read_report_csv` reads them back.

Each model samples through its `sampling` tuple sampler.  A
report is validated in full first (the envelope encoded, every column
checked), then written in pieces of at most sampling.ROW_BLOCK rows, so its
working set does not grow with the row count; a refused report writes
nothing, and a failed write leaves no file (see `emit_report`).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from . import flags as flags_mod
from .errors import UnencodableReport, UnknownInvariant
from .flags import batch_normalize_flags
from .hyperbolic import canonical_lifts, cartan_invariant_batch
from .projective import EPS_DIST
from .sampling import (ComplexTupleSampler, FlagTupleSampler, SphereTupleSampler, _blocks,
                       draw_batches)
from .version import __version__
from .volume import circle_orientation

ESCAPE_HI_DEFAULT = 1e3
ESCAPE_LO_DEFAULT = 1e-3

MODELS = ("S1", "Sn", "complex_hyperbolic", "flags3")

HISTOGRAM_BINS = 40  # bins of every invariant histogram


@dataclass(frozen=True)
class SamplerConfig:
    """What to sample: which boundary model, tuple size, count, seed, tol.

    `dim` is the hyperbolic dimension n: Sn samples the boundary sphere of
    H^n (unit directions in R^n) and complex_hyperbolic the boundary of
    H^n_C.  S1 (the circle) and flags3 (flags in R^3) have no dimension to
    choose: their dim is 2.  Left at None, dim is 3 for complex_hyperbolic
    and 2 for the other models.
    """

    model: str
    tuple_size: int = 3
    count: int = 1000
    seed: int = 0
    tolerance: float = EPS_DIST
    dim: int | None = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.dim is None:  # a frozen field, set as the dataclass's __init__ sets it
            object.__setattr__(self, "dim", 3 if self.model == "complex_hyperbolic" else 2)
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.tuple_size < 1:
            raise ValueError("tuple_size must be at least 1")
        if self.model == "flags3" and self.tuple_size not in (2, 3):
            raise ValueError("flags3 genericity is defined for pairs and triples")
        if self.model in ("S1", "flags3") and self.dim != 2:
            raise ValueError(f"model {self.model!r} has no dimension to choose; dim must be 2")
        if self.dim < 2:
            raise ValueError("dim must be at least 2")

    def echo(self) -> dict:
        return asdict(self)


class ResultColumns(Sequence):
    """Flat result rows stored column by column.

    `columns` maps each row key, in CSV column order, to a list, range or
    1-D array of JSON scalars (str, int, float, bool or None), one per row,
    or to a 2-D numeric array, a vector column: its cell in each row is the
    `;`-join of the reprs of the row's entries.  Read as a sequence, it
    yields the row dicts, with numpy scalars as Python numbers.
    """

    def __init__(self, columns: dict):
        if len({len(column) for column in columns.values()}) > 1:
            raise ValueError("result columns differ in length")
        self.columns = columns

    @classmethod
    def from_rows(cls, rows):
        """The columns of a list of row dicts that all have the first row's keys."""
        keys = rows[0].keys() if rows else {}
        for i, row in enumerate(rows):
            if row.keys() != keys:
                raise ValueError(f"row {i} keys {[*row]} not in fieldnames {[*keys]} or missing")
        return cls({key: [row[key] for row in rows] for key in keys})

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, i) -> dict:
        i = range(len(self))[i]  # IndexError past the last row ends iteration
        return {name: _plain(column[i:i + 1])[0] for name, column in self.columns.items()}

    def __eq__(self, other):
        if not isinstance(other, (list, ResultColumns)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _plain(column):
    """A column as given, or if an array its cells as Python values (vector cells as str)."""
    if isinstance(column, np.ndarray) and column.ndim == 2:
        return list(map(";".join(["%r"] * column.shape[1]).__mod__, map(tuple, column.tolist())))
    return column.tolist() if isinstance(column, np.ndarray) else column


def _cells(column, quote: str):
    """(%-template of a cell, lists of its arguments) of a block of a column.

    Range and numeric array cells are written by %r, as json.dumps and csv write
    ints and floats; a vector column of width k > 0 has k arguments per cell,
    `;`-joined inside `quote`s.  Other columns (lists, bool arrays) give None.
    """
    if isinstance(column, range):
        return "%r", [column]
    if not isinstance(column, np.ndarray):
        return None
    if column.ndim == 1 and column.dtype.kind in "iuf":
        return "%r", [column.tolist()]
    if column.ndim == 2 and column.dtype.kind in "biufc" and column.shape[1]:
        return quote + ";".join(["%r"] * column.shape[1]) + quote, column.T.tolist()
    return None


@dataclass
class ReportEnvelope:
    """Machine-readable result record; reproducible bit-for-bit per seed.

    `results` is a ResultColumns, or a list of row dicts with one key set.
    """

    command: str
    seed: int
    config: dict
    results: Sequence
    summary: dict
    version: str = __version__

    def to_dict(self) -> dict:
        return {"command": self.command, "seed": self.seed, "config": self.config,
                "results": list(self.results), "summary": self.summary,
                "version": self.version}


# ---------------------------------------------------------------------------
# sampling


def _sampler(config: SamplerConfig):
    """The `sampling` tuple sampler of config's model, tuple size and tolerance."""
    if config.model == "flags3":
        return FlagTupleSampler(config.tuple_size, config.tolerance)
    model = ComplexTupleSampler if config.model == "complex_hyperbolic" else SphereTupleSampler
    return model(config.dim, config.tuple_size, config.tolerance)


def _accepted_batches(config: SamplerConfig):
    """(batches, draws, accepted): the accepted (rows, coords) of each draw of
    config's sampler, in draw order, until `count` tuples are accepted.
    Raises SamplerExhausted past sampling.DRAW_BUDGET * count draws.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    batches, _, draws = draw_batches(_sampler(config), rng, config.count)
    return batches, draws, config.count


def _acceptance(draws: int, accepted: int) -> dict:
    return {"draws": int(draws), "accepted": int(accepted),
            "acceptance_rate": float(accepted) / float(draws)}


def sampling_stats(config: SamplerConfig) -> dict:
    """Draw and acceptance statistics of config's rejection sampler."""
    return _acceptance(*_accepted_batches(config)[1:])


def sample_tuples(config: SamplerConfig):
    """Exactly `count` generic tuples of point objects, deterministic per seed."""
    points = _sampler(config).points
    return [points(row) for rows, _ in _accepted_batches(config)[0] for row in rows]


def sample_columns(config: SamplerConfig):
    """The `sample` report's result columns and sampler statistics, from one run.

    One row per sampled point, tuple by tuple, holding a vector column of
    its coordinates: a flag's sign-normalized line and covector, a complex
    point's normalized lift, or a real point's unit direction, each equal
    to its point object's bit for bit.
    """
    batches, draws, accepted = _accepted_batches(config)
    coords = batches[0][1] if len(batches) == 1 else np.concatenate([c for _, c in batches])
    count, size = config.count, config.tuple_size
    columns = {"tuple_index": np.repeat(np.arange(count), size),
               "point_index": np.tile(np.arange(size), count)}
    if config.model == "flags3":
        columns["line"], columns["plane"] = batch_normalize_flags(
            *coords.swapaxes(0, 1).reshape(2, -1, 3))
    elif config.model == "complex_hyperbolic":
        columns["lift"] = canonical_lifts(coords.reshape(count * size, -1))
    else:
        columns["coords"] = coords.reshape(count * size, -1)
    return ResultColumns(columns), _acceptance(draws, accepted)


# ---------------------------------------------------------------------------
# invariants over samples


INVARIANT_MODELS = {"orientation_class": "S1", "cartan": "complex_hyperbolic",
                     "triple_ratio": "flags3"}


def invariant_values(config: SamplerConfig, invariant_name: str) -> np.ndarray:
    """Vectorized invariant evaluation over `count` generic sampled tuples."""
    model = INVARIANT_MODELS.get(invariant_name)
    if model is None:
        raise UnknownInvariant(f"unknown invariant {invariant_name!r}")
    if config.model != model:
        raise UnknownInvariant(f"{invariant_name} is defined on {model} triples")
    if config.tuple_size != 3:
        raise ValueError(f"{invariant_name} needs triples")
    coords = [c for _, c in _accepted_batches(config)[0]]
    if invariant_name == "orientation_class":
        values = [np.sign(circle_orientation(*c.transpose(1, 2, 0))) for c in coords]
    elif invariant_name == "cartan":
        values = [cartan_invariant_batch(c[:, 0], c[:, 1], c[:, 2]) for c in coords]
    else:  # by blocks, whose component views stay in cache
        values = [flags_mod.batch_triple_ratio(c[rows, 0], c[rows, 1])
                  for c in coords for rows in _blocks(len(c))]
    return np.concatenate(values)


def quantile_summary(values: np.ndarray) -> dict:
    qs = (0.01, 0.25, 0.5, 0.75, 0.99)
    levels = np.quantile(values, qs)
    return {f"q{int(100 * q):02d}": float(v) for q, v in zip(qs, levels)}


def histogram_summary(values: np.ndarray) -> dict:
    counts, edges = np.histogram(values, bins=HISTOGRAM_BINS)
    return {"counts": counts.tolist(), "edges": edges.tolist()}


def summarize_invariant(name: str, values: np.ndarray, histogram_values=None):
    """Result columns and summary of an invariant's values, as (results, summary).

    The histogram is of `histogram_values` if given, else of the values.
    """
    finite = np.isfinite(values)
    if not finite.all():
        i = int(np.argmin(finite))
        raise UnencodableReport(f"{name} value {float(values[i])!r} at index {i} is not finite")
    results = ResultColumns({"index": range(values.shape[0]), "value": values})
    summary = {
        "invariant": name,
        "count": int(values.shape[0]),
        "min": float(values.min()),
        "max": float(values.max()),
        "quantiles": quantile_summary(values),
        "histogram": histogram_summary(values if histogram_values is None else histogram_values),
    }
    return results, summary


def compactness_probe(invariant_name: str, config: SamplerConfig,
                      escape_hi: float = ESCAPE_HI_DEFAULT,
                      escape_lo: float = ESCAPE_LO_DEFAULT) -> ReportEnvelope:
    """Histogram an invariant over config's generic tuples and classify its range.

    Verdict `bounded-range` means every observed value fell in the model's
    compact reference set; `escape-detected` means values crossed the
    escape thresholds or approached the excluded points {0, 1} (triple
    ratio), signalling a non-compact configuration space.
    """
    values = invariant_values(config, invariant_name)
    magnitudes = np.abs(values)
    results, summary = summarize_invariant(
        invariant_name, values,
        np.log10(magnitudes) if invariant_name == "triple_ratio" else None)

    if invariant_name == "orientation_class":
        classes = sorted(set(float(v) for v in values))
        summary["classes_observed"] = classes
        summary["reference_set"] = [-1.0, 1.0]
        in_reference = all(c in (-1.0, 1.0) for c in classes)
        summary["verdict"] = "bounded-range" if in_reference else "escape-detected"
    elif invariant_name == "cartan":
        bound = math.pi / 2 + 1e-10
        summary["reference_interval"] = [-math.pi / 2, math.pi / 2]
        inside = bool(np.all(magnitudes <= bound))
        summary["verdict"] = "bounded-range" if inside else "escape-detected"
    else:  # triple_ratio
        summary["abs_min"] = float(magnitudes.min())
        summary["abs_max"] = float(magnitudes.max())
        summary["escape_hi"] = float(escape_hi)
        summary["escape_lo"] = float(escape_lo)
        summary["histogram_scale"] = "log10(|T|)"
        escaped = bool(magnitudes.max() > escape_hi or magnitudes.min() < escape_lo)
        summary["verdict"] = "escape-detected" if escaped else "bounded-range"

    return ReportEnvelope(command="probe-config-space", seed=config.seed,
                          config={**config.echo(), "invariant": invariant_name},
                          results=results, summary=summary)


# ---------------------------------------------------------------------------
# serialization


def emit_report(envelope: ReportEnvelope, format: str, path) -> None:
    """Write the envelope as canonical JSON or flattened CSV.

    It is validated in full, then written piece by piece beside `path` and
    renamed over it, so a refused report or a write that fails part-way
    leaves no file.
    """
    pieces = _report_pieces(envelope, format)
    partial = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        # csv ends each line with "\n" itself; JSON gets the platform's newline
        with open(partial, "w", encoding="utf-8",
                  newline="" if format == "csv" else None) as fh:
            fh.writelines(pieces)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _write_report(envelope: ReportEnvelope, format: str, stream) -> None:
    """Write the envelope to a text stream, for arguments emit_report accepts."""
    for piece in _report_pieces(envelope, format):
        # a write larger than the stream's buffer to a pipe whose reader has
        # closed can stop short without raising BrokenPipeError; smaller
        # writes raise it
        for start in range(0, len(piece), io.DEFAULT_BUFFER_SIZE):
            stream.write(piece[start:start + io.DEFAULT_BUFFER_SIZE])


def _report_pieces(envelope: ReportEnvelope, format: str):
    """The report's text as an iterator of pieces, once all of it is validated.

    A list of row dicts is read as ResultColumns.from_rows.  The column
    names and every column are checked and the rest of the envelope is
    encoded; each later piece then holds at most ROW_BLOCK rows.  A
    refusal raises here, before anything is written.
    """
    if format not in ("json", "csv"):
        raise ValueError(f"unknown report format {format!r}")
    results = envelope.results
    if format == "csv" and not results:
        raise ValueError("cannot emit CSV for an empty results list")
    if not isinstance(results, ResultColumns):
        results = ResultColumns.from_rows(results)
    for column in (list(results.columns), *results.columns.values()):
        _check_column(column, format)
    if format == "csv":
        return _csv_pieces(results)
    return _json_pieces(results, _json_text({**vars(envelope), "results": []}))


def _check_column(column, format: str) -> None:
    """Refuse a column of cells that `format` cannot hold.

    Both formats take JSON scalars and vector columns only (TypeError).
    JSON takes no NaN or infinity.  CSV, written with "\\n" line ends,
    leaves a carriage return unquoted, where a reader takes it for a line end.
    """
    if isinstance(column, range):
        return
    if isinstance(column, np.ndarray) and (column.dtype.kind in "biuf" or column.ndim == 2
                                           and column.dtype.kind == "c"):
        if format == "json" and column.dtype.kind in "fc" and not np.isfinite(column).all():
            _refuse_float(column[~np.isfinite(column)][0].item())
        return
    values = _plain(column)
    kinds = set(map(type, values))
    if not all(issubclass(kind, (str, int, float, type(None))) for kind in kinds):
        raise TypeError("result columns hold JSON scalars only")
    if format == "csv":
        if any(issubclass(kind, str) for kind in kinds):
            bad = next((v for v in values if isinstance(v, str) and "\r" in v), None)
            if bad is not None:
                raise UnencodableReport(f"CSV cannot hold the carriage return in {bad!r}")
        return
    if any(issubclass(kind, float) for kind in kinds):
        bad = next((v for v in values if isinstance(v, float) and not math.isfinite(v)), None)
        if bad is not None:
            _refuse_float(bad)


def _refuse_float(value: float):
    raise UnencodableReport(f"Out of range float values are not JSON compliant: {value!r}")


def _json_text(data) -> str:
    """json.dump(sort_keys=True, indent=2) text of `data`, plus a newline."""
    try:
        return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN and infinities are not JSON
        raise UnencodableReport(str(exc)) from exc


def _json_pieces(results: ResultColumns, text: str):
    """JSON `text` of the envelope with results [], and the rows spliced in.

    The rows are encoded column by column, one %-template per row, ROW_BLOCK
    rows per piece, in the bytes of json.dump(sort_keys=True, indent=2).
    """
    if not len(results):
        yield text
        return
    names = sorted(results.columns)
    # rows sit at depth 2 of the envelope and their keys at depth 3
    keys = ["      " + encode_basestring_ascii(name).replace("%", "%%") + ": " for name in names]
    # only top-level keys are indented by exactly two spaces
    head, tail = text.split('\n  "results": []', 1)
    opening = head + '\n  "results": [\n'
    for rows in _blocks(len(results)):
        blocks = [results.columns[name][rows] for name in names]
        cells = [_cells(block, '"') or ("%s", [list(map(json.dumps, _plain(block)))])
                 for block in blocks]
        template = "    {\n" + ",\n".join(k + spec for k, (spec, _) in zip(keys, cells)) + "\n    }"
        args = [entry for _, entries in cells for entry in entries]
        yield opening + ",\n".join(map(template.__mod__, zip(*args)))
        opening = ",\n"
    yield "\n  ]" + tail


def _csv_pieces(results: ResultColumns):
    """CSV of the columns under a header of their names, ROW_BLOCK rows per piece.

    Floats are written by repr.  A block of range and numeric array columns
    is written one %-template per row, since none of their cells needs
    quoting; other blocks by csv.writer.
    """
    columns = list(results.columns.values())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(results.columns)
    for rows in _blocks(len(results)):
        cells = [_cells(column[rows], "") for column in columns]
        if None in cells:
            writer.writerows(zip(*(_plain(column[rows]) for column in columns)))
        else:
            template = ",".join(spec for spec, _ in cells) + "\n"
            args = [entry for _, entries in cells for entry in entries]
            buffer.write("".join(map(template.__mod__, zip(*args))))
        yield buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()


def read_report_json(path) -> ReportEnvelope:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return ReportEnvelope(command=data["command"], seed=data["seed"],
                          config=data["config"], results=data["results"],
                          summary=data["summary"], version=data["version"])


def read_report_csv(path):
    """Return (header, rows) with all cell values as strings."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return list(reader.fieldnames), [dict(row) for row in reader]
