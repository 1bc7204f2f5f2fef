"""Batch sampling, configuration-space probes, and report serialization.

Every command produces a ReportEnvelope: a plain-data record holding the
command name, the seed, a config echo (with tolerances), flat result rows,
summary statistics and the package version.  Bulk results are held as
ResultColumns, which read as rows but are encoded column by column.
Serialization is deterministic (sorted keys, stable row order, repr-based
floats), so a fixed seed reproduces reports byte for byte.

JSON reports are single objects with exactly the keys
command/seed/config/results/summary/version, in the bytes of
`json.dump(..., sort_keys=True, indent=2)` plus a newline.  CSV reports
contain the result rows under a header equal to the row keys;
`read_report_csv` reads them back.

Bulk work runs in blocks of ROW_BLOCK rows, so its working set does not
grow with the row count beyond the arrays it returns.  The sampler makes
its random-number calls for a whole batch, then lifts and masks it block
by block, writing accepted rows into one array.  A report is validated in
full first (the envelope encoded, every column checked), then written in
pieces of at most ROW_BLOCK rows; so a refused report writes nothing, and
a failed write leaves no file (see `emit_report`).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from . import flags as flags_mod
from .errors import UnencodableReport, UnknownInvariant
from .flags import Flag3, batch_normalize_flags
from .hyperbolic import (ComplexBoundaryPoint, RealBoundaryPoint,
                         cartan_invariant_batch, complex_chordal_distance,
                         real_chordal_distance)
from .projective import EPS_DIST
from .sampling import _mask_generic, rejection_loop
from .version import __version__
from .volume import circle_orientation

ESCAPE_HI_DEFAULT = 1e3
ESCAPE_LO_DEFAULT = 1e-3

MODELS = ("S1", "Sn", "complex_hyperbolic", "flags3")

ROW_BLOCK = 4096  # rows per block of the bulk row kernels and per written piece


@dataclass(frozen=True)
class SamplerConfig:
    """What to sample: which boundary model, tuple size, count, seed, tol.

    `dim` is the hyperbolic dimension n: Sn samples the boundary sphere of
    H^n (unit directions in R^n) and complex_hyperbolic the boundary of
    H^n_C.  S1 is shorthand for the circle (n = 2).
    """

    model: str
    tuple_size: int = 3
    count: int = 1000
    seed: int = 0
    tolerance: float = EPS_DIST
    dim: int = 2

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.tuple_size < 1:
            raise ValueError("tuple_size must be at least 1")
        if self.model == "flags3" and self.tuple_size not in (2, 3):
            raise ValueError("flags3 genericity is defined for pairs and triples")
        if self.model in ("Sn", "complex_hyperbolic") and self.dim < 2:
            raise ValueError("dim must be at least 2")

    def echo(self) -> dict:
        d = asdict(self)
        if self.model == "S1":
            d["dim"] = 2
        return d


class ResultColumns(Sequence):
    """Flat result rows stored column by column.

    `columns` maps each row key, in CSV column order, to a list, range or
    1-D array of JSON scalars (str, int, float, bool or None), one per row.
    Read as a sequence, it yields the row dicts, with numpy scalars as
    Python numbers.
    """

    def __init__(self, columns: dict):
        if len({len(column) for column in columns.values()}) > 1:
            raise ValueError("result columns differ in length")
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, i) -> dict:
        i = range(len(self))[i]  # IndexError past the last row ends iteration
        return {name: column[i].item() if isinstance(column, np.ndarray) else column[i]
                for name, column in self.columns.items()}

    def __eq__(self, other):
        if not isinstance(other, (list, ResultColumns)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _plain(column):
    """A column as given, or as a list of Python scalars if it is an array."""
    return column.tolist() if isinstance(column, np.ndarray) else column


@dataclass
class ReportEnvelope:
    """Machine-readable result record; reproducible bit-for-bit per seed.

    `results` is a list of row dicts or a ResultColumns.
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
# vectorized candidate generation


def _blocks(n: int):
    """Slices of at most ROW_BLOCK consecutive rows, covering range(n) in order."""
    return (slice(start, min(start + ROW_BLOCK, n)) for start in range(0, n, ROW_BLOCK))


def _batch_flags(rng, m: int, size: int):
    lines = np.empty((m, size, 3))
    planes = np.empty((m, size, 3))
    for i in range(size):
        lines[:, i], planes[:, i] = flags_mod.batch_random_flags(rng, m)
    return lines, planes


def _complex_lifts(re, im):
    """Unit null lifts (w, 1)/sqrt(2) of the ball directions w = unit(re + i im)."""
    w = re + 1j * im
    w = w / np.linalg.norm(w, axis=2, keepdims=True)
    return np.concatenate([w, np.ones(w.shape[:2] + (1,))], axis=2) / math.sqrt(2.0)


def _draw_candidates(config: SamplerConfig, rng, m: int) -> tuple:
    """The random-number calls for m candidate tuples, one call per array."""
    if config.model == "flags3":
        return _batch_flags(rng, m, config.tuple_size)
    shape = (m, config.tuple_size, 2 if config.model == "S1" else config.dim)
    if config.model == "complex_hyperbolic":
        return rng.standard_normal(shape), rng.standard_normal(shape)
    return (rng.standard_normal(shape),)


def _accept_rows(config: SamplerConfig, *rows):
    """(points, mask) of a block of rows of the candidate arrays.

    points are the rows' point arrays: (lines, planes) for flags3, else
    the complex lifts or the unit directions alone; mask marks the generic
    rows.
    """
    if config.model == "flags3":
        return rows, flags_mod.batch_is_generic(*rows, config.tolerance)
    if config.model == "complex_hyperbolic":
        points, distance = _complex_lifts(*rows), complex_chordal_distance
    else:
        (v,) = rows
        points, distance = v / np.linalg.norm(v, axis=2, keepdims=True), real_chordal_distance
    return (points,), _mask_generic(points, config.tolerance, distance)


def _accepted_batches(config: SamplerConfig):
    """Draw candidate batches until `count` tuples are accepted.

    Returns (data, draws, accepted).  data holds the accepted tuples in
    draw order: a (count, size, k) array of points, or (lines, planes) for
    flags3.  Each batch makes the same random-number calls as one array
    draw; its row kernels then run over blocks of ROW_BLOCK rows, each
    writing its accepted rows straight into data.  Raises SamplerExhausted
    past sampling.DRAW_BUDGET * count draws.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    data = []
    filled = 0

    def draw(m):
        nonlocal filled
        start = filled
        candidates = _draw_candidates(config, rng, m)
        for rows in _blocks(m):
            points, keep = _accept_rows(config, *(a[rows] for a in candidates))
            if not data:
                data.extend(np.empty((config.count, *p.shape[1:]), p.dtype) for p in points)
            hits = int(np.count_nonzero(keep))
            for target, p in zip(data, points):
                target[filled:filled + hits] = p[keep]
            filled += hits
        return filled - start

    draws = rejection_loop(draw, config.count)
    return (tuple(data) if config.model == "flags3" else data[0]), draws, config.count


def _acceptance(draws: int, accepted: int) -> dict:
    return {"draws": int(draws), "accepted": int(accepted),
            "acceptance_rate": float(accepted) / float(draws)}


def sampling_stats(config: SamplerConfig) -> dict:
    """Acceptance statistics of the rejection sampler, without materializing."""
    return _acceptance(*_accepted_batches(config)[1:])


def _point_objects(config: SamplerConfig, data):
    """Tuples of point objects from the sampler's arrays."""
    if config.model == "flags3":
        lines, planes = data
        return [tuple(Flag3(lines[i, j], planes[i, j]) for j in range(config.tuple_size))
                for i in range(config.count)]
    point = ComplexBoundaryPoint if config.model == "complex_hyperbolic" else RealBoundaryPoint
    return [tuple(point(row) for row in tup) for tup in data]


def sample_tuples(config: SamplerConfig):
    """Exactly `count` generic tuples of point objects, deterministic per seed."""
    return _point_objects(config, _accepted_batches(config)[0])


def _format_vector(v, scalar=float) -> str:
    return ";".join(repr(scalar(x)) for x in v)


def _format_rows(rows: np.ndarray) -> list:
    """_format_vector of each row of a 2-D float array."""
    template = ";".join(["%r"] * rows.shape[1])
    return list(map(template.__mod__, map(tuple, rows.tolist())))


def sample_columns(config: SamplerConfig):
    """The `sample` report's result columns and sampler statistics, from one run.

    One row per sampled point, tuple by tuple, holding its `;`-joined
    coordinates: a flag's sign-normalized line and covector, a complex
    point's normalized lift, or a real point's unit direction.
    """
    data, draws, accepted = _accepted_batches(config)
    count, size = config.count, config.tuple_size
    columns = {"tuple_index": np.repeat(np.arange(count), size),
               "point_index": np.tile(np.arange(size), count)}
    if config.model == "flags3":
        lines, planes = batch_normalize_flags(*(a.reshape(-1, 3) for a in data))
        columns["line"] = _format_rows(lines)
        columns["plane"] = _format_rows(planes)
    else:
        points = [p for tup in _point_objects(config, data) for p in tup]
        if config.model == "complex_hyperbolic":
            columns["lift"] = [_format_vector(p.lift, complex) for p in points]
        else:
            columns["coords"] = [_format_vector(p.direction) for p in points]
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
    data = _accepted_batches(config)[0]
    if invariant_name == "orientation_class":
        return np.sign(circle_orientation(*data.transpose(1, 2, 0)))
    if invariant_name == "cartan":
        return cartan_invariant_batch(data[:, 0], data[:, 1], data[:, 2])
    return flags_mod.batch_triple_ratio(*data)


def quantile_summary(values: np.ndarray) -> dict:
    qs = (0.01, 0.25, 0.5, 0.75, 0.99)
    levels = np.quantile(values, qs)
    return {f"q{int(100 * q):02d}": float(v) for q, v in zip(qs, levels)}


def histogram_summary(values: np.ndarray, bins: int = 40) -> dict:
    counts, edges = np.histogram(values, bins=bins)
    return {"counts": [int(c) for c in counts],
            "edges": [float(e) for e in edges]}


def summarize_invariant(name: str, values: np.ndarray):
    """Result columns and summary of an invariant's values, as (results, summary)."""
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
        "histogram": histogram_summary(values),
    }
    return results, summary


def compactness_probe(model: str, invariant_name: str, config: SamplerConfig,
                      escape_hi: float = ESCAPE_HI_DEFAULT,
                      escape_lo: float = ESCAPE_LO_DEFAULT) -> ReportEnvelope:
    """Histogram an invariant over generic tuples and classify its range.

    Verdict `bounded-range` means every observed value fell in the model's
    compact reference set; `escape-detected` means values crossed the
    escape thresholds or approached the excluded points {0, 1} (triple
    ratio), signalling a non-compact configuration space.
    """
    if config.model != model:
        config = replace(config, model=model)
    values = invariant_values(config, invariant_name)
    results, summary = summarize_invariant(invariant_name, values)

    if invariant_name == "orientation_class":
        classes = sorted(set(float(v) for v in values))
        summary["classes_observed"] = classes
        summary["reference_set"] = [-1.0, 1.0]
        in_reference = all(c in (-1.0, 1.0) for c in classes)
        summary["verdict"] = "bounded-range" if in_reference else "escape-detected"
    elif invariant_name == "cartan":
        bound = math.pi / 2 + 1e-10
        summary["reference_interval"] = [-math.pi / 2, math.pi / 2]
        inside = bool(np.all(np.abs(values) <= bound))
        summary["verdict"] = "bounded-range" if inside else "escape-detected"
    else:  # triple_ratio
        magnitudes = np.abs(values)
        summary["abs_min"] = float(magnitudes.min())
        summary["abs_max"] = float(magnitudes.max())
        summary["escape_hi"] = float(escape_hi)
        summary["escape_lo"] = float(escape_lo)
        summary["histogram"] = histogram_summary(np.log10(magnitudes))
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

    Row lists are encoded in full here, as one piece.  For ResultColumns,
    the column names and every column are checked and the rest of the
    envelope is encoded; each later piece then holds at most ROW_BLOCK
    rows.  A refusal raises here, before anything is written.
    """
    if format not in ("json", "csv"):
        raise ValueError(f"unknown report format {format!r}")
    results = envelope.results
    if format == "csv" and not results:
        raise ValueError("cannot emit CSV for an empty results list")
    if not isinstance(results, ResultColumns):
        return iter([_rows_text(envelope, format)])
    for column in (list(results.columns), *results.columns.values()):
        _check_column(column, format)
    if format == "csv":
        return _csv_pieces(results)
    return _json_pieces(results, _json_text({**vars(envelope), "results": []}))


def _check_column(column, format: str) -> None:
    """Refuse a column of cells that `format` cannot hold.

    JSON takes scalars only (TypeError) and no NaN or infinity.  CSV,
    written with "\\n" line ends, leaves a carriage return unquoted, where
    a reader takes it for a line end.
    """
    if isinstance(column, range):
        return
    if isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        if format == "json" and column.dtype.kind == "f" and not np.isfinite(column).all():
            _refuse_float(float(column[~np.isfinite(column)][0]))
        return
    values = _plain(column)
    kinds = set(map(type, values))
    if format == "csv":
        if any(issubclass(kind, str) for kind in kinds):
            bad = next((v for v in values if isinstance(v, str) and "\r" in v), None)
            if bad is not None:
                raise UnencodableReport(f"CSV cannot hold the carriage return in {bad!r}")
        return
    if not all(issubclass(kind, (str, int, float, type(None))) for kind in kinds):
        raise TypeError("result columns hold JSON scalars only")
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


def _rows_text(envelope: ReportEnvelope, format: str) -> str:
    """The whole report for a list of row dicts; CSV has the first row's keys as header."""
    if format == "json":
        return _json_text(envelope.to_dict())
    rows = envelope.results
    for row in rows:
        _check_column([*row, *row.values()], format)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


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
    template = ("    {\n" + ",\n".join(
        "      " + encode_basestring_ascii(name).replace("%", "%%") + ": %s"
        for name in names) + "\n    }")
    # only top-level keys are indented by exactly two spaces
    head, tail = text.split('\n  "results": []', 1)
    opening = head + '\n  "results": [\n'
    for rows in _blocks(len(results)):
        cells = (_json_cells(results.columns[name][rows]) for name in names)
        yield opening + ",\n".join(map(template.__mod__, zip(*cells)))
        opening = ",\n"
    yield "\n  ]" + tail


def _json_cells(column) -> list:
    """JSON text of each cell of a checked column, as json.dumps writes it."""
    values = _plain(column)
    kinds = set(map(type, values))
    if kinds == {float}:
        return list(map(float.__repr__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    return [json.dumps(v) for v in values]


def _csv_pieces(results: ResultColumns):
    """CSV of the columns under a header of their names, ROW_BLOCK rows per piece.

    Floats are written by repr.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(results.columns)
    for rows in _blocks(len(results)):
        writer.writerows(zip(*(_plain(column[rows]) for column in results.columns.values())))
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
