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
`read_report_csv` reads them back.  A refused report or a failed write
leaves no file (see `emit_report`).
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


def _batch_sphere(rng, m: int, size: int, dim: int):
    v = rng.standard_normal((m, size, dim))
    return v / np.linalg.norm(v, axis=2, keepdims=True)


def _batch_complex(rng, m: int, size: int, dim: int):
    w = rng.standard_normal((m, size, dim)) + 1j * rng.standard_normal((m, size, dim))
    w = w / np.linalg.norm(w, axis=2, keepdims=True)
    lifts = np.concatenate([w, np.ones((m, size, 1))], axis=2) / math.sqrt(2.0)
    return lifts


def _batch_flags(rng, m: int, size: int):
    lines = np.empty((m, size, 3))
    planes = np.empty((m, size, 3))
    for i in range(size):
        lines[:, i], planes[:, i] = flags_mod.batch_random_flags(rng, m)
    return lines, planes


def _accepted_batches(config: SamplerConfig):
    """Draw candidate batches until `count` tuples are accepted.

    Returns (list_of_accepted_arrays, draws, accepted); raises
    SamplerExhausted past sampling.DRAW_BUDGET * count draws.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    chunks = []

    def draw(m):
        if config.model == "flags3":
            lines, planes = _batch_flags(rng, m, config.tuple_size)
            mask = flags_mod.batch_is_generic(lines, planes, config.tolerance)
            chunks.append((lines[mask], planes[mask]))
            return int(mask.sum())
        if config.model == "complex_hyperbolic":
            batch = _batch_complex(rng, m, config.tuple_size, config.dim)
            distance = complex_chordal_distance
        else:
            dim = 2 if config.model == "S1" else config.dim
            batch = _batch_sphere(rng, m, config.tuple_size, dim)
            distance = real_chordal_distance
        mask = _mask_generic(batch, config.tolerance, distance)
        chunks.append(batch[mask])
        return int(mask.sum())

    draws = rejection_loop(draw, config.count)
    return chunks, draws, config.count


def _concat_chunks(config: SamplerConfig, chunks):
    if config.model == "flags3":
        lines = np.concatenate([c[0] for c in chunks])[:config.count]
        planes = np.concatenate([c[1] for c in chunks])[:config.count]
        return lines, planes
    return np.concatenate(chunks)[:config.count]


def _acceptance(draws: int, accepted: int) -> dict:
    return {"draws": int(draws), "accepted": int(accepted),
            "acceptance_rate": float(accepted) / float(draws)}


def sampling_stats(config: SamplerConfig) -> dict:
    """Acceptance statistics of the rejection sampler, without materializing."""
    return _acceptance(*_accepted_batches(config)[1:])


def _point_objects(config: SamplerConfig, data):
    """Tuples of point objects from the sampler's concatenated arrays."""
    if config.model == "flags3":
        lines, planes = data
        return [tuple(Flag3(lines[i, j], planes[i, j]) for j in range(config.tuple_size))
                for i in range(config.count)]
    point = ComplexBoundaryPoint if config.model == "complex_hyperbolic" else RealBoundaryPoint
    return [tuple(point(row) for row in tup) for tup in data]


def sample_tuples(config: SamplerConfig):
    """Exactly `count` generic tuples of point objects, deterministic per seed."""
    return _point_objects(config, _concat_chunks(config, _accepted_batches(config)[0]))


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
    chunks, draws, accepted = _accepted_batches(config)
    data = _concat_chunks(config, chunks)
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
    data = _concat_chunks(config, _accepted_batches(config)[0])
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

    It is encoded in full, then written beside `path` and renamed over it,
    so a refused report or a write that fails part-way leaves no file.
    """
    text = _report_text(envelope, format)
    partial = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        # csv ends each line with "\n" itself; JSON gets the platform's newline
        with open(partial, "w", encoding="utf-8",
                  newline="" if format == "csv" else None) as fh:
            fh.write(text)
        os.replace(partial, path)
    finally:
        if os.path.exists(partial):
            os.remove(partial)


def _write_report(envelope: ReportEnvelope, format: str, stream) -> None:
    """Write the envelope to a text stream, for arguments emit_report accepts."""
    text = _report_text(envelope, format)
    # a write larger than the stream's buffer to a pipe whose reader has
    # closed can stop short without raising BrokenPipeError; smaller writes
    # raise it
    for start in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
        stream.write(text[start:start + io.DEFAULT_BUFFER_SIZE])


def _report_text(envelope: ReportEnvelope, format: str) -> str:
    if format not in ("json", "csv"):
        raise ValueError(f"unknown report format {format!r}")
    if format == "csv":
        if not envelope.results:
            raise ValueError("cannot emit CSV for an empty results list")
        return _csv_text(envelope.results)
    try:
        return _json_text(envelope)
    except ValueError as exc:  # NaN and infinities are not JSON
        raise UnencodableReport(str(exc)) from exc


def _json_text(envelope: ReportEnvelope) -> str:
    """The bytes of json.dump(sort_keys=True, indent=2, allow_nan=False) + "\n".

    Row lists go through json.dumps.  ResultColumns are encoded column by
    column, one %-template per row, and spliced into the rest of the
    envelope, which json.dumps encodes with an empty results list.
    """
    results = envelope.results
    if not isinstance(results, ResultColumns):
        return json.dumps(envelope.to_dict(), sort_keys=True, indent=2, allow_nan=False) + "\n"
    text = json.dumps({**vars(envelope), "results": []},
                      sort_keys=True, indent=2, allow_nan=False) + "\n"
    if not len(results):
        return text
    names = sorted(results.columns)
    # rows sit at depth 2 of the envelope and their keys at depth 3
    template = ("    {\n" + ",\n".join(
        "      " + encode_basestring_ascii(name).replace("%", "%%") + ": %s"
        for name in names) + "\n    }")
    rows = map(template.__mod__,
               zip(*(_json_cells(results.columns[name]) for name in names)))
    # only top-level keys are indented by exactly two spaces
    head, tail = text.split('\n  "results": []', 1)
    return "".join([head, '\n  "results": [\n', ",\n".join(rows), "\n  ]", tail])


def _json_cells(column) -> list:
    """JSON text of each cell of a column, as json.dumps writes it."""
    values = _plain(column)
    kinds = set(map(type, values))
    if kinds == {float}:
        if not all(map(math.isfinite, values)):
            bad = next(v for v in values if not math.isfinite(v))
            raise ValueError(f"Out of range float values are not JSON compliant: {bad!r}")
        return list(map(float.__repr__, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds == {str}:
        return list(map(encode_basestring_ascii, values))
    if not all(isinstance(v, (str, int, float, type(None))) for v in values):
        raise TypeError("result columns hold JSON scalars only")
    return [json.dumps(v, allow_nan=False) for v in values]


def _csv_text(results) -> str:
    """CSV of the rows under a header of the row keys; floats written by repr."""
    buffer = io.StringIO()
    if isinstance(results, ResultColumns):
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(results.columns)
        writer.writerows(zip(*map(_plain, results.columns.values())))
    else:
        writer = csv.DictWriter(buffer, fieldnames=list(results[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(results)
    return buffer.getvalue()


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
