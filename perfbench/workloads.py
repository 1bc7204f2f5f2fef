"""The benchmark's workloads: op argv built from the workload seed, and the
check each op's report must pass.

Every op is one `boundarykit` CLI invocation at the sizes the README and the
ROADMAP use.  Op `i` of a run draws its parameters (a `--seed`, or a
`--delta` for certificates) from `random.Random("<workload seed>/<i>")`, so
no two ops of a run are alike and a result cache cannot help, while the same
workload seed always gives the same ops.  Warm-up ops use the key
`"<workload seed>/warmup/<process>"`.

A check raises `CheckFailed`; it reads only the report file and public
boundarykit functions, and runs outside the timed window.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# Grid for the real bump certificate, chosen so that op takes about as long
# as the complex vol3-slice certificate at the default grid.
BUMP_GRID = 60_000
# Target points per certificate at which the bound is checked against |F|.
CHECK_POINTS = 8


class CheckFailed(Exception):
    """An op's report does not say what the op's inputs require."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class OpType:
    name: str
    ext: str
    argv: Callable[[random.Random], list]
    check: Callable[[str, list, random.Random], None]


def op_rng(seed: int, key) -> random.Random:
    return random.Random(f"{seed}/{key}")


def _seed(rng) -> str:
    return str(rng.randrange(2 ** 31))


def _flag(argv, name):
    return argv[argv.index(name) + 1]


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- certify ------------------------------------------------------------------


def _check_certificate(path, argv, rng):
    report = _load_json(path)
    require(report["summary"]["refused"] is False, "certificate refused")
    cert = report["summary"]["certificate"]
    inputs, bound = cert["inputs"], cert["certified_bound"]
    values = [bound, inputs["B_defect"], inputs["M_base"], inputs["M_near2"]]
    require(all(isinstance(v, float) and math.isfinite(v) for v in values),
            f"non-finite certificate {values}")
    require(bound == inputs["M_base"] + 2.0 * (inputs["B_defect"] + 2.0 * inputs["M_near2"]),
            "certified_bound != M_base + 2 (B_defect + 2 M_near2)")
    delta = float(_flag(argv, "--delta"))
    if _flag(argv, "--field") == "complex":
        from boundarykit.volume import vol3_from_cross_ratio as F
        # the target sector {1 - delta < |z| <= 1, |arg z| < delta}
        points = [cmath.rect(1.0 - delta * rng.random(), delta * (2.0 * rng.random() - 1.0))
                  for _ in range(CHECK_POINTS)]
    else:
        from boundarykit.certifier import alternating_bump_function
        F = alternating_bump_function()
        # the target interval [1 - delta, 1)
        points = [1.0 - delta * (1.0 - rng.random()) for _ in range(CHECK_POINTS)]
    for z in points:
        if z != 1.0:
            value = abs(F(z))
            require(value <= bound, f"|F({z!r})| = {value!r} exceeds bound {bound!r}")


def _certify_complex(rng):
    return ["certify-bound", "--function", "vol3-slice", "--field", "complex",
            "--delta", repr(round(rng.uniform(0.05, 0.24), 4))]


def _certify_real(rng):
    return ["certify-bound", "--function", "bump", "--field", "real",
            "--delta", repr(round(rng.uniform(0.05, 0.5), 4)), "--grid", str(BUMP_GRID)]


# -- cocycle ------------------------------------------------------------------


def _check_cocycle(path, argv, rng):
    report = _load_json(path)
    require(len(report["results"]) == 2, "expected the vol2 and vol3 checks")
    require(report["summary"]["all_passed"] is True, "cocycle check failed")


# -- bulk reports -------------------------------------------------------------


def _check_values(report, argv):
    count = int(_flag(argv, "--count"))
    rows = report["results"]
    require(len(rows) == count, f"{len(rows)} rows for --count {count}")
    require(report["summary"]["count"] == count, "summary count differs from --count")
    return [row["value"] for row in rows]


def _check_probe(path, argv, rng):
    report = _load_json(path)
    values = _check_values(report, argv)
    summary = report["summary"]
    magnitudes = [abs(v) for v in values]
    require(summary["abs_min"] == min(magnitudes) and summary["abs_max"] == max(magnitudes),
            "abs_min/abs_max differ from the rows")
    escaped = summary["abs_max"] > summary["escape_hi"] or summary["abs_min"] < summary["escape_lo"]
    require(summary["verdict"] == ("escape-detected" if escaped else "bounded-range"),
            f"verdict {summary['verdict']!r} disagrees with the recorded thresholds")


def _check_invariant(path, argv, rng):
    values = _check_values(_load_json(path), argv)
    bound = math.pi / 2 + 1e-10
    require(all(abs(v) <= bound for v in values), "Cartan invariant outside [-pi/2, pi/2]")


def _check_sample_csv(path, argv, rng):
    from boundarykit.reports import read_report_csv
    header, rows = read_report_csv(path)
    require(header == ["tuple_index", "point_index", "line", "plane"],
            f"flags3 CSV header {header}")
    count = int(_flag(argv, "--count"))
    require(len(rows) == 3 * count, f"{len(rows)} rows for {count} triples")


def _probe(rng):
    return ["probe-config-space", "--model", "flags3", "--count", "100000", "--seed", _seed(rng)]


def _invariant(rng):
    return ["invariant", "--model", "complex_hyperbolic", "--count", "100000",
            "--seed", _seed(rng)]


def _sample(rng):
    return ["sample", "--model", "flags3", "--count", "10000", "--format", "csv",
            "--seed", _seed(rng)]


# Each workload is a cycle of op types, run in order, one op at a time.
WORKLOADS = {
    # Volume kernel and certifier under load, no sampler or serializer.  The
    # cheap real evaluator shows whether a change to the certifier that helps
    # vol3-slice costs a cheap F.
    "certify": [OpType("certify-complex", "json", _certify_complex, _check_certificate),
                OpType("certify-real", "json", _certify_real, _check_certificate)],
    # Scalar object layer, one-tuple rejection sampler, coboundary dispatch;
    # volume reached through cross ratios; almost nothing serialized.
    "cocycle": [OpType("verify-cocycle", "json",
                       lambda rng: ["verify-cocycle", "--count", "1000", "--seed", _seed(rng)],
                       _check_cocycle)],
    # Report emission, batch rejection sampler, flags and hyperbolic batch
    # kernels, Flag3 construction and CSV rows; no certifier or volume.
    "bulk-report": [OpType("probe", "json", _probe, _check_probe),
                    OpType("invariant", "json", _invariant, _check_invariant),
                    OpType("sample", "csv", _sample, _check_sample_csv)],
}
