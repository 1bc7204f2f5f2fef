"""Command-line front end.

One verb per capability: `sample` draws generic tuples, `invariant`
evaluates a named invariant over samples, `verify-cocycle` measures the
coboundary defect of the volume cocycles, `certify-bound` runs the doubling
recursion on a named test function, and `probe-config-space` histograms an
invariant and reports a compactness verdict.

Exit codes: 0 all checks passed, 1 tolerance violation, refused
certificate or refused report (a value JSON cannot hold, such as NaN),
2 usage/config error.  A fixed --seed makes every report byte
identical across runs; the BOUNDARYKIT_SEED environment variable supplies
the default when --seed is absent.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict

from .certifier import (DEFAULT_DELTA, GridConfig, alternating_bump_function,
                        certify_complex_region, certify_interval, const_function,
                        pole_function, vol3_slice)
from .cochains import Cochain, empirical_sup_defect
from .errors import (BoundaryKitError, UnboundedDefect, UnencodableReport,
                     UnknownInvariant)
from .projective import EPS_DIST
from .reports import (ESCAPE_HI_DEFAULT, ESCAPE_LO_DEFAULT, INVARIANT_MODELS, MODELS,
                      ReportEnvelope, SamplerConfig, _write_report, compactness_probe,
                      emit_report, invariant_values, sample_columns,
                      summarize_invariant)
from .sampling import SphereTupleSampler, task_seed
from .version import __version__
from .volume import vol2, vol2_batch, vol3, vol3_batch

SEED_ENV_VAR = "BOUNDARYKIT_SEED"

_DEFAULT_INVARIANTS = {model: name for name, model in INVARIANT_MODELS.items()}

_FUNCTIONS = {
    "const": lambda field: const_function(1.0, field),
    "pole": pole_function,
    "vol3-slice": lambda field: vol3_slice(),
    "bump": lambda field: alternating_bump_function(),
}


def _write(envelope: ReportEnvelope, args) -> None:
    if args.out:
        emit_report(envelope, args.format, args.out)
        return
    try:
        _write_report(envelope, args.format, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`); as the Python docs
        # advise, point stdout at devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)


# Each verb maps (args, seed) to its report's (config, results, summary) and
# its exit code, and does no I/O; `main` wraps them in the one envelope.

def _config_from_args(args, seed: int) -> SamplerConfig:
    return SamplerConfig(model=args.model, tuple_size=args.size, count=args.count,
                         seed=seed, tolerance=args.tol, dim=args.n)


def _cmd_sample(args, seed: int):
    config = _config_from_args(args, seed)
    results, stats = sample_columns(config)
    return config.echo(), results, {"tuples": config.count, **stats}, 0


def _resolve_invariant(args, config) -> str:
    name = args.invariant or _DEFAULT_INVARIANTS.get(config.model)
    if name is None:
        raise UnknownInvariant(
            f"no invariant is defined for model {config.model!r}; pass --invariant")
    return name


def _cmd_invariant(args, seed: int):
    config = _config_from_args(args, seed)
    name = _resolve_invariant(args, config)
    results, summary = summarize_invariant(name, invariant_values(config, name))
    return {**config.echo(), "invariant": name}, results, summary, 0


def _cmd_verify_cocycle(args, seed: int):
    checks = [
        ("vol2_coboundary", Cochain(arity=3, evaluator=vol2, batch=vol2_batch),
         SphereTupleSampler(2, 4), task_seed(seed, 0)),
        ("vol3_coboundary", Cochain(arity=4, evaluator=vol3, batch=vol3_batch),
         SphereTupleSampler(3, 5, chart=True), task_seed(seed, 1)),
    ]
    rows = []
    for name, cochain, sampler, sub in checks:
        report = empirical_sup_defect(cochain, sampler, args.count, seed=sub)
        rows.append({"check": name, "samples": report.samples,
                     "sup_abs": report.sup_abs, "tolerance": args.tol,
                     "passed": report.sup_abs <= args.tol})
    all_passed = all(r["passed"] for r in rows)
    summary = {"all_passed": all_passed,
               "max_sup_abs": max(r["sup_abs"] for r in rows),
               "tolerance": args.tol}
    return ({"count": args.count, "tolerance": args.tol}, rows, summary,
            0 if all_passed else 1)


def _cmd_certify_bound(args, seed: int):
    delta = DEFAULT_DELTA[args.field] if args.delta is None else args.delta
    config = {"function": args.function, "field": args.field,
              "delta": delta, "grid": args.grid}
    certify = certify_complex_region if args.field == "complex" else certify_interval
    F = _FUNCTIONS[args.function](args.field)
    try:
        cert = certify(F, delta=delta, grid=GridConfig(points_per_region=args.grid))
    except UnboundedDefect as exc:
        results = [{"function": args.function, "refused": True, "reason": str(exc)}]
        return config, results, {"refused": True, "reason": str(exc)}, 1
    row = {"function": args.function, "field": args.field,
           "kind": cert.region.kind, "delta": cert.region.delta,
           "certified_bound": cert.certified_bound,
           "C": cert.inputs["B_defect"] + 2.0 * cert.inputs["M_near2"],
           "k_max": cert.k_max}
    for key in sorted(cert.inputs):
        row[key] = cert.inputs[key]
    for key in sorted(cert.provenance):
        row[f"provenance_{key}"] = cert.provenance[key]
    summary = {"certificate": {"region": asdict(cert.region),
                               "certified_bound": cert.certified_bound,
                               "inputs": cert.inputs, "k_max": cert.k_max,
                               "provenance": cert.provenance},
               "refused": False}
    return config, [row], summary, 0


def _cmd_probe(args, seed: int):
    config = _config_from_args(args, seed)
    envelope = compactness_probe(_resolve_invariant(args, config), config,
                                 escape_hi=args.escape_hi, escape_lo=args.escape_lo)
    return envelope.config, envelope.results, envelope.summary, 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boundarykit",
        description="Boundary-configuration sampling, cocycle verification "
                    "and boundedness certification.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, model=True, sampled=True, tol_default=EPS_DIST):
        if model:
            p.add_argument("--model", default="S1", choices=MODELS)
            p.add_argument("--n", type=int, default=None,
                           help="hyperbolic dimension for Sn / complex_hyperbolic")
            p.add_argument("--size", type=int, default=3, help="tuple size")
        if sampled:  # a count of tuples and their tolerance
            p.add_argument("--count", type=int, default=1000)
            p.add_argument("--tol", type=float, default=tol_default)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--format", default="json", choices=["json", "csv"])
        p.add_argument("--out", default=None)

    p = sub.add_parser("sample", help="draw generic tuples")
    common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("invariant", help="evaluate an invariant over samples")
    common(p)
    p.add_argument("--invariant", default=None,
                   choices=list(INVARIANT_MODELS))
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("verify-cocycle",
                       help="empirical coboundary defect of Vol2 and Vol3")
    common(p, model=False, tol_default=1e-7)
    p.set_defaults(func=_cmd_verify_cocycle)

    p = sub.add_parser("certify-bound", help="run the doubling-recursion certifier")
    common(p, model=False, sampled=False)
    p.add_argument("--function", default="vol3-slice", choices=sorted(_FUNCTIONS))
    p.add_argument("--field", default="complex", choices=["real", "complex"])
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--grid", type=int, default=GridConfig().points_per_region)
    p.set_defaults(func=_cmd_certify_bound)

    p = sub.add_parser("probe-config-space",
                       help="histogram an invariant and report compactness")
    common(p)
    p.add_argument("--invariant", default=None,
                   choices=list(INVARIANT_MODELS))
    p.add_argument("--escape-hi", type=float, default=ESCAPE_HI_DEFAULT)
    p.add_argument("--escape-lo", type=float, default=ESCAPE_LO_DEFAULT)
    p.set_defaults(func=_cmd_probe)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        seed = args.seed if args.seed is not None else int(os.environ.get(SEED_ENV_VAR, 0))
        config, results, summary, code = args.func(args, seed)
        _write(ReportEnvelope(command=args.command, seed=seed, config=config,
                              results=results, summary=summary), args)
        return code
    except UnencodableReport as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    except BoundaryKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
