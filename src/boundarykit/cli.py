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


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return 0


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


def _config_from_args(args, seed: int) -> SamplerConfig:
    model = args.model
    dim = args.n if args.n is not None else (3 if model == "complex_hyperbolic" else 2)
    return SamplerConfig(model=model, tuple_size=args.size, count=args.count,
                         seed=seed, tolerance=args.tol, dim=dim)


def _cmd_sample(args) -> int:
    seed = _resolve_seed(args)
    config = _config_from_args(args, seed)
    results, stats = sample_columns(config)
    summary = {"tuples": config.count, **stats}
    envelope = ReportEnvelope(command="sample", seed=seed, config=config.echo(),
                              results=results, summary=summary)
    _write(envelope, args)
    return 0


def _resolve_invariant(args, config) -> str:
    name = args.invariant or _DEFAULT_INVARIANTS.get(config.model)
    if name is None:
        raise UnknownInvariant(
            f"no invariant is defined for model {config.model!r}; pass --invariant")
    return name


def _cmd_invariant(args) -> int:
    seed = _resolve_seed(args)
    config = _config_from_args(args, seed)
    name = _resolve_invariant(args, config)
    results, summary = summarize_invariant(name, invariant_values(config, name))
    envelope = ReportEnvelope(command="invariant", seed=seed,
                              config={**config.echo(), "invariant": name},
                              results=results, summary=summary)
    _write(envelope, args)
    return 0


def _cmd_verify_cocycle(args) -> int:
    seed = _resolve_seed(args)
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
    envelope = ReportEnvelope(command="verify-cocycle", seed=seed,
                              config={"count": args.count, "tolerance": args.tol},
                              results=rows, summary=summary)
    _write(envelope, args)
    return 0 if all_passed else 1


def _cmd_certify_bound(args) -> int:
    seed = _resolve_seed(args)
    if args.delta is None:
        args.delta = DEFAULT_DELTA[args.field]
    F = _FUNCTIONS[args.function](args.field)
    grid = GridConfig(points_per_region=args.grid)
    config = {"function": args.function, "field": args.field,
              "delta": args.delta, "grid": args.grid}
    try:
        if args.field == "complex":
            cert = certify_complex_region(F, delta=args.delta, grid=grid)
        else:
            cert = certify_interval(F, delta=args.delta, grid=grid)
    except UnboundedDefect as exc:
        results = [{"function": args.function, "refused": True,
                    "reason": str(exc)}]
        summary = {"refused": True, "reason": str(exc)}
    else:
        c_value = cert.inputs["B_defect"] + 2.0 * cert.inputs["M_near2"]
        row = {"function": args.function, "field": args.field,
               "kind": cert.region.kind, "delta": cert.region.delta,
               "certified_bound": cert.certified_bound, "C": c_value,
               "k_max": cert.k_max}
        for key in sorted(cert.inputs):
            row[key] = cert.inputs[key]
        for key in sorted(cert.provenance):
            row[f"provenance_{key}"] = cert.provenance[key]
        results = [row]
        summary = {"certificate": {"region": asdict(cert.region),
                                   "certified_bound": cert.certified_bound,
                                   "inputs": cert.inputs, "k_max": cert.k_max,
                                   "provenance": cert.provenance},
                   "refused": False}
    envelope = ReportEnvelope(command="certify-bound", seed=seed, config=config,
                              results=results, summary=summary)
    _write(envelope, args)
    return 1 if summary["refused"] else 0


def _cmd_probe(args) -> int:
    seed = _resolve_seed(args)
    config = _config_from_args(args, seed)
    name = _resolve_invariant(args, config)
    envelope = compactness_probe(name, config,
                                 escape_hi=args.escape_hi, escape_lo=args.escape_lo)
    _write(envelope, args)
    return 0


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
