"""Command-line front end.

Subcommands: synthesize, verify, trace, sample. Exit codes: 0 pass, 2 parse or
input validation, 3 budget/field-quality failure, 4 dynamics failure,
5 topology failure, 1 unexpected error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fileio
from .config import RunConfig
from .dynamics import IntegrationError, integrate
from .fileio import FileFormatError
from .pipeline import PipelineError, synthesize, verify

EXIT_PASS = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_DYNAMICS = 4
EXIT_TOPOLOGY = 5

# verify's exit code: the first row naming a failed criterion gives it
VERIFY_EXIT_CODES = (
    ({"cauchy_closedness", "strip_residual_budget"}, EXIT_BUDGET),
    ({"orbits_converged", "orbits_hyperbolic", "unit_determinant"}, EXIT_DYNAMICS),
    ({"orbits_confined", "hausdorff_distance", "linking_matrix"}, EXIT_TOPOLOGY),
    ({"eigen_relation"}, EXIT_BUDGET),
)


def _add_common(p: argparse.ArgumentParser) -> None:
    """Flags of both synthesize and verify."""
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="override the link file's Beltrami eigenvalue")
    p.add_argument("--eps-tilde", type=float, default=None,
                   help="per-tube strip residual tolerance")


def _add_tolerances(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rtol", type=float, default=None,
                   help="integrator relative tolerance")
    p.add_argument("--atol", type=float, default=None,
                   help="integrator absolute tolerance")


def _config_from_args(args, lam: float) -> RunConfig:
    """RunConfig with the flags that the subcommand defines and the user set."""
    overrides = {name: getattr(args, name)
                 for name in ("directions", "ridge", "rtol", "atol", "seed", "eps_tilde")
                 if getattr(args, name, None) is not None}
    return RunConfig(lam=lam, **overrides)


def cmd_synthesize(args) -> int:
    link = fileio.load_link(args.link, lam_override=args.lam)
    config = _config_from_args(args, link.lam)
    result = synthesize(link, config)
    fileio.save_field(result.expansion, args.out)
    report = {"schema": fileio.REPORT_SCHEMA, "kind": "synthesis",
              "lambda": link.lam, "config": config.to_dict(),
              "closedness": result.closedness,
              "fit": asdict(result.fit),
              "timings": result.timings}
    if args.report:
        fileio.write_report(report, args.report)
    fit = result.fit
    for i, (res, bud) in enumerate(zip(fit.tube_residuals, fit.tube_budgets)):
        state = "ok" if res < bud else "OVER BUDGET"
        print(f"tube {i}: strip residual {res:.3e} vs budget {bud:g} [{state}]")
    print(f"field written to {args.out} "
          f"({fit.basis_members} members, condition {fit.condition:.2e})")
    if not fit.success:
        print(f"budget failure: {fit.advice}", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_PASS


def cmd_verify(args) -> int:
    link = fileio.load_link(args.link, lam_override=args.lam)
    expansion = fileio.load_field(args.field)
    config = _config_from_args(args, link.lam)
    outcome = verify(link, expansion, config)
    if args.report:
        fileio.write_report(outcome.report, args.report)
    for crit in outcome.report["criteria"]:
        state = "pass" if crit["passed"] else "FAIL"
        print(f"[{state}] {crit['name']}: {crit['detail']}")
    failed = {c["name"] for c in outcome.report["criteria"] if not c["passed"]}
    return next((code for names, code in VERIFY_EXIT_CODES if names & failed), EXIT_PASS)


def cmd_trace(args) -> int:
    expansion = fileio.load_field(args.field)
    seeds = fileio.load_seeds(args.seeds)
    if not (np.isfinite(args.t_end) and args.t_end >= 0):
        raise FileFormatError("t-end must be finite and >= 0")
    if args.samples < 2:
        raise FileFormatError("samples must be >= 2")
    tol = _config_from_args(args, RunConfig.lam)  # checks rtol and atol
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for i, seed in enumerate(seeds):
        path = out_dir / f"trace_{i:03d}.csv"
        try:
            traj = integrate(expansion, seed, args.t_end, rtol=tol.rtol,
                             atol=tol.atol, n_samples=args.samples)
        except IntegrationError as exc:
            print(f"seed {i}: integration failed: {exc}", file=sys.stderr)
            failures += 1
            continue
        fileio.write_table(path, ["t", "x", "y", "z"], [traj.t, *traj.x.T])
        print(f"seed {i}: wrote {path}")
    return EXIT_DYNAMICS if failures else EXIT_PASS


def _parse_grid(spec: str):
    axes = spec.split(",")
    if len(axes) != 3:
        raise FileFormatError("grid spec must be three comma-separated axes, "
                              "each lo:hi:count")
    out = []
    for ax in axes:
        parts = ax.split(":")
        if len(parts) != 3:
            raise FileFormatError(f"axis {ax!r} must be lo:hi:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise FileFormatError(f"axis {ax!r}: {exc}") from exc
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise FileFormatError(f"axis {ax!r}: bounds must be finite")
        if count < 2:
            raise FileFormatError(f"axis {ax!r}: need at least 2 samples per axis")
        out.append(np.linspace(lo, hi, count))
    return out


def cmd_sample(args) -> int:
    expansion = fileio.load_field(args.field)
    gx, gy, gz = _parse_grid(args.grid)
    xs, ys, zs = np.meshgrid(gx, gy, gz, indexing="ij")
    pts = np.column_stack([xs.ravel(), ys.ravel(), zs.ravel()])
    u = expansion(pts)
    fileio.write_table(args.out, ["x", "y", "z", "ux", "uy", "uz"],
                       [pts[:, 0], pts[:, 1], pts[:, 2],
                        u[:, 0], u[:, 1], u[:, 2]])
    print(f"wrote {pts.shape[0]} samples to {args.out}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotflows",
        description="Synthesize and verify global Beltrami fields with "
                    "prescribed linked periodic stream lines.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_syn = sub.add_parser("synthesize",
                           help="fit a Beltrami expansion to a link file")
    p_syn.add_argument("--link", required=True, help="link-spec file")
    p_syn.add_argument("--out", required=True, help="output field file")
    p_syn.add_argument("--report", default=None, help="optional fit report path")
    _add_common(p_syn)
    p_syn.add_argument("--directions", type=int, default=None,
                       help="number of quasi-uniform wave directions")
    p_syn.add_argument("--ridge", type=float, default=None,
                       help="Tikhonov ridge weight")
    p_syn.add_argument("--seed", type=int, default=None,
                       help="random seed for direction jitter")
    p_syn.set_defaults(func=cmd_synthesize)

    p_ver = sub.add_parser("verify",
                           help="verify a field file against a link file")
    p_ver.add_argument("--field", required=True, help="field file")
    p_ver.add_argument("--link", required=True, help="link-spec file")
    p_ver.add_argument("--report", default=None, help="verification report path")
    _add_common(p_ver)
    _add_tolerances(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_tr = sub.add_parser("trace", help="integrate stream lines from seed points")
    p_tr.add_argument("--field", required=True, help="field file")
    p_tr.add_argument("--seeds", required=True, help="seeds file")
    p_tr.add_argument("--t-end", type=float, required=True,
                      help="integration time per seed, finite and >= 0")
    p_tr.add_argument("--out", required=True, help="output directory")
    p_tr.add_argument("--samples", type=int, default=1024,
                      help="polyline samples per trace, at least 2")
    _add_tolerances(p_tr)
    p_tr.set_defaults(func=cmd_trace)

    p_sm = sub.add_parser("sample", help="tabulate field values on a grid")
    p_sm.add_argument("--field", required=True, help="field file")
    p_sm.add_argument("--grid", required=True,
                      help="grid spec: x0:x1:nx,y0:y1:ny,z0:z1:nz")
    p_sm.add_argument("--out", required=True, help="output table path")
    p_sm.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, matching the parse exit code
        return int(exc.code) if exc.code else EXIT_PASS
    try:
        return args.func(args)
    except ValueError as exc:
        if isinstance(exc, np.linalg.LinAlgError):
            # a ValueError subclass, but a numerical failure, not an input error
            return _unexpected(exc)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # pragma: no cover - last-resort diagnostics
        return _unexpected(exc)


def _unexpected(exc: Exception) -> int:
    print(f"unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
