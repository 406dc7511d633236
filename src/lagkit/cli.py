"""Command line front end.

Subcommands:
  check       run the verification suite on a catalog entry or .imm file
  construct   build the circle product of a Legendrian input
  crosscheck  compare jet derivatives against finite differences
  catalog     list the built-in examples

Exit status: 0 success, 1 a check or comparison failed, 2 usage error (bad
arguments, unknown spec, unparseable input) or output that cannot be written.

construct imports products, and crosscheck findiff, when they run, so a
`check` or `catalog` process loads neither.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from .ambient import AmbientQuadric
from .catalog import catalog_entry, catalog_names
from .checks import SampleConfig, run_suite
from .dsl import ImmersionSpec, parse, serialize
from .errors import LagkitError
from .sampling import sample_points

_CROSSCHECK_STEP = {1: 1e-4, 2: 1e-4, 3: 1e-2}
_CROSSCHECK_TOL = {1: 1e-6, 2: 1e-6, 3: 1e-3}


class _UsageError(Exception):
    pass


def _require(ok, message: str):
    if not ok:
        raise _UsageError(message)


def _load_spec(ref: str) -> ImmersionSpec:
    """Catalog name (its spec carries the declared quadric) or path to a DSL file."""
    if ref in catalog_names():
        return catalog_entry(ref).spec
    if os.path.exists(ref):
        try:
            with open(ref, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _UsageError(f"cannot read {ref}: {exc}") from exc
        try:
            spec = parse(text)
        except LagkitError as exc:
            raise _UsageError(f"cannot parse {ref}: {exc}") from exc
        name = os.path.splitext(os.path.basename(ref))[0]
        return spec.replace(name=name)
    raise _UsageError(
        f"{ref!r} is neither a catalog name nor an existing file; "
        f"catalog: {', '.join(catalog_names())}"
    )


def _parse_quadric(text: str, spec: ImmersionSpec) -> AmbientQuadric:
    """--quadric S:C with S the ambient index and C the curvature sign."""
    try:
        s_text, c_text = text.split(":", 1)
        s, c = int(s_text), float(c_text)
    except ValueError:
        raise _UsageError(f"--quadric expects S:C (e.g. 0:1 or 1:-1), got {text!r}")
    _require(
        s == spec.signature.s,
        f"--quadric index {s} does not match the spec signature index {spec.signature.s}",
    )
    try:
        return AmbientQuadric(c)
    except ValueError as exc:
        raise _UsageError(f"--quadric: {exc}") from exc


def _config(args) -> SampleConfig:
    """The SampleConfig of the sampling flags; one it refuses is a usage error."""
    try:
        return SampleConfig(args.samples, args.seed, args.tol)
    except ValueError as exc:
        raise _UsageError(f"bad sampling flag: {exc}") from exc


def _emit(text: str, out_path: str | None):
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {out_path}: {exc}") from exc


def _format_report(report) -> str:
    lines = [f"spec: {report.spec_name}"]
    if report.sphere_fit is not None:
        fit = report.sphere_fit
        lines.append(
            f"quadric fit: signed r^2 = {fit.radius_sq_signed:.9g}, "
            f"rms residual = {fit.rms_residual:.3e}"
        )
    width = max(len(name) for name in report.checks)
    for name, e in report.checks.items():
        if e.status == "skipped":
            lines.append(f"  {name:<{width}}  SKIP   ({e.reason})")
        elif e.status == "error":
            lines.append(f"  {name:<{width}}  ERROR  ({e.reason})")
        else:
            verdict = "pass" if e.passed else "FAIL"
            lines.append(
                f"  {name:<{width}}  {verdict}   max {e.max_residual:.3e}"
                f"  tol {e.tolerance:.1e}  ({e.points_evaluated} pts)"
            )
    lines.append("result: " + ("pass" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


def _cmd_check(args) -> int:
    spec = _load_spec(args.spec)
    # without --quadric, run_suite checks against the spec's declared quadric
    quadric = None if args.quadric is None else _parse_quadric(args.quadric, spec)
    checks = args.checks and [c.strip() for c in args.checks.split(",") if c.strip()]
    _require(args.checks is None or checks, f"--checks {args.checks!r} names no check")
    report = run_suite(spec, _config(args), quadric=quadric, checks=checks)
    _emit(report.to_json() if args.json else _format_report(report), args.out)
    return 0 if report.passed else 1


def _cmd_construct(args) -> int:
    from .products import circle_product

    spec = _load_spec(args.spec)
    cfg = _config(args) if args.verify else None
    try:
        product = circle_product(spec, t_name=args.t_name)
        text = serialize(product)
        parse(text)  # one level deeper than the input: it may pass dsl.MAX_DEPTH
    except (LagkitError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc
    _emit(text, args.out)
    if args.verify:
        report = run_suite(product, cfg, quadric=None)
        sys.stdout.write(_format_report(report))
        return 0 if report.passed else 1
    return 0


def _cmd_crosscheck(args) -> int:
    from .findiff import jet_fd_comparison

    spec = _load_spec(args.spec)
    _require(args.points >= 1, f"--points must be at least 1, got {args.points}")
    _require(args.step is None or args.step > 0, f"--step must be positive, got {args.step!r}")
    orders = [args.order] if args.order else [1, 2, 3]
    failed = False
    for order in orders:
        step = args.step if args.step is not None else _CROSSCHECK_STEP[order]
        tol = _CROSSCHECK_TOL[order]
        points = sample_points(
            spec,
            args.points,
            args.seed,
            extra_margin=2.0 * order * step * 1.01,
        )
        # each point is judged against tol * max(1, max |fd|) at that point; the
        # line prints the deviation and scale of the point with the largest ratio
        worst, ok = (-1.0, 0.0, 1.0), True
        for pt in points:
            dev, size = jet_fd_comparison(spec, pt, order, step)[order]
            scale = max(1.0, size)
            ok = ok and dev <= tol * scale
            worst = max(worst, (dev / scale, dev, scale))
        _, dev, scale = worst
        failed = failed or not ok
        print(
            f"order {order}: worst |jet - fd| = {dev:.3e} "
            f"(step {step:.0e}, tol {tol:.0e} x scale {scale:.3e}) {'pass' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


def _cmd_catalog(args) -> int:
    rows = []
    for name in catalog_names():
        entry = catalog_entry(name)
        sig, quad = entry.spec.signature, entry.quadric
        rows.append(dict(name=name, params=entry.spec.num_params, ambient=f"C^{sig.n}_{sig.s}",
                         quadric="-" if quad is None else f"c={quad.c:g}", summary=entry.summary))
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    width = max(len(r["name"]) for r in rows)
    for r in rows:
        print(
            f"{r['name']:<{width}}  {r['params']} -> {r['ambient']:<6} "
            f"{r['quadric']:<6} {r['summary']}"
        )
    return 0


def _add_sampling_args(p):
    p.add_argument("--samples", type=int, default=SampleConfig.num_points,
                   help="sample points per check")
    p.add_argument("--seed", type=int, default=SampleConfig.seed, help="sampling seed")
    p.add_argument("--tol", type=float, default=SampleConfig.tol, help="tolerance of every check")


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        """argparse drops the OSError of a failed write: one to stdout reaches main."""
        if file is not sys.stdout:
            return super()._print_message(message, file)
        file.write(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="lagkit", description="Lagrangian immersion verification kernel")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run the verification suite")
    p.add_argument("spec", help="catalog name or path to a .imm file")
    _add_sampling_args(p)
    p.add_argument("--json", action="store_true", help="emit the JSON report")
    p.add_argument("--out", help="write the report to this file instead of stdout")
    p.add_argument("--checks", help="comma-separated subset of checks to run")
    p.add_argument(
        "--quadric",
        help="declare the ambient quadric as S:C (index, curvature), e.g. 1:-1",
    )
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("construct", help="circle product of a Legendrian input")
    p.add_argument("spec", help="catalog name or path to a .imm file")
    p.add_argument("--t-name", default="t", help="name for the new angle parameter")
    p.add_argument("--out", help="write the constructed spec to this file")
    p.add_argument(
        "--verify", action="store_true", help="run the verification suite on the product"
    )
    _add_sampling_args(p)
    p.set_defaults(fn=_cmd_construct)

    p = sub.add_parser("crosscheck", help="jet derivatives vs finite differences")
    p.add_argument("spec", help="catalog name or path to a .imm file")
    p.add_argument("--order", type=int, choices=(1, 2, 3), help="single order (default all)")
    p.add_argument("--step", type=float, help="finite difference step (default per order)")
    p.add_argument("--points", type=int, default=5, help="sample points")
    p.add_argument("--seed", type=int, default=SampleConfig.seed, help="sampling seed")
    p.set_defaults(fn=_cmd_crosscheck)

    p = sub.add_parser("catalog", help="list built-in examples")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(fn=_cmd_catalog)

    return top


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            status = args.fn(args)
        except SystemExit as exc:
            # argparse exits 2 on usage errors and 0 on --help; fold both through
            status = int(exc.code or 0)
        sys.stdout.flush()  # an unwritable stdout shows here, not at shutdown
        return status
    except (_UsageError, LagkitError) as exc:
        print(f"lagkit: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a sample count no memory holds, met past sampling
        print(f"lagkit: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the commands catch their own file errors: this is stdout's
        # a closed pipe or a full disk: the shutdown flush then writes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"lagkit: cannot write stdout: {exc}", file=sys.stderr)
        return 2


def run():
    """The process entry (`python -m lagkit.cli`, the `lagkit` script): exit
    with main's status, its output flushed. The objects alive then are frozen,
    so the exit-time collections skip them; the OS frees them anyway."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
