"""Batch front door: validate specs, emit tables, certificates, contours.

Exit codes: 0 ok, 2 parse or argument error, 3 validation/assumption failure,
4 divergent coupling, 5 quadrature failure. The environment variable
BIMOMENT_TOL overrides the base quadrature tolerance and must be a positive
finite number (exit 2 otherwise). Output formatting is fixed at 17
significant digits so identical inputs produce byte-identical files.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import errors
from .favard import favard_reconstruct, favard_verify, recurrence_from_json_dict
from .quadrature import (
    asymptotic_check,
    default_tolerance,
    independence_certificate,
    make_setup,
)
from .semiclassical import recurrence_residual, spec_from_json_dict
from .weights import contour_to_json_dict, normalize_potential

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIVERGENT = 4
EXIT_NUMERICS = 5

# library errors that end a command: exit code and stderr line; {name} is
# the exception's class name
_EXITS = (
    (errors.DivergentCoupling, EXIT_DIVERGENT, "divergent coupling: {exc}"),
    ((errors.QuadratureStall, errors.DivergentTail), EXIT_NUMERICS,
     "quadrature failure: {name}: {exc}"),
    ((errors.AssumptionBViolated, errors.ZeroGamma), EXIT_VALIDATION,
     "validation failed: {exc}"),
)


class _Refused(Exception):
    """Input refused at the command line boundary: one stderr line and an
    exit code."""

    def __init__(self, code: int, line: str):
        super().__init__(line)
        self.code = code


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Refused(EXIT_PARSE, f"error: cannot parse {path}: {exc}")


def _load_spec(path: str):
    data = _load_json(path)
    try:
        return spec_from_json_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _Refused(EXIT_PARSE, f"error: malformed spec file: {exc}")
    except (errors.AssumptionAViolated, errors.AssumptionBViolated,
            errors.DegenerateQuadratic) as exc:
        raise _Refused(EXIT_VALIDATION,
                       f"validation failed: {type(exc).__name__}: {exc}")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_validate(args) -> int:
    spec = _load_spec(args.spec)
    print(f"degrees: deg A1 = {spec.a1 + 1}, deg B1 = {spec.b1 + 1}, "
          f"deg A2 = {spec.a2 + 1}, deg B2 = {spec.b2 + 1}")
    print(f"case {spec.case}, s1={spec.s1} s2={spec.s2} M={spec.M}")
    if spec.determinant is not None:
        print(f"leading determinant = {_fmt(spec.determinant.real)}"
              f"{spec.determinant.imag:+.17g}j")
    if spec.reducible:
        side = "A1,B1" if spec.shared1 else "A2,B2"
        print(f"note: pair ({side}) shares a root; reducible spec")
    print("assumptions: OK")
    return EXIT_OK


def cmd_moments(args) -> int:
    spec = _load_spec(args.spec)
    if args.order < 0:
        raise _Refused(EXIT_PARSE, f"error: --order must be >= 0, got {args.order}")
    setup = make_setup(spec)
    try:
        handle = setup.handle(args.contour_x - 1, args.contour_y - 1)
    except IndexError:
        raise _Refused(EXIT_PARSE,
                       f"error: --contour-x {args.contour_x} --contour-y {args.contour_y} "
                       f"outside 1..{len(setup.contours_x)} x 1..{len(setup.contours_y)}")
    table, err = handle.table_with_errors(args.order)
    resid = recurrence_residual(spec, table)
    _write(args.out, table.to_csv(err=err, comment=f"recurrence_residual = {_fmt(resid)}"))
    return EXIT_OK


def cmd_certify(args) -> int:
    spec = _load_spec(args.spec)
    if args.order < 0:
        raise _Refused(EXIT_PARSE, f"error: --order must be >= 0, got {args.order}")
    setup = make_setup(spec)
    handles = list(setup.handles)
    k = args.repeat_functional
    if k is not None:
        if not 0 <= k < len(handles):
            raise _Refused(EXIT_PARSE, f"error: --repeat-functional {k} "
                                       f"outside 0..{len(handles) - 1}")
        handles.append(handles[k])
    entries = (args.order + 1) ** 2
    if entries < len(handles):
        raise _Refused(EXIT_PARSE, f"error: --order {args.order}: (N+1)^2 = {entries} "
                                   f"is less than the {len(handles)} functionals")
    report = independence_certificate(handles, args.order)
    residuals = [recurrence_residual(spec, h.table(args.order)) for h in handles]
    print(f"rank {report.rank}/{report.expected}")
    print(f"sigma_min/sigma_max = {_fmt(report.sv_ratio)}")
    for h, r in zip(handles, residuals):
        print(f"functional ({h.i + 1},{h.j + 1}): recurrence residual {_fmt(r)}")
    ok = report.passed and all(r <= args.residual_tol for r in residuals)
    if not args.skip_asymptotics and setup.wx.d >= 1:
        try:
            wn, _ = normalize_potential(setup.wx)
            zs = [m * np.exp(-1j * np.pi / (4 * (wn.d + 1))) for m in (20.0, 30.0, 40.0)]
            rep = asymptotic_check(wn, 0, zs)
            print(f"asymptotics k=0: ratios "
                  + " ".join(_fmt(r) for r in rep.ratios)
                  + f" slope {_fmt(rep.slope)}")
        except errors.BimomentError as exc:
            print(f"asymptotics skipped: {type(exc).__name__}: {exc}")
    print("certificate:", "PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_NUMERICS


def cmd_contours(args) -> int:
    setup = make_setup(_load_spec(args.spec))
    wspec = setup.wx if args.marginal == "x" else setup.wy
    contours = setup.contours_x if args.marginal == "x" else setup.contours_y
    payload = [contour_to_json_dict(c, wspec) for c in contours]
    _write(args.out, json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_favard(args) -> int:
    data = _load_json(args.rec)
    try:
        rec = recurrence_from_json_dict(data)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise _Refused(EXIT_PARSE, f"error: malformed recurrence file: {exc}")
    if not 0 <= args.order <= rec.order:
        raise _Refused(EXIT_PARSE, f"error: --order {args.order} outside 0..{rec.order}, "
                                   "the order of the recurrence data")
    table = favard_reconstruct(rec, args.order)
    resid = favard_verify(rec, table)
    _write(args.out, table.to_csv(comment=f"roundtrip_residual = {_fmt(resid)}"))
    return EXIT_OK


def _write(path, text: str):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bimoment",
        description="bilinear semiclassical moment functionals: tables, "
                    "contours, and structural certificates",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a spec file and print its classification")
    p.add_argument("spec")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("moments", help="bimoment table of one fundamental functional")
    p.add_argument("spec")
    p.add_argument("--contour-x", type=int, default=1, metavar="I")
    p.add_argument("--contour-y", type=int, default=1, metavar="J")
    p.add_argument("--order", type=int, default=4, metavar="N")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("certify", help="rank/independence and residual certificates")
    p.add_argument("spec")
    p.add_argument("--order", type=int, default=4, metavar="N")
    p.add_argument("--residual-tol", type=float, default=1e-6)
    p.add_argument("--skip-asymptotics", action="store_true")
    p.add_argument("--repeat-functional", type=int, default=None, metavar="K",
                   help="diagnostic: append a duplicate of functional K (0-based) "
                        "to force rank deficiency")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("contours", help="dump contour polylines as JSON")
    p.add_argument("spec")
    p.add_argument("--marginal", choices=("x", "y"), default="x")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_contours)

    p = sub.add_parser("favard", help="reconstruct a table from recurrence data")
    p.add_argument("rec")
    p.add_argument("--order", type=int, default=6, metavar="N")
    p.add_argument("--out", default="-")
    p.set_defaults(fn=cmd_favard)

    args = ap.parse_args(argv)
    try:
        default_tolerance()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.fn(args)
    except _Refused as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except errors.BimomentError as exc:
        for types, code, line in _EXITS:
            if isinstance(exc, types):
                print(line.format(name=type(exc).__name__, exc=exc), file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
