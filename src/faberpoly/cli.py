"""Command-line front end.

Subcommands
-----------
gen       write the coefficients of F_0 ... F_N for a map family
verify    run a named identity suite and write a machine-readable report
roots     write all roots of F_j for a range of indices
boundary  write samples of the boundary curve e^{i theta} exp(lam e^{-i theta})
kernel    write the coefficients of the kernel polynomials P_0 ... P_N

Complex numbers serialize as two-element [re, im] arrays in JSON and as
paired re/im columns in CSV.  All errors go to stderr as one JSON object
per line.  Exit codes: 0 pass, 1 check failure, 2 usage error,
3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from .faber import faber_system_from_recurrence, kernel_polys
from .maps import (BranchCutError, ExpMap, GapMap, Hypocycloid, Shift, TwoGapMap,
                   exp_map_boundary, to_exterior_map)
from .poly import RootFindingError
from .suites import SUITE_NAMES, run_suite

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(EXIT_USAGE)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": str(message)}) + "\n")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc


def _parse_complex_list(text: str) -> tuple[complex, ...]:
    return tuple(_parse_complex(part) for part in text.split(",") if part)


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="faberpoly",
                     description="Faber polynomials of exterior maps: "
                                 "generation, verification, roots, boundary data")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", required=True,
                       choices=["shift", "gap", "twogap", "hypocycloid", "expmap"])
        p.add_argument("--alpha0", type=_parse_complex, default=0j, help="shift constant")
        p.add_argument("--z0", type=_parse_complex, default=0j, help="gap-map center")
        p.add_argument("--eta", type=_parse_complex, default=0j, help="exponential-map center")
        p.add_argument("--lambda", dest="lam", type=_parse_complex, default=0.5 + 0j,
                       help="exponential-map tail parameter")
        p.add_argument("--m", type=int, default=1, help="hypocycloid order / first gap index")
        p.add_argument("--n", type=int, default=3, help="gap index")
        p.add_argument("--alpha-m", dest="alpha_m", type=_parse_complex, default=0.25 + 0j,
                       help="two-gap early coefficient")
        p.add_argument("--tail", type=_parse_complex_list, default=(0.2 + 0j,),
                       help="comma-separated tail coefficients alpha_n..alpha_M")

    def add_output(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_gen = sub.add_parser("gen", help="generate Faber coefficients")
    add_family(p_gen)
    p_gen.add_argument("--N", type=int, default=10)
    add_output(p_gen)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=list(SUITE_NAMES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--N", type=int, default=None)
    p_verify.add_argument("--tol", type=float, default=None)
    p_verify.add_argument("--lambda", dest="lam", type=_parse_complex, default=None)
    add_output(p_verify)

    p_roots = sub.add_parser("roots", help="roots of F_j over an index range")
    add_family(p_roots)
    p_roots.add_argument("--j-min", type=int, default=1)
    p_roots.add_argument("--j-max", type=int, default=10)
    add_output(p_roots)

    p_boundary = sub.add_parser("boundary", help="boundary curve samples")
    p_boundary.add_argument("--lambda", dest="lam", type=_parse_complex, default=0.5 + 0j)
    p_boundary.add_argument("--theta", type=float, default=None,
                            help="single angle; omit to sample a uniform grid")
    p_boundary.add_argument("--samples", type=int, default=64)
    add_output(p_boundary)

    p_kernel = sub.add_parser("kernel", help="kernel polynomial coefficients")
    p_kernel.add_argument("--lambda", dest="lam", type=_parse_complex, default=0.5 + 0j)
    p_kernel.add_argument("--N", type=int, default=10)
    add_output(p_kernel)

    return parser


def _family_from_args(args) -> tuple[object, dict]:
    if args.family == "shift":
        fam = Shift(args.alpha0)
        desc = {"family": "shift", "alpha0": _pair(args.alpha0)}
    elif args.family == "gap":
        fam = GapMap(args.z0, args.n, args.tail)
        desc = {"family": "gap", "z0": _pair(args.z0), "n": args.n,
                "tail": [_pair(c) for c in args.tail]}
    elif args.family == "twogap":
        fam = TwoGapMap(args.z0, args.m, args.alpha_m, args.n, args.tail)
        desc = {"family": "twogap", "z0": _pair(args.z0), "m": args.m,
                "alpha_m": _pair(args.alpha_m), "n": args.n,
                "tail": [_pair(c) for c in args.tail]}
    elif args.family == "hypocycloid":
        fam = Hypocycloid(args.m)
        desc = {"family": "hypocycloid", "m": args.m}
    elif args.family == "expmap":
        fam = ExpMap(args.eta, args.lam)
        desc = {"family": "expmap", "eta": _pair(args.eta), "lambda": _pair(args.lam)}
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {args.family}")
    return fam, desc


def _run_gen(args):
    fam, desc = _family_from_args(args)
    emap = to_exterior_map(fam, max(getattr(fam, "highest_index", 0), args.N))
    table = faber_system_from_recurrence(emap, args.N).coeffs
    pairs = np.stack((table.real, table.imag), -1)
    results = [pairs[j, :j + 1].tolist() for j in range(args.N + 1)]
    payload = {"command": "gen", "map": desc, "N": args.N,
               "results": results, "residuals": {}, "pass": True}
    return payload, True


def _run_verify(args):
    reports = run_suite(args.suite, seed=args.seed, n_highest=args.N,
                        tol=args.tol, lam=args.lam)
    results = [r.to_dict() for r in reports]
    residuals = {r.name: r.max_residual for r in reports}
    ok = all(r.passed for r in reports)
    payload = {"command": "verify",
               "map": {"suite": args.suite, "seed": args.seed},
               "N": args.N, "results": results, "residuals": residuals, "pass": ok}
    return payload, ok


def _run_roots(args):
    fam, desc = _family_from_args(args)
    if args.j_min < 1 or args.j_max < args.j_min:
        raise ValueError("need 1 <= j-min <= j-max")
    emap = to_exterior_map(fam, max(getattr(fam, "highest_index", 0), args.j_max))
    system = faber_system_from_recurrence(emap, args.j_max)
    results = []
    for j in range(args.j_min, args.j_max + 1):
        try:
            roots = system[j].roots()
        except RootFindingError as exc:
            raise RootFindingError(f"roots of F_{j} of {json.dumps(desc)}: {exc}",
                                   exc.roots, exc.residuals) from exc
        results.append({"j": j, "roots": [_pair(r) for r in roots]})
    payload = {"command": "roots", "map": desc, "N": args.j_max,
               "results": results, "residuals": {}, "pass": True}
    return payload, True


def _run_boundary(args):
    if args.theta is not None:
        thetas = [float(args.theta)]
    else:
        thetas = list(np.linspace(0.0, 2.0 * np.pi, args.samples, endpoint=False))
    results = [{"theta": th, "point": _pair(exp_map_boundary(args.lam, th))}
               for th in thetas]
    payload = {"command": "boundary", "map": {"family": "expmap", "lambda": _pair(args.lam)},
               "N": len(thetas), "results": results, "residuals": {}, "pass": True}
    return payload, True


def _run_kernel(args):
    polys = kernel_polys(args.lam, args.N)
    results = [[_pair(c) for c in p.coeffs] for p in polys]
    payload = {"command": "kernel", "map": {"family": "expmap", "lambda": _pair(args.lam)},
               "N": args.N, "results": results, "residuals": {}, "pass": True}
    return payload, True


def _write_csv(payload: dict, stream) -> None:
    writer = csv.writer(stream)
    command = payload["command"]
    if command in ("gen", "kernel"):
        width = max(len(row) for row in payload["results"])
        header = ["j"]
        for k in range(width):
            header += [f"re_{k}", f"im_{k}"]
        writer.writerow(header)
        for j, row in enumerate(payload["results"]):
            flat = []
            for k in range(width):
                re, im = row[k] if k < len(row) else (0.0, 0.0)
                flat += [repr(re), repr(im)]
            writer.writerow([j] + flat)
    elif command == "roots":
        writer.writerow(["j", "k", "re", "im"])
        for entry in payload["results"]:
            for k, (re, im) in enumerate(entry["roots"]):
                writer.writerow([entry["j"], k, repr(re), repr(im)])
    elif command == "boundary":
        writer.writerow(["theta", "re", "im"])
        for entry in payload["results"]:
            writer.writerow([repr(entry["theta"])] + [repr(v) for v in entry["point"]])
    elif command == "verify":
        writer.writerow(["name", "passed", "max_residual"])
        for entry in payload["results"]:
            writer.writerow([entry["name"], entry["passed"], repr(entry["max_residual"])])
    else:  # pragma: no cover
        raise ValueError(f"no CSV layout for {command}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    runners = {"gen": _run_gen, "verify": _run_verify, "roots": _run_roots,
               "boundary": _run_boundary, "kernel": _run_kernel}
    try:
        payload, ok = runners[args.command](args)
    except (BranchCutError, RootFindingError, ArithmeticError) as exc:
        _emit_error("non-convergence", str(exc))
        return EXIT_NONCONVERGENCE
    except (ValueError, TypeError) as exc:
        _emit_error("invalid-parameters", str(exc))
        return EXIT_USAGE
    buffer = io.StringIO()
    if args.format == "csv":
        _write_csv(payload, buffer)
    else:
        json.dump(payload, buffer, indent=2)
        buffer.write("\n")
    text = buffer.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
