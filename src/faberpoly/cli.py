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
import cmath
import csv
import json
import sys
from dataclasses import fields

import numpy as np

from .faber import _cut_map, faber_system_from_recurrence, kernel_polys
from .maps import FAMILIES, BranchCutError, ExpMap, exp_map_boundary, to_exterior_map
from .poly import faber_roots
from .suites import SUITE_NAMES, _named, run_suite

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NONCONVERGENCE = 3

#: boundary and kernel describe the exponential map by lambda alone
_EXP_FAMILY = next(name for name, cls in FAMILIES.items() if cls is ExpMap)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(EXIT_USAGE)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": str(message)}) + "\n")


def _parse_complex(text: str) -> complex:
    try:
        value = complex(text.replace(" ", ""))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}") from exc
    if not cmath.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _parse_real(text: str) -> float:
    value = _parse_complex(text)
    if value.imag:
        raise argparse.ArgumentTypeError(f"not a real number: {text!r}")
    return value.real


def _parse_complex_list(text: str) -> tuple[complex, ...]:
    return tuple(_parse_complex(part) for part in text.split(",") if part)


#: options that take a number, or a comma-separated list of numbers
_NUMBER_OPTIONS = ("--lambda", "--alpha0", "--z0", "--eta", "--alpha-m", "--tail",
                   "--tol", "--theta")


def _is_number_list(text: str) -> bool:
    try:
        return bool([complex(part.replace(" ", "")) for part in text.split(",") if part])
    except ValueError:
        return False


def _attach_numbers(argv: list[str]) -> list[str]:
    """Join a number that starts with "-" to the option before it, as in
    ``--lambda=-0.7+0.2j``: argparse reads only plain negative decimals
    such as -0.7 as values, and anything else that starts with "-" (-1j,
    -1e-3) as an option."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _NUMBER_OPTIONS and arg.startswith("-") and _is_number_list(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


#: each family option by field name: its flag, parser, default and help
_FAMILY_OPTIONS = {
    "alpha0": ("--alpha0", _parse_complex, 0j, "shift constant"),
    "z0": ("--z0", _parse_complex, 0j, "gap-map center"),
    "eta": ("--eta", _parse_complex, 0j, "exponential-map center"),
    "lam": ("--lambda", _parse_complex, 0.5 + 0j, "exponential-map tail parameter"),
    "m": ("--m", int, 1, "hypocycloid order / first gap index"),
    "n": ("--n", int, 3, "gap index"),
    "alpha_m": ("--alpha-m", _parse_complex, 0.25 + 0j, "two-gap early coefficient"),
    "tail": ("--tail", _parse_complex_list, (0.2 + 0j,),
             "comma-separated tail coefficients alpha_n..alpha_M"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="faberpoly",
                     description="Faber polynomials of exterior maps: "
                                 "generation, verification, roots, boundary data")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", required=True, choices=list(FAMILIES))
        for dest, (flag, parse, _, text) in _FAMILY_OPTIONS.items():
            p.add_argument(flag, dest=dest, type=parse, default=argparse.SUPPRESS, help=text)

    def add_output(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p_gen = sub.add_parser("gen", help="generate Faber coefficients")
    add_family(p_gen)
    p_gen.add_argument("--N", type=int, default=10)
    add_output(p_gen)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True, choices=list(SUITE_NAMES) + ["all"])
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--N", type=int, default=None)
    p_verify.add_argument("--tol", type=_parse_real, default=None)
    p_verify.add_argument("--lambda", dest="lam", type=_parse_complex, default=None)
    add_output(p_verify)

    p_roots = sub.add_parser("roots", help="roots of F_j over an index range")
    add_family(p_roots)
    p_roots.add_argument("--j-min", type=int, default=1)
    p_roots.add_argument("--j-max", type=int, default=10)
    add_output(p_roots)

    p_boundary = sub.add_parser("boundary", help="boundary curve samples")
    p_boundary.add_argument("--lambda", dest="lam", type=_parse_complex, default=0.5 + 0j)
    angles = p_boundary.add_mutually_exclusive_group()
    angles.add_argument("--theta", type=_parse_real, default=None,
                        help="single angle; omit to sample a uniform grid")
    angles.add_argument("--samples", type=int, default=None, help="grid size (default 64)")
    add_output(p_boundary)

    p_kernel = sub.add_parser("kernel", help="kernel polynomial coefficients")
    p_kernel.add_argument("--lambda", dest="lam", type=_parse_complex, default=0.5 + 0j)
    p_kernel.add_argument("--N", type=int, default=10)
    add_output(p_kernel)

    return parser


def _family_from_args(args) -> tuple[object, dict]:
    """The --family member built from the options named like its fields, in
    field order (an option not given takes its default), and its JSON
    description from the same values.  A ValueError names the family and
    every other family option given."""
    names = [f.name for f in fields(FAMILIES[args.family])]
    foreign = [flag for dest, (flag, *_) in _FAMILY_OPTIONS.items()
               if dest not in names and hasattr(args, dest)]
    if foreign:
        raise ValueError(f"family {args.family!r} takes no {' or '.join(foreign)}")
    values = [getattr(args, name, _FAMILY_OPTIONS[name][2]) for name in names]
    desc = {"family": args.family}
    for name, value in zip(names, values):
        desc["lambda" if name == "lam" else name] = (
            [_pair(c) for c in value] if isinstance(value, tuple)
            else value if isinstance(value, int) else _pair(value))
    return FAMILIES[args.family](*values), desc


def _family_table(fam, n_highest: int) -> tuple[np.ndarray, np.ndarray]:
    """The cut map of a family member and its recurrence table F_0 ... F_N."""
    a = _cut_map(to_exterior_map(fam, n_highest))
    return a, faber_system_from_recurrence(a, n_highest)


def _run_gen(args):
    fam, desc = _family_from_args(args)
    return desc, args.N, _family_table(fam, args.N)[1], {}, True


def _run_verify(args):
    reports = run_suite(args.suite, seed=args.seed, n_highest=args.N,
                        tol=args.tol, lam=args.lam)
    return ({"suite": args.suite, "seed": args.seed or 0}, args.N,
            [r.to_dict() for r in reports], {r.name: r.max_residual for r in reports},
            all(r.passed for r in reports))


def _run_roots(args):
    fam, desc = _family_from_args(args)
    if args.j_min < 1 or args.j_max < args.j_min:
        raise ValueError("need 1 <= j-min <= j-max")
    a, table = _family_table(fam, args.j_max)
    indices = range(args.j_min, args.j_max + 1)
    with _named(f"family {json.dumps(desc)}"):
        found = faber_roots(a, table, indices)
    results = [{"j": j, "roots": [_pair(r) for r in roots.tolist()]}
               for j, roots in zip(indices, found)]
    return desc, args.j_max, results, {}, True


def _run_boundary(args):
    samples = 64 if args.samples is None else args.samples
    if samples < 1:
        raise ValueError(f"--samples must be at least 1, got {samples}")
    thetas = ([float(args.theta)] if args.theta is not None
              else np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False).tolist())
    results = []
    for th in thetas:
        with np.errstate(all="ignore"):
            point = exp_map_boundary(args.lam, th)
        if not cmath.isfinite(point):
            raise ArithmeticError(f"the boundary point at theta={th}, lambda={args.lam} "
                                  f"is not finite in float64")
        results.append({"theta": th, "point": _pair(point)})
    return {"family": _EXP_FAMILY, "lambda": _pair(args.lam)}, len(thetas), results, {}, True


def _run_kernel(args):
    table = kernel_polys(args.lam, args.N)
    return {"family": _EXP_FAMILY, "lambda": _pair(args.lam)}, args.N, table, {}, True


#: one coefficient of a table row, as json.dump(..., indent=2) lays it out
_JSON_PAIR = "\n      [\n        %r,\n        %r\n      ]"


def _write_json(payload: dict, stream) -> None:
    """Write the payload as json.dump(payload, stream, indent=2) does, and a newline.

    The lower-triangular coefficient table of gen and kernel is written
    here, row j by one %r template of j + 1 [re, im] pairs, in place of
    "results" in the envelope.  Rows go to the stream one at a time, so no
    copy of the whole text is ever held."""
    table = payload["results"]
    if not isinstance(table, np.ndarray):
        stream.write(json.dumps(payload, indent=2) + "\n")
        return
    envelope = json.dumps({**payload, "results": None}, indent=2)
    head, _, tail = envelope.partition('"results": null')
    values = table.view(float)                    # re and im interleaved
    stream.write(head + '"results": [\n')
    for j in range(len(table)):
        stream.write(("    [" + ",".join([_JSON_PAIR] * (j + 1)) + "\n    ]")
                     % tuple(values[j, :2 * j + 2].tolist()))
        stream.write(",\n" if j < len(table) - 1 else "\n  ]")
    stream.write(tail + "\n")


def _write_csv(payload: dict, stream) -> None:
    writer = csv.writer(stream)
    command = payload["command"]
    if command in ("gen", "kernel"):
        table = payload["results"]
        width = len(table)
        writer.writerow(["j"] + [f"{part}_{k}" for k in range(width) for part in ("re", "im")])
        values = table.view(float)                # re and im interleaved
        for j in range(width):
            writer.writerow([j] + [repr(x) for x in values[j, :2 * j + 2].tolist()]
                            + ["0.0"] * (2 * (width - 1 - j)))
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


#: the parser main() builds on its first call and reuses after that
_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(_attach_numbers(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    runners = {"gen": _run_gen, "verify": _run_verify, "roots": _run_roots,
               "boundary": _run_boundary, "kernel": _run_kernel}
    try:
        desc, n, results, residuals, ok = runners[args.command](args)
    except (BranchCutError, ArithmeticError) as exc:
        _emit_error("non-convergence", str(exc))
        return EXIT_NONCONVERGENCE
    except (ValueError, TypeError) as exc:
        _emit_error("invalid-parameters", str(exc))
        return EXIT_USAGE
    payload = {"command": args.command, "map": desc, "N": n,
               "results": results, "residuals": residuals, "pass": ok}
    write = _write_csv if args.format == "csv" else _write_json
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                write(payload, fh)
        except OSError as exc:
            _emit_error("usage", f"cannot write --out {args.out!r}: {exc.strerror}")
            return EXIT_USAGE
    else:
        write(payload, sys.stdout)
    return EXIT_PASS if ok else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
