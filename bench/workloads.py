"""The four workloads: their seeded inputs, operations and output checks.

A workload is a fixed list of operations planned once from ``--seed``.
``plan`` draws the inputs and computes every reference result (with
``reference``, apart from the program) and returns plain data, so it can
run in a child process whose memory never counts towards the benchmark's
peak; ``make_op`` turns each planned operation into a callable that calls
one public entry point of the program in-process, and its checker.

Operations tagged with a ``fault`` exercise a known defect of the program
on inputs that do not depend on the seed; they fail on every pass until
the defect is mended.  Seeded inputs stay inside ranges where the program
is correct, so no other operation may fail.
"""

from __future__ import annotations

import functools
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref

#: a seeded gen input may not let any coefficient of F_0..F_N exceed this;
#: the program drops a monic leading term once coefficients reach 1e13
GEN_GROWTH_LIMIT = 1e10


@dataclass
class OpSpec:
    """One planned operation as plain data.

    ``call`` is ("cli", argv) or ("oracle", function name, family, z, N);
    ``check`` is (checker name, reference data...), see ``CHECKERS``."""
    label: str
    call: tuple
    check: tuple
    fault: str | None = None


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    fault: str | None = None


@dataclass
class Workload:
    name: str
    ops: list[Op]
    notes: dict


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _polar(rng: np.random.Generator, rmin: float, rmax: float) -> complex:
    r = rmin + (rmax - rmin) * float(rng.uniform())
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    return complex(r * math.cos(phi), r * math.sin(phi))


def _arg(z: complex) -> str:
    return repr(complex(z))


def _cli(argv: list[str]):
    """Run ``faberpoly`` in-process; returns (exit code, stdout, stderr)."""
    from faberpoly import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_payload(output):
    code, out, err = output
    if code != 0:
        return None, f"exit {code}: {err.strip()[:160]}"
    payload = json.loads(out)
    if payload.get("pass") is not True:
        return None, "payload reports pass != true"
    return payload, None


def _family_args(fam: dict) -> list[str]:
    kind = fam["family"]
    args = ["--family", kind]
    if kind == "shift":
        args.append(f"--alpha0={_arg(fam['alpha0'])}")
    elif kind == "hypocycloid":
        args.append(f"--m={fam['m']}")
    elif kind == "expmap":
        args += [f"--eta={_arg(fam['eta'])}", f"--lambda={_arg(fam['lam'])}"]
    elif kind == "gap":
        args += [f"--z0={_arg(fam['z0'])}", f"--n={fam['n']}",
                 "--tail=" + ",".join(_arg(c) for c in fam["tail"])]
    elif kind == "twogap":
        args += [f"--z0={_arg(fam['z0'])}", f"--m={fam['m']}",
                 f"--alpha-m={_arg(fam['alpha_m'])}", f"--n={fam['n']}",
                 "--tail=" + ",".join(_arg(c) for c in fam["tail"])]
    return args


def _describe(fam: dict) -> str:
    parts = [fam["family"]]
    for key, value in fam.items():
        if key == "family":
            continue
        if isinstance(value, list):
            value = "[" + ",".join(f"{complex(c):.4g}" for c in value) + "]"
        elif isinstance(value, complex):
            value = f"{value:.4g}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def exact_rows(fam: dict, n: int) -> list[list]:
    """Exact F_0..F_n of a family member (see ``reference``)."""
    kind = fam["family"]
    if kind == "shift":
        return ref.shift_rows(fam["alpha0"], n)
    if kind == "hypocycloid":
        return ref.hypocycloid_rows(fam["m"], n)
    if kind == "expmap":
        if fam["eta"] != 0:
            raise ValueError("whole tables are built for eta = 0 only")
        return ref.exp_rows(fam["lam"], n)
    return ref.recurrence_rows(fam["z0"], sparse_tail(fam), n)


def exact_row(fam: dict, j: int) -> list:
    """Exact F_j alone."""
    kind = fam["family"]
    if kind == "hypocycloid":
        return ref.hypocycloid_row(fam["m"], j)
    if kind == "expmap":
        return ref.exp_row(fam["eta"], fam["lam"], j)
    return exact_rows(fam, j)[j]


def sparse_tail(fam: dict) -> dict[int, complex]:
    kind = fam["family"]
    tail = {}
    if kind == "twogap":
        tail[fam["m"]] = fam["alpha_m"]
    if kind in ("gap", "twogap"):
        for i, c in enumerate(fam["tail"]):
            tail[fam["n"] + i] = c
    if kind == "hypocycloid":
        tail[fam["m"]] = 1.0 / fam["m"]
    return tail


# ---------------------------------------------------------------------------
# seeded family draws
# ---------------------------------------------------------------------------

def draw_gap(rng, z0_max: float, scale: float) -> dict:
    n = int(rng.integers(1, 6))
    tail = [_polar(rng, 0.5 * scale / (n + 1), scale / (n + 1))]
    tail += [_polar(rng, 0.0, scale / (n + 1 + i)) for i in range(1, int(rng.integers(1, 4)))]
    return {"family": "gap", "z0": _polar(rng, 0.0, z0_max), "n": n, "tail": tail}


def draw_twogap(rng, z0_max: float, scale: float) -> dict:
    m = int(rng.integers(1, 4))
    n = m + 2 + int(rng.integers(0, 4))
    tail = [_polar(rng, 0.5 * scale / (n + 1), scale / (n + 1))]
    tail += [_polar(rng, 0.0, scale / (n + 1 + i)) for i in range(1, int(rng.integers(1, 4)))]
    return {"family": "twogap", "z0": _polar(rng, 0.0, z0_max), "m": m,
            "alpha_m": _polar(rng, 0.5 * scale / (m + 1), scale / (m + 1)),
            "n": n, "tail": tail}


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

#: default tolerance of each suite; lambert reports (grid, round trip, series)
VERIFY_TOL = {
    "recurrence-vs-oracle": 1e-9, "eq13": 1e-9, "eq14": 1e-9, "eq16": 1e-9,
    "theorem1": 1e-10, "theorem2": 1e-9, "theorem3": 1e-9, "chebyshev": 1e-12,
    "he-formula": 1e-9, "lambert": (1e-12, 1e-10, 1e-10), "rays": 1e-6,
}


def check_verify(output):
    payload, err = _cli_payload(output)
    if err:
        return err
    names = [r["name"] for r in payload["results"]]
    if names != list(VERIFY_TOL):
        return f"suites {names}, expected {list(VERIFY_TOL)}"
    for r in payload["results"]:
        if r["passed"] is not True:
            return f"suite {r['name']} did not pass"
        tol = VERIFY_TOL[r["name"]]
        if isinstance(tol, tuple):
            pairs = list(zip(r["residuals"], tol))
        else:
            pairs = [(x, tol) for x in r["residuals"] + [r["max_residual"]]]
        for x, t in pairs:
            if not (math.isfinite(x) and x <= t):
                return f"suite {r['name']} residual {x!r} exceeds {t:.0e}"
    return None


def verify_all(rng):
    seeds = sorted(int(s) for s in rng.choice(100_000, size=2, replace=False))
    specs = [OpSpec(f"verify --suite all --seed {s}",
                    ("cli", ["verify", "--suite", "all", "--seed", str(s)]), ("verify",))
             for s in seeds]
    return specs, {"seeds": seeds}


# ---------------------------------------------------------------------------
# gen-highN
# ---------------------------------------------------------------------------

#: N per family; fixed, so that a pass costs the same for every seed
GEN_SIZES = {"expmap": 100, "hypocycloid": 125, "shift": 150, "gap": 175, "twogap": 200}

#: fixed inputs of the degree-loss fault (trim of coefficients below 1e-13 max)
GEN_FAULT_INPUTS = (
    ({"family": "hypocycloid", "m": 1}, 100),
    ({"family": "expmap", "eta": 0j, "lam": 0.5 + 0j}, 100),
    ({"family": "shift", "alpha0": 0.5 + 0j}, 100),
)


def _gen_draw(rng, kind: str, n: int) -> dict:
    if kind == "shift":
        r = 10.0 ** (9.0 / n) - 1.0      # (1 + |alpha0|)^N <= 1e9
        return {"family": "shift", "alpha0": _polar(rng, 0.5 * r, r)}
    if kind == "hypocycloid":             # m = 3 loses degree from j = 179, m = 4 from 235
        return {"family": "hypocycloid", "m": int(rng.integers(3, 5))}
    if kind == "expmap":
        return {"family": "expmap", "eta": 0j, "lam": _polar(rng, 0.05, 0.12)}
    if kind == "gap":
        return draw_gap(rng, 0.04, 0.1)
    return draw_twogap(rng, 0.04, 0.1)


def _gen_spec(fam: dict, n: int, fault: str | None = None) -> OpSpec:
    rows = exact_rows(fam, n)
    if fault is None and ref.max_coefficient(rows) >= GEN_GROWTH_LIMIT:
        raise RuntimeError(f"seeded input {_describe(fam)} N={n} outgrows {GEN_GROWTH_LIMIT:g}")
    return OpSpec(f"gen {_describe(fam)} N={n}", ("cli", ["gen"] + _family_args(fam) + [f"--N={n}"]),
                  ("faber_rows", [ref.to_complex(r) for r in rows]), fault)


def check_gen(expected, output):
    payload, err = _cli_payload(output)
    return err or ref.check_faber_rows(payload["results"], expected)


def gen_high_n(rng):
    specs = [_gen_spec(_gen_draw(rng, kind, n), n) for kind, n in GEN_SIZES.items()]
    specs += [_gen_spec(fam, n, "degree-loss") for fam, n in GEN_FAULT_INPUTS]
    return specs, {}


# ---------------------------------------------------------------------------
# roots-sweep
# ---------------------------------------------------------------------------

ROOT_INDICES = (10, 20, 30, 40, 50, 60)
#: seeded draws per family and index: the cost of one Aberth call moves by
#: half with its parameters, so a pass averages over two of them
ROOT_DRAWS = 2
#: hypocycloid orders whose roots stay on the cusp rays at each index
ROOT_HYPOCYCLOID_ORDERS = {10: (1, 2, 3, 4), 20: (1, 2, 3, 4), 30: (1, 2, 3, 4),
                           40: (2, 3, 4), 50: (2, 3, 4), 60: (3, 4)}
#: fixed inputs of the Aberth fault: NaN residuals (exit 3), roots off the
#: cusp rays, or a far-off root accepted because its noise floor overflowed
ROOT_FAULT_INPUTS = (
    ({"family": "hypocycloid", "m": 1}, 40),
    ({"family": "hypocycloid", "m": 1}, 60),
    ({"family": "hypocycloid", "m": 2}, 60),
    ({"family": "hypocycloid", "m": 1}, 100),
    ({"family": "shift", "alpha0": 0.375 - 0.211j}, 48),
)


def root_growth_limit(j: int) -> float:
    """Largest coefficient a seeded F_j may have.  Aberth starts on a circle
    of radius 1 + max |c_k| and evaluates powers up to j of it; the program
    overflows once that reaches 1e308, so seeded inputs keep it below 1e200."""
    return 10.0 ** (200.0 / j)


def _roots_draw(rng, kind: str, j: int, shrink: float) -> dict:
    if kind == "shift":
        return {"family": "shift", "alpha0": _polar(rng, 0.0, 0.5 * shrink)}
    if kind == "expmap":
        return {"family": "expmap", "eta": _polar(rng, 0.0, 0.5 * shrink),
                "lam": _polar(rng, 0.1 * shrink, 0.5 * shrink)}
    if kind == "gap":
        return draw_gap(rng, 0.5 * shrink, 0.5 * shrink)
    return draw_twogap(rng, 0.5 * shrink, 0.5 * shrink)


def _roots_seeded(rng, kind: str, j: int) -> list[OpSpec]:
    """ROOT_DRAWS operations for one family and index."""
    if kind == "hypocycloid":
        orders = ROOT_HYPOCYCLOID_ORDERS[j]
        chosen = rng.choice(len(orders), size=min(ROOT_DRAWS, len(orders)), replace=False)
        return [_roots_spec({"family": "hypocycloid", "m": int(orders[i])}, j)
                for i in sorted(chosen)]
    specs = []
    for _ in range(ROOT_DRAWS):
        shrink = 1.0
        while True:
            fam = _roots_draw(rng, kind, j, shrink)
            row = exact_row(fam, j)
            if ref.max_coefficient([row]) <= root_growth_limit(j):
                specs.append(_roots_spec(fam, j, row=row))
                break
            shrink *= 0.7
    return specs


def _roots_spec(fam: dict, j: int, fault: str | None = None, row=None) -> OpSpec:
    row = exact_row(fam, j) if row is None else row
    cusps = fam["m"] + 1 if fam["family"] == "hypocycloid" else None
    argv = ["roots"] + _family_args(fam) + [f"--j-min={j}", f"--j-max={j}"]
    return OpSpec(f"roots {_describe(fam)} j={j}", ("cli", argv), ("roots", j, row, cusps), fault)


def check_roots(j, row, cusps, output):
    payload, err = _cli_payload(output)
    if err:
        return err
    (entry,) = payload["results"]
    if entry["j"] != j:
        return f"roots of F_{entry['j']}, expected F_{j}"
    return ref.check_roots([complex(re, im) for re, im in entry["roots"]], row, cusps)


def roots_sweep(rng):
    specs = [spec for kind in ("shift", "gap", "twogap", "hypocycloid", "expmap")
             for j in ROOT_INDICES for spec in _roots_seeded(rng, kind, j)]
    specs += [_roots_spec(fam, j, "aberth") for fam, j in ROOT_FAULT_INPUTS]
    return specs, {}


# ---------------------------------------------------------------------------
# oracle-values
# ---------------------------------------------------------------------------

ORACLE_SIZES = (100, 250, 400)
ORACLE_FAMILIES = ("shift", "hypocycloid", "expmap", "gap")


def _oracle_draw(rng, kind: str) -> dict:
    if kind == "shift":
        return {"family": "shift", "alpha0": _polar(rng, 0.0, 1.0)}
    if kind == "hypocycloid":
        return {"family": "hypocycloid", "m": int(rng.integers(1, 5))}
    if kind == "expmap":
        return {"family": "expmap", "eta": 0j, "lam": _polar(rng, 0.1, 1.0)}
    return draw_gap(rng, 1.0, 0.5)


def _map_value(fam: dict, w: complex) -> complex:
    kind = fam["family"]
    if kind == "shift":
        return w + fam["alpha0"]
    if kind == "hypocycloid":
        return w + 1.0 / (fam["m"] * w ** fam["m"])
    if kind == "expmap":
        return fam["eta"] + w * complex(np.exp(fam["lam"] / w))
    return w + fam["z0"] + sum(c * w ** -(fam["n"] + i) for i, c in enumerate(fam["tail"]))


def _oracle_point(rng, fam: dict, inside: bool) -> complex:
    """A point outside the image of |w| = 1 (as Psi(w), 1.2 <= |w| <= 1.8)
    or well inside it."""
    if not inside:
        return _map_value(fam, _polar(rng, 1.2, 1.8))
    kind = fam["family"]
    if kind == "shift":
        return fam["alpha0"] + _polar(rng, 0.2, 0.8)
    if kind == "hypocycloid":
        if fam["m"] == 1:                        # the image is the slit [-2, 2]
            return complex(float(rng.uniform(-1.8, 1.8)), 0.0)
        return _polar(rng, 0.05, 0.8 * (1.0 - 1.0 / fam["m"]))
    if kind == "expmap":
        return _polar(rng, 0.05, 0.8 * math.exp(-abs(fam["lam"])))
    room = 1.0 - sum(abs(c) for c in fam["tail"])
    return fam["z0"] + _polar(rng, 0.0, 0.8 * room)


def _exterior_map(fam: dict, n: int):
    from faberpoly import (ExpMap, GapMap, Hypocycloid, Shift, to_exterior_map)
    kind = fam["family"]
    if kind == "shift":
        family = Shift(fam["alpha0"])
    elif kind == "hypocycloid":
        family = Hypocycloid(fam["m"])
    elif kind == "expmap":
        family = ExpMap(fam["eta"], fam["lam"])
    else:
        family = GapMap(fam["z0"], fam["n"], fam["tail"])
    return to_exterior_map(family, n)


def _oracle_references(fam: dict, z: complex, n: int):
    """mpmath values and derivatives F_j(z), F_j'(z) and their log scales."""
    kind = fam["family"]
    if kind == "gap":
        vals, ders = ref.gap_values(fam["z0"], fam["n"], fam["tail"], z, n)
        log_abs = ref.recurrence_log_abs_rows(fam["z0"], sparse_tail(fam), n)
    elif kind == "shift":
        vals, ders = ref.shift_values(fam["alpha0"], z, n)
        log_abs = ref.shift_log_abs_rows(fam["alpha0"], n)
    elif kind == "hypocycloid":
        rows = ref.hypocycloid_rows(fam["m"], n)
        vals, ders = ref.values_from_rows(rows, z)
        log_abs = ref.real_log_abs_rows(rows)
    else:
        vals, ders = ref.exp_values(fam["lam"], z, n)
        log_abs = ref.exp_log_abs_rows(fam["lam"], n)
    log_vals, log_ders = ref.log_scales(log_abs, z)
    return vals, ders, log_vals, log_ders


ORACLE_FUNCTIONS = ("faber_values_from_log_series", "faber_values_from_ratio_series",
                    "faber_derivative_values_from_series")


def oracle_values(rng):
    specs = []
    for kind in ORACLE_FAMILIES:
        for i, n in enumerate(ORACLE_SIZES):
            fam = _oracle_draw(rng, kind)
            inside = i == 1
            z = _oracle_point(rng, fam, inside)
            vals, ders, log_vals, log_ders = _oracle_references(fam, z, n)
            label = f"{_describe(fam)} N={n} z={z:.4g} ({'inside' if inside else 'outside'})"
            # log-series gives F_1..F_N, ratio-series F_0..F_N, and the
            # derivative series F_j'(z) / j for j = 1..N
            refs = ((vals[1:], log_vals[1:], 1), (vals, log_vals, 0),
                    ([d / j for j, d in enumerate(ders) if j],
                     [ls - math.log(j) for j, ls in enumerate(log_ders) if j], 1))
            for fn, (r, scale, first) in zip(ORACLE_FUNCTIONS, refs):
                specs.append(OpSpec(f"{fn} {label}", ("oracle", fn, fam, z, n),
                                    ("values", r, scale, first)))
    return specs, {}


def check_values(expected, log_scale, first_index, output):
    return ref.check_values(output, expected, log_scale, first_index)


PLANS = {
    "verify-all": verify_all,
    "gen-highN": gen_high_n,
    "roots-sweep": roots_sweep,
    "oracle-values": oracle_values,
}

CHECKERS = {
    "verify": check_verify,
    "faber_rows": check_gen,
    "roots": check_roots,
    "values": check_values,
}


def plan(name: str, seed: int):
    """(operation specs, notes) of a workload; all reference work happens here."""
    return PLANS[name](np.random.default_rng(seed % 2 ** 63))


def make_op(spec: OpSpec) -> Op:
    if spec.call[0] == "cli":
        argv = spec.call[1]
        run = functools.partial(_cli, argv)
    else:
        import faberpoly as fp
        _, fn, fam, z, n = spec.call
        emap = _exterior_map(fam, n)

        def run():
            return getattr(fp, fn)(emap, z, n)    # looked up per call, so tracing sees it
    checker, *data = spec.check
    return Op(spec.label, run, functools.partial(CHECKERS[checker], *data), spec.fault)
