"""Self-test of the benchmark's correctness checks.

    python3 bench/selftest.py        (from the root of a faberpoly checkout)

Each checker is fed a right output, which it must accept, and a known-wrong
one, which it must reject.  Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from run import Runner  # noqa: E402


def _table(rows) -> list:
    return [[[c.real, c.imag] for c in ref.to_complex(row)] for row in rows]


def case_dropped_leading_term():
    """F_80 of w + 1/w has coefficients near 1e16, so dropping its monic
    leading term moves it by less than 1e-13 of its largest coefficient."""
    rows = ref.hypocycloid_rows(1, 80)
    expected = [ref.to_complex(r) for r in rows]
    good = _table(rows)
    bad = [list(r) for r in good]
    bad[80] = bad[80][:-1]
    padded = ref.to_complex(rows[80])
    padded[-1] = 0.0
    relative = float(np.max(np.abs(padded - expected[80]) / (1 + np.max(np.abs(expected[80])))))
    return (ref.check_faber_rows(good, expected), ref.check_faber_rows(bad, expected),
            f"relative-to-max deviation of the wrong F_80 is only {relative:.1e}")


def case_moved_root():
    row = ref.exp_row(0.0, 0.5, 6)
    roots = [complex(r) for r in mpmath.polyroots(row[::-1], maxsteps=200, extraprec=200)]
    moved = list(roots)
    moved[3] += 1e-6
    return ref.check_roots(roots, row), ref.check_roots(moved, row), "one root moved by 1e-6"


def case_moved_root_on_ray():
    row = ref.hypocycloid_row(2, 12)
    roots = [complex(r) for r in mpmath.polyroots(row[::-1], maxsteps=200, extraprec=200)]
    moved = list(roots)
    k = max(range(len(roots)), key=lambda i: abs(roots[i]))
    moved[k] *= complex(np.exp(1e-6j * 3))
    return (ref.check_roots(roots, row, cusps=3), ref.check_roots(moved, row, cusps=3),
            "one hypocycloid root turned 3e-6 rad off its cusp ray")


def case_oracle_value():
    z, a, n = 1.7 + 0.4j, 0.3 - 0.2j, 40
    vals, _ = ref.shift_values(a, z, n)
    log_vals, _ = ref.log_scales(ref.shift_log_abs_rows(a, n), z)
    good = [complex(v) for v in vals[1:]]
    bad = list(good)
    bad[0] *= 1 + 1e-6
    return (ref.check_values(good, vals[1:], log_vals[1:], 1),
            ref.check_values(bad, vals[1:], log_vals[1:], 1), "F_1(z) off by 1e-6 relative")


def _verify_output():
    return workloads._cli(["verify", "--suite", "all", "--seed", "0"])


def case_verify_pass_false(output):
    payload = json.loads(output[1])
    payload["pass"] = False
    return (workloads.check_verify(output),
            workloads.check_verify((0, json.dumps(payload), "")), "payload with pass: false")


def case_verify_residual(output):
    payload = json.loads(output[1])
    payload["results"][0]["max_residual"] = float("nan")
    return (workloads.check_verify(output),
            workloads.check_verify((0, json.dumps(payload), "")), "NaN residual with passed: true")


def case_verify_bytes(output):
    """Repeated identical invocations, printing the same or different bytes."""
    def runner_verdict(second_output):
        outputs = iter([output, second_output])
        op = workloads.Op("verify --suite all --seed 0", lambda: next(outputs),
                          workloads.check_verify)
        runner = Runner(workloads.Workload("verify-all", [op], {}))
        runner.warm_up()
        runner.timed_pass(traced=False)
        return runner.unexpected.get(op.label)

    code, out, err = output
    return (runner_verdict(output), runner_verdict((code, out.replace("\n", " \n", 1), err)),
            "payload bytes differ between identical invocations")


def main() -> int:
    output = _verify_output()
    cases = [case_dropped_leading_term(), case_moved_root(), case_moved_root_on_ray(),
             case_oracle_value(), case_verify_pass_false(output), case_verify_residual(output),
             case_verify_bytes(output)]
    ok = True
    for accepted, rejected, what in cases:
        good = accepted is None and rejected is not None
        ok &= good
        print(f"{'ok  ' if good else 'FAIL'} {what}: right output "
              f"{'accepted' if accepted is None else 'rejected: ' + accepted}; wrong output "
              f"{'rejected: ' + rejected if rejected else 'accepted'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
