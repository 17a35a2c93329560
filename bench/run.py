"""faberpoly benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a faberpoly checkout; the package is imported from
its ``src/`` directory.  The workload's operations run in this process, in
passes over their fixed list: one untimed warm-up pass whose outputs are
checked in full, then timed passes until ``--seconds`` have gone by.  A
timed output identical to the warm-up output needs no second check; any
other output is checked again.

Every operation time is scaled by readings of a fixed yardstick taken
between operations (``yardstick.py``), so that it reads in seconds at the
host's usual speed: on a shared host a slow stretch then largely cancels
out.  The raw times are kept in the details file.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics
(``setup_s``, ``wall_s``, ``op_p50_s``, ``peak_rss_mb``); the fresh
interpreters timed for ``setup_s`` run half before and half after the
passes, so that they meet the same machine conditions as the passes.  With
``--trace 1`` untraced and traced passes alternate and the last line
carries the per-layer metrics, medians over the traced passes, plus the
tracing overhead.  Details of every run go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time

from yardstick import Scaler

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(BENCH_DIR, "out")
#: fresh interpreters timed for setup_s, half before the passes and half after
SETUP_LAUNCHES = 8
MIN_PASSES = 3
SETUP_CODE = "import faberpoly.cli as c; c.build_parser()"


def measure_setup(src: str, launches: int) -> list[float]:
    """Wall times of fresh interpreters that import the CLI and build its
    parser.  They are not scaled by the yardstick: a launch is process
    creation, file reads and dynamic linking more than Python code, and
    scaling spread ten runs' medians wider (37% against 17%)."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", SETUP_CODE]
    samples = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return samples


PLAN_CODE = ("import pickle, sys, workloads; "
             "sys.stdout.buffer.write(pickle.dumps(workloads.plan(sys.argv[1], int(sys.argv[2]))))")
#: a run must end within 180 s; planning takes 1 to 6 s
PLAN_TIMEOUT_S = 120


def plan_apart(name: str, seed: int):
    """Plans the workload (inputs and references) in a child interpreter, so
    that reference work never counts in this process's peak memory.  The
    child is waited for on every path (``subprocess.run`` kills it on timeout)."""
    env = dict(os.environ, PYTHONPATH=BENCH_DIR)
    done = subprocess.run([sys.executable, "-c", PLAN_CODE, name, str(seed)], env=env,
                          stdout=subprocess.PIPE, check=True, timeout=PLAN_TIMEOUT_S)
    return pickle.loads(done.stdout)


def _same(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):   # CLI: exit code and stdout
        return a[:2] == b[:2]
    return a == b


class Runner:
    """Runs passes over a workload's operations and tallies their verdicts."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.first = []
        self.first_verdicts = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: dict[str, str] = {}
        self.kept_faults: dict[str, str] = {}
        self.readings: list[float] = []        # of the yardstick, in timed passes

    def _run(self, op):
        try:
            return op.run()
        except Exception as exc:           # a crash counts as a failed operation
            return ("raised", f"{type(exc).__name__}: {exc}")

    def _verdict(self, op, output) -> str | None:
        if isinstance(output, tuple) and output[0] == "raised":
            return output[1]
        return op.check(output)

    def _tally(self, op, reason: str | None) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        if op.fault is None:
            self.unexpected.setdefault(op.label, reason)
        else:
            self.kept_faults.setdefault(op.label, f"[{op.fault}] {reason}")

    def warm_up(self) -> None:
        for op in self.workload.ops:
            gc.collect()
            output = self._run(op)
            reason = self._verdict(op, output)
            self.first.append(output)
            self.first_verdicts.append(reason)
            self._tally(op, reason)

    def timed_pass(self, traced: bool) -> tuple[list[float], list[float]]:
        """Runs every operation once; returns their times in workload order,
        raw and scaled by the yardstick."""
        times, scaler = [], Scaler()
        if traced:
            self.tracer.begin_pass()
            self.tracer.install()
        try:
            for op, first, first_reason in zip(self.workload.ops, self.first,
                                               self.first_verdicts):
                gc.collect()
                scaler.before()
                start = time.perf_counter()
                output = self._run(op)
                times.append(time.perf_counter() - start)
                if traced and isinstance(output, tuple) and len(output) == 3:
                    self.tracer.add("cli.out_bytes", len(output[1].encode()))
                if _same(output, first):
                    reason = first_reason
                elif self.workload.name == "verify-all":
                    reason = "payload bytes differ between identical invocations"
                else:
                    reason = self._verdict(op, output)
                self._tally(op, reason)
        finally:
            if traced:
                self.tracer.uninstall()
        scaler.close()
        self.readings += scaler.readings
        return times, scaler.scaled(times)


def percentile_with_tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 40:
        return None
    q = 1.0 - 10.0 / n
    ordered = sorted(samples)
    return round(100.0 * q, 1), ordered[min(n - 1, int(q * n))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "faberpoly", "__init__.py")):
        print("bench: src/faberpoly not found; run from the root of a faberpoly checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import faberpoly
    if not os.path.abspath(faberpoly.__file__).startswith(src + os.sep):
        print(f"bench: faberpoly imported from {faberpoly.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads
    from tracer import METRICS, Tracer
    if args.workload not in workloads.PLANS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.PLANS)}", file=sys.stderr)
        return 2

    # the first launch writes the bytecode caches and is not counted
    setup = [] if args.trace else measure_setup(src, SETUP_LAUNCHES // 2 + 1)[1:]
    start = time.perf_counter()
    specs, notes = plan_apart(args.workload, args.seed)
    workload = workloads.Workload(args.workload, [workloads.make_op(s) for s in specs], notes)
    reference_s = time.perf_counter() - start
    gc.collect()
    gc.freeze()                  # references stay out of every later collection

    tracer = Tracer() if args.trace else None
    runner = Runner(workload, tracer)
    runner.warm_up()

    # per timed pass: raw and scaled pass times; all scaled operation times
    raw_walls, walls, traced_walls, op_times, layer, by_op = [], [], [], [], [], []
    begin = time.perf_counter()
    while True:
        raw, scaled = runner.timed_pass(traced=False)
        raw_walls.append(sum(raw))
        walls.append(sum(scaled))
        op_times += scaled
        by_op.append(scaled)
        if args.trace:
            _, scaled = runner.timed_pass(traced=True)
            traced_walls.append(sum(scaled))
            layer.append(tracer.pass_metrics())
        elapsed = time.perf_counter() - begin
        per_round = elapsed / len(walls)
        if len(walls) >= MIN_PASSES and elapsed + per_round > args.seconds:
            break
    if not args.trace:
        setup += measure_setup(src, SETUP_LAUNCHES // 2)

    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "notes": workload.notes, "operations_per_pass": len(workload.ops),
        "passes": len(walls) + len(traced_walls), "reference_s": reference_s,
        "wall_s_per_pass": walls, "raw_wall_s_per_pass": raw_walls,
        "op_samples": len(op_times), "op_p50_s": statistics.median(op_times),
        "op_tail": percentile_with_tail(op_times),
        "setup_s_samples": setup, "yardstick_median_s": statistics.median(runner.readings),
        "op_median_s": {op.label: statistics.median(t)
                        for op, t in zip(workload.ops, zip(*by_op))},
        "kept_faults": runner.kept_faults, "unexpected_failures": runner.unexpected,
    }
    correct = not runner.unexpected
    if args.trace:
        metrics = {name: {"value": statistics.median(p[name] for p in layer), "unit": unit}
                   for name, unit in METRICS}
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        violations = path_independence(args.workload, layer)
        correct = correct and not violations
        details.update(traced_wall_s_per_pass=traced_walls, tracing_overhead_s=overhead,
                       tracing_overhead_share=overhead / statistics.median(walls),
                       path_independence=violations or "holds")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "op_p50_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "metrics": metrics}
    details["result"] = result
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    print(json.dumps({k: details[k] for k in ("workload", "seed", "passes", "op_samples",
                                               "op_tail", "kept_faults", "unexpected_failures")}
                     | ({"path_independence": details["path_independence"],
                         "tracing_overhead_share": details["tracing_overhead_share"]}
                        if args.trace else {})))
    print(json.dumps(result))
    return 0


#: layers each workload must leave untouched: the paper's computation paths
#: (recurrence, series oracles) and root finding stay independent
UNTOUCHED = {
    "oracle-values": ("faber.recurrence.calls", "poly.new.calls"),
    "gen-highN": ("series.reciprocal.calls", "series.mul.s", "series.log1.s",
                  "faber.oracle.calls", "poly.roots.calls"),
}


def path_independence(workload: str, layer: list[dict]) -> list[str]:
    worst = {key: max(p[key] for p in layer) for key in UNTOUCHED.get(workload, ())}
    return [f"{key} = {value:g}" for key, value in worst.items() if value != 0]


if __name__ == "__main__":
    sys.exit(main())
