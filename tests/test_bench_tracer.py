"""The benchmark's per-layer tracer binds faberpoly names with ``vars(owner)[attr]``.

Renaming or deleting a traced function or method breaks ``bench/run.py
--trace 1``; these tests make that a test failure too.
"""

import importlib.util
from pathlib import Path

from faberpoly import cli

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_uninstall_restores_it():
    tracer = _load_tracer()
    targets = tracer._targets()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    metrics = {metric for _, _, metric in targets}
    for name in ("faber.recurrence", "faber.oracle", "maps.closed_form", "maps.lambert",
                 "verify", "cli.main", "poly.new", "poly.arith", "poly.eval", "poly.roots",
                 "series.reciprocal", "series.mul", "series.log1"):
        assert name in metrics
    t = tracer.Tracer()
    t.install()
    try:
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
    finally:
        t.uninstall()
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_traced_chebyshev_suite_counts_closed_form_calls(capsys):
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.begin_pass()
    t.install()
    try:
        code = cli.main(["verify", "--suite", "chebyshev"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = t.pass_metrics()
    assert metrics["maps.closed_form.calls"] > 0
    assert metrics["suites.chebyshev.s"] > 0


def test_traced_verify_all_times_every_suite(capsys):
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.begin_pass()
    t.install()
    try:
        code = cli.main(["verify", "--suite", "all", "--N", "6"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = t.pass_metrics()
    assert len(tracer.SUITE_FUNCTIONS) == 11
    for suite in tracer.SUITE_FUNCTIONS.values():
        assert metrics[f"suites.{suite}.s"] > 0, suite


def test_traced_lambert_suite_reads_lambert_results(capsys):
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.begin_pass()
    t.install()
    try:
        code = cli.main(["verify", "--suite", "lambert"])
    finally:
        t.uninstall()
    capsys.readouterr()
    assert code == 0
    metrics = t.pass_metrics()
    assert metrics["maps.lambert.calls"] > 0
    assert metrics["maps.lambert.iterations"] > 0
    assert metrics["maps.lambert.unconverged"] == 0



def test_traced_family_commands_reach_every_layer(capsys):
    tracer = _load_tracer()
    t = tracer.Tracer()
    t.begin_pass()
    t.install()
    try:
        codes = [cli.main(["gen", "--family", "gap", "--n", "2", "--tail", "0.3,0.1",
                           "--N", "12"]),
                 cli.main(["roots", "--family", "twogap", "--m", "1", "--n", "3",
                           "--tail", "0.2,0.1", "--j-max", "8"])]
    finally:
        t.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    metrics = t.pass_metrics()
    for name in ("cli.main.s", "faber.recurrence.calls", "poly.roots.calls"):
        assert metrics[name] > 0, name
