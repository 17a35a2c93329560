import csv
import inspect
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest

from faberpoly import cli, suites
from faberpoly.cli import main
from faberpoly.maps import FAMILIES
from faberpoly.poly import RootFindingError
from faberpoly.suites import SUITE_NAMES

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestGen:
    def test_single_cusp_coefficients(self):
        code, out = run_cli("gen", "--family", "hypocycloid", "--m", "1", "--N", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "gen"
        assert payload["results"][3] == [[0.0, 0.0], [-3.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_schema_keys(self):
        _, out = run_cli("gen", "--family", "shift", "--alpha0", "1j", "--N", "2")
        payload = json.loads(out)
        assert list(payload.keys()) == ["command", "map", "N", "results", "residuals", "pass"]

    def test_json_round_trips(self):
        _, out = run_cli("gen", "--family", "expmap", "--lambda", "0.5", "--N", "6")
        payload = json.loads(out)
        assert json.loads(json.dumps(payload)) == payload

    def test_csv_format(self):
        code, out = run_cli("gen", "--family", "hypocycloid", "--m", "1", "--N", "2",
                            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split(",")[:3] == ["j", "re_0", "im_0"]
        assert lines[3].split(",")[0] == "2"

    def test_output_file(self, tmp_path):
        target = tmp_path / "out.json"
        code, out = run_cli("gen", "--family", "hypocycloid", "--m", "2", "--N", "4",
                            "--out", str(target))
        assert code == 0 and out == ""
        payload = json.loads(target.read_text())
        assert payload["N"] == 4


#: for each family, options setting every field to a non-default value, and
#: the JSON "map" object gen writes for them
FAMILY_MAPS = {
    "shift": (["--alpha0", "0.5-1j"], {"alpha0": [0.5, -1.0]}),
    "gap": (["--z0", "0.25j", "--n", "2", "--tail", "0.3,0.1j"],
            {"z0": [0.0, 0.25], "n": 2, "tail": [[0.3, 0.0], [0.0, 0.1]]}),
    "twogap": (["--z0", "-0.5", "--m", "2", "--alpha-m", "0.1+0.2j", "--n", "5",
                "--tail", "0.2,0.05"],
               {"z0": [-0.5, 0.0], "m": 2, "alpha_m": [0.1, 0.2], "n": 5,
                "tail": [[0.2, 0.0], [0.05, 0.0]]}),
    "hypocycloid": (["--m", "3"], {"m": 3}),
    "expmap": (["--eta", "0.2-0.1j", "--lambda", "0.6+0.2j"],
               {"eta": [0.2, -0.1], "lambda": [0.6, 0.2]}),
}


class TestFamilies:
    def test_every_family_is_offered(self):
        assert list(FAMILY_MAPS) == list(FAMILIES)

    @pytest.mark.parametrize("family", FAMILY_MAPS)
    def test_gen_map_names_every_field_in_order(self, family):
        argv, expected = FAMILY_MAPS[family]
        code, out = run_cli("gen", "--family", family, *argv, "--N", "4")
        assert code == 0
        desc = json.loads(out)["map"]
        assert desc == {"family": family, **expected}
        keys = ["lambda" if f.name == "lam" else f.name for f in fields(FAMILIES[family])]
        assert list(desc) == ["family", *keys]


def run_module(*argv, python_flags=(), module="faberpoly.cli"):
    """The CLI in a fresh interpreter: exit code, stdout and stderr as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *python_flags, "-m", module, *argv],
                            cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    return result.returncode, result.stdout, result.stderr


def test_python_dash_m_faberpoly_is_the_cli():
    # `python -m faberpoly` runs the command the console script runs
    code, out, err = run_module("verify", "--suite", "chebyshev", module="faberpoly")
    assert (code, out, err) == (0, run_cli("verify", "--suite", "chebyshev")[1], "")


class TestVerify:
    def test_eq14_passes(self):
        code, out = run_cli("verify", "--suite", "eq14", "--lambda", "0.7", "--N", "20")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["residuals"]["eq14"] <= 1e-9

    def test_failing_tolerance_sets_exit_code(self):
        code, out = run_cli("verify", "--suite", "eq14", "--lambda", "0.7",
                            "--N", "20", "--tol", "1e-30")
        assert code == 1
        assert json.loads(out)["pass"] is False

    @pytest.mark.parametrize("suite", ["theorem3", "all"])
    @pytest.mark.parametrize("tol", ["1e-3", "1e-2", "1e-1", "10"])
    def test_theorem3_passes_at_a_tolerance_as_loose_as_its_perturbation(self, suite, tol):
        # the perturbed map moves one coefficient by 1e-3, and theorems 1 and 3
        # call a value zero at min(tol, 1e-4): a loose tol neither accepts the
        # perturbed map as exponential nor counts |F_1(z0)| = |lambda| or
        # theorem 1's first nonvanishing value as zero
        code, out = run_cli("verify", "--suite", suite, "--tol", tol)
        payload = json.loads(out)
        assert code == 0 and payload["pass"] is True
        assert all(r["passed"] for r in payload["results"])

    def test_eq14_round_off_above_tol_is_ill_conditioned(self, capsys):
        code, out = run_cli("verify", "--suite", "eq14", "--lambda", "50", "--N", "40")
        assert code == 3 and out == ""
        error = json.loads(capsys.readouterr().err)
        assert "ill-conditioned in float64" in error["message"]
        assert all(part in error["message"] for part in ("eq14", "lambda=", "N=40", "j="))

    def test_eq14_overflow_names_the_suite(self):
        code, out, err = run_cli_with_stderr("verify", "--suite", "eq14", "--lambda", "1e300",
                                             "--N", "5")
        assert code == 3 and out == ""
        message = json.loads(err)["message"]
        assert message.startswith("eq14 at lambda=(1e+300+0j), N=5: ")
        assert "F_2" in message

    def test_eq14_round_off_below_tol_passes(self):
        code, out = run_cli("verify", "--suite", "eq14", "--lambda", "5", "--N", "40")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_eq14_wrong_kernel_table_still_fails(self, monkeypatch):
        import faberpoly.verify as verify

        original = verify._kernel_tables

        def corrupted(lam, n_highest):
            f, p = original(lam, n_highest)
            p = p.copy()
            p[7, 3] += 1e-6
            return f, p

        monkeypatch.setattr(verify, "_kernel_tables", corrupted)
        code, out = run_cli("verify", "--suite", "eq14", "--lambda", "0.7", "--N", "20")
        assert code == 1 and json.loads(out)["pass"] is False

    @pytest.mark.parametrize("n, seed", [(n, seed) for n in ("24", "30", "40")
                                         for seed in range(10)]
                             + [("100", seed) for seed in range(5)])
    def test_theorem3_decides_every_cell_centered_at_eta(self, n, seed):
        # in powers of z the closed form and the recurrence lose digits like
        # (1 + |eta| + |lam|)^j, too many to decide most of these cells;
        # centered at eta they lose none to the shift
        code, out = run_cli("verify", "--suite", "theorem3", "--N", n, "--seed", str(seed))
        assert code == 0 and json.loads(out)["pass"] is True

    @pytest.mark.parametrize("n", ["20", "30"])
    def test_theorem3_wrong_closed_form_still_fails(self, monkeypatch, n):
        import faberpoly.suites as suites

        original = suites.exp_map_faber_closed_form

        def corrupted(eta, lam, n_highest):
            table = original(eta, lam, n_highest).copy()
            table[5, 2] += 1e-3
            return table

        monkeypatch.setattr(suites, "exp_map_faber_closed_form", corrupted)
        code, out = run_cli("verify", "--suite", "theorem3", "--N", n)
        assert code == 1 and json.loads(out)["pass"] is False

    @pytest.mark.parametrize("suite", ["recurrence-vs-oracle", "eq13", "eq16"])
    def test_series_suite_decides_n_600(self, suite):
        # the seed-0 recurrence and oracle tables stay finite at N = 600 (max
        # |c| about 2e170), and they agree within 3e-15 of the row scale
        code, out = run_cli("verify", "--suite", suite, "--N", "600")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True and payload["residuals"][suite] < 1e-14

    @staticmethod
    def overflowing_oracle(monkeypatch, suite):
        """The suite's oracle table of its first map with an entry that
        overflows float64."""
        import faberpoly.suites as suites

        name = {"recurrence-vs-oracle": "_log_table", "eq13": "_ratio_table",
                "eq16": "_derivative_table"}[suite]
        original = getattr(suites, name)

        def overflowing(a, n_highest):
            tables = original(a, n_highest).copy()
            tables[0, -1, 0] = math.inf
            return tables
        monkeypatch.setattr(suites, name, overflowing)

    @pytest.mark.parametrize("suite", ["recurrence-vs-oracle", "eq13", "eq16"])
    def test_series_suite_overflow_is_refused(self, monkeypatch, suite):
        self.overflowing_oracle(monkeypatch, suite)
        code, out, err = run_cli_with_stderr("verify", "--suite", suite)
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        message = json.loads(err)["message"]
        assert repr(suite) in message and "not finite" in message and "case 0" in message

    @pytest.mark.parametrize("suite", ["recurrence-vs-oracle", "eq13", "eq16"])
    def test_series_suite_stops_at_the_first_non_finite_map(self, monkeypatch, suite):
        # at N = 600 every map is a block of its own, so the refusal of map 0
        # leaves the recurrence of every later map unbuilt
        import faberpoly.suites as suites

        self.overflowing_oracle(monkeypatch, suite)
        original = suites.faber_system_from_recurrence
        calls = []

        def counted(emap, n_highest):
            calls.append(n_highest)
            return original(emap, n_highest)

        monkeypatch.setattr(suites, "faber_system_from_recurrence", counted)
        with pytest.raises(ArithmeticError, match="not finite"):
            suites.run_suite(suite, n_highest=600)
        assert calls == [600]

    def test_chebyshev_overflow_names_suite_m_and_row(self):
        code, out, err = run_cli_with_stderr("verify", "--suite", "chebyshev", "--N", "1500")
        assert code == 3 and out == ""
        assert json.loads(err)["message"] == (
            "chebyshev at N=1500: the hypocycloid closed form for m=1 overflows float64 "
            "from F_1482 on")

    def test_he_formula_overflow_names_suite_m_and_row(self):
        code, out, err = run_cli_with_stderr("verify", "--suite", "he-formula", "--N", "1500")
        assert code == 3 and out == ""
        assert json.loads(err)["message"] == (
            "he-formula at N=1500, m=1: the hypocycloid closed form for m=1 overflows "
            "float64 from F_1482 on")

    def test_rays_overflow_names_suite_n_and_m(self):
        code, out, err = run_cli_with_stderr("verify", "--suite", "rays", "--N", "1500")
        assert code == 3 and out == ""
        assert json.loads(err)["message"] == (
            "rays at N=1500, m=1: the hypocycloid closed form for m=1 overflows float64 "
            "from F_1482 on")

    def test_a_named_error_is_the_same_error_behind_its_case(self):
        # a RootFindingError keeps its iterates when a suite or command names it
        error = RootFindingError("Aberth iteration did not converge", [1j], [0.5], row=2)
        with pytest.raises(RootFindingError) as raised:
            with suites._named("rays at N=3, m=1"):
                raise error
        assert raised.value is error
        assert str(error) == "rays at N=3, m=1: Aberth iteration did not converge"
        assert (error.roots, error.residuals, error.row) == ([1j], [0.5], 2)

    def test_he_formula_recurrence_overflow_names_suite_and_m(self, monkeypatch):
        import faberpoly.suites as suites

        def overflowing(emap, n_highest):
            raise OverflowError("the recurrence overflows float64 from F_9 on")

        monkeypatch.setattr(suites, "faber_system_from_recurrence", overflowing)
        code, out, err = run_cli_with_stderr("verify", "--suite", "he-formula", "--N", "12")
        assert code == 3 and out == ""
        assert json.loads(err)["message"] == (
            "he-formula at N=12, m=1: the recurrence overflows float64 from F_9 on")

    def test_theorem2_overflow_names_case_and_row(self):
        # case 0's pattern map, centered at z0, stays finite; case 1's closed form does not
        code, out, err = run_cli_with_stderr("verify", "--suite", "theorem2", "--N", "1200")
        assert code == 3 and out == ""
        assert json.loads(err)["message"] == (
            "theorem2 case 1, N=1200: the two-gap recurrence overflows float64 from F_1169 on")

    def test_theorem3_recurrence_overflow_names_case_and_row(self, monkeypatch):
        # the centered exp maps stay finite at N = 1200, where the suite's ten
        # closed forms take minutes; a stack whose map 3 overflows names case 3
        import faberpoly.suites as suites

        original = suites.faber_system_from_recurrence

        def overflowing(a, n_highest):
            if len(a) > 3:
                error = OverflowError("the recurrence overflows float64 in map 3 from F_9 on")
                error.map, error.row = 3, 9
                raise error
            return original(a, n_highest)

        monkeypatch.setattr(suites, "faber_system_from_recurrence", overflowing)
        code, out, err = run_cli_with_stderr("verify", "--suite", "theorem3", "--N", "12")
        assert code == 3 and out == ""
        assert json.loads(err)["message"] == (
            "theorem3 case 3, N=12: the recurrence overflows float64 from F_9 on")

    def test_theorem3_closed_form_overflow_names_case_and_row(self, monkeypatch):
        # as `verify --suite theorem3 --N 700 --tol 10 --seed 1` does at case 5
        # (F_621), after five exact closed forms at N = 700 too slow for tier 1
        import faberpoly.suites as suites

        def overflowing(eta, lam, n_highest):
            raise OverflowError("the exp-map closed form overflows float64 from F_9 on")

        monkeypatch.setattr(suites, "exp_map_faber_closed_form", overflowing)
        code, out, err = run_cli_with_stderr("verify", "--suite", "theorem3", "--N", "12")
        assert code == 3 and out == ""
        assert json.loads(err)["message"] == (
            "theorem3 case 0, N=12: the exp-map closed form overflows float64 from F_9 on")

    @pytest.mark.parametrize("suite, generator", [
        ("theorem1", "gap_faber_closed_form"), ("theorem2", "two_gap_faber_system"),
        ("theorem3", "exp_map_faber_closed_form"),
        ("he-formula", "hypocycloid_faber_closed_form")])
    def test_a_non_finite_closed_form_row_is_refused(self, monkeypatch, suite, generator):
        # a closed form whose last row is NaN, as the exp-map form returned rows
        # past float64 before it refused them; no report prints NaN
        import faberpoly.suites as suites

        original = getattr(suites, generator)

        def non_finite(*args):
            table = original(*args).copy()
            table[-1, 0] = complex("nan")
            return table

        monkeypatch.setattr(suites, generator, non_finite)
        code, out, err = run_cli_with_stderr("verify", "--suite", suite)
        assert code == 3 and "NaN" not in out and out == ""
        message = json.loads(err)["message"]
        assert repr(suite) in message and "not finite" in message

    def test_lambert_refuses_a_non_finite_series_miss(self, monkeypatch):
        # the series miss came last in a running max that kept 0.0 over NaN
        import faberpoly.suites as suites

        original = suites.lambert_w0_power_series

        def non_finite(j, order):
            coeffs = original(j, order).copy()
            coeffs[-1] = complex("nan")
            return coeffs

        monkeypatch.setattr(suites, "lambert_w0_power_series", non_finite)
        code, out, err = run_cli_with_stderr("verify", "--suite", "lambert")
        assert code == 3 and out == ""
        assert "'lambert'" in json.loads(err)["message"]

    def test_rays_root_failure_names_suite_m_and_index(self):
        # a tol below the angle's own rounding: a root off its ray by more than
        # tol but within its bound leaves the row undecided (--N 200 does so
        # at tol 1e-6, in about 12 s)
        code, out, err = run_cli_with_stderr("verify", "--suite", "rays", "--tol", "1e-30")
        assert code == 3 and out == ""
        message = json.loads(err)["message"]
        assert all(part in message for part in ("rays at N=24", "m=", "F_",
                                                "ill-conditioned in float64"))

    def test_deterministic_bytes(self):
        a = run_cli("verify", "--suite", "theorem1", "--seed", "5")
        b = run_cli("verify", "--suite", "theorem1", "--seed", "5")
        assert a == b

    def test_seed_changes_draws(self):
        _, a = run_cli("verify", "--suite", "theorem1", "--seed", "1")
        _, b = run_cli("verify", "--suite", "theorem1", "--seed", "2")
        assert json.loads(a)["residuals"] != json.loads(b)["residuals"]

    def test_csv_report(self):
        code, out = run_cli("verify", "--suite", "chebyshev", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "name,passed,max_residual"

    def test_tol_judges_the_worst_ray_angle(self, monkeypatch):
        # judged against the rays of m + 1, the roots of m = 1 lie pi / 3 off
        # (those of m = 2..4 less), far beyond their bounds
        off_ray = suites._off_ray
        monkeypatch.setattr(suites, "_off_ray", lambda x, m: off_ray(x, m + 1))
        code, out = run_cli("verify", "--suite", "rays", "--tol", "1.0")
        assert code == 1
        payload = json.loads(out)
        assert payload["pass"] is False
        assert abs(payload["residuals"]["rays"] - math.pi / 3) < 1e-12
        code, out = run_cli("verify", "--suite", "rays", "--tol", "1.1")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_all_gives_each_option_to_the_suites_that_take_it(self):
        code, out = run_cli("verify", "--suite", "all", "--lambda", "2", "--N", "5")
        assert code == 0
        assert json.loads(out)["pass"] is True


class TestRoots:
    def test_exponential_quadratic_roots(self):
        code, out = run_cli("roots", "--family", "expmap", "--eta", "0",
                            "--lambda", "0.3", "--j-min", "2", "--j-max", "2")
        assert code == 0
        payload = json.loads(out)
        roots = [complex(re, im) for re, im in payload["results"][0]["roots"]]
        assert min(abs(r) for r in roots) < 1e-10
        assert min(abs(r - 0.6) for r in roots) < 1e-10

    def test_bad_range_is_usage_error(self):
        code, _ = run_cli("roots", "--family", "hypocycloid", "--m", "1",
                          "--j-min", "5", "--j-max", "2")
        assert code == 2

    def test_non_convergence_names_family_and_index(self, monkeypatch):
        def fail(a, table, indices):
            j = indices[0]
            raise RootFindingError(f"roots of F_{j}: Eigenvalues did not converge", [], [],
                                   row=j)

        monkeypatch.setattr(cli, "faber_roots", fail)
        code, out, err = run_cli_with_stderr("roots", "--family", "hypocycloid", "--m", "2",
                                             "--j-min", "7", "--j-max", "9")
        assert code == 3
        assert out == ""
        message = json.loads(err)["message"]
        assert "F_7" in message and "hypocycloid" in message
        assert "did not converge" in message

    def test_csv_layout(self):
        argv = ("roots", "--family", "expmap", "--eta", "0.1", "--j-min", "2", "--j-max", "4")
        code, out = run_cli(*argv, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["j", "k", "re", "im"]
        assert [row[:2] for row in rows[1:]] == [[str(j), str(k)] for j in range(2, 5)
                                                 for k in range(j)]
        assert all(repr(float(x)) == x for row in rows[1:] for x in row[2:])
        results = json.loads(run_cli(*argv)[1])["results"]
        assert [row[2:] for row in rows[1:]] == [[repr(re), repr(im)] for entry in results
                                                 for re, im in entry["roots"]]


class TestBoundary:
    def test_single_angle_example(self):
        code, out = run_cli("boundary", "--lambda", "1", "--theta", "0")
        assert code == 0
        point = json.loads(out)["results"][0]["point"]
        assert abs(point[0] - 2.718281828459045) < 1e-12
        assert point[1] == 0.0

    def test_overflowing_point_is_refused(self):
        code, out, err = run_module("boundary", "--lambda", "1000", "--theta", "0")
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        message = json.loads(err)["message"]
        assert "theta=0.0" in message and "lambda=(1000+0j)" in message

    def test_grid_sampling(self):
        _, out = run_cli("boundary", "--lambda", "0.4", "--samples", "16")
        assert len(json.loads(out)["results"]) == 16

    def test_csv_layout(self):
        argv = ("boundary", "--lambda", "0.4+0.1j", "--samples", "3")
        code, out = run_cli(*argv, "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["theta", "re", "im"]
        assert all(repr(float(x)) == x for row in rows[1:] for x in row)
        results = json.loads(run_cli(*argv)[1])["results"]
        assert rows[1:] == [[repr(e["theta"])] + [repr(v) for v in e["point"]] for e in results]
        assert [float(row[0]) for row in rows[1:]] == pytest.approx([0.0, 2.0 * math.pi / 3,
                                                                     4.0 * math.pi / 3])


class TestKernel:
    def test_first_polynomials(self):
        code, out = run_cli("kernel", "--lambda", "0.45", "--N", "2")
        assert code == 0
        results = json.loads(out)["results"]
        assert results[0] == [[1.0, 0.0]]
        # P_1 = z
        assert results[1][0] == [0.0, 0.0] and results[1][1] == [1.0, 0.0]

    def test_overflow_is_an_error_not_a_table(self):
        code, out, err = run_cli_with_stderr("kernel", "--lambda", "50", "--N", "200")
        assert code == 3 and out == ""
        assert "P_192" in json.loads(err)["message"]

    def test_every_row_keeps_full_degree(self):
        code, out = run_cli("kernel", "--lambda", "0.9", "--N", "200")
        assert code == 0
        results = json.loads(out)["results"]
        assert [len(row) for row in results] == list(range(1, 202))
        assert all(row[-1] == [1.0, 0.0] for row in results)


#: gen options per family, complex where they can be, so both parts of a coefficient vary
GEN_OPTIONS = {"shift": ("--alpha0", "0.3-0.2j"),
               "gap": ("--z0", "0.1", "--n", "3", "--tail", "0.2,-0.1j"),
               "twogap": ("--z0", "0.1j"),
               "hypocycloid": ("--m", "2"),
               "expmap": ("--eta", "-0.2", "--lambda", "0.4+0.3j")}


def _pair_rows(table):
    """Row j of a table as its j + 1 coefficients, each an [re, im] list."""
    return [[[c.real, c.imag] for c in row[:j + 1].tolist()] for j, row in enumerate(table)]


def _pair_csv(rows) -> str:
    """The gen/kernel CSV layout written pair by pair from [re, im] lists."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    width = len(rows)
    writer.writerow(["j"] + [f"{part}_{k}" for k in range(width) for part in ("re", "im")])
    for j, row in enumerate(rows):
        flat = []
        for k in range(width):
            re, im = row[k] if k < len(row) else (0.0, 0.0)
            flat += [repr(re), repr(im)]
        writer.writerow([j] + flat)
    return buffer.getvalue()


class TestTableWriter:
    """gen and kernel write the table they computed byte for byte as
    json.dump(..., indent=2) and the pair-by-pair CSV layout write it from
    [re, im] lists."""

    def test_every_family_is_written(self):
        assert set(GEN_OPTIONS) == set(FAMILIES)

    @pytest.mark.parametrize("negative_zeros", [False, True], ids=["computed", "negative-zeros"])
    @pytest.mark.parametrize("n", [0, 1, 40])
    @pytest.mark.parametrize("argv", [("gen", "--family", name, *options)
                                      for name, options in GEN_OPTIONS.items()]
                             + [("kernel", "--lambda=-0.7+0.2j")],
                             ids=[*GEN_OPTIONS, "kernel"])
    def test_bytes_match_the_pair_layout(self, monkeypatch, argv, n, negative_zeros):
        import faberpoly.cli as cli

        tables = []

        def recorded(generate):
            def run(*args):
                table = generate(*args).copy()
                if negative_zeros:              # every zero, the upper triangle's too
                    parts = table.view(float)
                    parts[parts == 0] = -0.0
                tables.append(table)
                return table
            return run

        for name in ("faber_system_from_recurrence", "kernel_polys"):
            monkeypatch.setattr(cli, name, recorded(getattr(cli, name)))
        code, out = run_cli(*argv, "--N", str(n))
        assert code == 0
        rows = _pair_rows(tables[-1])
        expected = {"command": argv[0], "map": json.loads(out)["map"], "N": n,
                    "results": rows, "residuals": {}, "pass": True}
        assert out == json.dumps(expected, indent=2) + "\n"
        if negative_zeros:
            assert "-0.0" in out
        code, out = run_cli(*argv, "--N", str(n), "--format", "csv")
        assert code == 0
        assert out == _pair_csv(_pair_rows(tables[-1]))


def run_cli_with_stderr(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestErrors:
    def test_unknown_suite_is_usage_error(self):
        code, _ = run_cli("verify", "--suite", "nonsense")
        assert code == 2

    @pytest.mark.parametrize("suite, n", [("rays", "0"), ("rays", "-3"), ("chebyshev", "0"),
                                          ("he-formula", "0"), ("theorem1", "5"),
                                          ("lambert", "3")])
    def test_verify_refuses_n_it_cannot_check(self, suite, n):
        # N < 1 checks nothing, and theorem1 and lambert have no degree to set
        code, out, err = run_cli_with_stderr("verify", "--suite", suite, "--N", n)
        assert code == 2
        assert out == ""
        assert f"suite {suite!r}" in json.loads(err)["message"]

    @pytest.mark.parametrize("argv, option", [
        (("rays", "--lambda", "5"), "--lambda"),
        (("chebyshev", "--lambda", "1"), "--lambda"),
        (("lambert", "--N", "3", "--lambda", "1"), "--lambda"),
    ], ids=["rays-lambda", "chebyshev-lambda", "lambert-N-lambda"])
    def test_verify_refuses_an_option_the_suite_does_not_take(self, argv, option):
        code, out, err = run_cli_with_stderr("verify", "--suite", *argv)
        assert code == 2
        assert out == ""
        message = json.loads(err)["message"]
        assert f"suite {argv[0]!r}" in message and option in message

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_boundary_needs_a_sample(self, samples):
        code, out, err = run_cli_with_stderr("boundary", "--samples", samples)
        assert code == 2
        assert out == ""
        assert "--samples" in json.loads(err)["message"]

    @pytest.mark.parametrize("suite, n", [("theorem3", "1"), ("theorem3", "2"), ("all", "2")])
    def test_theorem3_refuses_n_below_three(self, suite, n):
        code, out, err = run_cli_with_stderr("verify", "--suite", suite, "--N", n)
        assert code == 2
        assert out == ""
        message = json.loads(err)["message"]
        assert "suite 'theorem3'" in message and "N >= 3" in message

    @pytest.mark.parametrize("suite", SUITE_NAMES + ("all",))
    @pytest.mark.parametrize("flag", ["--seed", "--tol"])
    def test_verify_refuses_a_negative_seed_or_tol(self, suite, flag):
        # a negative seed draws nothing, and no residual falls below a negative tolerance
        for given in ((flag, "-1"), (f"{flag}=-1",)):
            code, out, err = run_cli_with_stderr("verify", "--suite", suite, *given)
            assert code == 2 and out == ""
            message = json.loads(err)["message"]
            assert f"suite {suite!r}" in message and f"{flag} >= 0" in message

    def test_verify_takes_a_zero_seed_and_tol(self):
        # the seed on a suite that draws; the tolerance on one whose residuals are exactly 0
        for argv in (("eq16", "--seed", "0"), ("chebyshev", "--tol", "0")):
            code, out, err = run_cli_with_stderr("verify", "--suite", *argv)
            assert code == 0 and err == ""
            assert json.loads(out)["pass"] is True

    def test_verify_refuses_a_complex_tol(self):
        code, out, err = run_cli_with_stderr("verify", "--suite", "eq14", "--tol", "1j")
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "usage" and "not a real number" in error["message"]

    def test_invalid_family_parameters(self):
        code, _ = run_cli("gen", "--family", "gap", "--z0", "1", "--n", "0",
                          "--tail", "0.2")
        assert code == 2

    @pytest.mark.parametrize("argv, flag, value", [
        (("kernel", "--N", "2"), "--lambda", "-0.7+0.2j"),
        (("gen", "--family", "shift", "--N", "2"), "--alpha0", "-1j"),
        (("gen", "--family", "gap", "--N", "4"), "--z0", "-0.5+0.1j"),
        (("gen", "--family", "expmap", "--N", "3"), "--eta", "-1e-1-0.1j"),
        (("gen", "--family", "twogap", "--N", "3"), "--alpha-m", "-0.1+0.1j"),
        (("gen", "--family", "gap", "--N", "4"), "--tail", "-0.2,0.1"),
        # negative zero: the one tolerance starting with "-" that verify takes
        (("verify", "--suite", "eq14", "--N", "5"), "--tol", "-0e0"),
        (("boundary",), "--theta", "-1e-3"),
    ], ids=["lambda", "alpha0", "z0", "eta", "alpha-m", "tail", "tol", "theta"])
    def test_number_starting_with_minus_is_a_value(self, argv, flag, value):
        # argparse alone reads only plain negative decimals as values
        joined = run_cli(*argv, f"{flag}={value}")
        assert run_cli(*argv, flag, value) == joined
        assert joined[0] in (0, 1)

    def test_missing_number_still_names_its_option(self):
        code, out, err = run_cli_with_stderr("kernel", "--lambda", "--N", "3")
        assert code == 2 and out == ""
        assert "--lambda" in json.loads(err)["message"]

    def test_malformed_complex(self):
        code, _ = run_cli("gen", "--family", "shift", "--alpha0", "bogus", "--N", "2")
        assert code == 2

    def test_overflowing_map_coefficients_give_one_error_line(self):
        # even with warnings as errors: no RuntimeWarning, only the JSON error
        code, out, err = run_module("gen", "--family", "expmap", "--lambda", "1e308",
                                    "--N", "3", python_flags=("-W", "error"))
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "non-convergence" and "F_2" in error["message"]

    @pytest.mark.parametrize("argv", [
        ("gen", "--family", "shift", "--N", "2"),
        ("verify", "--suite", "chebyshev"),
        ("roots", "--family", "hypocycloid", "--j-max", "3"),
        ("boundary", "--samples", "4"),
        ("kernel", "--N", "2", "--format", "csv"),
    ], ids=["gen", "verify", "roots", "boundary", "kernel"])
    def test_unwritable_out_is_usage_error(self, tmp_path, argv):
        target = tmp_path / "no" / "such" / "dir" / "x.json"
        code, out, err = run_cli_with_stderr(*argv, "--out", str(target))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "usage" and str(target) in error["message"]
        assert not target.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_out_that_fails_on_write_is_usage_error(self):
        code, out, err = run_cli_with_stderr("gen", "--family", "shift", "--N", "2",
                                             "--out", "/dev/full")
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "usage" and "/dev/full" in error["message"]

    def test_overflow_is_an_error_not_a_table(self):
        code, out, err = run_cli_with_stderr("gen", "--family", "shift", "--alpha0", "20",
                                             "--N", "240")
        assert code == 3
        assert out == ""
        assert "F_234" in json.loads(err)["message"]
        assert "Infinity" not in err + out and "NaN" not in err + out

    @pytest.mark.parametrize("argv", [
        ("boundary", "--lambda", "nan", "--theta", "0"),
        ("boundary", "--theta", "nan"),
        ("gen", "--family", "shift", "--alpha0", "nan"),
        ("kernel", "--lambda", "nan"),
        ("verify", "--suite", "eq14", "--lambda", "nan"),
        ("verify", "--suite", "eq14", "--tol", "inf"),
    ], ids=["boundary-lambda", "boundary-theta", "gen-alpha0", "kernel-lambda",
            "verify-lambda", "verify-tol"])
    def test_non_finite_number_is_usage_error(self, argv):
        code, out, err = run_cli_with_stderr(*argv)
        assert code == 2
        assert out == ""
        error = json.loads(err)
        assert error["error"] == "usage" and "not a finite number" in error["message"]


#: each family option by field name: its flag and its default value
FAMILY_OPTION_DEFAULTS = {"alpha0": ("--alpha0", "0"), "z0": ("--z0", "0"),
                          "eta": ("--eta", "0"), "lam": ("--lambda", "0.5"),
                          "m": ("--m", "1"), "n": ("--n", "3"),
                          "alpha_m": ("--alpha-m", "0.25"), "tail": ("--tail", "0.2")}
#: the flag of each option a suite may take, by parameter name
SUITE_FLAGS = {"seed": "--seed", "n_highest": "--N", "tol": "--tol", "lam": "--lambda"}
FAMILY_ARGS = {"gen": ("--N", "3"), "roots": ("--j-max", "3")}


def _family_options(own):
    """(family, flag, default) for each option the family's fields name (own)
    or do not name."""
    return [(family, flag, value) for family, cls in FAMILIES.items()
            for name, (flag, value) in FAMILY_OPTION_DEFAULTS.items()
            if (name in {f.name for f in fields(cls)}) == own]


def _suite_options():
    """(suite, flag, default) for each option a suite's signature names."""
    return [(name, SUITE_FLAGS[key], repr(parameter.default)) for name in SUITE_NAMES
            for key, parameter in inspect.signature(
                getattr(suites, "suite_" + name.replace("-", "_"))).parameters.items()]


#: every (command, option) that would change nothing, the family or suite
#: the refusal names, and the flags it names
IGNORED_OPTIONS = (
    [((command, "--family", family, *FAMILY_ARGS[command], flag, value),
      f"family {family!r}", (flag,))
     for command in FAMILY_ARGS for family, flag, value in _family_options(own=False)]
    + [(("verify", "--suite", suite, "--seed", "3"), f"suite {suite!r}", ("--seed",))
       for suite in ("chebyshev", "eq14", "he-formula", "rays")]
    + [(("boundary", "--samples", "5", "--theta", "0"), "", ("--samples", "--theta"))])


class TestOneOptionRule:
    """An option that would change nothing is refused; one that a family's
    fields or a suite's signature names is taken."""

    def test_every_ignored_option_is_listed(self):
        # 28 foreign family options under gen and roots, --seed on four suites,
        # --samples with --theta
        assert len(IGNORED_OPTIONS) == 2 * 28 + 4 + 1

    @pytest.mark.parametrize("argv, owner, flags", IGNORED_OPTIONS,
                             ids=[" ".join(argv) for argv, _, _ in IGNORED_OPTIONS])
    def test_an_option_that_changes_nothing_is_refused(self, argv, owner, flags):
        code, out, err = run_cli_with_stderr(*argv)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        message = json.loads(err)["message"]
        assert owner in message and all(flag in message for flag in flags)

    @pytest.mark.parametrize("command", FAMILY_ARGS)
    @pytest.mark.parametrize("family, flag, value", _family_options(own=True))
    def test_a_family_takes_its_own_options(self, command, family, flag, value):
        argv = (command, "--family", family, *FAMILY_ARGS[command])
        default = run_cli_with_stderr(*argv)
        assert default[0] == 0
        assert run_cli_with_stderr(*argv, flag, value) == default

    @pytest.mark.parametrize("suite, flag, value", _suite_options())
    def test_a_suite_takes_its_own_options(self, suite, flag, value):
        code, out, err = run_cli_with_stderr("verify", "--suite", suite, flag, value)
        assert code == 0 and err == ""
        report, default = json.loads(out), json.loads(run_cli("verify", "--suite", suite)[1])
        assert report.pop("N") == (int(value) if flag == "--N" else None)
        default.pop("N")
        assert report == default

    @pytest.mark.parametrize("flag, value", [("--seed", "4"), ("--N", "12"), ("--tol", "1e-6"),
                                             ("--lambda", "0.3")])
    def test_all_takes_every_suite_option(self, flag, value):
        code, out, err = run_cli_with_stderr("verify", "--suite", "all", flag, value)
        assert code == 0 and err == ""
        assert [r["name"] for r in json.loads(out)["results"]] == list(SUITE_NAMES)

    def test_verify_echoes_seed_zero_when_none_is_given(self):
        for suite in ("chebyshev", "theorem1", "all"):
            assert json.loads(run_cli("verify", "--suite", suite)[1])["map"]["seed"] == 0

    @pytest.mark.parametrize("argv", [(), ("--samples", "64")], ids=["default", "samples-64"])
    def test_boundary_grid_defaults_to_64_angles(self, argv):
        code, out = run_cli("boundary", *argv)
        assert code == 0 and len(json.loads(out)["results"]) == 64


class TestParserReuse:
    def test_main_builds_its_parser_once(self, monkeypatch):
        built = []
        original = cli.build_parser

        def counted():
            built.append(None)
            return original()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        for argv in (("gen", "--family", "shift", "--N", "2"), ("verify", "--suite", "eq14"),
                     ("verify", "--suite", "nonsense"), ("kernel", "--N", "3"),
                     ("roots", "--family", "hypocycloid", "--j-max", "3"),
                     ("boundary", "--samples", "2")):
            run_cli_with_stderr(*argv)
        assert len(built) == 1

    def test_a_reused_parser_writes_what_a_fresh_one_writes(self, monkeypatch):
        gen = ("gen", "--family", "twogap", "--z0", "0.1j", "--m", "2", "--alpha-m", "-0.3j",
               "--n", "5", "--tail", "0.1,0.05", "--N", "12")
        monkeypatch.setattr(cli, "_parser", None)
        assert run_cli_with_stderr("verify", "--suite", "chebyshev")[0] == 0
        assert run_cli_with_stderr("gen", "--family", "shift", "--N", "x")[0] == 2
        assert run_cli_with_stderr(*gen) == run_module(*gen)
