import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from faberpoly.cli import main
from faberpoly.poly import ComplexPolynomial, RootFindingError


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
        def fail(self):
            raise RootFindingError("Aberth iteration did not converge", [], [])

        monkeypatch.setattr(ComplexPolynomial, "roots", fail)
        code, out, err = run_cli_with_stderr("roots", "--family", "hypocycloid", "--m", "2",
                                             "--j-min", "7", "--j-max", "9")
        assert code == 3
        assert out == ""
        message = json.loads(err)["message"]
        assert "F_7" in message and "hypocycloid" in message
        assert "did not converge" in message


class TestBoundary:
    def test_single_angle_example(self):
        code, out = run_cli("boundary", "--lambda", "1", "--theta", "0")
        assert code == 0
        point = json.loads(out)["results"][0]["point"]
        assert abs(point[0] - 2.718281828459045) < 1e-12
        assert point[1] == 0.0

    def test_grid_sampling(self):
        _, out = run_cli("boundary", "--lambda", "0.4", "--samples", "16")
        assert len(json.loads(out)["results"]) == 16


class TestKernel:
    def test_first_polynomials(self):
        code, out = run_cli("kernel", "--lambda", "0.45", "--N", "2")
        assert code == 0
        results = json.loads(out)["results"]
        assert results[0] == [[1.0, 0.0]]
        # P_1 = z
        assert results[1][0] == [0.0, 0.0] and results[1][1] == [1.0, 0.0]


def run_cli_with_stderr(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestErrors:
    def test_unknown_suite_is_usage_error(self):
        code, _ = run_cli("verify", "--suite", "nonsense")
        assert code == 2

    def test_invalid_family_parameters(self):
        code, _ = run_cli("gen", "--family", "gap", "--z0", "1", "--n", "0",
                          "--tail", "0.2")
        assert code == 2

    def test_malformed_complex(self):
        code, _ = run_cli("gen", "--family", "shift", "--alpha0", "bogus", "--N", "2")
        assert code == 2

    def test_overflow_is_an_error_not_a_table(self):
        code, out, err = run_cli_with_stderr("gen", "--family", "shift", "--alpha0", "20",
                                             "--N", "240")
        assert code == 3
        assert out == ""
        assert "F_234" in json.loads(err)["message"]
        assert "Infinity" not in err + out and "NaN" not in err + out
