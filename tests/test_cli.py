"""Tests for the command-line interface: payloads, exit codes, determinism."""

import json

import numpy as np
import pytest

from mindiv import NORMAL_SCALE
from mindiv.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "xs.txt"
    path.write_text("-1.0\n1.0\n", encoding="utf-8")
    return str(path)


class TestEstimate:
    def test_mle_payload(self, capsys, sample_file):
        code, out, _ = run_cli(
            capsys, "estimate", "--family", "normal", "--estimator", "mle", "--data", sample_file
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["theta_hat"] == [0.0, 1.0]
        assert payload["converged"] is True
        assert set(payload) == {"theta_hat", "criterion_value", "iterations", "converged"}

    def test_missing_escort_is_usage_error(self, capsys, sample_file):
        code, out, err = run_cli(
            capsys,
            "estimate",
            "--family",
            "normal",
            "--estimator",
            "subdivergence",
            "--alpha",
            "0.5",
            "--data",
            sample_file,
        )
        assert code == 1
        assert out == ""
        assert "--escort" in err

    def test_superdivergence_alpha_range(self, capsys, sample_file):
        code, _, err = run_cli(
            capsys,
            "estimate",
            "--family",
            "normal",
            "--estimator",
            "superdivergence",
            "--alpha",
            "1.5",
            "--data",
            sample_file,
        )
        assert code == 1
        assert "[0, 1)" in err

    @pytest.mark.parametrize("flag,value", [("--tol", "nan"), ("--tol", "inf"), ("--max-iter", "0")])
    def test_bad_solver_setting(self, capsys, sample_file, flag, value):
        code, out, err = run_cli(
            capsys, "estimate", "--family", "normal", "--estimator", "renyi", "--alpha", "0.5",
            "--data", sample_file, flag, value,
        )
        assert code == 1
        assert out == ""
        assert flag.lstrip("-").replace("-", "_") in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(
            capsys, "estimate", "--family", "normal", "--estimator", "mle", "--data", "/no/such/file"
        )
        assert code == 1
        assert err != ""

    def test_parse_error_reported(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("abc\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "estimate", "--family", "normal", "--estimator", "mle", "--data", str(bad)
        )
        assert code == 1
        assert "line 1" in err

    def test_renyi_scale_recovery_band(self, capsys, tmp_path):
        rng = np.random.default_rng(314)
        xs = NORMAL_SCALE.sample([2.0], 10_000, rng)
        path = tmp_path / "scale.txt"
        path.write_text("\n".join(format(v, ".17g") for v in xs) + "\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys,
            "estimate",
            "--family",
            "normal-scale",
            "--estimator",
            "renyi",
            "--alpha",
            "0.5",
            "--data",
            str(path),
        )
        assert code == 0
        sigma_hat = json.loads(out)["theta_hat"][0]
        assert abs(sigma_hat - 2.0) < 0.1


    @pytest.mark.parametrize(
        "family,values,message",
        [
            # the criterion falls without bound towards large shapes
            ("pareto", [1.0, 1.5, 2.0, 3.0], "stopped on the edge of its search box (theta = "),
            # the absolute residual tolerance is out of reach at this scale
            ("normal", (1e8 + 1e-6 * np.random.default_rng(3).standard_normal(50)).tolist(), "stopped inside"),
        ],
    )
    def test_non_convergence_says_why(self, capsys, tmp_path, family, values, message):
        path = tmp_path / "xs.txt"
        path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "estimate", "--family", family, "--estimator", "power-pseudo",
            "--alpha", "0.5", "--data", str(path),
        )
        assert code == 2
        assert json.loads(out)["converged"] is False
        assert message in err


class TestInfluence:
    def test_mle_location_curve_is_identity(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "influence",
            "--family",
            "normal-loc",
            "--estimator",
            "mle",
            "--theta",
            "0",
            "--grid",
            "-3:3:7",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,if_component_1"
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.allclose(rows[:, 0], np.linspace(-3, 3, 7))
        assert np.allclose(rows[:, 1], rows[:, 0], atol=1e-9)

    def test_subdivergence_on_full_normal(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "influence",
            "--family",
            "normal",
            "--estimator",
            "subdivergence",
            "--alpha",
            "0.5",
            "--escort",
            "0.3,1.2",
            "--theta",
            "0,1",
            "--grid",
            "-3:3:7",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,if_component_1,if_component_2"
        assert len(lines) == 8

    def test_reversed_grid_rejected(self, capsys):
        code, _, err = run_cli(
            capsys,
            "influence",
            "--family",
            "normal-loc",
            "--estimator",
            "mle",
            "--theta",
            "0",
            "--grid",
            "3:-3:7",
        )
        assert code == 1
        assert "grid" in err

    def test_numeric_matches_closed(self, capsys):
        args = [
            "influence",
            "--family",
            "normal-scale",
            "--estimator",
            "renyi",
            "--alpha",
            "0.5",
            "--theta",
            "1.0",
            "--grid",
            "-2:2:5",
        ]
        code, closed_out, _ = run_cli(capsys, *args)
        assert code == 0
        code, numeric_out, _ = run_cli(capsys, *args, "--numeric")
        assert code == 0

        def column(text):
            return np.array([float(line.split(",")[1]) for line in text.strip().split("\n")[1:]])

        assert np.max(np.abs(column(closed_out) - column(numeric_out))) < 1e-3


class TestSimulate:
    def test_deterministic_with_seed(self, capsys):
        args = [
            "simulate",
            "--epsilon",
            "0.1",
            "--contaminant",
            "cauchy",
            "--n",
            "30",
            "--reps",
            "2",
            "--seed",
            "7",
            "--alphas",
            "0.5",
        ]
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        assert out_a.startswith("estimator,alpha,mse,mean,failures")

    def test_epsilon_out_of_range(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--epsilon", "0.6", "--contaminant", "cauchy", "--reps", "1"
        )
        assert code == 1
        assert "(0, 0.5)" in err

    def test_missing_seed_echoed_to_stderr(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--epsilon",
            "0.1",
            "--contaminant",
            "normal3",
            "--n",
            "20",
            "--reps",
            "1",
            "--alphas",
            "0.5",
        )
        assert code == 0
        assert "seed:" in err
        assert out.startswith("estimator,")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--epsilon",
            "0.1",
            "--contaminant",
            "logistic",
            "--n",
            "25",
            "--reps",
            "2",
            "--seed",
            "3",
            "--alphas",
            "0.25,0.5",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        kinds = [row["estimator"] for row in payload["rows"]]
        assert kinds == ["mle", "power-pseudo", "power-pseudo", "renyi", "renyi"]


class TestUsage:
    def test_unknown_family(self, capsys, tmp_path):
        path = tmp_path / "xs.txt"
        path.write_text("1\n2\n", encoding="utf-8")
        code, _, err = run_cli(
            capsys, "estimate", "--family", "cauchy", "--estimator", "mle", "--data", str(path)
        )
        assert code == 1
        assert "unknown family" in err

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 1
