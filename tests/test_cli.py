import json
import os
import subprocess
import sys

import numpy as np
import pytest

from statdisc import cli
from statdisc.cli import canonical_json, parse_config
from statdisc.errors import DimensionAmbiguousError, UsageError


def run_cli(*args):
    out = subprocess.run(
        [sys.executable, "-m", "statdisc.cli", *args], capture_output=True, text=True
    )
    return out.returncode, out.stdout, out.stderr


class TestParse:
    def test_basic_subcommand(self):
        cfg = parse_config(["indices-maslov", "--n", "1", "--a", "0.5", "--w", "1"])
        assert cfg.subcommand == "indices-maslov"
        assert cfg.options["a"] == "0.5"

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["indices-maslov", "--bogus"])

    def test_missing_subcommand(self):
        with pytest.raises(UsageError):
            parse_config([])

    def test_config_file_with_override(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"grid": 256, "a": "0.25"}))
        cfg = parse_config(
            ["indices-maslov", "--config", str(cfgfile), "--grid", "512"]
        )
        assert cfg.options["grid"] == 512  # flag wins
        assert cfg.options["a"] == "0.25"  # file fills the default

    def test_config_unknown_key(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(UsageError):
            parse_config(["indices-maslov", "--config", str(cfgfile)])


class TestExecute:
    def test_maslov_value(self):
        code, out, _ = run_cli("indices-maslov", "--n", "1", "--a", "0.5", "--w", "1")
        assert code == 0
        data = json.loads(out)
        assert data["kappa_total"] == 4

    def test_disc_through_values(self):
        code, out, _ = run_cli("disc-through", "--p0", "1", "--z", "4,2")
        assert code == 0
        data = json.loads(out)
        assert abs(data["a"][0] - 0.6) < 1e-12 and abs(data["a"][1]) < 1e-15
        assert abs(data["w"][0][0] - 0.8) < 1e-12
        assert np.allclose(data["endpoint"], [[4, 0], [2, 0]], atol=1e-9)

    def test_partial_indices_schema(self):
        code, out, _ = run_cli("indices-partial", "--n", "1", "--a", "0.5", "--w", "1")
        data = json.loads(out)
        assert data["kappa"] == [2, 1, 1]
        assert data["total"] == 4 == data["det_winding"]

    def test_solve_failure_exit_code(self):
        code, out, err = run_cli(
            "solve", "--n", "1", "--a", "0.3", "--w", "1",
            "--epsilon", "10", "--term", "0,0,4,0:1.0",
            "--grid", "128", "--modes", "32",
        )
        assert code == 1
        detail = json.loads(err)
        assert detail["error"] in ("NoConvergenceError", "LiftConstructionError")

    def test_no_convergence_reports_residual_history(self):
        # the truncation floor |a|^M of the default grid sits above tol
        code, _, err = run_cli("solve", "--n", "1", "--a", "0.7", "--w", "1")
        assert code == 1
        detail = json.loads(err)
        assert detail["error"] == "NoConvergenceError"
        assert detail["detail"].startswith("damping stalled at residual")
        hist = detail["residual_history"]
        assert len(hist) >= 2 and hist[-1] > 1e-11
        assert f"{hist[-1]:.3e}" in detail["detail"]

    def test_dimension_error_reports_singular_values(self, monkeypatch, capsys):
        def ambiguous(_cfg):
            raise DimensionAmbiguousError(
                "no clear spectral gap", singular_values=np.array([2.0, 1e-5])
            )

        monkeypatch.setattr(cli, "_run", ambiguous)
        assert cli.execute(parse_config(["family-dim"])) == 1
        detail = json.loads(capsys.readouterr().err)
        assert detail == {
            "error": "DimensionAmbiguousError",
            "detail": "no clear spectral gap",
            "singular_values": [2.0, 1e-5],
        }

    def test_usage_exit_code(self):
        code, _, err = run_cli("indices-maslov", "--bogus")
        assert code == 2

    def test_deterministic_output(self):
        args = (
            "indicatrix", "--n", "1", "--count", "4", "--seed", "17",
            "--grid", "128", "--modes", "32",
        )
        _, out1, _ = run_cli(*args)
        _, out2, _ = run_cli(*args)
        assert out1 == out2
        assert out1.startswith("# schema=indicatrix-cloud/1")

    def test_grid_env_override(self):
        env = dict(os.environ, STATDISC_GRID="512")
        out = subprocess.run(
            [sys.executable, "-m", "statdisc.cli", "disc-make", "--n", "1",
             "--a", "0.2", "--w", "1", "--format", "csv"],
            capture_output=True, text=True, env=env,
        )
        assert out.returncode == 0
        rows = [ln for ln in out.stdout.splitlines() if ln and not ln.startswith(("#", "k,"))]
        assert len(rows) == 512

    def test_boundary_csv_roundtrip(self, tmp_path):
        csv_path = tmp_path / "disc.csv"
        code, out, _ = run_cli(
            "disc-make", "--n", "1", "--a", "0.4", "--w", "1", "--y0", "0.3",
            "--format", "csv", "--output", str(csv_path),
        )
        assert code == 0
        code2, out2, _ = run_cli("disc-invert", "--n", "1", "--input", str(csv_path))
        assert code2 == 0
        rec = json.loads(out2)["params"]
        assert abs(rec["a"][0] - 0.4) < 1e-8 and abs(rec["a"][1]) < 1e-8
        assert abs(rec["y0"] - 0.3) < 1e-8

    def test_verify_subcommand(self, tmp_path):
        csv_path = tmp_path / "disc.csv"
        run_cli("disc-make", "--n", "1", "--a", "0.2", "--w", "1",
                "--format", "csv", "--output", str(csv_path))
        code, out, _ = run_cli("verify", "--n", "1", "--input", str(csv_path))
        assert code == 0
        rep = json.loads(out)
        assert rep["max_residual"] < 1e-10 and rep["lift_defect"] < 1e-9

    def test_replay_subcommand(self):
        code, out, _ = run_cli("indices-replay", "--n", "1", "--a", "0.4", "--w", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["total"] == 4 and len(rep["steps"]) == 6

    def test_family_dim_subcommand(self):
        code, out, _ = run_cli(
            "family-dim", "--n", "1", "--a", "0.2", "--w", "1",
            "--grid", "128", "--modes", "24",
        )
        assert code == 0
        assert json.loads(out)["dim"] == 7


class TestCanonicalJson:
    def test_float_formatting(self):
        assert canonical_json({"x": 0.1}) == '{"x":0.10000000000000001}'

    def test_sorted_keys_and_complex(self):
        s = canonical_json({"b": 1 + 2j, "a": [True, None]})
        assert s == '{"a":[true,null],"b":[1,2]}'
