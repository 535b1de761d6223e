import json
import subprocess
import sys
from itertools import product

import numpy as np
import pytest

from statdisc import cli
from statdisc.cli import canonical_json, parse_config
from statdisc.errors import DimensionAmbiguousError, UsageError

from conftest import edge_pole


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


    def test_config_cannot_name_the_subcommand(self, tmp_path):
        # a config file fills options; it does not choose what runs
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"subcommand": "solve"}))
        with pytest.raises(UsageError, match="unknown config keys"):
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
        # the perturbation's own truncation floor on the (64, 16) grid sits
        # above tol; the closed-form start solves eps = 0 in its frame, so
        # the step and its retry through eps / 2 run and stall
        code, _, err = run_cli(
            "solve", "--n", "1", "--a", "0.9", "--w", "1", "--epsilon", "1e-3",
            "--term", "0,0,4,0:1.0", "--grid", "64", "--modes", "16",
        )
        assert code == 1
        detail = json.loads(err)
        assert detail["error"] == "NoConvergenceError"
        assert detail["detail"].startswith("damping stalled at residual")
        hist = detail["residual_history"]
        assert len(hist) >= 2 and hist[-1] > 1e-11
        assert f"{hist[-1]:.3e}" in detail["detail"]
        # it names the cause and the knobs, with the user's eps, not the
        # frame's eps * c^2 = 3.61e-05
        assert detail["detail"].endswith(
            "; every schedule stalls above tol at eps = 0.001 on the N=64, M=16 grid:"
            " raise M (and N), or lower eps"
        )

    def test_framed_solve_answers_with_j0_or_names_the_domain_limit(self, monkeypatch, capsys):
        # the closed-form start at |a| = 0.7 sits past its |a|^M floor; in
        # its normalized frame it answers with one linearization, J0's, and
        # no eps = 0 start check runs on a framed solve
        args = ("solve", "--n", "1", "--a", "0.7", "--w", "1", "--epsilon", "1e-3",
                "--term", "0,0,4,0:1")
        code, out, _ = run_cli(*args)
        assert code == 0
        data = json.loads(out)
        assert data["residual_sup"] < 1e-11 and data["linearizations"] == 1
        # in-process the same bytes, with no dense Jacobian assembled
        from statdisc import rh_solver

        calls = []
        jacobian = rh_solver._DiscSystem.jacobian
        monkeypatch.setattr(rh_solver._DiscSystem, "jacobian",
                            lambda *a, **k: calls.append(1) or jacobian(*a, **k))
        assert run_main(capsys, *args) == (0, out, "") and calls == []
        # at |a| = 0.95 the start is refused before any Newton step: the
        # perturbation in the frame is as large as r, and the error names
        # it, the user's eps and the knobs
        code, _, err = run_cli(
            "solve", "--n", "1", "--a", "0.95", "--w", "1", "--epsilon", "1e-3",
            "--term", "0,0,4,0:1",
        )
        assert code == 1
        assert json.loads(err) == {
            "error": "LiftConstructionError",
            "detail": "normalization component winds around 0; in the normalized frame of the"
            " pole |a| = 0.95 the perturbation eps*c^2*sup|s o Phi^-1 o g| reads 1.521e+00"
            " (eps = 0.001, c^2 = 0.00951): lower eps or |a|",
        }

    @pytest.mark.parametrize("args", [
        ("solve", "--n", "1", "--pin-center", "--p0", "0"),
        ("family-dim", "--n", "1", "--pin-center", "--p0", "-1", "--epsilon", "1e-3",
         "--term", "0,0,4,0:1"),
    ], ids=["solve", "family-dim"])
    def test_inadmissible_pin_refused_before_any_stage(self, monkeypatch, capsys, args):
        # A = I has no disc centered at (p0, 0) for Re p0 <= 0: the refusal
        # names the center and --p0, not the solver's knobs
        from statdisc import rh_solver

        calls = []
        solve = rh_solver.solve_glued_disc
        monkeypatch.setattr(rh_solver, "solve_glued_disc",
                            lambda *a, **k: calls.append(1) or solve(*a, **k))
        code, out, err = run_main(capsys, *args, "--grid", "64", "--modes", "16")
        assert (code, out, calls) == (1, "", [])
        detail = json.loads(err)
        assert detail["error"] == "InvalidInputError"
        pin = f"no stationary disc is centered at the pin ({args[5]}+0j, 0+0j)"
        assert detail["detail"].startswith(pin)
        assert detail["detail"].endswith("; choose another center (--p0)")

    def test_start_refusal_names_the_normalizing_component(self, capsys):
        # A = I at eps = 0: the framed start's lift divides by u_n, u = w/|w|;
        # w = (1, 0) has no lift, w = (1, 1e-6) rounds above tol, and both
        # closed-form discs are valid
        knob = "order the coordinates so that the last one carries more of conj(u)^T A"
        for w, error, ratio in (("1,0", "LiftConstructionError", "0.000e+00"),
                                ("1,1e-6", "NoConvergenceError", "1.000e-06")):
            code, out, err = run_main(capsys, "solve", "--n", "2", "--w", w)
            assert (code, out) == (1, ""), w
            detail = json.loads(err)
            assert detail["error"] == error
            assert "the framed start misses tol at eps = 0" in detail["detail"]
            assert detail["detail"].endswith(f"reads {ratio} for u = w/|w|: {knob}")
        code, out, _ = run_main(capsys, "solve", "--n", "2", "--w", "1,1e-5")
        assert code == 0 and json.loads(out)["residual_sup"] < 1e-11

    def test_converged_solve_refused_on_its_lift_names_the_defect(self, capsys):
        # the residual converges; the lift's component 1 is rounding (w = (0, 1),
        # A = I), so its relative defect is refused: no grid knob is named
        code, out, err = run_main(
            capsys, "solve", "--n", "2", "--w", "0,1", "--a", "0.3", "--epsilon", "1e-3",
            "--term", "0,0,0,0,4,0:1.0",
        )
        assert (code, out) == (1, "")
        detail = json.loads(err)
        assert detail["error"] == "NoConvergenceError"
        text = detail["detail"]
        assert text.startswith("stationarity defect 1.000e+00 above tolerance in component 1")
        assert "no stall was retried: the lift's defect, not the grid, refuses the disc" in text
        assert "raise M" not in text and detail["residual_history"][-1] < 1e-11

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

    def test_family_dimension_spectrum_reaches_the_error_json(self, monkeypatch, capsys):
        # the solve runs; the refusal comes from the family-dimension count
        from statdisc import rh_solver

        def ambiguous(*_args):
            raise DimensionAmbiguousError(
                "no clear spectral gap", singular_values=np.array([3.0, 2e-5, np.inf])
            )

        monkeypatch.setattr(rh_solver, "family_dimension", ambiguous)
        code, out, err = run_main(capsys, "family-dim", "--n", "1", "--a", "0.2", "--w", "1",
                                  "--grid", "64", "--modes", "16")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "DimensionAmbiguousError",
            "detail": "no clear spectral gap",
            "singular_values": [3.0, 2e-5, None],
        }

    def test_single_mode_refusal_is_json(self, capsys):
        # unpinned, the solve never reads T0 (None at M = 1); every exact
        # linearization takes the SVD step, whose cut drops J's zero Im c00
        # column, and the solve refuses with the error JSON, not a crash
        code, out, err = run_main(capsys, "solve", "--n", "1", "--a", "0", "--w", "1",
                                  "--epsilon", "1e-3", "--term", "0,0,4,0:1.0",
                                  "--grid", "16", "--modes", "1")
        assert (code, out) == (1, "")
        detail = json.loads(err)
        assert detail["error"] == "NoConvergenceError"
        assert detail["detail"].endswith("on the N=16, M=1 grid: raise M (and N), or lower eps")
        assert len(detail["residual_history"]) >= 2

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

    def test_grid_option_sets_the_sample_count(self):
        code, out, _ = run_cli(
            "disc-make", "--n", "1", "--a", "0.2", "--w", "1", "--format", "csv", "--grid", "512"
        )
        assert code == 0
        rows = [ln for ln in out.splitlines() if ln and not ln.startswith(("#", "k,"))]
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
        assert set(rec) == {"a", "v", "w", "y0"}
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

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("", "boundary CSV has no samples"),
            ("# schema=boundary-samples/1\nk,theta,component_0_re,component_0_im,"
             "component_1_re,component_1_im\n", "boundary CSV has no samples"),
            ("k,theta,c0re,c0im,c1re,c1im\n0,0,1,0,nan,0\n",
             "boundary CSV has a non-finite value"),
        ],
        ids=["empty", "header-only", "nan"],
    )
    def test_verify_rejects_a_sampleless_or_nan_csv(self, tmp_path, text, detail):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(text)
        code, out, err = run_cli("verify", "--n", "1", "--input", str(csv_path))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "detail": detail}

    @pytest.mark.parametrize("sub", ["disc-invert", "verify"])
    def test_json_input_names_the_format(self, capsys, tmp_path, sub):
        # disc-make writes JSON unless asked for --format csv
        path = tmp_path / "disc.json"
        assert cli.main(["disc-make", "--n", "1", "--a", "0.2", "--output", str(path)]) == 0
        capsys.readouterr()
        code, out, err = run_main(capsys, sub, "--n", "1", "--input", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "usage", "detail": "expected a boundary CSV (--format csv), got JSON"
        }

    def test_replay_subcommand(self):
        code, out, _ = run_cli("indices-replay", "--n", "1", "--a", "0.4", "--w", "1")
        assert code == 0
        rep = json.loads(out)
        assert rep["total"] == 4 and len(rep["steps"]) == 6

    def test_replay_n3_off_center_pole(self, capsys):
        code, out, _ = run_main(capsys, "indices-replay", "--n", "3", "--a", "0.6",
                                "--w", "1,0.5,0.2")
        assert code == 0
        rep = json.loads(out)
        assert rep["kappa"] == [2, 1, 1, 1, 1, 1, 1] and rep["det_winding"] == 8

    def test_replay_near_the_circle_names_the_grid(self, capsys):
        # |a| = 0.999: the default grid cannot resolve the chain's windings
        code, out, err = run_main(capsys, "indices-replay", "--n", "2", "--w", "1,0.5",
                                  "--a=0.5397620035622717+0.8406295138230886j")
        assert (code, out) == (1, "")
        detail = json.loads(err)
        assert detail["error"] == "ReductionMismatchError"
        assert detail["detail"].startswith("determinant winding changed along the chain")
        assert detail["detail"].endswith(
            " on N=256 samples; a pole near the circle needs a larger grid"
        )

    def test_maslov_near_the_circle_names_the_grid(self, capsys):
        args = ("indices-maslov", "--n", "4", "--a", "0.95", "--w", "1,0.5,0.2,0.1",
                "--source", "gradient")
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ResolutionError",
            "detail": "phase step close to pi on N=256 samples; increase the grid size",
        }
        code, out, _ = run_main(capsys, *args, "--grid", "1024")
        assert code == 0 and json.loads(out)["kappa_total"] == 10

    def test_maslov_missed_pole_names_the_grid(self, capsys):
        # the 256-point winding misses the pole with no phase step near pi
        args = ("indices-maslov", "--n", "1", "--a", "0.999", "--w", "1", "--source", "gradient")
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "FactorizationError",
            "detail": "partial index sum 4 != det winding 2 on N=256 samples;"
            " a pole near the circle needs a larger grid",
        }
        code, out, _ = run_main(capsys, *args, "--grid", "16384")
        assert code == 0 and json.loads(out)["kappa_total"] == 4

    @pytest.mark.parametrize(
        "args,detail",
        [
            (("disc-make", "--n", "-1"), "--n must be at least 1, got -1"),
            (("solve", "--n", "1", "--modes", "0"), "--modes must be at least 1, got 0"),
            (("solve", "--n", "1", "--grid", "64"),
             "--modes 48 (the default) must be below --grid/2 = 32"),
            (("solve", "--n", "1", "--grid", "64", "--modes", "40"),
             "--modes 40 must be below --grid/2 = 32"),
            (("solve", "--n", "1", "--grid", "0"),
             "--grid 0: grid size must be a power of two, multiple of 4, >= 8"),
            (("indicatrix", "--n", "1", "--count", "0"), "--count must be at least 1, got 0"),
            (("indicatrix", "--n", "1", "--count", "-1"), "--count must be at least 1, got -1"),
            (("transport", "--n", "1", "--z", "1+0.5j,1", "--theta", "nan"),
             "--theta must be finite, got nan"),
        ],
        ids=[
            "n-negative", "modes-0", "modes-default-over-grid", "modes-over-grid", "grid-0",
            "count-0", "count-negative", "theta-nan",
        ],
    )
    def test_out_of_range_flag_is_a_usage_error(self, capsys, args, detail):
        code, out, err = run_main(capsys, *args)
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "detail": detail}

    def test_config_file_numbers_are_checked(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"n": "x"}))
        code, out, err = run_main(capsys, "disc-make", "--config", str(cfgfile))
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "usage",
            "detail": "bad numeric option: invalid literal for int() with base 10: 'x'",
        }

    @pytest.mark.parametrize(
        "config,detail",
        [
            ({"epsilon": "x"}, "bad numeric option: could not convert string to float: 'x'"),
            ({"grid": "x"}, "bad numeric option: invalid literal for int() with base 10: 'x'"),
            ({"a": 0.3}, "config key 'a' must be a string, got 0.3"),
            ({"w": 1}, "config key 'w' must be a string, got 1"),
            ({"term": "0,0,4,0:1"}, "config key 'term' must be a list of strings, got '0,0,4,0:1'"),
            ({"pin_center": 1}, "config key 'pin_center' must be true or false, got 1"),
        ],
        ids=["epsilon", "grid", "a", "w", "term", "pin_center"],
    )
    def test_config_file_values_take_their_flag_types(self, capsys, tmp_path, config, detail):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(config))
        code, out, err = run_main(capsys, "disc-make", "--config", str(cfgfile))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "detail": detail}

    @pytest.mark.parametrize(
        "model,detail",
        [
            ([1, [[1, 0]]], "model file needs an object with key 'n'"),
            ({"A": [[1, 0]]}, "model file needs an object with key 'n'"),
            ({"n": "x", "A": [[1, 0]]}, "model file key 'n': expected an integer, got 'x'"),
            ({"n": 1.9, "A": [[1, 0]]}, "model file key 'n': expected an integer, got 1.9"),
            ({"n": True, "A": [[1, 0]]}, "model file key 'n': expected an integer, got True"),
            ({"n": 1, "A": [1]}, "model file key 'A': cannot unpack non-iterable int object"),
            ({"n": 1, "A": [[1, 0]], "terms": [{"coeff": 1.0}]},
             "model file needs an object with key 'multi_index'"),
            ({"n": 1, "A": [[1, 0]], "terms": [{"multi_index": [0, 0, 2.7, 0], "coeff": 1.0}]},
             "model file key 'multi_index': expected an integer, got 2.7"),
        ],
        ids=["list", "no-n", "n-text", "n-float", "n-bool", "A-unpaired",
             "term-without-multi-index", "multi-index-float"],
    )
    def test_malformed_model_file_is_a_usage_error(self, capsys, tmp_path, model, detail):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, out, err = run_main(capsys, "disc-make", "--A", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "usage", "detail": detail}

    @pytest.mark.parametrize(
        "model,detail",
        [
            ({"n": 2, "A": [[1, 0], [1, 0], [0, 0], [1, 0]]}, "A is not Hermitian to 1e-14"),
            ({"n": 1, "A": [[1, 0]], "terms": [{"multi_index": [4, 0], "coeff": 1.0}]},
             "bad multi-index (4, 0)"),
            ({"n": 2, "A": [[1, 0]]}, "A must hold n*n row-major entries"),
            ({"n": -1, "A": [[1, 0]]}, "n must be a positive integer"),
        ],
        ids=["non-hermitian", "bad-multi-index", "entry-count", "n-negative"],
    )
    def test_invalid_model_file_is_a_domain_error(self, capsys, tmp_path, model, detail):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, out, err = run_main(capsys, "disc-make", "--A", str(path))
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "InvalidInputError", "detail": detail}

    def test_model_file_matches_the_flags(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 2, "A": [[1, 0], [0, 0], [0, 0], [1, 0]]}))
        from_file = run_main(capsys, "disc-make", "--A", str(path), "--w", "1,0.5")
        assert from_file[0] == 0
        assert from_file == run_main(capsys, "disc-make", "--n", "2", "--w", "1,0.5")

    @pytest.mark.parametrize(
        "flags,config",
        [
            (("--epsilon", "0.01", "--term", "0,0,4,0:1.0"), None),
            (("--epsilon", "0.01"), None),
            (("--term", "0,0,4,0:1.0"), None),
            ((), {"epsilon": 0.01, "term": ["0,0,4,0:1.0"]}),
        ],
        ids=["both-flags", "epsilon-flag", "term-flag", "config"],
    )
    def test_model_file_refuses_a_perturbation_beside_it(self, capsys, tmp_path, flags, config):
        # the model file holds the whole model; the perturbation would be dropped
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 1, "A": [[1, 0]]}))
        if config is not None:
            cfgfile = tmp_path / "run.json"
            cfgfile.write_text(json.dumps(config))
            flags = ("--config", str(cfgfile))
        code, out, err = run_main(capsys, "solve", "--A", str(path), "--a", "0.3", *flags,
                                  "--grid", "128", "--modes", "32")
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "usage",
            "detail": "--A reads the whole model from its file: put 'epsilon' and 'terms' in "
            "the model file, not --epsilon or --term",
        }

    def test_typed_config_file_matches_the_flags(self, capsys, tmp_path):
        config = {"n": 1, "a": "0.3", "w": "1", "epsilon": 1e-3, "term": ["0,0,4,0:1.0"],
                  "pin_center": True, "p0": "1.5", "grid": 128, "modes": 32}
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(config))
        from_file = run_main(capsys, "solve", "--config", str(cfgfile))
        from_flags = run_main(capsys, "solve", "--n", "1", "--a", "0.3", "--w", "1",
                              "--epsilon", "1e-3", "--term", "0,0,4,0:1.0", "--pin-center",
                              "--p0", "1.5", "--grid", "128", "--modes", "32")
        assert from_file[0] == 0 and from_file == from_flags

    def test_non_finite_epsilon_refused(self, capsys):
        code, out, err = run_main(capsys, "solve", "--n", "1", "--a", "0.3", "--w", "1",
                                  "--epsilon", "nan")
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "InvalidInputError", "detail": "epsilon must be finite, got nan"
        }

    def test_family_dim_subcommand(self):
        code, out, _ = run_cli(
            "family-dim", "--n", "1", "--a", "0.2", "--w", "1",
            "--grid", "128", "--modes", "24",
        )
        assert code == 0
        assert json.loads(out)["dim"] == 7


def run_main(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOLVE_GRID = ("--grid", "128", "--modes", "24")
BOUNDARY_HEADER = "k,theta,component_0_re,component_0_im,component_1_re,component_1_im"


class TestSubcommands:
    @pytest.mark.parametrize("r", [0.999, 1 - 1e-10])
    @pytest.mark.parametrize("sub", ["disc-make", "lift"])
    def test_closed_form_answers_near_the_circle(self, capsys, sub, r):
        for n, phase in product((1, 2, 3), (0.0, 1.0)):
            a = edge_pole(r, phase)
            w = ",".join(["1", "0.5", "0.2"][:n])
            code, out, err = run_main(capsys, sub, "--n", str(n), "--w", w, f"--a={a!r}")
            assert (code, err) == (0, "")
            assert json.loads(out)

    def test_lift_json(self, capsys):
        code, out, _ = run_main(capsys, "lift", "--n", "1", "--a", "0.3", "--w", "1")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {
            "b", "c_at_1", "lift_defect", "permutation", "projectivized_components"
        }
        assert data["lift_defect"] < 1e-12 and data["projectivized_components"] == 3

    def test_disc_make_reports_the_gluing_residual_alone(self, capsys):
        # the closed-form disc with w = (1, 0) is valid, but the lift that
        # verify builds divides by its zero normalizing component
        code, out, err = run_main(capsys, "disc-make", "--n", "2", "--w", "1,0")
        assert (code, err) == (0, "")
        assert json.loads(out)["max_residual"] < 1e-15
        # where the lift exists, max_residual is verify's, bit for bit
        from statdisc import DiscParams, Hyperquadric, make_disc, verify_gluing

        q = Hyperquadric(n=2, A=np.eye(2))
        d = make_disc(q, DiscParams(y0=0.0, v=np.zeros(2), w=[1.0, 0.5], a=0.3))
        code, out, _ = run_main(capsys, "disc-make", "--n", "2", "--w", "1,0.5", "--a", "0.3")
        assert code == 0
        assert json.loads(out)["max_residual"] == verify_gluing(q, d.boundary(256)).max_residual

    def test_lift_and_disc_make_csv(self, capsys):
        for sub in ("lift", "disc-make"):
            code, out, _ = run_main(
                capsys, sub, "--n", "1", "--a", "0.3", "--w", "1", "--format", "csv",
                "--grid", "32",
            )
            assert code == 0
            lines = out.splitlines()
            assert lines[:2] == ["# schema=boundary-samples/1", BOUNDARY_HEADER]
            assert len(lines) == 2 + 32

    @pytest.mark.parametrize("sub,flag", [
        ("disc-invert", "--input CSV of boundary samples"),
        ("verify", "--input CSV of boundary samples"),
        ("disc-through", "--z"),
        ("transport", "--z"),
    ])
    def test_missing_required_option(self, capsys, sub, flag):
        code, _, err = run_main(capsys, sub, "--n", "1")
        assert code == 2
        assert json.loads(err) == {"error": "usage", "detail": f"{sub} needs {flag}"}

    def test_jacobians(self, capsys):
        code, out, _ = run_main(capsys, "jacobians", "--n", "1", *SOLVE_GRID)
        assert code == 0
        data = json.loads(out)
        assert set(data) == {
            "endpoint_invertible", "sv_endpoint_min", "sv_velocity_min", "velocity_injective"
        }
        assert data["endpoint_invertible"] and data["velocity_injective"]

    def test_indicatrix(self, capsys):
        code, out, _ = run_main(capsys, "indicatrix", "--n", "1", "--count", "2", *SOLVE_GRID)
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == (
            "index,ok,y0,a_re,a_im,w0_re,w0_im,"
            "velocity0_re,velocity0_im,velocity1_re,velocity1_im,residual"
        )
        assert len(lines) == 2 + 2

    def test_transport_identity(self, capsys):
        # theta = 0 gives dF = identity on the unperturbed sphere: z maps to itself
        code, out, _ = run_main(capsys, "transport", "--n", "1", "--z", "1+0.5j,1", *SOLVE_GRID)
        assert code == 0
        data = json.loads(out)
        assert data["theta"] == 0
        assert np.allclose(data["image"], [[1, 0.5], [1, 0]], atol=1e-8)


class TestCanonicalJson:
    def test_float_formatting(self):
        assert canonical_json({"x": 0.1}) == '{"x":0.10000000000000001}'

    def test_sorted_keys_and_complex(self):
        s = canonical_json({"b": 1 + 2j, "a": [True, None]})
        assert s == '{"a":[true,null],"b":[1,2]}'


@pytest.fixture(scope="module")
def boundary_csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("wire") / "disc.csv"
    assert cli.main(["disc-make", "--n", "1", "--a", "0.4", "--w", "1", "--y0", "0.3",
                     "--format", "csv", "--output", str(path)]) == 0
    return str(path)


# per key of the JSON object: None for a real-valued field, k for a
# complex field nested k lists deep (0: one [re, im] pair), or the
# object the key holds
PARAMS = {"a": 0, "v": 1, "w": 1, "y0": None}
WIRE_FORMATS = [
    (("disc-make", "--n", "2", "--w", "1,0.5", "--a", "0.3+0.1j", "--v", "0.2,0"),
     {"params": PARAMS, "center": 1, "endpoint": 1, "velocity": 1, "max_residual": None}),
    (("disc-invert", "--n", "1", "--input", "{csv}"), {"params": PARAMS}),
    (("disc-through", "--n", "2", "--p0", "1+0.5j", "--z", "1.25+0.5j,1,0.5"),
     {"a": 0, "w": 1, "y0": None, "endpoint": 1}),
    (("lift", "--n", "2", "--w", "1,0.5", "--a", "0.3"),
     {"b": None, "c_at_1": None, "lift_defect": None, "permutation": None,
      "projectivized_components": None}),
    (("verify", "--n", "1", "--input", "{csv}"), {"lift_defect": None, "max_residual": None}),
    (("indices-maslov", "--n", "2", "--a", "0.6", "--w", "1,0.5", "--source", "gradient"),
     {"expected": None, "kappa_total": None, "n": None}),
    (("indices-partial", "--n", "2", "--a", "0.4+0.2j", "--w", "1,0.5"),
     {"det_winding": None, "kappa": None, "total": None}),
    (("indices-replay", "--n", "2", "--a", "0.4", "--w", "1,0.5"),
     {"det_winding": None, "kappa": None, "steps": None, "total": None}),
    (("solve", "--n", "1", "--a", "0.3", "--w", "1", "--epsilon", "1e-3",
      "--term", "0,0,4,0:1.0", *SOLVE_GRID),
     {"coefficients": 2, "iterations": None, "lift_defects": None, "linearizations": None,
      "residual_sup": None,
      "frame": {"L": 2, "a": 0, "c2": None, "coefficients": 2, "t": 1}}),
    (("family-dim", "--n", "1", "--a", "0.2", "--w", "1", *SOLVE_GRID),
     {"dim": None, "gap": None, "pinned": None}),
    (("jacobians", "--n", "1", *SOLVE_GRID),
     {"endpoint_invertible": None, "sv_endpoint_min": None, "sv_velocity_min": None,
      "velocity_injective": None}),
    (("transport", "--n", "1", "--p0", "1", "--z", "2,1.4142135623730951", "--theta", "0.8"),
     {"image": 1, "theta": None}),
]


def assert_wire(value, spec):
    if isinstance(spec, dict):
        assert isinstance(value, dict) and set(value) == set(spec)
        for key, sub in spec.items():
            assert_wire(value[key], sub)
    elif spec == 0:
        assert isinstance(value, list) and len(value) == 2
        assert all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value)
    elif spec is not None:
        assert isinstance(value, list) and value
        for item in value:
            assert_wire(item, spec - 1)


@pytest.mark.parametrize("args,spec", WIRE_FORMATS, ids=[a[0] for a, _ in WIRE_FORMATS])
def test_wire_format(capsys, boundary_csv_path, args, spec):
    args = [arg.format(csv=boundary_csv_path) for arg in args]
    code, out, err = run_main(capsys, *args)
    assert (code, err) == (0, "")
    assert_wire(json.loads(out), spec)


class TestDomainSweep:
    """Every closed-form cell answers with kappa = (2, 1, ..., 1); a cell of
    the gradient source or the replay chain answers correctly or refuses,
    exit 1, naming the grid.  A solve cell answers below tol or refuses,
    exit 1, naming its cause and a knob (n <= 2 so far)."""

    RADII = (0.3, 0.6, 0.8, 0.9, 0.95, 0.99, 0.999, 1 - 1e-10)
    CELLS = (("disc-make", None), ("lift", None),
             ("indices-maslov", "closed_form"), ("indices-partial", "closed_form"),
             ("indices-maslov", "gradient"), ("indices-partial", "gradient"),
             ("indices-replay", None))

    @pytest.mark.parametrize("signature", ["definite", "alternating"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_answers_or_names_the_grid(self, capsys, tmp_path, n, signature):
        # alternating: A = diag(-1, 1, -1, 1)[:n], another signature at every n
        signs = [1.0] * n if signature == "definite" else [(-1.0) ** (j + 1) for j in range(n)]
        path = tmp_path / "model.json"
        A = np.diag(signs).ravel()
        path.write_text(json.dumps({"n": n, "A": [[x, 0.0] for x in A]}))
        w = ",".join(["1", "0.5", "0.2", "0.1"][:n])
        kappa, total = [2] + [1] * (2 * n), 2 * n + 2
        for r, (sub, source) in product(self.RADII, self.CELLS):
            args = [sub, "--A", str(path), "--w", w, f"--a={edge_pole(r, 1.0)!r}"]
            args += ["--source", source] if source else []
            code, out, err = run_main(capsys, *args)
            if code == 1 and source != "closed_form" and sub.startswith("indices"):
                assert "N=256" in json.loads(err)["detail"], args
                continue
            assert (code, err) == (0, ""), args
            data = json.loads(out)
            if sub == "indices-maslov":
                assert data["kappa_total"] == data["expected"] == total, args
            elif sub.startswith("indices"):
                assert (data["kappa"], data["total"], data["det_winding"]) == (kappa, total, total)

    SOLVE_KNOBS = ("raise M (and N), or lower eps", "lower eps or |a|")

    @pytest.mark.parametrize("signature", ["definite", "alternating"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_solve_answers_or_names_a_knob(self, capsys, tmp_path, n, signature):
        signs = [1.0] * n if signature == "definite" else [(-1.0) ** (j + 1) for j in range(n)]
        w = ",".join(["1", "0.5"][:n])
        for eps in (0.0, 1e-3):
            path = tmp_path / f"model-{eps}.json"
            path.write_text(json.dumps({
                "n": n, "A": [[x, 0.0] for x in np.diag(signs).ravel()], "epsilon": eps,
                "terms": [{"multi_index": [0, 0, 4] + [0] * (2 * n - 1), "coeff": 1.0}],
            }))
            for r in self.RADII:
                args = ["solve", "--A", str(path), "--w", w, f"--a={edge_pole(r, 1.0)!r}",
                        "--grid", "128", "--modes", "24"]
                code, out, err = run_main(capsys, *args)
                if code == 0:
                    assert json.loads(out)["residual_sup"] < 1e-11, args
                    continue
                assert (code, out) == (1, ""), args
                detail = json.loads(err)
                assert detail["error"] in ("NoConvergenceError", "LiftConstructionError"), args
                assert detail["detail"].endswith(self.SOLVE_KNOBS), args
                # eps = 0 is exact in the normalized frame at every |a|
                assert eps > 0, args
