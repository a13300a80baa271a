import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mourre_lab import cli
from mourre_lab.cli import (
    ConfigError,
    ExperimentConfig,
    emit_csv,
    emit_json,
    load_config,
    main,
    run,
)


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestLoadConfig:
    def test_valid_roundtrip(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"experiment": "rho-scan", "n": 321, "L": 20.0})
        cfg = load_config(path)
        assert cfg.experiment == "rho-scan"
        assert cfg.n == 321

    def test_unknown_field(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"experiment": "rho-scan", "gridsize": 3})
        with pytest.raises(ConfigError, match="gridsize"):
            load_config(path)

    def test_bad_experiment_tag(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"experiment": "explode"})
        with pytest.raises(ConfigError, match="experiment"):
            load_config(path)

    def test_even_n_rejected(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"experiment": "transfer", "n": 320})
        with pytest.raises(ConfigError, match="n:"):
            load_config(path)

    def test_nonpositive_tolerance_rejected(self, tmp_path):
        path = write_config(tmp_path, "c.json",
                            {"experiment": "transfer", "params": {"tol": -1.0}})
        with pytest.raises(ConfigError, match="params.tol"):
            load_config(path)

    def test_threads_override(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"experiment": "rho-scan", "threads": 2})
        assert load_config(path).threads == 2
        assert load_config(path, threads=4).threads == 4

    def test_seed_field_rejected(self, tmp_path, capsys):
        """No run draws random numbers, so a seed would change nothing."""
        path = write_config(tmp_path, "c.json", {"experiment": "rho-scan", "seed": 0})
        with pytest.raises(ConfigError, match=r"^config: unknown field\(s\) \['seed'\]$"):
            load_config(path)
        assert main(["rho-scan", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "'seed'" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_unknown_param_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "c.json",
                            {"experiment": "rho-scan", "params": {"lamdas": [0.5]}})
        with pytest.raises(ConfigError, match="lamdas"):
            load_config(path)

    def test_param_key_of_another_experiment_rejected(self, tmp_path):
        path = write_config(tmp_path, "c.json",
                            {"experiment": "transfer", "params": {"n_times": 5}})
        with pytest.raises(ConfigError, match="n_times"):
            load_config(path)

    @pytest.mark.parametrize("experiment", ["rho-scan", "transfer", "hypotheses",
                                            "scatter", "completeness"])
    def test_bump_params_accepted_everywhere(self, tmp_path, experiment):
        path = write_config(tmp_path, "c.json", {
            "experiment": experiment,
            "params": {"bump_amplitude": 0.3, "bump_width": 2.0}})
        assert load_config(path).params["bump_width"] == 2.0

    def test_unknown_operator_tag_rejected(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"experiment": "hypotheses",
                                                 "params": {"operators": ["ii", "iii", "bogus"]}})
        with pytest.raises(ConfigError, match="bogus"):
            load_config(path)

    def test_params_must_be_object(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"experiment": "rho-scan", "params": [1]})
        with pytest.raises(ConfigError, match="params"):
            load_config(path)

    def test_threads_env_ignored(self, tmp_path, monkeypatch):
        """Only the flag and the config field set the thread count."""
        path = write_config(tmp_path, "c.json", {"experiment": "rho-scan"})
        for value in ("abc", "2"):
            monkeypatch.setenv("MOURRE_LAB_THREADS", value)
            assert load_config(path).threads is None
            assert load_config(path, threads=3).threads == 3

    @pytest.mark.parametrize("key,value", [("n", "321"), ("L", "40"), ("threads", "2"),
                                           ("L", float("nan")), ("L", 10**400)],
                             ids=["n-321", "L-40", "threads-2", "L-nan", "L-integer-1e400"])
    def test_top_level_type_names_field(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, "c.json", {"experiment": "transfer", key: value})
        with pytest.raises(ConfigError, match=f"^{key}: expected a JSON"):
            load_config(path)
        assert main(["transfer", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("key,value", [("eps", "0.1"), ("tol", True), ("lambdas", 3)])
    def test_param_type_names_field(self, tmp_path, key, value):
        path = write_config(tmp_path, "c.json",
                            {"experiment": "transfer", "params": {key: value}})
        with pytest.raises(ConfigError, match=f"^params.{key}: expected a JSON"):
            load_config(path)

    @pytest.mark.parametrize("experiment,params,key", [
        ("rho-scan", {"lambda_step": 0.0}, "params.lambda_step"),
        ("rho-scan", {"lambda_step": -0.1}, "params.lambda_step"),
        ("rho-scan", {"lambda_min": 2.0, "lambda_max": 1.0}, "params.lambda_max"),
        ("rho-scan", {"lambdas": ["a"]}, "params.lambdas"),
        ("hypotheses", {"levels": [[40]]}, "params.levels"),
        ("hypotheses", {"levels": [[40.0, 161]]}, "params.levels"),
        ("hypotheses", {"levels": [[40.0, 160], [40.0, 321]]}, "params.levels"),
        ("hypotheses", {"levels": [[40.0, 15], [40.0, 321]]}, "params.levels"),
        ("completeness", {"n_times": 1}, "params.n_times"),
        ("completeness", {"n_times": 0}, "params.n_times"),
        ("completeness", {"n_times": -3}, "params.n_times"),
        ("hypotheses", {"eta_width": 0.0}, "params.eta_width"),
        ("hypotheses", {"eta_width": -0.4}, "params.eta_width"),
        ("transfer", {"bump_amplitude": 0.3, "bump_width": 0.0}, "params.bump_width"),
        ("completeness", {"t_max": 0.0}, "params.t_max"),
        ("completeness", {"t_max": -8.0}, "params.t_max"),
        # json reads NaN and Infinity; neither is a finite number
        ("transfer", {"tol": float("nan")}, "params.tol"),
        ("completeness", {"t_max": float("nan")}, "params.t_max"),
        ("rho-scan", {"eps": float("nan")}, "params.eps"),
        ("scatter", {"tol": float("inf")}, "params.tol"),
        ("rho-scan", {"lambdas": [0.5, float("-inf")]}, "params.lambdas"),
    ], ids=["step-zero", "step-negative", "max-below-min", "lambda-not-number",
            "level-not-pair", "one-level", "level-n-even", "level-n-small",
            "n-times-one", "n-times-zero", "n-times-negative",
            "eta-width-zero", "eta-width-negative", "bump-width-zero",
            "t-max-zero", "t-max-negative", "tol-nan", "t-max-nan", "eps-nan",
            "tol-infinity", "lambda-minus-infinity"])
    def test_param_value_names_key(self, tmp_path, capsys, experiment, params, key):
        path = write_config(tmp_path, "c.json", dict(SMALL, experiment=experiment,
                                                     params=params))
        with pytest.raises(ConfigError, match=key):
            load_config(path)
        assert main([experiment, "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("profile,params,key", [
        ("sahrp_step", {"bump_amplitude": 0.3}, "profile"),
        ("sahrp_step", {}, "profile"),
        ("custom", {}, "profile"),
        ("sharp_step", {"bump_amplitude": 0.3}, "params.bump_amplitude"),
        ("smooth_step_plus_bump", {}, "profile"),
        ("smooth_step_plus_bump", {"bump_amplitude": 0.0}, "profile"),
        ("smooth_step_plus_bump", {"bump_amplitude": 0.3}, "profile"),
    ], ids=["typo-with-bump", "typo", "custom-without-samples", "sharp-step-with-bump",
            "plus-bump-default-amplitude", "plus-bump-zero-amplitude", "plus-bump-with-bump"])
    def test_profile_the_config_cannot_honour(self, tmp_path, capsys, profile, params, key):
        """A profile is used as written or refused: a bump never swaps a typo
        or a sharp step for the smooth step, and the retired name
        smooth_step_plus_bump is refused with or without a bump."""
        path = write_config(tmp_path, "c.json", dict(SMALL, experiment="transfer",
                                                     profile=profile, params=params))
        with pytest.raises(ConfigError, match=f"^{key}:"):
            load_config(path)
        assert main(["transfer", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.splitlines()) == 1
        assert not (tmp_path / "transfer.json").exists()

    def test_smooth_step_with_a_bump(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"experiment": "transfer",
                                                 "profile": "smooth_step",
                                                 "params": {"bump_amplitude": 0.3}})
        assert load_config(path).profile == "smooth_step"

    def test_integer_fits_number_param(self, tmp_path):
        path = write_config(tmp_path, "c.json", {"experiment": "transfer", "L": 40,
                                                 "params": {"eps": 1, "lambdas": [1, 2.5]}})
        assert load_config(path).params["eps"] == 1


class TestEmit:
    def test_json_seventeen_digits(self, tmp_path):
        path = tmp_path / "r.json"
        emit_json({"value": 1.0 / 3.0, "flag": True}, path)
        text = path.read_text()
        assert "0.33333333333333331" in text
        back = json.loads(text)
        assert back["value"] == 1.0 / 3.0

    def test_json_nonfinite(self, tmp_path):
        path = tmp_path / "r.json"
        emit_json({"a": float("inf"), "b": float("nan")}, path)
        back = json.loads(path.read_text())
        assert back["a"] == "inf" and back["b"] == "nan"

    def test_csv_cells(self, tmp_path):
        path = tmp_path / "r.csv"
        emit_csv("a,b,c", [(1, 0.5, True), (2, 1.0 / 3.0, False)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "a,b,c"
        assert lines[2] == "2,0.33333333333333331,false"

    def test_writers_bytes_frozen(self, tmp_path):
        """Both writers, on every kind of value a report can hold, write the
        bytes frozen from the two writers that one token rule replaced."""
        payload = {
            "nested": {"list": [1, 2.5, [True, None]], "tuple": (np.float64(0.1), np.int64(-7)),
                       "array": np.array([1.0 / 3.0, -2e-300])},
            "bool": np.bool_(False), "inf": math.inf, "-inf": -math.inf, "nan": math.nan,
            "none": None, "text": 'say "hi"', "text_inf": "inf", "empty_dict": {},
            "empty_list": [],
        }
        emit_json(payload, tmp_path / "r.json")
        assert (tmp_path / "r.json").read_text() == (
            '{\n  "-inf": "-inf",\n  "bool": false,\n  "empty_dict": {},\n  "empty_list": [],\n'
            '  "inf": "inf",\n  "nan": "nan",\n  "nested": {\n    "array": [\n'
            '      0.33333333333333331,\n      -2.0000000000000001e-300\n    ],\n'
            '    "list": [\n      1,\n      2.5,\n      [\n        true,\n        null\n      ]\n'
            '    ],\n    "tuple": [\n      0.10000000000000001,\n      -7\n    ]\n  },\n'
            '  "none": null,\n  "text": "say \\"hi\\"",\n  "text_inf": "inf"\n}\n')
        rows = [(np.float64(0.1), np.int64(-7), np.bool_(True), math.inf, -math.inf, math.nan,
                 None, "text", 1.0 / 3.0, False, 3)]
        emit_csv("a,b,c,d,e,f,g,h,i,j,k", rows, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text() == (
            "a,b,c,d,e,f,g,h,i,j,k\n"
            "0.10000000000000001,-7,true,inf,-inf,nan,None,text,0.33333333333333331,false,3\n")


SMALL = {"L": 20.0, "n": 321, "v_minus": 0.0, "v_plus": 1.0}


class TestRun:
    def test_rho_scan_outputs(self, tmp_path):
        cfg = ExperimentConfig(experiment="rho-scan", out_dir=str(tmp_path),
                               params={"lambdas": [0.5, 2.0], "eps": 0.1}, **SMALL)
        assert run(cfg) == 0
        csv = (tmp_path / "rho_scan.csv").read_text().splitlines()
        assert csv[0] == "lambda,rho0_analytic,rho_raw,rho_corrected,n_discarded,margin"
        assert len(csv) == 3
        report = json.loads((tmp_path / "rho_scan.json").read_text())
        assert report["config"]["n"] == 321
        assert report["schema_version"]

    def test_scan_has_branch_kinks(self, tmp_path):
        cfg = ExperimentConfig(experiment="rho-scan", out_dir=str(tmp_path),
                               params={"lambdas": [-0.5, 0.5, 0.999, 1.5], "eps": 0.1},
                               **SMALL)
        assert run(cfg) == 0
        report = json.loads((tmp_path / "rho_scan.json").read_text())
        rho0 = [row["rho0_analytic"] for row in report["rows"]]
        assert rho0[0] == "inf"
        assert rho0[1] == 1.0
        assert rho0[2] == pytest.approx(1.998)
        assert rho0[3] == 1.0  # drop across the upper threshold at v_plus

    def test_rho_scan_has_no_verdict(self, tmp_path):
        """rho-scan is a measurement: a margin far below any tolerance (here
        lambda = 0.999, within 2 eps of the threshold at v_plus = 1) still
        writes "verdict": true and exits 0."""
        cfg = ExperimentConfig(experiment="rho-scan", out_dir=str(tmp_path),
                               params={"lambdas": [0.999], "eps": 0.1}, **SMALL)
        assert run(cfg) == 0
        report = json.loads((tmp_path / "rho_scan.json").read_text())
        assert report["rows"][0]["margin"] < -0.2
        assert report["verdict"] is True

    def test_closed_channel_is_execution_error(self, tmp_path, capsys):
        cfg = ExperimentConfig(experiment="scatter", out_dir=str(tmp_path),
                               profile="sharp_step",
                               params={"lambda": 0.5}, **SMALL)
        assert run(cfg) == 2
        assert "closed channel" in capsys.readouterr().err

    def test_transfer_sample_below_the_spectrum_is_exit_2(self, tmp_path, capsys):
        # eta = bump(-0.5, 0.1) meets no eigenvalue of H, so rho_H has no estimate there
        path = write_config(tmp_path, "c.json", dict(SMALL, experiment="transfer",
                                                     params={"lambdas": [-0.5, 0.5]}))
        assert main(["transfer", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "lambda=-0.5" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "transfer.json").exists()

    def test_completeness_small(self, tmp_path):
        cfg = ExperimentConfig(experiment="completeness", out_dir=str(tmp_path),
                               params={"x0": 8.0, "k0": 1.5, "sigma": 2.0,
                                       "t_max": 4.0, "n_times": 9}, **SMALL)
        code = run(cfg)
        assert code in (0, 1)
        csv = (tmp_path / "completeness.csv").read_text().splitlines()
        assert csv[0] == "t,froufrou_norm,converse_norm,boundary_margin"

    def test_determinism_byte_identical(self, tmp_path):
        # identical resolved config (including out_dir) twice in a row
        cfg = ExperimentConfig(experiment="rho-scan", out_dir=str(tmp_path),
                               params={"lambdas": [0.5, 2.0], "eps": 0.1}, **SMALL)
        outs = []
        for _ in range(2):
            assert run(cfg) == 0
            outs.append((tmp_path / "rho_scan.csv").read_bytes()
                        + (tmp_path / "rho_scan.json").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("experiment,params", [
        ("transfer", {"lambdas": [0.5, 1.5], "eps": 0.1}),
        ("hypotheses", {"levels": [[20.0, 161], [20.0, 321]], "operators": ["ii", "identity"]}),
        ("completeness", {"x0": 8.0, "sigma": 2.0, "t_max": 4.0, "n_times": 9}),
    ])
    def test_repeated_runs_byte_identical(self, tmp_path, experiment, params):
        cfg = ExperimentConfig(experiment=experiment, out_dir=str(tmp_path), params=params,
                               **SMALL)
        outs = []
        for _ in range(2):
            assert run(cfg) in (0, 1)
            outs.append({f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())})
        assert len(outs[0]) == 2 and outs[0] == outs[1]

    def test_hypotheses_builds_no_full_channel_basis(self, tmp_path, monkeypatch):
        # one windowed eigendecomposition of H per level, closed-form channel
        # eigenpairs only where a function selects them, and no dense band
        from mourre_lab import hypotheses, spectral
        from mourre_lab.operators import Band

        calls = {"eig": [], "dirichlet": []}
        eig, dirichlet = spectral.eigendecompose, spectral.dirichlet_decomposition

        def recorded_eig(op, window=None):
            calls["eig"].append(window)
            return eig(op, window)

        def recorded_dirichlet(n, dx, shift=0.0, where=None):
            calls["dirichlet"].append(where)
            return dirichlet(n, dx, shift, where)

        for module in (spectral, hypotheses):
            monkeypatch.setattr(module, "eigendecompose", recorded_eig)
            monkeypatch.setattr(module, "dirichlet_decomposition", recorded_dirichlet)
        monkeypatch.setattr(Band, "dense", lambda self: pytest.fail("dense band formed"))
        cfg = ExperimentConfig(experiment="hypotheses", out_dir=str(tmp_path), params={
            "levels": [[20.0, 161], [20.0, 241], [20.0, 321]]}, **SMALL)
        assert run(cfg) in (0, 1)
        assert len(calls["eig"]) == 3 and all(w is not None for w in calls["eig"])
        assert calls["dirichlet"] and all(w is not None for w in calls["dirichlet"])


class TestMain:
    def test_config_error_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text("{\"experiment\": \"rho-scan\", \"n\": 10}")
        code = main(["rho-scan", "--config", str(path)])
        assert code == 2
        assert "n:" in capsys.readouterr().err

    def test_unknown_param_key_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", dict(SMALL, experiment="rho-scan",
                                                     params={"lamdas": [0.5]}))
        assert main(["rho-scan", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "lamdas" in capsys.readouterr().err

    def test_bad_param_type_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", dict(SMALL, experiment="transfer",
                                                     params={"lambdas": 3}))
        assert main(["transfer", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "params.lambdas" in err and len(err.splitlines()) == 1

    def test_repeated_operator_tag_is_exit_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "c.json", dict(SMALL, experiment="hypotheses", params={
            "levels": [[20.0, 161], [20.0, 321]], "operators": ["iii", "identity", "iii"]}))
        assert main(["hypotheses", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "params.operators" in err and "'iii'" in err and "identity" not in err
        assert not (tmp_path / "hypotheses_sv.csv").exists()

    def test_levels_without_sigma_20_are_exit_2(self, tmp_path, capsys):
        # at n = 17 the identity control has 17 singular values, no sigma_20
        path = write_config(tmp_path, "c.json", dict(SMALL, experiment="hypotheses", params={
            "levels": [[40.0, 17], [40.0, 19]]}))
        assert main(["hypotheses", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "n=17" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, key", [("hypotheses", "operators"),
                                                 ("transfer", "lambdas")])
    def test_run_that_checks_nothing_is_exit_2(self, tmp_path, capsys, experiment, key):
        path = write_config(tmp_path, "c.json", dict(SMALL, experiment=experiment,
                                                     params={key: []}))
        assert main([experiment, "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"params.{key}" in capsys.readouterr().err
        assert not (tmp_path / f"{experiment}.json").exists()

    def test_memory_error_is_exit_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg, params):
            raise MemoryError()

        monkeypatch.setitem(cli._RUNNERS, "rho-scan", exhausted)
        cfg = ExperimentConfig(experiment="rho-scan", out_dir=str(tmp_path), **SMALL)
        assert run(cfg) == 2
        assert capsys.readouterr().err.strip() == "error: MemoryError"

    def test_full_basis_beyond_memory_is_exit_2(self, tmp_path, capsys, monkeypatch):
        # the full basis of H at n = 200001 takes 16 n^2 bytes, about 600 GiB:
        # refused from n alone, before any operator is built
        monkeypatch.setattr(cli, "_build", lambda *a, **k: pytest.fail("built"))
        path = write_config(tmp_path, "c.json", dict(SMALL, experiment="completeness",
                                                     n=200001))
        assert main(["completeness", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: n: ") and "n = 200001" in err
        assert not (tmp_path / "completeness.json").exists()

    def test_small_scan_through_main(self, tmp_path):
        payload = dict(SMALL)
        payload["experiment"] = "rho-scan"
        payload["params"] = {"lambdas": [0.5], "eps": 0.1}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(payload))
        out = tmp_path / "out"
        assert main(["rho-scan", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "rho_scan.csv").exists()

    def test_threads_without_bundled_openblas_is_exit_2(self, tmp_path, capsys, monkeypatch):
        from mourre_lab import blas

        monkeypatch.setattr(blas, "bundled_openblas", lambda: None)
        path = write_config(tmp_path, "c.json", dict(SMALL, experiment="rho-scan",
                                                     params={"lambdas": [0.5]}))
        assert main(["rho-scan", "--config", str(path), "--out", str(tmp_path),
                     "--threads", "1"]) == 2
        assert "threads" in capsys.readouterr().err


def test_threads_flag_sets_blas_thread_count(tmp_path):
    """--threads reaches the OpenBLAS that NumPy has already loaded.

    Runs in a child interpreter so that this process keeps its thread count.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
    path = write_config(tmp_path, "c.json", dict(SMALL, experiment="rho-scan",
                                                 params={"lambdas": [0.5]}))
    code = (
        "import ctypes, glob, os, sys\n"
        "import numpy as np\n"
        "from mourre_lab import cli\n"
        "libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), 'numpy.libs')\n"
        "lib = ctypes.CDLL(sorted(glob.glob(os.path.join(libdir, 'libscipy_openblas64_*.so')))[0])\n"
        "get = lib.scipy_openblas_get_num_threads64_\n"
        "get.restype = ctypes.c_int\n"
        "want = 2 if get() == 1 else 1\n"
        "status = cli.main(['rho-scan', '--config', sys.argv[1], '--out', sys.argv[2],\n"
        "                   '--threads', str(want)])\n"
        "print(status, want, get())\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    status, want, got = map(int, out.stdout.split())
    assert status == 0
    assert got == want


def test_hypotheses_run_leaves_numpy_random_unloaded(tmp_path):
    """Nothing in a run draws random numbers (README): a hypotheses run of all
    six surrogates never imports numpy.random.

    Runs in a child interpreter, whose modules are its own.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
    path = write_config(tmp_path, "c.json", dict(SMALL, experiment="hypotheses", L=40.0, params={
        "levels": [[40.0, 161], [40.0, 321]], "operators": list(cli.OPERATOR_TAGS)}))
    code = (
        "import sys\n"
        "from mourre_lab import cli\n"
        "status = cli.main(['hypotheses', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(status, 'numpy.random' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    status, loaded = out.stdout.split()
    assert status in ("0", "1")  # a verdict, not an execution error
    assert loaded == "False"


def test_benchmark_tracer_resolves_every_target(tmp_path):
    """The benchmark's tracer (perfbench/spans.py) wraps functions looked up by
    module and name: each must exist, and a traced short-range ladder must
    record the resolvent solves it makes.

    Runs in a child interpreter, since `Tracer.install` rebinds module attributes.
    """
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src")] + [q for q in os.environ.get("PYTHONPATH", "").split(os.pathsep) if q]))
    path = write_config(tmp_path, "c.json", dict(SMALL, experiment="hypotheses", L=40.0, params={
        "levels": [[40.0, 161], [40.0, 321]], "operators": ["short"]}))
    code = (
        "import importlib, importlib.util, json, sys\n"
        "from mourre_lab import cli\n"
        "spec = importlib.util.spec_from_file_location('spans', sys.argv[1])\n"
        "spans = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(spans)\n"
        "missing = [f'{mod}.{fn}' for mod, fn, _, _ in spans.TARGETS if not callable(\n"
        "    getattr(importlib.import_module(f'mourre_lab.{mod}'), fn, None))]\n"
        "tracer = spans.Tracer()\n"
        "tracer.install()\n"
        "status = cli.main(['hypotheses', '--config', sys.argv[2], '--out', sys.argv[3]])\n"
        "names = [span['name'] for span in tracer.spans]\n"
        "print(json.dumps([missing, status, names.count('spectral.resolvent')]))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(root / "perfbench" / "spans.py"),
                          str(path), str(tmp_path / "out")],
                         env=env, capture_output=True, text=True, timeout=120, check=True)
    missing, status, resolvent_spans = json.loads(out.stdout)
    assert missing == []
    assert status in (0, 1)  # a verdict, not an execution error
    assert resolvent_spans >= 1
