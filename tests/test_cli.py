"""Config loading, result emission, experiment runners, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from d2dcache import analytic, cli, experiments
from d2dcache.analytic import QuadratureSpec
from d2dcache.cli import (
    RunSettings,
    emit_results,
    load_config,
    main,
)
from d2dcache.experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    policy_entropy,
    run_experiment,
)
from d2dcache.model import CachingPolicy, ContentLibrary, NetworkConfig

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def write_config(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseQuantity:
    # each kind of quantity, parsed by the network setting that takes it

    @staticmethod
    def network(tmp_path, key, value):
        path = write_config(tmp_path, yaml.safe_dump({"network": {key: value}}))
        return getattr(load_config(path).network, key)

    def test_plain_numbers_pass_through(self, tmp_path):
        assert self.network(tmp_path, "n_bar", 3) == 3.0
        assert self.network(tmp_path, "gamma_d", 0.25) == 0.25
        assert self.network(tmp_path, "lambda_p", "1.5e-3") == 1.5e-3  # a string

    def test_lengths(self, tmp_path):
        assert self.network(tmp_path, "sigma", "50 m") == 50.0
        assert self.network(tmp_path, "sigma", "2 km") == 2000.0

    def test_densities(self, tmp_path):
        assert self.network(tmp_path, "lambda_p", "40 per km2") == pytest.approx(
            4.0e-5, rel=1e-12)
        assert self.network(tmp_path, "lambda_p", "1e-5 per m2") == 1e-5

    def test_decibels(self, tmp_path):
        assert self.network(tmp_path, "theta", "0 dB") == 1.0
        assert self.network(tmp_path, "theta", "10 dB") == pytest.approx(10.0, rel=1e-12)
        assert self.network(tmp_path, "theta", "-3 dB") == pytest.approx(0.501187233627,
                                                                       rel=1e-9)

    def test_rejects_garbage(self, tmp_path):
        for value in ("fast", "5 parsecs", True):
            with pytest.raises(ValueError, match="network setting 'sigma' must be a length"):
                self.network(tmp_path, "sigma", value)


class TestLoadConfig:
    def test_empty_file_gives_reference_defaults(self, tmp_path):
        settings = load_config(write_config(tmp_path, ""))
        cfg, lib = settings.network, settings.library
        assert cfg.sigma == 50.0
        assert cfg.lambda_p == pytest.approx(40e-6)
        assert cfg.n_bar == 8.0 and cfg.alpha == 4.0 and cfg.theta == 1.0
        assert lib.n_files == 100 and lib.cache_size == 5 and lib.beta == 0.5
        assert settings.trials == 20_000 and settings.seed == 0

    def test_units_converted(self, tmp_path):
        text = """
network:
  sigma: "10 m"
  lambda_p: "20 per km2"
  theta: "3 dB"
"""
        settings = load_config(write_config(tmp_path, text))
        assert settings.network.sigma == 10.0
        assert settings.network.lambda_p == pytest.approx(2e-5)
        assert settings.network.theta == pytest.approx(10 ** 0.3, rel=1e-12)

    def test_rate_threshold_accepted(self, tmp_path):
        settings = load_config(write_config(tmp_path, "network:\n  rho: 2\n"))
        assert settings.network.theta == pytest.approx(3.0)

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown config sections"):
            load_config(write_config(tmp_path, "networks:\n  sigma: 5\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown network settings"):
            load_config(write_config(tmp_path, "network:\n  sigm: 5\n"))

    def test_unknown_experiment_rejected(self, tmp_path):
        text = "experiments:\n  make-coffee:\n    beans: 2\n"
        with pytest.raises(ValueError, match="unknown experiments"):
            load_config(write_config(tmp_path, text))

    def test_unknown_experiment_param_rejected(self, tmp_path):
        text = "experiments:\n  offload-vs-beta:\n    betas: [0.5]\n"
        with pytest.raises(ValueError, match="offload-vs-beta"):
            load_config(write_config(tmp_path, text))

    def test_workers_one_still_loads(self, tmp_path):
        settings = load_config(write_config(tmp_path, "run:\n  workers: 1\n"))
        assert not hasattr(settings, "workers")
        assert load_config(str(ROOT / "bench" / "offload.yaml")).trials == 5000

    @pytest.mark.parametrize("value", ["2", "0", "true", "1.0"])
    def test_workers_other_than_one_rejected(self, tmp_path, value):
        path = write_config(tmp_path, f"run:\n  workers: {value}\n")
        with pytest.raises(ValueError, match="pool has been removed"):
            load_config(path)

    def test_env_workers_rejected(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "run:\n  trials: 1000\n")
        monkeypatch.setenv("D2DCACHE_WORKERS", "1")
        assert load_config(path).trials == 1000
        monkeypatch.setenv("D2DCACHE_WORKERS", "2")
        with pytest.raises(ValueError, match="D2DCACHE_WORKERS.*pool has been removed"):
            load_config(path)

    def test_bad_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            load_config(write_config(tmp_path, "run:\n  format: xml\n"))

    def test_quadrature_counts_pass_through_unchanged(self, tmp_path):
        text = ("quadrature:\n  mc_integration_samples: 2000\n  qmc_seed: 3\n"
                "  rel_tol: 1e-8\n")
        quad = load_config(write_config(tmp_path, text)).quadrature
        assert (quad.mc_integration_samples, quad.qmc_seed) == (2000, 3)
        assert quad.rel_tol == 1e-8  # YAML reads 1e-8 as a string

    @pytest.mark.parametrize("key, value", [("mc_integration_samples", "2000.5"),
                                            ("qmc_seed", "3.9")])
    def test_fractional_quadrature_count_rejected(self, tmp_path, capsys, key, value):
        path = write_config(tmp_path, f"quadrature:\n  {key}: {value}\n")
        with pytest.raises(ValueError, match=key):
            load_config(path)
        assert main(["solve", "--config", path]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("run", "trials", "2500.7"), ("run", "seed", "2.9"), ("run", "trials", "true"),
        ("run", "seed", "false"), ("library", "n_files", "100.7"),
        ("library", "cache_size", "5.9")])
    def test_non_integer_count_rejected(self, tmp_path, capsys, section, key, value):
        # int() would run 2500 trials or seed 2 and report them as asked for
        path = write_config(tmp_path, f"{section}:\n  {key}: {value}\n")
        with pytest.raises(ValueError, match=f"'{key}' must be an integer"):
            load_config(path)
        assert main(["run", "--config", path]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("library:\n  beta: true\n", "beta"),
        ("quadrature:\n  rel_tol: true\n", "rel_tol"),
        ("run:\n  experiment: validate-bounds\n"
         "experiments:\n  validate-bounds:\n    points: 2.7\n", "points"),
        ("experiments:\n  offload-vs-beta:\n    beta: [0.5, true]\n", "beta"),
        ("experiments:\n  custom-sweep:\n    c: false\n", "c")],
        ids=["library", "quadrature", "validate-bounds", "offload-vs-beta", "custom-sweep"])
    def test_boolean_or_fractional_number_rejected(self, tmp_path, capsys, text, key):
        # float() read true as 1.0, and int() truncated 2.7 to 2 points
        path = write_config(tmp_path, text)
        with pytest.raises(ValueError, match=f"'{key}':? must be an? (number|integer)"):
            load_config(path)
        assert main(["run", "--config", path]) == 2
        assert f"'{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("library:\n  beta: .nan\n",
         "library setting 'beta' must be a finite number >= 0, got nan"),
        ("library:\n  beta: .inf\n",
         "library setting 'beta' must be a finite number >= 0, got inf"),
        ("run:\n  experiment: offload-vs-beta\n"
         "experiments:\n  offload-vs-beta:\n    beta: [.nan]\n",
         "offload-vs-beta setting 'beta' must be a finite number >= 0, got nan")],
        ids=["library-nan", "library-inf", "offload-vs-beta-nan"])
    def test_non_finite_beta_is_usage_error(self, tmp_path, capsys, text, message):
        # a NaN beta made the popularity all NaN, and the run exited 3 with
        # an infeasible policy
        path = write_config(tmp_path, text)
        assert main(["run", "--config", path, "--trials", "1000",
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config_seed, flags", [("-3", []), ("0", ["--seed", "-3"])])
    def test_negative_seed_is_usage_error_naming_seed(self, tmp_path, capsys,
                                                      config_seed, flags):
        # the config's seed is refused as it loads, the flag's by the spec
        path = write_config(tmp_path, "run:\n  experiment: validate-bounds\n"
                                      f"  seed: {config_seed}\n")
        assert main(["run", "--config", path, *flags]) == 2
        named = "seed" if flags else "run setting 'seed'"
        assert f"{named} must be an integer >= 0, got -3" in capsys.readouterr().err

    def test_both_density_units_rejected(self, tmp_path):
        text = ("experiments:\n  coverage-vs-sigma:\n"
                "    lambda_p_per_m2: [1.0e-5]\n    lambda_p_per_km2: [40]\n")
        with pytest.raises(ValueError, match="lambda_p_per_m2 or lambda_p_per_km2"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("name, setting, key", [
        ("custom-sweep", 'parameter: n_bar, values: "48", metric: offload-closed-form',
         "values"),
        ("offload-vs-beta", 'beta: "05"', "beta")])
    def test_string_for_list_rejected(self, tmp_path, capsys, name, setting, key):
        # a string was iterated per character: n_bar swept over 4 and 8
        path = write_config(tmp_path, f"run: {{experiment: {name}}}\n"
                                      f"experiments:\n  {name}: {{{setting}}}\n")
        assert main(["run", "--config", path, "--trials", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{name} setting '{key}' must be a" in captured.err
        assert "list, got" in captured.err

    @pytest.mark.parametrize("value", ["2", "true"])
    def test_non_string_out_rejected(self, tmp_path, capsys, value):
        # open(2) wrote the CSV to stderr and closed it; true meant stdout
        path = write_config(tmp_path, "run:\n  experiment: validate-bounds\n"
                                      f"  out: {value}\n")
        assert main(["run", "--config", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "run setting 'out' must be a file path" in captured.err

    def test_sweep_demo_runs_several_near_field_chunks(self):
        # CI runs this config pinned to one CPU and not, and compares bytes
        settings = load_config(str(DEMOS / "sweep_example.yaml"))
        params = settings.experiment_params[settings.experiment]
        assert settings.experiment == "custom-sweep"
        assert params["metric"] == "coverage-sim" and len(params["values"]) >= 3
        assert settings.trials >= 3000


def _every_setting():
    """(config text, key) with a mapping for the value of each setting in
    the config loader's table and in every experiment's."""
    for section, parsers in cli._SETTINGS.items():
        for key in parsers:
            yield pytest.param(f"{section}:\n  {key}: {{}}\n", key, id=f"{section}.{key}")
    for name, (_, table) in experiments._EXPERIMENTS.items():
        for key in table:
            yield pytest.param(f"experiments:\n  {name}:\n    {key}: {{}}\n", key,
                               id=f"{name}.{key}")


@pytest.mark.parametrize("text, key", _every_setting())
def test_every_setting_refuses_a_mapping(tmp_path, capsys, text, key):
    assert main(["solve", "--config", write_config(tmp_path, text)]) == 2
    assert f"setting '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("setting", ["metric: nope", "parameter: rho", "policy: best",
                                     "values: []"])
def test_solve_refuses_a_bad_custom_sweep(tmp_path, capsys, setting):
    # solve does not run the sweep, and exited 0 on all but values
    path = write_config(tmp_path, "experiments:\n  custom-sweep:\n"
                                  f"    values: [1]\n    {setting}\n")
    assert main(["solve", "--config", path]) == 2
    key = setting.split(":")[0]
    assert f"custom-sweep setting '{key}' must be" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ("network: {sigma: 2 dB}", "sigma"),
    ("network: {lambda_p: 50 m}", "lambda_p"),
    ("network: {theta: 40 per km2}", "theta"),
    ("network: {n_bar: 8 km}", "n_bar"),
    ("network: {alpha: 4 m}", "alpha"),
    ("network: {gamma_d: 1 dB}", "gamma_d"),
    ("network: {rho: 2 m}", "rho"),
    ("experiments: {coverage-vs-sigma: {sigma_m: [2 dB]}}", "sigma_m"),
    ("experiments: {coverage-vs-sigma: {lambda_p_per_m2: [50 m]}}", "lambda_p_per_m2"),
    ("experiments: {policy-histogram: {pairs: [{sigma: 5 dB, lambda_p: 2e-5}]}}", "pairs"),
    ("experiments: {policy-histogram: {pairs: [{sigma: 10, lambda_p: 5 m}]}}", "pairs"),
    ("experiments: {custom-sweep: {parameter: sigma, values: [3 dB]}}", "values"),
    ("experiments: {custom-sweep: {parameter: lambda_p, values: [5 m]}}", "values"),
    ("experiments: {custom-sweep: {parameter: n_bar, values: [8 km]}}", "values"),
    ("experiments: {custom-sweep: {parameter: theta, values: [40 per km2]}}", "values")],
    ids=["sigma", "lambda_p", "theta", "n_bar", "alpha", "gamma_d", "rho", "sigma_m",
         "lambda_p_per_m2", "pair-sigma", "pair-lambda_p", "sweep-sigma",
         "sweep-lambda_p", "sweep-n_bar", "sweep-theta"])
def test_unit_of_another_kind_is_refused(tmp_path, capsys, text, key):
    # each of these loaded, converted by its unit alone ("2 dB" as 1.585 m)
    assert main(["solve", "--config", write_config(tmp_path, text + "\n")]) == 2
    assert f"setting '{key}' must be a" in capsys.readouterr().err


def test_sweep_values_take_the_units_of_their_parameter(tmp_path):
    for parameter, values, parsed in (("theta", "[0 dB, 2]", [1.0, 2.0]),
                                      ("sigma", "[1 km, 20 m]", [1000.0, 20.0]),
                                      ("lambda_p", "[40 per km2]", [40e-6])):
        path = write_config(tmp_path, "experiments:\n  custom-sweep: "
                                      f"{{parameter: {parameter}, values: {values}}}\n")
        params = load_config(path).experiment_params["custom-sweep"]
        assert params["values"] == pytest.approx(parsed, rel=1e-15)


@pytest.mark.parametrize("text, key", [
    ("run: {seed: -1}", "seed"),
    ("experiments: {validate-bounds: {points: 0}}", "points"),
    ("experiments: {validate-bounds: {decades: .nan}}", "decades"),
    ("experiments: {validate-bounds: {decades: -1}}", "decades"),
    ("experiments: {coverage-vs-sigma: {c: 2}}", "c"),
    ("experiments: {custom-sweep: {values: [10], c: -0.5}}", "c"),
    ("experiments: {coverage-vs-sigma: {sigma_m: [-5 m]}}", "sigma_m"),
    ("experiments: {coverage-vs-sigma: {sigma_m: [.inf]}}", "sigma_m"),
    ("experiments: {coverage-vs-sigma: {lambda_p_per_m2: [0]}}", "lambda_p_per_m2"),
    ("experiments: {coverage-vs-sigma: {lambda_p_per_km2: [-40]}}", "lambda_p_per_km2"),
    ("experiments: {offload-vs-beta: {beta: [-1]}}", "beta"),
    ("experiments: {offload-vs-beta: {beta: [.inf]}}", "beta"),
    ("experiments: {policy-histogram: {pairs: [{sigma: -5, lambda_p: 2e-5}]}}", "pairs"),
    ("network: {rho: 0}", "rho"),
    ("network: {rho: -1 bps/hz}", "rho"),
    ("network: {rho: .nan}", "rho"),
    ("network: {rho: .inf}", "rho"),
    ("network: {rho: 2000}", "rho"),
    ("network: {theta: 5000 dB}", "theta"),
    ("experiments: {custom-sweep: {parameter: theta, values: [5000 dB]}}", "values"),
    ("experiments: {custom-sweep: {parameter: sigma, values: [-5]}}", "values"),
    ("experiments: {custom-sweep: {parameter: lambda_p, values: [0]}}", "values"),
    ("experiments: {custom-sweep: {parameter: alpha, values: [2]}}", "values"),
    ("experiments: {policy-histogram: {pairs: [{sigma: 10, lambda_p: 2e-5, lamda_p: 3e-5}]}}",
     "pairs"),
    ("run: {trials: 500}", "trials")],
    ids=["seed", "points", "decades-nan", "decades-negative", "c-above-1", "sweep-c",
         "sigma_m-negative", "sigma_m-inf", "lambda_p_per_m2", "lambda_p_per_km2",
         "beta-negative", "beta-inf", "pair-sigma", "rho-0", "rho-negative", "rho-nan",
         "rho-inf", "rho-overflow", "theta-overflow", "sweep-theta-overflow",
         "sweep-sigma-negative", "sweep-lambda_p-0", "sweep-alpha-2", "pair-misspelt-key",
         "trials-below-minimum"])
def test_out_of_range_setting_is_refused(tmp_path, capsys, text, key):
    # solve loaded most of these and exited 0 (points 0 ran no checks; the
    # sweep values, the misspelt pair key and 500 trials too); the rho cases
    # named theta, and 5000 dB raised OverflowError
    assert main(["solve", "--config", write_config(tmp_path, text + "\n")]) == 2
    assert f"setting '{key}' must be" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("experiments: {coverage-vs-sigma: {lambda_p_per_km2: [-40]}}",
     "coverage-vs-sigma setting 'lambda_p_per_km2' must be finite and strictly positive, "
     "got -40 (as lambda_p)\n"),
    ("network: {rho: -1}",
     "network setting 'rho' must be finite and strictly positive, got -1 (as theta)\n")],
    ids=["lambda_p_per_km2", "rho"])
def test_refusal_shows_the_value_as_written(tmp_path, capsys, text, message):
    # it showed the converted value: -3.9999999999999996e-05 and -0.5
    assert main(["solve", "--config", write_config(tmp_path, text + "\n")]) == 2
    assert capsys.readouterr().err.endswith(message)


@pytest.mark.parametrize("text, message", [
    ("library: {n_files: 3}",
     "library setting 'n_files' must satisfy 1 <= M < n_files, got M=5, n_files=3\n"),
    ("library: {n_files: 3, cache_size: 3}",
     "library setting 'cache_size' must satisfy 1 <= M < n_files, got M=3, n_files=3\n"),
    ("library: {cache_size: 200}",
     "library setting 'cache_size' must satisfy 1 <= M < n_files, got M=200, n_files=100\n")],
    ids=["n_files-alone", "both", "cache_size-alone"])
def test_library_refusal_names_the_setting_the_config_gave(tmp_path, capsys, text, message):
    # each named cache_size without the section, n_files alone too
    assert main(["solve", "--config", write_config(tmp_path, text + "\n")]) == 2
    assert capsys.readouterr().err.endswith(message)


def test_integer_too_large_for_a_float_is_refused(tmp_path, capsys):
    # float() raised OverflowError, and the command exited with a traceback
    path = write_config(tmp_path, "network: {n_bar: 1" + "0" * 400 + "}\n")
    assert main(["solve", "--config", path]) == 2
    assert "network setting 'n_bar'" in capsys.readouterr().err


def test_range_ends_load(tmp_path):
    path = write_config(tmp_path, """
run: {seed: 0}
experiments:
  validate-bounds: {points: 1, decades: 0}
  coverage-vs-sigma: {c: 0}
  offload-vs-beta: {beta: [0]}
  custom-sweep: {values: [10], c: 1}
""")
    params = load_config(path).experiment_params
    assert params["validate-bounds"] == {"points": 1, "decades": 0.0}
    assert params["coverage-vs-sigma"]["c"] == 0.0
    assert params["offload-vs-beta"]["beta"] == [0.0]
    assert params["custom-sweep"]["c"] == 1.0


class TestEmitResults:
    COLUMNS = ["x", "method", "value"]

    def test_empty_table_yields_header_only(self, capsys):
        text = emit_results(self.COLUMNS, [])
        assert text == "x,method,value\n"

    def test_twelve_significant_digits_round_trip(self, tmp_path):
        rows = [{"x": 1.0, "method": "m", "value": 1.0 / 3.0}]
        out = str(tmp_path / "t.csv")
        emit_results(self.COLUMNS, rows, out=out)
        with open(out) as handle:
            header, line = handle.read().splitlines()
        assert header == "x,method,value"
        parsed = float(line.split(",")[2])
        assert parsed == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert emit_results(self.COLUMNS, rows, out=out) == emit_results(
            self.COLUMNS, rows, out=out
        )

    def test_jsonl_round_trip(self, capsys):
        rows = [{"x": 2.0, "method": "m", "value": 0.125}]
        text = emit_results(self.COLUMNS, rows, fmt="jsonl")
        record = json.loads(text.splitlines()[0])
        assert record == {"x": 2.0, "method": "m", "value": 0.125}
        assert list(record) == self.COLUMNS

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_results(self.COLUMNS, [], fmt="tsv")


class TestExperiments:
    def spec(self, ref_cfg, ref_library, name, **kw):
        return ExperimentSpec(name=name, network=ref_cfg, library=ref_library,
                              **kw)

    def test_experiment_names_closed(self, ref_cfg, ref_library):
        with pytest.raises(ValueError):
            self.spec(ref_cfg, ref_library, "make-coffee")

    def test_validate_bounds_all_pass(self, ref_cfg, ref_library):
        spec = self.spec(ref_cfg, ref_library, "validate-bounds",
                         params={"points": 6, "decades": 4})
        columns, rows = run_experiment(spec)
        assert "passed" in columns
        assert rows and all(row["passed"] for row in rows)
        checks = {row["check"] for row in rows}
        assert {"laplace-ordering", "k1-identity", "z-constant"} <= checks

    @pytest.mark.parametrize("field, value", [("seed", 2.9), ("seed", True),
                                              ("trials", 1000.7), ("trials", 0)])
    def test_spec_rejects_non_integer_or_out_of_range(self, ref_cfg, ref_library,
                                                      field, value):
        # from the Python API, seed 2.9 would run and report seed 2
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentSpec(name="validate-bounds", network=ref_cfg, library=ref_library,
                           **{field: value})

    def test_spec_fills_defaults_and_reparses_to_itself(self, ref_cfg, ref_library):
        spec = self.spec(ref_cfg, ref_library, "validate-bounds", params={"points": 4})
        assert spec.params == {"decades": 6.0, "points": 4}
        again = self.spec(ref_cfg, ref_library, "validate-bounds", params=spec.params)
        assert again.params == spec.params
        coverage = self.spec(ref_cfg, ref_library, "coverage-vs-sigma",
                             params={"lambda_p_per_km2": [20, 40], "c": 1})
        assert coverage.params == {"sigma_m": [10.0, 25.0, 50.0, 100.0],
                                   "lambda_p_per_m2": [20 * 1e-6, 40 * 1e-6], "c": 1.0}
        assert self.spec(ref_cfg, ref_library, "coverage-vs-sigma",
                         params=coverage.params).params == coverage.params

    def test_offload_vs_beta_table_shape(self, ref_cfg):
        lib = ContentLibrary.from_zipf(12, 0.5, 3)
        spec = self.spec(ref_cfg, lib, "offload-vs-beta", trials=1000, seed=1,
                         params={"beta": [0.0, 0.6]})
        columns, rows = run_experiment(spec)
        assert columns[0] == "beta"
        # 2 betas x 3 policies x 2 methods
        assert len(rows) == 12
        assert all(row["trials"] == 1000 for row in rows
                   if row["method"] == "simulation")
        by_beta_policy = {
            (row["beta"], row["policy"]): row["value"]
            for row in rows if row["method"] == "closed-form-k1"
        }
        assert by_beta_policy[(0.0, "kkt")] == pytest.approx(
            by_beta_policy[(0.0, "zipf-proportional")], abs=1e-9
        )

    def test_offload_vs_beta_rows_independent_of_earlier_runs(self, ref_cfg):
        lib = ContentLibrary.from_zipf(12, 0.5, 3)
        offload = self.spec(ref_cfg, lib, "offload-vs-beta", trials=1000, seed=2,
                            params={"beta": [0.4, 0.9]})
        coverage = self.spec(
            ref_cfg, lib, "coverage-vs-sigma", trials=1000, seed=2,
            quadrature=QuadratureSpec(mc_integration_samples=2000),
            params={"sigma_m": [ref_cfg.sigma], "lambda_p_per_m2": [ref_cfg.lambda_p]})
        first = run_experiment(offload)
        run_experiment(coverage)
        assert run_experiment(offload) == first

    def test_policy_histogram_entropy_rows(self, ref_cfg):
        lib = ContentLibrary.from_zipf(20, 0.5, 3)
        spec = self.spec(ref_cfg, lib, "policy-histogram")
        columns, rows = run_experiment(spec)
        entropy_rows = [r for r in rows if r["method"] == "entropy"]
        assert len(entropy_rows) == 2
        assert all(r["value"] > 0 for r in entropy_rows)
        c_rows = [r for r in rows if r["method"] == "policy-c"]
        assert len(c_rows) == 2 * lib.n_files

    def test_custom_sweep_rejects_unknown_parameter(self, ref_cfg, ref_library):
        # the spec refuses it when it is built, not when it runs
        with pytest.raises(ValueError, match="'parameter' must be one of"):
            self.spec(ref_cfg, ref_library, "custom-sweep",
                      params={"parameter": "flux", "values": [1.0]})

    def test_custom_sweep_closed_form(self, ref_cfg):
        lib = ContentLibrary.from_zipf(10, 0.7, 2)
        spec = self.spec(ref_cfg, lib, "custom-sweep", params={
            "parameter": "sigma", "values": [10.0, 50.0],
            "metric": "offload-closed-form", "policy": "zipf-proportional",
        })
        columns, rows = run_experiment(spec)
        assert [row["x_value"] for row in rows] == [10.0, 50.0]
        # wider scatter weakens the single-caterer bound
        assert rows[0]["value"] > rows[1]["value"]

    def test_custom_sweep_over_theta_computes_each_node_once(self, ref_cfg, ref_library,
                                                             monkeypatch):
        # the exponent does not read theta: the points' tables overlap on one
        # lattice, and no lattice node is computed twice
        computed, read = [], []
        exponents, table = analytic._exponents_exact, analytic._ExponentLattice.table

        def counted_exponents(t_gamma, *args):
            computed.extend(np.asarray(t_gamma).tolist())
            return exponents(t_gamma, *args)

        def counted_table(lattice, t_lo, t_hi):
            read.extend(lattice._window(t_lo, t_hi))
            return table(lattice, t_lo, t_hi)

        monkeypatch.setattr(analytic, "_exponents_exact", counted_exponents)
        monkeypatch.setattr(analytic._ExponentLattice, "table", counted_table)
        spec = self.spec(ref_cfg, ref_library, "custom-sweep",
                         quadrature=QuadratureSpec(mc_integration_samples=2000),
                         params={"parameter": "theta", "values": [0.5, 1.0, 2.0],
                                 "metric": "coverage-exact"})
        _, rows = run_experiment(spec)
        assert [row["x_value"] for row in rows] == [0.5, 1.0, 2.0]
        assert len(read) > len(set(read))  # the windows overlap
        assert sorted(computed) == sorted(analytic._lattice_t(j) for j in set(read))

    def test_policy_entropy_values(self):
        flat = CachingPolicy(np.full(4, 0.25))
        assert policy_entropy(flat) == pytest.approx(np.log(4.0), rel=1e-12)
        point = CachingPolicy(np.array([1.0, 0.0, 0.0, 0.0]))
        assert policy_entropy(point) == 0.0


class TestMainEntry:
    def test_solve_reports_feasible_vector(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            "library:\n  n_files: 8\n  beta: 0.9\n  cache_size: 2\n",
        )
        assert main(["solve", "--config", path]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "file_index,popularity,caching_probability,label"
        probs = [float(l.split(",")[2]) for l in lines[1:]]
        assert sum(probs) == pytest.approx(2.0, abs=1e-8)
        assert any(l.startswith("# objective") for l in out.splitlines())

    def test_run_emits_schema_and_is_deterministic(self, tmp_path, capsys):
        path = write_config(tmp_path, """
library:
  n_files: 6
  beta: 0.5
  cache_size: 2
run:
  experiment: custom-sweep
  trials: 1000
  seed: 3
experiments:
  custom-sweep:
    parameter: n_bar
    values: [4, 8]
    metric: offload-closed-form
""")
        assert main(["run", "--config", path]) == 0
        first = capsys.readouterr().out
        assert main(["run", "--config", path]) == 0
        second = capsys.readouterr().out
        assert first == second
        header = first.splitlines()[0].split(",")
        assert header == ["parameter", "x_value", "method", "value",
                          "ci_half_width", "trials", "seed"]

    def test_run_out_file_matches_stdout(self, tmp_path, capsys):
        path = write_config(tmp_path, """
run:
  experiment: validate-bounds
experiments:
  validate-bounds:
    points: 4
    decades: 2
""")
        out = tmp_path / "results.csv"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", "--config", path]) == 0
        assert out.read_text() == capsys.readouterr().out

    def test_tail_mass_below_machine_epsilon_is_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "quadrature:\n  k_max_tail_mass: 1e-17\n")
        assert main(["solve", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "k_max_tail_mass" in err

    def test_unknown_run_experiment_is_usage_error_even_for_solve(self, tmp_path, capsys):
        path = write_config(tmp_path, "run:\n  experiment: nope\n")
        assert main(["solve", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'experiment'" in err and "nope" in err

    def test_density_per_km2_with_unit_names_its_setting(self, tmp_path, capsys):
        # the entry is already per km^2, so a unit string is refused
        path = write_config(tmp_path, "experiments:\n  coverage-vs-sigma:\n"
                                      "    lambda_p_per_km2: [40 per km2]\n")
        assert main(["run", "--config", path]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'lambda_p_per_km2'" in err

    @pytest.mark.parametrize("pair, missing", [("{sigma: 10}", "'lambda_p'"),
                                               ("{lambda_p: 2e-5}", "'sigma'")])
    def test_histogram_pair_without_a_key_names_it(self, tmp_path, capsys, pair, missing):
        path = write_config(tmp_path, "experiments:\n  policy-histogram:\n"
                                      f"    pairs: [{pair}]\n")
        assert main(["run", "--config", path, "--experiment", "policy-histogram"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "'pairs'" in err and missing in err

    def test_numerical_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def fail(library, cfg):
            raise analytic.NumericalError("quadrature did not converge")

        monkeypatch.setattr(cli, "solve_p1", fail)
        assert main(["solve", "--config", write_config(tmp_path, "")]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "numerical failure: quadrature did not converge\n"

    def test_experiment_flag_runs_as_the_configured_experiment(self, tmp_path, capsys):
        settings = "experiments:\n  validate-bounds: {points: 4, decades: 2}\n"
        flagged = write_config(tmp_path, settings, name="flagged.yaml")
        configured = write_config(tmp_path, "run: {experiment: validate-bounds}\n" + settings,
                                  name="configured.yaml")
        assert main(["run", "--config", flagged, "--experiment", "validate-bounds"]) == 0
        first = capsys.readouterr().out
        assert first.startswith("check,x_value,method,value,passed\n")
        assert main(["run", "--config", configured]) == 0
        assert capsys.readouterr().out == first

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["run", "--config", "/nonexistent/nope.yaml"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_malformed_yaml_is_usage_error(self, tmp_path, capsys):
        path = write_config(tmp_path, "network: [unclosed\n")
        assert main(["run", "--config", path]) == 2

    def test_unknown_experiment_flag_exits_via_argparse(self, tmp_path):
        path = write_config(tmp_path, "")
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", path, "--experiment", "make-coffee"])
        assert exc.value.code == 2

    def test_cli_overrides_replace_config(self, tmp_path, capsys):
        path = write_config(tmp_path, """
run:
  experiment: custom-sweep
  seed: 1
experiments:
  custom-sweep:
    parameter: sigma
    values: [25]
    metric: offload-closed-form
""")
        assert main(["run", "--config", path, "--seed", "9",
                     "--format", "jsonl"]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert json.loads(line)["seed"] == 9


def test_package_runs_as_module(capsys):
    # python -m d2dcache is the console script: the same bytes
    config = str(DEMOS / "config_example.yaml")
    assert main(["solve", "--config", config]) == 0
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    module = subprocess.run([sys.executable, "-m", "d2dcache", "solve", "--config", config],
                            capture_output=True, text=True, env=env, check=True)
    assert module.stdout == capsys.readouterr().out
