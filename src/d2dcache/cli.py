"""Configuration loading, result emission, and the command-line interface.

Config files are YAML with optional sections network / library / run /
quadrature / experiments; an empty file runs the reference scenario
(sigma = 50 m, 40 clusters per km^2, 8 devices per cluster, alpha = 4,
0 dB SIR threshold, 100 files, Zipf 0.5, cache budget 5). Dimensioned
values accept unit suffixes: "50 m", "0 dB" (to linear), "40 per km2"
(to per-m^2). Results are written as CSV or JSON lines with numbers at 12
significant digits, parameter columns before metric columns, and are byte
identical for a fixed config, seed, and trial count.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field, replace

import yaml

from .analytic import NumericalError, QuadratureSpec, _is_int
from .experiments import EXPERIMENTS, ExperimentSpec, policy_entropy, run_experiment
from .model import ContentLibrary, NetworkConfig
from .optimizer import solve_p1

__all__ = [
    "parse_quantity",
    "RunSettings",
    "load_config",
    "emit_results",
    "main",
]

_QUANTITY_RE = re.compile(
    r"^\s*(?P<num>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(?P<unit>.*?)\s*$"
)

# multiplicative units; dB is handled separately
_UNIT_SCALE = {
    "": 1.0,
    "m": 1.0,
    "meter": 1.0,
    "meters": 1.0,
    "km": 1e3,
    "per m2": 1.0,
    "per m^2": 1.0,
    "/m2": 1.0,
    "per km2": 1e-6,
    "per km^2": 1e-6,
    "/km2": 1e-6,
    "bps/hz": 1.0,
}


def parse_quantity(value) -> float:
    """Parse a number with an optional unit suffix to base units.

    Plain numbers pass through; "50 m" -> 50.0, "2 km" -> 2000.0,
    "40 per km2" -> 4.0e-05, "0 dB" -> 1.0 (decibels to linear power).
    """
    if isinstance(value, bool):
        raise ValueError(f"expected a quantity, got boolean {value!r}")
    if isinstance(value, (int, float)):
        return float(value)
    if not isinstance(value, str):
        raise ValueError(f"expected a number or string quantity, got {value!r}")
    match = _QUANTITY_RE.match(value)
    if not match:
        raise ValueError(f"cannot parse quantity {value!r}")
    number = float(match.group("num"))
    unit = match.group("unit").lower()
    if unit in ("db",):
        return 10.0 ** (number / 10.0)
    if unit in _UNIT_SCALE:
        return number * _UNIT_SCALE[unit]
    raise ValueError(f"unknown unit {match.group('unit')!r} in {value!r}")


_DEFAULT_NETWORK = dict(lambda_p=40e-6, n_bar=8.0, sigma=50.0, alpha=4.0,
                        gamma_d=1.0, theta=1.0)
_DEFAULT_LIBRARY = dict(n_files=100, beta=0.5, cache_size=5)


@dataclass(frozen=True)
class RunSettings:
    """Fully resolved configuration for one CLI invocation."""

    network: NetworkConfig
    library: ContentLibrary
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    trials: int = 20_000
    seed: int = 0
    experiment: str = "coverage-vs-sigma"
    out: str | None = None
    fmt: str = "csv"
    experiment_params: dict = field(default_factory=dict)


def _require_mapping(section, name):
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ValueError(f"config section {name!r} must be a mapping")
    return dict(section)


def _number(value) -> float:
    """value as a float: a number, or a numeric string, since YAML reads
    1e-8 as one; not a bool, which float() would read as 1.0 unseen."""
    if not isinstance(value, bool) and isinstance(value, (int, float, str)):
        try:
            return float(value)
        except ValueError:
            pass
    raise ValueError(f"must be a number, got {value!r}")


def _count(value) -> int:
    """value as an int: an integer, not a bool, or a float that int() would
    truncate unseen (2500.7 to 2500)."""
    if not _is_int(value):
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _pop(section: dict, key: str, default, name: str, parse) -> float | int:
    """parse(section[key]), key removed from section, or parse(default)."""
    try:
        return parse(section.pop(key, default))
    except ValueError as exc:
        raise ValueError(f"{name} setting {key!r} {exc}") from None


def _refuse_workers(run: dict) -> None:
    """Reject a worker-process count other than 1 from run.workers or
    D2DCACHE_WORKERS. The pool they chose is gone; workers: 1, its old
    default, is still read so that existing configs load."""
    why = "the worker-process pool has been removed; threads spread each run over the CPUs"
    workers = run.pop("workers", 1)
    if not (_is_int(workers) and workers == 1):
        raise ValueError(f"run setting 'workers' must be 1 or absent, got {workers!r}: {why}")
    env = os.environ.get("D2DCACHE_WORKERS", "1")
    if env != "1":
        raise ValueError(f"D2DCACHE_WORKERS must be 1 or unset, got {env!r}: {why}")


def _network_from(section: dict) -> NetworkConfig:
    kwargs = dict(_DEFAULT_NETWORK)
    if "rho" in section and "theta" not in section:
        kwargs.pop("theta")
    for key in ("lambda_p", "n_bar", "sigma", "alpha", "gamma_d", "theta", "rho"):
        if key in section:
            kwargs[key] = parse_quantity(section.pop(key))
    if section:
        raise ValueError(f"unknown network settings: {sorted(section)}")
    return NetworkConfig(**kwargs)


def _library_from(section: dict) -> ContentLibrary:
    kwargs = {key: _pop(section, key, default, "library", _number if key == "beta" else _count)
              for key, default in _DEFAULT_LIBRARY.items()}
    if section:
        raise ValueError(f"unknown library settings: {sorted(section)}")
    return ContentLibrary.from_zipf(kwargs["n_files"], kwargs["beta"],
                                    kwargs["cache_size"])


def _quadrature_from(section: dict) -> QuadratureSpec:
    kwargs = {key: _pop(section, key, None, "quadrature", _number)
              for key in ("rel_tol", "abs_tol", "v_max_sigma_mult", "k_max_tail_mass")
              if key in section}
    for key in ("mc_integration_samples", "qmc_seed"):
        if key in section:
            kwargs[key] = _pop(section, key, None, "quadrature", _count)
    if section:
        raise ValueError(f"unknown quadrature settings: {sorted(section)}")
    return QuadratureSpec(**kwargs)


_EXPERIMENT_PARAM_KEYS = {
    "coverage-vs-sigma": {"sigma_m", "lambda_p_per_m2", "lambda_p_per_km2", "c"},
    "offload-vs-beta": {"beta"},
    "policy-histogram": {"pairs"},
    "validate-bounds": {"decades", "points"},
    "custom-sweep": {"parameter", "values", "metric", "c", "policy"},
}


def _per_km2(value) -> float:
    """A plain number of clusters per km^2 in per m^2; the key names the unit."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a plain number of clusters per km^2, got {value!r}")
    return float(value) * 1e-6


def _pair(pair) -> dict:
    """A policy-histogram pair: its sigma and lambda_p as quantities."""
    missing = [key for key in ("sigma", "lambda_p") if key not in pair]
    if missing:
        raise ValueError(f"pair {pair!r} has no {' or '.join(map(repr, missing))}")
    return {key: parse_quantity(pair[key]) for key in ("sigma", "lambda_p")}


# the list-valued experiment settings, each with the parser of its entries
_LIST_PARSERS = {"sigma_m": parse_quantity, "lambda_p_per_m2": parse_quantity,
                 "lambda_p_per_km2": _per_km2, "pairs": _pair, "values": parse_quantity,
                 "beta": _number}
# the numeric single-valued experiment settings, each with its parser
_SCALAR_PARSERS = {"c": _number, "decades": _number, "points": _count}


def _parse_experiment_params(name: str, raw: dict) -> dict:
    params = dict(raw)
    unknown = set(params) - _EXPERIMENT_PARAM_KEYS[name]
    if unknown:
        raise ValueError(
            f"unknown settings for experiment {name!r}: {sorted(unknown)}"
        )
    if "lambda_p_per_km2" in params and "lambda_p_per_m2" in params:
        raise ValueError("coverage-vs-sigma takes lambda_p_per_m2 or "
                         "lambda_p_per_km2, not both")
    for key, value in params.items():
        try:
            if key in _LIST_PARSERS:
                params[key] = [_LIST_PARSERS[key](entry) for entry in value]
            elif key in _SCALAR_PARSERS:
                params[key] = _SCALAR_PARSERS[key](value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} setting {key!r}: {exc}") from None
    if "lambda_p_per_km2" in params:
        params["lambda_p_per_m2"] = params.pop("lambda_p_per_km2")
    return params


def load_config(path: str) -> RunSettings:
    """Read a YAML config file into resolved settings.

    Missing sections and an entirely empty file fall back to the reference
    scenario defaults. run.experiment must name an experiment, even for
    `solve`. Counts and seeds must be integers, not floats to be
    truncated. A worker count other than 1, from run.workers or the
    D2DCACHE_WORKERS environment variable, is an error: the worker-process
    pool is gone.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = yaml.safe_load(handle)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError("top-level config must be a mapping")

    network = _network_from(_require_mapping(raw.pop("network", None), "network"))
    library = _library_from(_require_mapping(raw.pop("library", None), "library"))
    quadrature = _quadrature_from(
        _require_mapping(raw.pop("quadrature", None), "quadrature")
    )
    run = _require_mapping(raw.pop("run", None), "run")
    experiments_raw = _require_mapping(raw.pop("experiments", None), "experiments")
    if raw:
        raise ValueError(f"unknown config sections: {sorted(raw)}")

    experiment = str(run.pop("experiment", "coverage-vs-sigma"))
    trials = _pop(run, "trials", 20_000, "run", _count)
    seed = _pop(run, "seed", 0, "run", _count)
    out = run.pop("out", None)
    fmt = str(run.pop("format", "csv"))
    _refuse_workers(run)
    if run:
        raise ValueError(f"unknown run settings: {sorted(run)}")
    if fmt not in ("csv", "jsonl"):
        raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")
    if experiment not in EXPERIMENTS:
        raise ValueError(f"run setting 'experiment' must be one of {EXPERIMENTS}, "
                         f"got {experiment!r}")
    if trials < 1:
        raise ValueError("trials must be positive")

    params = {
        name: _parse_experiment_params(name, _require_mapping(section, name))
        for name, section in experiments_raw.items()
        if name in EXPERIMENTS
    }
    unknown = set(experiments_raw) - set(EXPERIMENTS)
    if unknown:
        raise ValueError(f"unknown experiments configured: {sorted(unknown)}")

    return RunSettings(
        network=network, library=library, quadrature=quadrature,
        trials=trials, seed=seed, experiment=experiment, out=out, fmt=fmt,
        experiment_params=params,
    )


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return "%.12g" % value
    if value is None:
        return ""
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        return float("%.12g" % value)
    return value


def emit_results(columns, rows, out: str | None = None, fmt: str = "csv") -> str:
    """Render rows to CSV or JSON lines at 12 significant digits.

    Column order is taken from `columns`; the text is returned and also
    written to the path `out` when given, otherwise to stdout.
    """
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_format_cell(row.get(col)) for col in columns))
        text = "\n".join(lines) + "\n"
    elif fmt == "jsonl":
        lines = [
            json.dumps({col: _json_value(row.get(col)) for col in columns})
            for row in rows
        ]
        text = "\n".join(lines) + "\n"
    else:
        raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")

    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text


def _cmd_run(args) -> int:
    settings = load_config(args.config)
    if args.experiment is not None:
        settings = replace(settings, experiment=args.experiment)
    if args.seed is not None:
        settings = replace(settings, seed=args.seed)
    if args.trials is not None:
        settings = replace(settings, trials=args.trials)
    if args.out is not None:
        settings = replace(settings, out=args.out)
    if args.format is not None:
        settings = replace(settings, fmt=args.format)

    spec = ExperimentSpec(
        name=settings.experiment,
        network=settings.network,
        library=settings.library,
        trials=settings.trials,
        seed=settings.seed,
        quadrature=settings.quadrature,
        params=settings.experiment_params.get(settings.experiment, {}),
    )
    columns, rows = run_experiment(spec)
    emit_results(columns, rows, out=settings.out, fmt=settings.fmt)
    return 0


def _cmd_solve(args) -> int:
    settings = load_config(args.config)
    solution = solve_p1(settings.library, settings.network)
    probs = solution.policy.probs
    q = settings.library.popularity
    labels = solution.diagnostics["labels"]
    print("file_index,popularity,caching_probability,label")
    for m in range(probs.size):
        print(f"{m},{q[m]:.12g},{probs[m]:.12g},{labels[m]}")
    print(f"# objective = {solution.objective:.12g}")
    print(f"# multiplier = {solution.multiplier:.12g}")
    print(f"# entropy = {policy_entropy(solution.policy):.12g}")
    print(f"# sum_residual = {solution.diagnostics['sum_residual']:.12g}")
    for warning in solution.diagnostics["concavity_warnings"]:
        print(f"# note: {warning}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="d2dcache",
        description=(
            "Clustered D2D caching: coverage analysis, Monte Carlo "
            "simulation, and cache-placement optimization."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a named experiment")
    run_parser.add_argument("--config", required=True, help="YAML config path")
    run_parser.add_argument("--experiment", choices=EXPERIMENTS, default=None)
    run_parser.add_argument("--seed", type=int, default=None)
    run_parser.add_argument("--trials", type=int, default=None)
    run_parser.add_argument("--out", default=None)
    run_parser.add_argument("--format", choices=("csv", "jsonl"), default=None)
    run_parser.set_defaults(func=_cmd_run)

    solve_parser = sub.add_parser(
        "solve", help="solve the cache-placement problem for the config"
    )
    solve_parser.add_argument("--config", required=True, help="YAML config path")
    solve_parser.set_defaults(func=_cmd_solve)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError, yaml.YAMLError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
