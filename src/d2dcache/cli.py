"""Configuration loading, result emission, and the command-line interface.

Config files are YAML with optional sections network / library / run /
quadrature / experiments; an empty file runs the reference scenario
(sigma = 50 m, 40 clusters per km^2, 8 devices per cluster, alpha = 4,
0 dB SIR threshold, 100 files, Zipf 0.5, cache budget 5). Every setting
has one parser of its type and unit (_SETTINGS here for the first four
sections, experiments.experiment_params for each experiment's), and the
class that consumes it checks its range as the config loads. A wrong
type, an unknown key, a value outside a setting's allowed set or range,
or in units of another kind ("2 dB" for a length) is a configuration
error naming the section and key. Dimensioned values accept the unit
suffixes of their kind: "50 m", "0 dB" (to linear), "40 per km2" (to
per-m^2). The model has one threshold, theta; network.rho, a rate
threshold in bits/s/Hz, is read as theta = 2**rho - 1. Results
are written as CSV or JSON lines with numbers at 12 significant digits,
parameter columns before metric columns, and are byte identical for a
fixed config, seed, and trial count.

Exit codes: 0 success, 2 usage or configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from functools import partial

import yaml

from .analytic import NumericalError, QuadratureSpec, _is_int
from .experiments import (
    _NETWORK,
    EXPERIMENTS,
    ExperimentSpec,
    _consumed,
    _count,
    _number,
    _one_of,
    _rate,
    _section,
    experiment_params,
    policy_entropy,
    run_experiment,
)
from .model import ContentLibrary, NetworkConfig
from .optimizer import solve_p1

__all__ = [
    "RunSettings",
    "load_config",
    "emit_results",
    "main",
]

_DEFAULT_NETWORK = NetworkConfig(lambda_p=40e-6, n_bar=8.0, sigma=50.0, alpha=4.0,
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


_NO_POOL = "the worker-process pool has been removed; threads spread each run over the CPUs"


def _theta_from_rate(value) -> float:
    """A rate threshold rho [bits/sec/Hz] as the SIR threshold theta =
    2**rho - 1, which must be finite; NetworkConfig checks its range."""
    try:
        theta = 2.0 ** _rate(value) - 1.0
    except OverflowError:
        theta = math.inf
    if not math.isfinite(theta):
        raise ValueError(f"must be a rate whose 2**rho - 1 is finite, got {value!r}")
    return theta


def _path(value) -> str:
    """A file path; open() would take a number as a file descriptor (2 is stderr)."""
    if not isinstance(value, str):
        raise ValueError(f"must be a file path, got {value!r}")
    return value


def _one_worker(value) -> int:
    """workers: 1, the default of the removed worker-process pool, still
    loads so that existing configs do; any other count is refused."""
    if not (_is_int(value) and value == 1):
        raise ValueError(f"must be 1 or absent, got {value!r}: {_NO_POOL}")
    return value


# each config section's settings, each with its parser of type and unit;
# experiments' settings are experiments.experiment_params's
_SETTINGS = {
    "network": {**_NETWORK, "rho": _theta_from_rate},  # rho is read as theta
    "library": {"n_files": _count, "beta": _number, "cache_size": _count},
    "quadrature": {**dict.fromkeys(("rel_tol", "abs_tol", "v_max_sigma_mult",
                                    "k_max_tail_mass"), _number),
                   "mc_integration_samples": _count, "qmc_seed": _count},
    "run": {"experiment": _one_of(EXPERIMENTS),
            "trials": _count, "seed": _count,
            "out": _path, "format": _one_of(("csv", "jsonl")), "workers": _one_worker},
}


def load_config(path: str) -> RunSettings:
    """Read a YAML config file into resolved settings.

    Missing sections and an entirely empty file fall back to the reference
    scenario defaults. Each setting is parsed and range-checked as the
    module docstring says, and an error names its section and key. A
    network rho is stored as its theta, so the network gives theta or rho,
    not both. run.experiment must name an experiment, even for `solve`. A
    worker count other than 1, from run.workers or the D2DCACHE_WORKERS
    environment variable, is an error: the worker-process pool is gone.
    """
    with open(path, "r", encoding="utf-8") as handle:
        raw = yaml.safe_load(handle)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ValueError("top-level config must be a mapping")
    unknown = set(raw) - {*_SETTINGS, "experiments"}
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown, key=str)}")
    network, library, quadrature, run = (
        _section(raw.get(name), name, parsers) for name, parsers in _SETTINGS.items())
    # the experiments' names here; their settings go to experiment_params below
    configured = _section(raw.get("experiments"), "experiments",
                          dict.fromkeys(EXPERIMENTS, lambda section: section))
    env = os.environ.get("D2DCACHE_WORKERS", "1")
    if env != "1":
        raise ValueError(f"D2DCACHE_WORKERS must be 1 or unset, got {env!r}: {_NO_POOL}")

    written, keys = raw.get("network") or {}, {}
    if "rho" in network:
        if "theta" in network:
            raise ValueError("network takes theta or rho, not both")
        network["theta"] = network.pop("rho")
        written, keys = {**written, "theta": written["rho"]}, {"theta": "rho"}
    network = _consumed("network", partial(_DEFAULT_NETWORK.with_, **network), written, keys)
    # the library's cross-field range, 1 <= cache_size < n_files, fails on
    # cache_size; where the config left cache_size at its default, the
    # setting at fault is n_files
    keys = {"cache_size": "n_files"} if "cache_size" not in library else {}
    library = {**_DEFAULT_LIBRARY, **library}
    library = _consumed("library", partial(ContentLibrary.from_zipf, **library), keys=keys)
    _consumed("run", partial(ExperimentSpec.check_run, run.get("trials", RunSettings.trials),
                             run.get("seed", RunSettings.seed)))
    run.pop("workers", None)
    if "format" in run:
        run["fmt"] = run.pop("format")
    return RunSettings(
        network=network,
        library=library,
        quadrature=QuadratureSpec(**quadrature),
        experiment_params={name: experiment_params(name, section, network, library)
                           for name, section in configured.items()},
        **run,
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
    elif fmt == "jsonl":
        lines = [
            json.dumps({col: _json_value(row.get(col)) for col in columns})
            for row in rows
        ]
    else:
        raise ValueError(f"format must be 'csv' or 'jsonl', got {fmt!r}")
    text = "\n".join(lines) + "\n"

    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return text


def _cmd_run(args) -> int:
    flags = {"experiment": args.experiment, "seed": args.seed, "trials": args.trials,
             "out": args.out, "fmt": args.format}
    settings = replace(load_config(args.config),
                       **{key: value for key, value in flags.items() if value is not None})

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
