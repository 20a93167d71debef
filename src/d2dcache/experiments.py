"""Named experiment drivers producing tabular results, and their settings.

Each experiment takes an ExperimentSpec (base configuration plus sweep
axes) and returns (columns, rows) ready for emit_results: parameter
columns first, then method / value / ci_half_width / trials / seed.
Simulation seeds are derived deterministically from the spec seed and the
sweep-point index, so a fixed spec reproduces results byte for byte.

An experiment's settings (its sweep axes) are one table at the foot of
this module: a parser of type and unit and a default per key.
experiment_params checks a settings mapping against it, checks each value
that a model class takes by building it into the base network or library
(_consumed), and fills in the defaults, for ExperimentSpec and for the
config loader alike. c, decades and points, which no model class takes,
keep their range in the table (_ranged). The value parsers here serve the
config loader's own settings table too.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .analytic import (
    QuadratureSpec,
    _is_int,
    compute_Z,
    coverage_content,
    laplace_exact,
    laplace_ppp_bound,
    offloading_closed_form_k1,
    offloading_gain,
)
from .model import (
    CachingPolicy,
    ContentLibrary,
    NetworkConfig,
    policy_cpf,
    policy_uniform,
    policy_zipf_proportional,
)
from .optimizer import solve_p1
from .simulator import MIN_TRIALS, estimate_coverage, estimate_offloading

__all__ = ["EXPERIMENTS", "ExperimentSpec", "experiment_params", "run_experiment",
           "policy_entropy"]

_QUANTITY_RE = re.compile(
    r"^\s*(?P<num>[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)\s*(?P<unit>.*?)\s*$"
)

# the units of each kind of quantity, each with its scale to base units; ""
# is a plain number. dB, which is not a scale, is converted on its own
_PLAIN = {"": 1.0}
_LENGTH = {**_PLAIN, "m": 1.0, "meter": 1.0, "meters": 1.0, "km": 1e3}
_DENSITY = {**_PLAIN, "per m2": 1.0, "per m^2": 1.0, "/m2": 1.0,
            "per km2": 1e-6, "per km^2": 1e-6, "/km2": 1e-6}
_RATE = {**_PLAIN, "bps/hz": 1.0}


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


def _quantity(kind: str, units: dict, db: bool = False):
    """The parser of a setting that takes one kind of quantity: a plain
    number, or a number in one of units (unit -> scale; "" for a plain
    number), or in dB (to linear power) where db is set. The units of
    other kinds are refused, so "2 dB" is not a length."""
    def parse(value) -> float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value) * units[""]
        match = _QUANTITY_RE.match(value) if isinstance(value, str) else None
        unit = match.group("unit").lower() if match else None
        if db and unit == "db":
            try:
                return 10.0 ** (float(match.group("num")) / 10.0)
            except OverflowError:
                raise ValueError(f"must be finite in linear power, got {value!r}") from None
        if unit not in units:
            raise ValueError(f"must be {kind}, got {value!r}")
        return float(match.group("num")) * units[unit]
    return parse


_plain = _quantity("a plain number", _PLAIN)
_length = _quantity("a length such as '50 m' or '2 km'", _LENGTH)
_density = _quantity("a density such as '40 per km2'", _DENSITY)
_rate = _quantity("a rate such as '2 bps/hz'", _RATE)
# each network setting's parser, by the kind of quantity it takes; their
# ranges are NetworkConfig's
_NETWORK = {"lambda_p": _density, "n_bar": _plain, "sigma": _length, "alpha": _plain,
            "gamma_d": _plain, "theta": _quantity("a plain number or in dB such as '3 dB'",
                                                  _PLAIN, db=True)}


def _ranged(parse, ok, needs: str):
    """The parser of a setting parsed by parse whose value must satisfy ok;
    needs says what it must be."""
    def parse_ranged(value):
        parsed = parse(value)
        if not ok(parsed):
            raise ValueError(f"must be {needs}, got {value!r}")
        return parsed
    return parse_ranged


_fraction = _ranged(_number, lambda x: 0 <= x <= 1, "a number in [0, 1]")


def _one_of(choices):
    """The parser of a setting that takes one of the strings in choices."""
    def parse(value) -> str:
        if not (isinstance(value, str) and value in choices):
            raise ValueError(f"must be one of {tuple(choices)}, got {value!r}")
        return value
    return parse


def _list(parse_entry, non_empty=False):
    """The parser of a list setting: a sequence, not a string, whose
    characters would be read as entries, each entry parsed by parse_entry."""
    def parse(value) -> list:
        if not isinstance(value, (list, tuple)) or (non_empty and not value):
            raise ValueError(f"must be a {'non-empty ' * non_empty}list, got {value!r}")
        return [parse_entry(entry) for entry in value]
    return parse


def _section(raw, name: str, parsers: dict) -> dict:
    """The settings mapping raw (None for none) parsed key by key with
    parsers. A non-mapping, an unknown key or a value that its parser
    refuses is a ValueError naming the section and the key."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValueError(f"config section {name!r} must be a mapping")
    unknown = set(raw) - set(parsers)
    if unknown:
        raise ValueError(f"unknown {name} settings: {sorted(unknown, key=str)}")
    parsed = {}
    for key, value in raw.items():
        try:
            parsed[key] = parsers[key](value)
        except (ValueError, OverflowError) as exc:  # float() of a huge integer
            raise ValueError(f"{name} setting {key!r} {exc}") from None
    return parsed


def _consumed(section: str, build, written: dict | None = None, keys: dict | None = None):
    """build(): the model object that takes settings of config section
    section, whose class checks their range. Its ValueError opens with the
    field at fault, "<field> must ..., got <value>", and is re-raised naming
    the section and the setting: keys[field], or the field itself. written
    maps a field whose setting's parser converts it (units, rho) to its
    value as the config wrote it, which the message shows in place of the
    converted one, adding "(as <field>)" where the setting is not the
    field."""
    try:
        return build()
    except ValueError as exc:
        field, _, must = str(exc).partition(" ")
        key = (keys or {}).get(field, field)
        head, got, _ = must.rpartition(", got ")
        if field in (written or {}) and got:
            must = f"{head}, got {written[field]!r}"
            if key != field:
                must += f" (as {field})"
        raise ValueError(f"{section} setting {key!r} {must}") from None


_SEED_STRIDE = 1_000_003  # per-sweep-point seed offset


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to run one named experiment; check_run holds the
    ranges of its trials and seed."""

    name: str
    network: NetworkConfig
    library: ContentLibrary
    trials: int = 20_000
    seed: int = 0
    quadrature: QuadratureSpec = field(default_factory=QuadratureSpec)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.name!r}; choose from {EXPERIMENTS}"
            )
        self.check_run(self.trials, self.seed)
        # frozen dataclass: store the checked settings, defaults filled in
        object.__setattr__(self, "params", experiment_params(
            self.name, self.params, self.network, self.library))

    @staticmethod
    def check_run(trials, seed) -> None:
        """Refuse fewer trials than the simulator runs (MIN_TRIALS) or a
        negative seed; the config loader checks run.trials and run.seed here."""
        if not _is_int(trials) or trials < MIN_TRIALS:
            raise ValueError(f"trials must be an integer >= {MIN_TRIALS}, got {trials!r}")
        if not _is_int(seed) or seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")


def policy_entropy(policy: CachingPolicy) -> float:
    """Shannon entropy (nats) of the caching vector normalized to sum 1."""
    c = policy.probs
    total = c.sum()
    if total <= 0:
        return 0.0
    p = c[c > 0] / total
    return float(-(p * np.log(p)).sum())


def _point_seed(seed: int, index: int) -> int:
    return int(seed + _SEED_STRIDE * index)


# the value columns of a coverage row at cfg, also custom-sweep's metrics
def _coverage(method: str, spec: ExperimentSpec, cfg: NetworkConfig, seed: int) -> dict:
    res = coverage_content(spec.params["c"], cfg, spec.quadrature, method=method)
    return {"value": res.value, "ci_half_width": res.numerical_error}


def _coverage_sim(spec: ExperimentSpec, cfg: NetworkConfig, seed: int) -> dict:
    est = estimate_coverage(spec.params["c"], cfg, spec.trials, seed=seed)
    return {"value": est.mean, "ci_half_width": est.half_width_95, "trials": est.trials}


def _coverage_point(spec: ExperimentSpec, sigma, lam, seed):
    """The exact, bound and simulated rows of one (sigma, lambda_p) grid
    point of coverage-vs-sigma. The points run one after another; each
    evaluation spreads its own work over threads (analytic._thread_map)."""
    cfg = spec.network.with_(sigma=sigma, lambda_p=lam)
    base = {"sigma_m": sigma, "lambda_p_per_m2": lam, "trials": 0, "seed": seed}
    return [{**base, "method": "exact-tcp", **_coverage("exact-tcp", spec, cfg, seed)},
            {**base, "method": "ppp-bound", **_coverage("ppp-bound", spec, cfg, seed)},
            {**base, "method": "simulation", **_coverage_sim(spec, cfg, seed)}]


def _run_coverage_vs_sigma(spec: ExperimentSpec):
    params = spec.params
    points = [(s, l) for s in params["sigma_m"] for l in params["lambda_p_per_m2"]]
    rows = []
    for i, (sig, lam) in enumerate(points):
        rows += _coverage_point(spec, sig, lam, _point_seed(spec.seed, i))
    columns = ["sigma_m", "lambda_p_per_m2", "method", "value",
               "ci_half_width", "trials", "seed"]
    return columns, rows


def _run_offload_vs_beta(spec: ExperimentSpec):
    rows = []
    for i, beta in enumerate(spec.params["beta"]):
        lib = replace(spec.library, beta=beta, popularity=None)
        named = (
            ("kkt", solve_p1(lib, spec.network).policy),
            ("zipf-proportional", policy_zipf_proportional(lib)),
            ("cpf", policy_cpf(lib)),
        )
        seed = _point_seed(spec.seed, i)
        for policy_name, policy in named:
            base = {"beta": beta, "policy": policy_name, "seed": seed}
            closed = offloading_closed_form_k1(policy, lib, spec.network)
            rows.append({**base, "method": "closed-form-k1", "value": closed,
                         "ci_half_width": 0.0, "trials": 0})
            sim = estimate_offloading(policy, lib, spec.network, spec.trials, seed=seed)
            rows.append({**base, "method": "simulation", "value": sim.mean,
                         "ci_half_width": sim.half_width_95, "trials": sim.trials})
    columns = ["beta", "policy", "method", "value", "ci_half_width",
               "trials", "seed"]
    return columns, rows


def _run_policy_histogram(spec: ExperimentSpec):
    rows = []
    for pair in spec.params["pairs"]:
        cfg = spec.network.with_(**pair)
        solution = solve_p1(spec.library, cfg)
        base = {"sigma_m": cfg.sigma, "lambda_p_per_m2": cfg.lambda_p}
        for m, c_m in enumerate(solution.policy.probs):
            rows.append({**base, "file_index": m, "method": "policy-c",
                         "value": float(c_m)})
        for method, value in (("entropy", policy_entropy(solution.policy)),
                              ("objective", solution.objective)):
            rows.append({**base, "file_index": -1, "method": method, "value": value})
    columns = ["sigma_m", "lambda_p_per_m2", "file_index", "method", "value"]
    return columns, rows


def _run_validate_bounds(spec: ExperimentSpec):
    decades = spec.params["decades"]
    cfg, quad = spec.network, spec.quadrature
    center = cfg.theta
    grid = center * np.logspace(-decades / 2.0, decades / 2.0, spec.params["points"])
    exact = laplace_exact(grid, cfg, quad)
    bound = laplace_ppp_bound(grid, cfg)
    rows = []
    for t, e_val, b_val in zip(grid, exact, bound):
        passed = int(b_val <= e_val + 1e-12)
        for method, value in (("exact-tcp", e_val), ("ppp-bound", b_val)):
            rows.append({"check": "laplace-ordering", "x_value": float(t),
                         "method": method, "value": float(value), "passed": passed})

    # closed-form consistency of the single-caterer offloading expression:
    # the k = 1 coverage of file m is c_m n_bar exp(-c_m n_bar) / Z
    lib, z = spec.library, compute_Z(cfg)
    policy = policy_zipf_proportional(lib)
    closed = offloading_closed_form_k1(policy, lib, cfg)
    via_gain = offloading_gain(
        policy, lib, lambda c_m: c_m * cfg.n_bar * math.exp(-c_m * cfg.n_bar) / z)
    rows.append({"check": "k1-identity", "x_value": 0.0, "method": "residual",
                 "value": abs(closed - via_gain),
                 "passed": int(abs(closed - via_gain) < 1e-6)})
    rows.append({"check": "z-constant", "x_value": 0.0, "method": "value",
                 "value": z, "passed": 1})
    columns = ["check", "x_value", "method", "value", "passed"]
    return columns, rows


def _offload_closed_form(spec: ExperimentSpec, cfg: NetworkConfig, seed: int) -> dict:
    policy = _POLICIES[spec.params["policy"]](spec.library, cfg)
    return {"value": offloading_closed_form_k1(policy, spec.library, cfg)}


_POLICIES = {
    "zipf-proportional": lambda library, cfg: policy_zipf_proportional(library),
    "cpf": lambda library, cfg: policy_cpf(library),
    "uniform": lambda library, cfg: policy_uniform(library),
    "kkt": lambda library, cfg: solve_p1(library, cfg).policy,  # at the sweep point
}
# each custom-sweep metric: (spec, config, seed) -> the row's value columns
_METRICS = {
    "coverage-exact": partial(_coverage, "exact-tcp"),
    "coverage-bound": partial(_coverage, "ppp-bound"),
    "coverage-sim": _coverage_sim,
    "offload-closed-form": _offload_closed_form,
}


def _run_custom_sweep(spec: ExperimentSpec):
    parameter, metric = spec.params["parameter"], spec.params["metric"]
    rows = []
    for i, value in enumerate(spec.params["values"]):
        cfg = spec.network.with_(**{parameter: value})
        seed = _point_seed(spec.seed, i)
        rows.append({"parameter": parameter, "x_value": value, "method": metric,
                     "ci_half_width": 0.0, "trials": 0, "seed": seed,
                     **_METRICS[metric](spec, cfg, seed)})
    columns = ["parameter", "x_value", "method", "value", "ci_half_width",
               "trials", "seed"]
    return columns, rows


_PAIR = {"sigma": _length, "lambda_p": _density}


def _pair(pair) -> dict:
    """A policy-histogram pair: a settings mapping (_section) of both sigma
    and lambda_p, and of no other key."""
    try:
        parsed = _section(pair, "pair", _PAIR)
        if len(parsed) < len(_PAIR):
            raise ValueError(f"pair {pair!r} lacks one of them")
    except ValueError as exc:
        raise ValueError(f"must be a list of mappings of 'sigma' and 'lambda_p': {exc}") from None
    return parsed


def _check_values(section: str, key: str, field: str, values, written,
                  network: NetworkConfig, library: ContentLibrary) -> None:
    """Build each of values into the base library as its beta, or into the
    base network as its field (a pair as its fields), as the run builds
    them, so that the model class checks their range; written holds the
    values as the config wrote them."""
    for value, as_written in zip(values, written):
        if field == "beta":  # the Zipf popularity at beta
            build = partial(replace, library, beta=value, popularity=None)
        else:
            build = partial(network.with_, **(value if field == "pairs" else {field: value}))
        fields = as_written if field == "pairs" else {field: as_written}
        _consumed(section, build, fields, dict.fromkeys(fields, key))


# the model field that each experiment setting's values are built into;
# custom-sweep's values go into the field they sweep (experiment_params)
_FIELDS = {"sigma_m": "sigma", "lambda_p_per_m2": "lambda_p", "lambda_p_per_km2": "lambda_p",
           "beta": "beta", "pairs": "pairs"}

# each experiment: its runner, and per setting a parser and a default (None
# for none). A default goes through its parser too, so custom-sweep's empty
# values fails unless the config gives some. custom-sweep's values are
# parsed as the network setting they sweep (experiment_params).
_EXPERIMENTS = {
    "coverage-vs-sigma": (_run_coverage_vs_sigma, {
        "sigma_m": (_list(_length), (10.0, 25.0, 50.0, 100.0)),
        "lambda_p_per_m2": (_list(_density), (10e-6, 20e-6, 40e-6)),
        "lambda_p_per_km2": (_list(_quantity("a plain number of clusters per km^2",
                                             {"": 1e-6})), None),  # as lambda_p_per_m2
        "c": (_fraction, 1.0),
    }),
    "offload-vs-beta": (_run_offload_vs_beta, {
        "beta": (_list(_number), (0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5)),
    }),
    "policy-histogram": (_run_policy_histogram, {
        "pairs": (_list(_pair), ({"sigma": 10.0, "lambda_p": 20e-6},
                                 {"sigma": 100.0, "lambda_p": 50e-6})),
    }),
    "validate-bounds": (_run_validate_bounds, {
        "decades": (_ranged(_number, lambda x: 0 <= x < math.inf, "a finite number >= 0"), 6),
        "points": (_ranged(_count, lambda n: n >= 1, "an integer >= 1"), 30),
    }),
    "custom-sweep": (_run_custom_sweep, {
        "parameter": (_one_of(_NETWORK), "sigma"),
        "values": (_list(lambda value: value, non_empty=True), ()),
        "metric": (_one_of(_METRICS), "coverage-exact"),
        "c": (_fraction, 1.0),
        "policy": (_one_of(_POLICIES), "zipf-proportional"),
    }),
}
EXPERIMENTS = tuple(_EXPERIMENTS)


def experiment_params(name: str, raw, network: NetworkConfig,
                      library: ContentLibrary) -> dict:
    """The settings of experiment name: the mapping raw (None for none)
    checked and parsed against the experiment's table, each value that a
    model class takes built into network or library (_check_values), a
    lambda_p_per_km2 list read as lambda_p_per_m2, custom-sweep's values in
    the units of its parameter, and the defaults of the settings it does
    not give. Parsed settings parse to themselves."""
    table = _EXPERIMENTS[name][1]
    parsers = {key: parse for key, (parse, _) in table.items()}
    params = _section(raw, name, parsers)
    for key, values in params.items():
        if key in _FIELDS:
            _check_values(name, key, _FIELDS[key], values, raw[key], network, library)
    if "lambda_p_per_km2" in params:
        if "lambda_p_per_m2" in params:
            raise ValueError("coverage-vs-sigma takes lambda_p_per_m2 or "
                             "lambda_p_per_km2, not both")
        params["lambda_p_per_m2"] = params.pop("lambda_p_per_km2")
    defaults = {key: default for key, (_, default) in table.items()
                if key not in params and default is not None}
    params = {**_section(defaults, name, parsers), **params}
    if name == "custom-sweep":
        parameter = params["parameter"]
        parse = _list(_NETWORK[parameter])
        params.update(_section({"values": params["values"]}, name, {"values": parse}))
        _check_values(name, "values", parameter, params["values"], raw["values"],
                      network, library)
    return params


def run_experiment(spec: ExperimentSpec):
    """Dispatch to the named experiment; returns (columns, rows)."""
    return _EXPERIMENTS[spec.name][0](spec)
