"""Regenerate bench/references.json, the frozen answers the benchmark checks.

    PYTHONPATH=src python3 bench/make_references.py

Takes about two minutes on one core of a 2-vCPU Intel Xeon VM. Each entry
is computed with the default QuadratureSpec; the file records that spec and
the git revision of the code that produced it. Regenerate only when the
physics or the workload inputs change on purpose, never to make a failing
answer pass.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from d2dcache.analytic import (  # noqa: E402
    _exponent_exact,
    coverage_content,
    laplace_exact,
    offloading_gain,
    zeta_kernel,
)
from d2dcache.model import ContentLibrary  # noqa: E402
from d2dcache.optimizer import grid_search_oracle, solve_p1  # noqa: E402

OUT = Path(__file__).resolve().parent / "references.json"
TIE_BREAK = ("solve_p1 keeps the symmetric policy when popularities tie (beta 0), as "
             "acceptance 6 requires; the step-0.05 grid oracle finds a better asymmetric one")


def coverage_ref(c, cfg, method="exact-tcp"):
    result = coverage_content(c, cfg, wl.QUAD, method)
    return {"value": result.value, "err": result.numerical_error}


def exact_offload_refs():
    refs = {}
    for sigma in wl.EXACT_SIGMAS:
        cfg = wl.REF_CFG.with_(sigma=sigma)
        key = f"sigma{sigma:g}"
        refs[f"{key}/coverage-exact"] = coverage_ref(1.0, cfg)
        refs[f"{key}/coverage-ppp"] = coverage_ref(1.0, cfg, "ppp-bound")
        t_grid = wl.laplace_grid(cfg)
        laplace = laplace_exact(t_grid, cfg, wl.QUAD)
        # the transform is exp(-E); its error is L times the exponent's error
        laplace_err = [float(value) * _exponent_exact(float(t), cfg, wl.QUAD)[1]
                       for t, value in zip(t_grid, laplace)]
        zeta = zeta_kernel(wl.ZETA_V_OVER_SIGMA * sigma, cfg.theta, cfg, wl.QUAD)
        refs[f"{key}/laplace-zeta"] = {"laplace": laplace.tolist(),
                                       "laplace_err": laplace_err,
                                       "zeta": zeta.tolist()}
        if sigma in wl.GAIN_SIGMAS:
            library = wl.ref_library()
            policy = solve_p1(library, cfg).policy
            errors = {}

            def coverage_fn(c):
                result = coverage_content(c, cfg, wl.QUAD, "exact-tcp")
                errors[c] = result.numerical_error
                return result

            value = offloading_gain(policy, library, coverage_fn)
            q, probs = library.popularity, policy.probs
            err = float(sum(q[m] * (1.0 - c) * errors.get(float(c), 0.0)
                            for m, c in enumerate(probs)))
            refs[f"{key}/offload-gain"] = {"value": value, "err": err}
    return refs


def mc_coverage_refs():
    return {wl.mc_key(alpha, c): coverage_ref(c, wl.mc_config(alpha))
            for alpha, c, _ in wl.MC_POINTS}


def oracle_refs():
    refs = {}
    for n_files, beta in wl.ORACLE_INSTANCES:
        library = ContentLibrary.from_zipf(n_files, beta, wl.ORACLE_BUDGET)
        _, oracle = grid_search_oracle(library, wl.REF_CFG, wl.ORACLE_STEP)
        refs[wl.small_key(n_files, beta)] = {"oracle": oracle}
    return refs


def main():
    revision = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True).stdout.strip()
    refs = {
        "revision": revision,
        "quadrature": dataclasses.asdict(wl.QUAD),
        "expected_failures": {
            "mc-coverage/alpha2.5-c1":
                "default simulation window is biased at alpha 2.5 "
                "(0.268 +- 0.004 at 60k trials vs exact 0.2435)",
            **{f"cli-offload/{wl.small_key(n_files, 0.0)}": TIE_BREAK
               for n_files, beta in wl.ORACLE_INSTANCES if beta == 0.0},
        },
        "exact-offload": exact_offload_refs(),
        "mc-coverage": mc_coverage_refs(),
        "cli-offload": oracle_refs(),
    }
    OUT.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT.name}")


if __name__ == "__main__":
    main()
