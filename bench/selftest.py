"""Self-test of the benchmark at a tiny size (≈35 s on one core of a 2-vCPU
Intel Xeon VM).

    python3 bench/selftest.py

Checks that
  * every workload named in BENCHMARK.json has a build function;
  * a run of every workload, untraced and traced, prints every declared
    metric with its unit and a finite value as its last line;
  * a perturbed reference (or, for the CLI, a perturbed result file) makes
    the answer checks fail, and only an expected failure leaves the run
    correct.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
import sys
from pathlib import Path
from unittest import mock

import run

run.require_source()

import workloads  # noqa: E402

BENCHMARK = run.BENCHMARK
REFS = json.loads((run.BENCH_DIR / "references.json").read_text(encoding="utf-8"))

TINY_CONFIG = """\
library: {n_files: 20, beta: 0.5, cache_size: 1}
experiments:
  offload-vs-beta: {beta: [0.5]}
"""


def tiny_build(name, seed, refs, out_dir):
    """The workload with its cheap answers only, at small sizes."""
    config = Path(out_dir) / "tiny.yaml"
    config.write_text(TINY_CONFIG, encoding="utf-8")
    small_mc = tuple((a, c, 1_000) for a, c, _ in workloads.MC_POINTS)
    with mock.patch.multiple(workloads, MC_POINTS=small_mc, CLI_CONFIG=config,
                             CLI_TRIALS=1_000):
        workload = workloads.build(name, seed, refs, out_dir)
    if name == "exact-offload":
        workload.answers = [a for a in workload.answers
                            if a.id == "bound-transform"]
    return workload


def expect(condition, message):
    if not condition:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        raise SystemExit(1)


def check_workloads():
    expect(sorted(run.WORKLOADS) == sorted(workloads.BUILD_FUNCTIONS),
           "BENCHMARK.json workloads differ from workloads.BUILD_FUNCTIONS")


def check_printed_metrics(name, trace):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)], build=tiny_build)
    expect(code == 0, f"{name} trace {trace} exited {code}")
    result = json.loads(stdout.getvalue().strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{name}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["attempted"] >= 1,
           f"{name} trace {trace}: {result['correct']=} {result['attempted']=}")
    section = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    printed = result["metrics"]
    expect(set(printed) == set(declared), f"{name} trace {trace}: metric names differ")
    for metric, unit in declared.items():
        entry = printed[metric]
        expect(entry["unit"] == unit, f"{name}: {metric} unit {entry['unit']!r}")
        expect(isinstance(entry["value"], float) and math.isfinite(entry["value"]),
               f"{name}: {metric} value {entry['value']!r}")
        if not trace:
            expect(entry["value"] > 0, f"{name}: end-to-end {metric} is not positive")


def tiny_records(name, refs):
    """Records of one round of the tiny workload's answers and its probes."""
    workload = tiny_build(name, 5, refs, run.OUT_DIR)
    records, _, _ = run.run_rounds(workload, random.Random(5), rounds=1)
    return records + run.run_probes(workload)


def failing_ids(name, refs, records):
    """Ids, other than expected failures, whose check fails when `records`
    are checked against `refs`."""
    workload = tiny_build(name, 5, refs, run.OUT_DIR)
    answers = {a.id: a for a in workload.answers + workload.probes}
    return {rec.answer.id for rec in records
            if answers[rec.answer.id].check(rec.result)
            and f"{name}/{rec.answer.id}" not in refs["expected_failures"]}


def shift(delta):
    return lambda value: value + delta


PERTURBATIONS = (
    # (workload, reference key, field, perturbation, answer expected to fail)
    ("exact-offload", "sigma50/laplace-zeta", "zeta",
     lambda zeta: [z + 1e-3 for z in zeta], "bound-transform"),
    ("exact-offload", "sigma100/coverage-ppp", "value", shift(0.01), "bound-transform"),
    ("mc-coverage", "alpha4-c1", "value", shift(0.2), "alpha4-c1"),
    ("cli-offload", "small-n5-beta0.5", "oracle", shift(0.01), "small-n5-beta0.5"),
)


def check_perturbed_references():
    for name, key, field, perturb, answer_id in PERTURBATIONS:
        records = tiny_records(name, REFS)
        expect(not failing_ids(name, REFS, records), f"{name} fails unperturbed")
        perturbed = copy.deepcopy(REFS)
        perturbed[name][key][field] = perturb(perturbed[name][key][field])
        expect(failing_ids(name, perturbed, records) == {answer_id},
               f"{name}: perturbing {key} did not fail exactly {answer_id}")

    records = tiny_records("cli-offload", REFS)
    rec = next(r for r in records if r.answer.id.startswith("offload-vs-beta"))
    expect(not rec.answer.check(rec.result), "cli-offload fails unperturbed")
    code, path = rec.result
    text = path.read_text(encoding="utf-8").splitlines()
    # drop the kkt closed form below the cpf baseline's
    bad = [",".join(cells[:3] + ["0.0"] + cells[4:])
           if cells[1] == "kkt" and cells[2] == "closed-form-k1" else line
           for line in text for cells in [line.split(",")]]
    bad_path = path.with_name("perturbed.csv")
    bad_path.write_text("\n".join(bad) + "\n", encoding="utf-8")
    expect(rec.answer.check((code, bad_path)), "cli-offload: perturbed rows passed")

    key = "mc-coverage/alpha4-c1"
    perturbed = copy.deepcopy(REFS)
    perturbed["mc-coverage"]["alpha4-c1"]["value"] += 0.2
    workload = tiny_build("mc-coverage", 5, perturbed, run.OUT_DIR)
    records, _, _ = run.run_rounds(workload, random.Random(5), rounds=1)
    with contextlib.redirect_stderr(io.StringIO()):
        expect(run.check_records("mc-coverage", records, {}) == (1, False),
               "an unexpected failure left the run correct")
        expect(run.check_records("mc-coverage", records, {key: "known"}) == (1, True),
               "an expected failure made the run incorrect")


def main():
    run.OUT_DIR.mkdir(exist_ok=True)
    check_workloads()
    for name in run.WORKLOADS:
        for trace in (0, 1):
            check_printed_metrics(name, trace)
    check_perturbed_references()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
