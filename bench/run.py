"""d2dcache benchmark: closed-loop workloads over the analytic, simulator,
optimizer and CLI layers.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (defined in workloads.py):
  exact-offload  analytic layer: exact and bound coverage, a Laplace/zeta grid
                 and an exact offloading gain
  mc-coverage    simulator: estimate_coverage at four (alpha, c) points
  cli-offload    CLI, experiments and optimizer: two in-process `d2dcache
                 run`s of offload-vs-beta on bench/offload.yaml, plus small
                 solve_p1 instances checked against a grid-search oracle

One client asks for one answer at a time (closed loop, one worker). A round
is one pass over the workload's answers in a seed-shuffled order; the timed
phase runs whole rounds until at least --seconds have passed. Every answer
is checked against a frozen reference (references.json) after the timed
phase. So are the workload's probes: answers run once after the timed phase
only to be checked, counted in `attempted` and `failed` but not timed. A
failure listed under `expected_failures` there is a known defect: it counts
in `failed` but leaves `correct` true.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same rounds
twice, untraced and then with every public d2dcache function wrapped
(tracing.py), and prints the per-layer metrics and the tracing overhead. The
spans and a stamp of the run (machine, versions, revision, seed, trials,
QuadratureSpec) are written under .bench_out/ at the repository root. The
last line of stdout is the JSON result.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3
TAIL_BEYOND = 10
MC_TARGET_HALF_WIDTH = 0.005

# metric names and units are declared once, in BENCHMARK.json
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
UNITS = {trace: {m["name"]: m["unit"] for m in BENCHMARK[section]}
         for trace, section in ((0, "end_to_end"), (1, "per_layer"))}


@dataclasses.dataclass
class Record:
    answer: object
    round: int
    result: object
    latency: float
    error: str | None = None
    problems: list | None = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def require_source() -> None:
    """Refuse to run without the package source next to the benchmark."""
    if not (SRC / "d2dcache" / "__init__.py").is_file():
        print(f"error: d2dcache source not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    # the CLI reads its worker count from this variable; the loop has one worker
    os.environ.pop("D2DCACHE_WORKERS", None)


def run_rounds(workload, rng, seconds=None, rounds=None, tracer=None):
    """Closed loop: whole rounds until `seconds` passed, or exactly `rounds`."""
    records = []
    start = time.perf_counter()
    done = 0
    while True:
        order = list(workload.answers)
        rng.shuffle(order)
        for answer in order:
            t0 = time.perf_counter()
            result, error = None, None
            try:
                if tracer is None:
                    result = answer.run(done)
                else:
                    with tracer.answer(answer.id):
                        result = answer.run(done)
            except Exception:  # an answer that raises is a failed answer
                error = traceback.format_exc()
            records.append(Record(answer, done, result, time.perf_counter() - t0, error))
        done += 1
        elapsed = time.perf_counter() - start
        if (rounds is None and elapsed >= seconds) or (rounds is not None and done >= rounds):
            return records, done, elapsed


def run_probes(workload) -> list:
    """Run the workload's probes once, untimed; a probe that raises fails."""
    records = []
    for probe in workload.probes:
        try:
            records.append(Record(probe, 0, probe.run(0), 0.0))
        except Exception:  # a probe that raises is a failed probe
            records.append(Record(probe, 0, None, 0.0, traceback.format_exc()))
    return records


def check_records(workload_name, records, expected) -> tuple[int, bool]:
    """Check every answer; returns (failed count, no unexpected failure)."""
    failed, correct = 0, True
    for rec in records:
        rec.problems = [rec.error] if rec.error else rec.answer.check(rec.result)
        if not rec.problems:
            continue
        failed += 1
        key = f"{workload_name}/{rec.answer.id}"
        known = key in expected
        correct = correct and known
        label = "expected failure" if known else "FAILED"
        print(f"{label}: {key} (round {rec.round}): {'; '.join(rec.problems)}",
              file=sys.stderr)
    return failed, correct


def end_to_end(records, rounds, wall, setup_s, failed, attempted) -> dict:
    latencies = sorted(rec.latency for rec in records)
    n = len(latencies)

    def answer_time_at_target(rec):
        # a Monte Carlo estimate's time scaled to the target half-width; other
        # answers are already at their stated accuracy and count their latency
        half_width = getattr(rec.result, "half_width_95", None)
        if half_width is None:
            return rec.latency
        return rec.latency * (half_width / MC_TARGET_HALF_WIDTH) ** 2

    return {
        "setup_s": setup_s,
        "answers_per_s": n / wall,
        "answer_p50_s": statistics.median(latencies),
        # with fewer than 11 answers no percentile leaves ten beyond it:
        # the maximum stands in (see the stamp's answer_tail_rule)
        "answer_tail_s": latencies[n - 1 - TAIL_BEYOND] if n > TAIL_BEYOND else latencies[-1],
        "mc_s_at_hw_0.005": sum(answer_time_at_target(r) for r in records) / rounds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "answers_ok_share": 1.0 - failed / attempted,
    }


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "d2dcache").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def stamp(args, workload, refs, rounds, n_answers) -> dict:
    import numpy
    import scipy

    import workloads

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        "references_revision": refs["revision"],
        "quadrature": dataclasses.asdict(workloads.QUAD),
        **workload.stamp,
        "rounds": rounds,
        "answers": n_answers,
        "answer_p50_samples": n_answers,
        "answer_tail_rule": (f"latency with {TAIL_BEYOND} answers beyond it"
                             if n_answers > TAIL_BEYOND else "maximum latency"),
        "computed_counts": list(workloads.COMPUTED_COUNTS),
        "expected_failures": sorted(refs["expected_failures"]),
    }


def print_result(correct, attempted, failed, metrics, units, extra):
    if set(metrics) != set(units):
        differ = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {differ}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print("stamp " + json.dumps(extra, sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def measure(args, build=None) -> dict:
    """Run one workload as the command line asks; returns the result parts.

    `build(name, seed, refs, out_dir)` makes the workload; the self-test
    passes a smaller one.
    """
    import d2dcache
    from d2dcache import analytic, cli, experiments, model, optimizer, simulator

    import tracing
    import workloads

    if Path(d2dcache.__file__).resolve().parent != (SRC / "d2dcache").resolve():
        raise SystemExit(f"error: imported d2dcache from {d2dcache.__file__}")
    import_s = time.perf_counter() - _START

    refs = json.loads((BENCH_DIR / "references.json").read_text(encoding="utf-8"))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)

    build = build or workloads.build
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload = build(args.workload, args.seed, refs, work_dir)
        workload.warmup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    rng = random.Random(args.seed)
    expected = refs["expected_failures"]
    records, rounds, wall = run_rounds(workload, rng, seconds=args.seconds)
    probes = run_probes(workload)
    failed, correct = check_records(args.workload, records + probes, expected)
    result = {"records": records, "probes": probes, "rounds": rounds, "failed": failed,
              "correct": correct, "refs": refs, "workload": workload}

    if args.trace == 0:
        shutil.rmtree(work_dir)
        result["metrics"] = end_to_end(records, rounds, wall, setup_s, failed,
                                       len(records) + len(probes))
        result["spans"] = []
        return result

    modules = [d2dcache, model, analytic, simulator, optimizer, experiments, cli]
    tracer = tracing.Tracer(modules, workloads.TRACE_HOOKS)
    tracer.install()
    try:
        traced, _, traced_wall = run_rounds(workload, rng, rounds=rounds, tracer=tracer)
    finally:
        tracer.remove()
    traced_failed, traced_correct = check_records(args.workload, traced + probes, expected)
    shutil.rmtree(work_dir)
    metrics = tracing.layer_metrics(tracer.spans, rounds)
    metrics["optimizer.oracle_gap_max"] = workloads.oracle_gap_max(probes, refs)
    metrics["trace_overhead_share"] = (traced_wall - wall) / wall
    result.update(records=traced, failed=traced_failed,
                  correct=correct and traced_correct,
                  metrics=metrics, spans=[s.as_dict() for s in tracer.spans])
    return result


def main(argv=None, build=None) -> int:
    args = parse_args(argv)
    require_source()
    result = measure(args, build)
    records, probes = result["records"], result["probes"]
    units = UNITS[args.trace]
    extra = stamp(args, result["workload"], result["refs"], result["rounds"], len(records))
    extra["probes"] = len(probes)
    answers = [{"id": r.answer.id, "round": r.round, "latency_s": r.latency,
                "problems": r.problems} for r in records + probes]
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"stamp": extra, "metrics": result["metrics"],
                               "answers": answers, "spans": result["spans"]}),
                   encoding="utf-8")
    print_result(result["correct"], len(records) + len(probes), result["failed"],
                 result["metrics"], units, extra)
    return 0


if __name__ == "__main__":
    sys.exit(main())
