"""cycleclust benchmark: one workload as a closed loop, one client, one process.

    python3 perfbench/run.py --workload landscape --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the package is imported from
`src/`. Set-up writes the workload's inputs (three times; the median
counts), then requests run back to back until `--seconds` of request time
have passed, each one checked after its timed region. The last line of
standard output is the JSON result; the lines before it give every metric
with its unit, the tail percentile used, sample counts and the environment.

`--trace 1` runs every input twice, untraced and then traced, and reports
the per-layer metrics of tracing.py instead; the spans go to
`.perfbench_work/`. `--size smoke` shrinks every input for a quick check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")



def tail_percentile(n: int) -> float:
    """Highest percentile with at least ten of `n` samples beyond it; with
    fewer than twenty samples no percentile above the median qualifies and
    the maximum (100) is used."""
    if n < 20:
        return 100.0
    return math.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if q >= 100.0:
        return ordered[-1]
    pos = q / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(args, samples: dict) -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["landscape", "random-dense", "ring-oscillator"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "smoke"], default="full")
    args = parser.parse_args(argv)

    # single-threaded kernels: the machine this was sized on has two cores
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "cycleclust" / "__init__.py").is_file():
        print(f"error: no cycleclust sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    started = time.perf_counter()
    import cycleclust.cli
    import_s = time.perf_counter() - started
    if Path(cycleclust.cli.__file__).resolve().parent.parent != src.resolve():
        print(f"error: imported {cycleclust.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](smoke=args.size == "smoke")
    outdir = ROOT / ".perfbench_work"
    workdir = outdir / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        result, report = run(args, workload, workdir, tracer, import_s)
    finally:
        workloads.clear(workdir)
    if tracer is not None:
        tracer.dump(outdir / f"trace-{args.workload}-{args.seed}.json", report)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print("details: " + json.dumps(report["details"], sort_keys=True))
    print("environment: " + json.dumps(report["environment"], sort_keys=True))
    print(json.dumps(result))
    return 0


def run(args, workload, workdir: Path, tracer, import_s: float):
    import tracing
    import workloads

    setup_times = []
    for rep in range(SETUP_REPS):
        if tracer is not None:
            tracer.request = f"setup-{rep}"
            tracing.install(tracer)
        t0 = time.perf_counter()
        requests = workload.setup(args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.restore()

    passes = (False, True) if tracer is not None else (False,)
    times = {False: [], True: []}
    objectives = []
    failures = []
    per_request = []
    attempted = time_limited = 0
    busy = checking = 0.0
    phase_start = time.perf_counter()
    index = 0
    while busy < args.seconds:
        req = requests[index % len(requests)]
        for traced in passes:
            workloads.clear(req.out)
            if traced:
                tracer.request = index
                tracing.install(tracer)
            t0 = time.perf_counter()
            try:
                rc, _ = workloads.run_cli(req.argv)
            except Exception as exc:  # a crash is a failed request, not a stop
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            busy += elapsed
            if traced:
                tracer.restore()
            attempted += 1
            t1 = time.perf_counter()
            try:
                if not isinstance(rc, int):
                    raise workloads.CheckFailed(f"solve raised {rc}")
                outcome = workload.check(req, rc)
            except (workloads.CheckFailed, OSError, KeyError, ValueError) as exc:
                failures.append(f"request {index}: {exc}")
                outcome = None
            checking += time.perf_counter() - t1
            if outcome is None:
                continue
            times[traced].append(elapsed)
            if not traced:
                objectives.append(outcome["objective"])
                time_limited += outcome["time_limited"]
            else:
                per_request.append({
                    "input": index % len(requests), "request": index,
                    "time_limited": outcome["time_limited"],
                    "counts": tracing.request_counts(tracer, index)})
        index += 1
    wall = time.perf_counter() - phase_start - checking

    done = times[False]
    if not done:
        raise SystemExit("error: no request completed: " + "; ".join(failures[:3]))
    tail_q = tail_percentile(len(done))
    samples = {"setup_reps": SETUP_REPS, "requests": len(done),
               "traced_requests": len(times[True]), "inputs": len(requests)}
    details = {
        "import_s": import_s, "setup_runs_s": setup_times,
        "failed_fraction": len(failures) / attempted,
        "failures": failures[:5], "time_limited_requests": time_limited,
        "request_s.tail_percentile": tail_q, "request_times_s": done,
    }
    if tracer is None:
        values = {
            "setup_s": import_s + statistics.median(setup_times),
            "request_s.p50": statistics.median(done),
            "request_s.tail": percentile(done, tail_q),
            "requests_per_s": len(done) / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "clustering_objective": statistics.median(objectives),
        }
    else:
        overhead = statistics.median(times[True]) - statistics.median(done) \
            if times[True] else 0.0
        values = tracing.layer_metrics(
            tracer, [f"setup-{r}" for r in range(SETUP_REPS)],
            [r["request"] for r in per_request], overhead)
        details["per_request"] = per_request
    # BENCHMARK.json is the one list of metric names and units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if tracer else "end_to_end"]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    report = {"details": details, "environment": environment(args, samples)}
    return result, report


if __name__ == "__main__":
    sys.exit(main())
