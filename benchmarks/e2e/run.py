"""One command: run one workload, print every metric by name, check outputs.

    python3 benchmarks/e2e/run.py --workload <name> --seed <n>
        [--seconds <s>] [--trace 0|1] [--smoke] [--out <file>]

``--trace 0`` (default) measures the end-to-end metrics with tracing
off: set-up five times, one warm-up trial, then timed trials of about a
second each for ``--seconds`` seconds; a metric is the quartile on the
good side over the timed trials (``spec.fast_quartile``).  ``--trace 1`` is the separate traced pass that
produces the per-layer metrics and the step waterfall.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``--out`` appends the full record (trials,
quartiles, checks, environment) to a JSON file that ``compare.py``
reads.  A failed output check, a leaked ``/dev/shm`` segment or a
surviving child process marks the run incorrect and exits 1.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import spec

#: Unpinned, every forked rank spins its own BLAS pool and the ranks
#: fight over the cores (README, "Known defect").  Workers inherit this.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Set-ups per run (the median is reported) and the fewest timed trials.
SETUP_REPS = 5
MIN_TRIALS = 5

SHM_DIR = "/dev/shm"


def pin_threads() -> bool:
    """Pin BLAS/OpenMP to one thread; True when numpy had not been
    imported yet, i.e. the pin is sure to have taken effect."""
    early = "numpy" not in sys.modules
    for name in THREAD_ENV:
        os.environ[name] = "1"
    return early


def environment(pinned_early: bool) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=spec.ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "nproc": os.cpu_count(),
        "machine": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "pinned_before_numpy": pinned_early,
        "commit": commit or "unknown",
    }


# --------------------------------------------------------------------- #
# cleanliness
# --------------------------------------------------------------------- #
def shm_names() -> set[str]:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


def leak_check(shm_before: set[str]) -> list[str]:
    """What the run left behind: new ``/dev/shm`` entries, live children."""
    problems = [f"leaked shm segment {n}" for n in sorted(shm_names() - shm_before)]
    problems += [
        f"surviving child process {p.pid}" for p in multiprocessing.active_children()
    ]
    return problems


def peak_rss_mb(backend: str) -> float:
    """Largest resident set of any rank: a waited-for child on the
    process backend, the harness itself when the ranks are its threads."""
    who = resource.RUSAGE_CHILDREN if backend == "process" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# the end-to-end pass (tracing off)
# --------------------------------------------------------------------- #
def end_to_end(workload, seconds: float, import_s: float, smoke: bool) -> dict:
    reps = 1 if smoke else SETUP_REPS
    min_trials = 1 if smoke else MIN_TRIALS
    setup_samples = []
    group = None
    try:
        for _ in range(reps):
            if group is not None:
                group.close()
            t0 = time.perf_counter()
            group = workload.open()
            workload.cold_call(group)
            setup_samples.append(time.perf_counter() - t0)
        # The last set-up's group is the one measured.  Caches fill and
        # segment pools grow during one trial before timing.
        warm = workload.trial(group)
        trials = []
        start = time.perf_counter()
        while True:
            trials.append(workload.trial(group))
            elapsed = time.perf_counter() - start
            if len(trials) >= min_trials and elapsed + trials[-1]["wall_s"] > seconds:
                break
        failures = workload.verify(group, [warm] + trials)
    finally:
        if group is not None:
            group.close()
    metrics = workload.metrics(trials)
    metrics["setup_s"] = import_s + statistics.median(setup_samples)
    metrics["peak_rss_mb"] = peak_rss_mb(workload.backend)
    rates = [t["ops"] / t["wall_s"] for t in trials]
    q1, med, q3 = spec.quartiles(rates)
    return {
        "metrics": metrics,
        "attempted": sum(t["ops"] for t in trials),
        "failed": sum(t["failed"] for t in trials),
        "failures": failures,
        "detail": {
            "import_s": import_s,
            "setup_samples_s": setup_samples,
            "trials": len(trials),
            "trial_wall_s": [t["wall_s"] for t in trials],
            "trial_ops_per_s": rates,
            "ops_per_s_quartiles": [q1, med, q3],
        },
    }


# --------------------------------------------------------------------- #
# output
# --------------------------------------------------------------------- #
def render(title: str, metrics: dict, detail: dict) -> str:
    lines = [title]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    for key, value in detail.items():
        lines.append(f"  [{key}] {value}")
    return "\n".join(lines)


def append_record(path: str, record: dict) -> None:
    doc = {"schema": 1, "runs": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    doc["runs"].append(record)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def parse_args(argv, workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=None)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    pinned_early = pin_threads()
    bench = spec.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    args = parse_args(argv, names)
    seconds = 0.0 if args.smoke else args.seconds
    if seconds is None:
        seconds = float(bench["run_seconds"])

    t0 = time.perf_counter()
    try:
        spec.add_repo_to_path()
    except FileNotFoundError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    import workloads  # numpy and repro load here, after the thread pin

    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, bool(args.trace))
    shm_before = shm_names()
    if args.trace:
        import layers

        result = layers.trace_pass(workload, args.smoke)
        declared = bench["per_layer"]
    else:
        result = end_to_end(workload, seconds, import_s, args.smoke)
        declared = bench["end_to_end"]
    failures = result["failures"] + leak_check(shm_before)

    # Exactly the declared names, in the declared order.  A per-layer
    # metric that does no work on this workload reads 0.
    values = result["metrics"]
    unknown = set(values) - {m["name"] for m in declared}
    if unknown:
        failures.append(f"undeclared metrics: {sorted(unknown)}")
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    final = {
        "correct": not failures and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": seconds,
        "smoke": args.smoke,
        **final,
        "failures": failures,
        "detail": result["detail"],
        "env": environment(pinned_early),
    }
    title = (
        f"{args.workload} seed={args.seed} trace={args.trace} "
        f"backend={workload.backend} world={workload.world}"
        + (" [smoke]" if args.smoke else "")
    )
    print(render(title, metrics, result["detail"]))
    for text in result.get("reports", []):
        print(text)
    for failure in failures:
        print(f"FAILED CHECK: {failure}")
    if args.out:
        append_record(args.out, record)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
