#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]

Each job runs in a fresh single-threaded interpreter (bench/job.py), so
the package's in-process caches start empty, as they do for every `verify`
invocation.  Jobs repeat, one process at a time, until S seconds are spent;
the end-to-end metrics are medians over the run's jobs, with job times in
units of a fixed calibration kernel timed around each job.  With --trace 1
the run alternates untraced and traced jobs and reports the per-layer
metrics of the traced ones, plus the tracing overhead.

The last line of stdout is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it carries the provenance and run details; --record FILE
appends both, with the workload and seed, as one JSON line for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time

import inputs
import summary

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
JOB = os.path.join(BENCH_DIR, "job.py")

SETUP_SAMPLES = 9     # set-up-only interpreters per run, besides one per job
HARD_LIMIT_S = 170    # every run ends well inside 180 s
# setup_s is reported in seconds at the speed at which the calibration kernel
# (job.calibration_kernel) takes this long, its typical time on a 2-vCPU
# Intel Xeon virtual machine
REFERENCE_CAL_S = 0.025
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}


class SetupFailed(RuntimeError):
    """The child could not import the package."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(BUILD_DIR, "pycache")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def compile_bytecode(env: dict):
    """Compile the package and the benchmark once, before any timed process."""
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src"), BENCH_DIR],
                   env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)


def run_child(request: dict, env: dict, timeout: float) -> tuple[float, float, dict | None, str]:
    """Spawn one job process: (set-up seconds, wall seconds, result or None, stderr)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, JOB], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            _, err = proc.communicate()
            raise SetupFailed(err.strip() or "child exited before set-up finished")
        out, err = proc.communicate(json.dumps(request))
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    wall_s = time.perf_counter() - t0
    lines = out.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    return setup_s, wall_s, result, err.strip()


def git_state() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"git_sha": "unknown", "git_dirty": None}
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=20, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, capture_output=True, text=True, timeout=20,
                                check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "unknown", "git_dirty": None}
    return {"git_sha": sha, "git_dirty": bool(status.strip())}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, params: dict, numpy_version: str | None) -> dict:
    return {
        **git_state(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
        "thread_env": THREAD_ENV,
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def end_to_end(jobs: list[dict], setups: list[tuple[float, float]]) -> tuple[dict, dict]:
    """Medians over the run's jobs.  Every time a job measures is divided by
    the mean time of the calibration kernel run before, during and after it
    in the same process (the "cal" unit), which cancels most of the speed
    swings of a shared host; the same figures in seconds go to the detail
    line.  Operation latencies are
    summarized per job (every job of a run runs the same operations, so the
    tail percentile picks the same rank in each)."""
    op_seconds = [[op[1] for op in job["ops"]] for job in jobs]
    op_p50 = [summary.median(ops) for ops in op_seconds]
    tails = [summary.tail(ops) for ops in op_seconds]
    cal = [j["cal_s"] for j in jobs]

    def per_cal(values, key="cal_s"):
        return summary.median(v / j[key] for v, j in zip(values, jobs))

    values = {
        # each set-up time against the kernel timed in the same interpreter
        "setup_s": REFERENCE_CAL_S * summary.median(s / c for s, c in setups),
        "job_cal": per_cal(j["job_s"] for j in jobs),
        # CPU time against the kernel's CPU time, so that CPU time a
        # hypervisor steals from the virtual machine cancels as well
        "cpu_cal": per_cal((j["cpu_s"] for j in jobs), "cal_cpu_s"),
        "peak_rss_mb": summary.median(j["peak_rss_mb"] for j in jobs),
        "op_p50_cal": per_cal(op_p50),
        "op_tail_cal": per_cal(t[0] for t in tails),
    }
    detail = {
        "job_s": summary.median(j["job_s"] for j in jobs),
        "cpu_s": summary.median(j["cpu_s"] for j in jobs),
        "op_p50_ms": summary.median(op_p50) * 1000.0,
        "op_tail_ms": summary.median(t[0] for t in tails) * 1000.0,
        "cal_s": summary.median(cal),
        "op_tail_percentile": tails[0][1],
        "ops_per_job": len(op_seconds[0]),
        "setup_samples": len(setups),
        "setup_raw_s": summary.median(s for s, _ in setups),
        "job_s_each": [j["job_s"] for j in jobs],
        "cal_s_each": cal,
    }
    return values, detail


def per_layer(names: list[str], traced: list[dict], untraced: list[dict]) -> dict:
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            # compared in calibration units, which cancels speed swings
            # between the two kinds of job, then back to seconds
            jobs = traced + untraced
            values[name] = summary.median(j["cal_s"] for j in jobs) * (
                summary.median(j["job_s"] / j["cal_s"] for j in traced)
                - summary.median(j["job_s"] / j["cal_s"] for j in untraced))
        else:
            # a layer that never ran on this workload reads 0
            values[name] = summary.median(float(j["layers"].get(name, 0)) for j in traced)
    return values


def accounted_share(layer_names: list[str], job: dict) -> float:
    """Named self times plus the unattributed remainder, over the traced job time."""
    layers = job["layers"]
    total = sum(layers.get(n, 0) for n in layer_names if n.endswith(".self_s"))
    return (total + layers["trace.unattributed_s"]) / layers["trace.job_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full result as one JSON line here")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "siegelz", "__init__.py")):
        print(f"no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    bench = load_benchmark()
    # lattice-numeric runs too, but is not one of BENCHMARK.json's gated
    # workloads (see README.md)
    if args.workload not in inputs.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    env = child_env()
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    started = time.perf_counter()
    compile_bytecode(env)
    workload_inputs = inputs.generate(args.workload, args.seed)
    request = {"workload": args.workload, "inputs": workload_inputs, "trace": False,
               "previous_s": 0.0, "scratch_dir": os.path.join(BUILD_DIR, "tmp")}

    setups: list[tuple[float, float]] = []  # (set-up seconds, kernel seconds)
    untraced: list[dict] = []
    traced: list[dict] = []
    walls: list[float] = []
    errors: list[str] = []
    attempted = failed = 0
    try:
        for _ in range(SETUP_SAMPLES):
            setup_s, _, result, err = run_child({"mode": "setup"}, env, HARD_LIMIT_S)
            if result is None:
                raise SetupFailed(err or "set-up process failed")
            setups.append((setup_s, result["cal_s"]))
        deadline = started + args.seconds
        while True:
            request["trace"] = bool(args.trace) and len(traced) < len(untraced)
            request["previous_s"] = summary.median(walls) if walls else 0.0
            remaining = HARD_LIMIT_S - (time.perf_counter() - started)
            setup_s, wall_s, result, err = run_child(request, env, remaining)
            walls.append(wall_s)
            if result is None:
                attempted += 1
                failed += 1
                errors.append(f"job process failed: {err[-2000:] or 'killed at the time limit'}")
                break
            (traced if request["trace"] else untraced).append(result)
            setups.append((setup_s, result["cal_s"]))
            attempted += sum(op[2] for op in result["ops"])
            failed += sum(op[3] for op in result["ops"])
            errors.extend(result["errors"])
            now = time.perf_counter()
            complete = untraced and (traced or not args.trace)
            next_end = now + summary.median(walls)
            if complete and next_end > deadline or next_end > started + HARD_LIMIT_S:
                break
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1

    jobs_ok = bool(untraced) and (bool(traced) or not args.trace)
    metrics: dict = {}
    detail: dict = {"jobs": len(untraced), "traced_jobs": len(traced),
                    "fail_share": failed / attempted, "errors": errors[:20],
                    "elapsed_s": time.perf_counter() - started}
    if jobs_ok and not args.trace:
        values, extra = end_to_end(untraced, setups)
        detail.update(extra)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    elif jobs_ok:
        names = [m["name"] for m in bench["per_layer"]]
        values = per_layer(names, traced, untraced)
        detail["accounted_share"] = [accounted_share(names, j) for j in traced]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}

    numpy_version = (untraced or traced or [{}])[0].get("numpy")
    detail["provenance"] = provenance(args, inputs.describe(args.workload, workload_inputs),
                                      numpy_version)
    result = {"correct": jobs_ok and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"fail_share {failed}/{attempted}")
    print(json.dumps({"detail": detail}))
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                                 "trace": args.trace, "detail": detail,
                                 "result": result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
