"""One benchmark job in a fresh interpreter.

Protocol (driven by run.py): the child imports siegelz, writes "ready" on
stdout (the parent's clock from spawn to this line is one set-up sample),
then reads one JSON request from stdin, runs it, and writes one JSON result
line.  A request {"mode": "setup"} only times the calibration kernel.
"""

import json
import resource
import signal
import statistics
import sys
import time

import numpy as np

import siegelz  # noqa: F401  (set-up ends when the package is imported)

CALIBRATION_REPS = 3          # kernel runs at least, before and after the job
CALIBRATION_SHARE = 0.025     # and on each side, this share of the job's time
CALIBRATION_MAX_REPS = 60
CALIBRATION_INTERVAL_S = 0.5  # during an untraced job, one kernel run this often


def calibration_kernel() -> int:
    """Fixed work independent of the package, in the package's mix of
    dict updates, big-integer arithmetic and numpy complex exponentials.
    It must never change: its time is the unit of the *_cal metrics."""
    acc: dict = {}
    big = 1
    mask = (1 << 2048) - 1
    for i in range(30000):
        k = (i * 7919) % 1021
        acc[k] = acc.get(k, 0) + i * i
        big = (big * 3 + i) & mask
    z = np.linspace(0.0, 1.0, 20000) * 1j
    total = 0j
    for _ in range(20):
        total += complex(np.exp(z).sum())
    return len(acc) + big % 7 + int(total.real)


class Calibrator:
    """Times of the calibration kernel, run in this process before, during
    and after the job.

    On a shared virtual machine a core can flip between a fast and a slow
    state within a second (about 1.7x apart on a 2-vCPU Intel Xeon VM), so
    single kernel times are bimodal, and a job of many seconds sees an
    average of the two.  The mean of kernel times spread over the job
    estimates that average.  During the job the kernel runs from a SIGALRM
    handler every CALIBRATION_INTERVAL_S (Python runs it between bytecodes,
    so never inside a numpy call); `spent_s` and `spent_cpu_s` record what
    those runs cost, so that the job and operation times can exclude them.
    """

    def __init__(self):
        self.times: list[float] = []
        self.cpu_times: list[float] = []
        self.spent_s = 0.0
        self.spent_cpu_s = 0.0

    def run(self, reps: int, budget_s: float = 0.0):
        """At least `reps` kernel runs, and more until `budget_s` is spent."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        spent = 0.0
        for k in range(CALIBRATION_MAX_REPS):
            if k >= reps and spent >= budget_s:
                break
            t0, c0 = time.perf_counter(), time.process_time()
            calibration_kernel()
            self.times.append(time.perf_counter() - t0)
            self.cpu_times.append(time.process_time() - c0)
            spent += self.times[-1]
        self.spent_s += time.perf_counter() - wall0
        self.spent_cpu_s += time.process_time() - cpu0

    def _tick(self, signum, frame):
        self.run(1)

    def start_ticking(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S, CALIBRATION_INTERVAL_S)

    def stop_ticking(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    request = json.load(sys.stdin)
    if request.get("mode") == "setup":
        calibrator = Calibrator()
        calibration_kernel()  # warm-up, untimed
        calibrator.run(CALIBRATION_REPS)
        print(json.dumps({"mode": "setup", "cal_s": statistics.fmean(calibrator.times)}))
        return 0

    import oracles
    import spans

    calibrator = Calibrator()
    calibration_kernel()  # warm-up, untimed
    calibrator.run(CALIBRATION_REPS, CALIBRATION_SHARE * request["previous_s"])
    tracer = None
    if request["trace"]:
        tracer = spans.Tracer()
        spans.install(tracer)
    spent0, spent_cpu0 = calibrator.spent_s, calibrator.spent_cpu_s
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer is not None:
        root = tracer.open(spans.ROOT)
    else:
        calibrator.start_ticking()
    errors: list[str] = []
    try:
        ops = oracles.build_ops(request["workload"], request["inputs"], request["scratch_dir"])
        records = oracles.run_ops(ops, errors, calibrator)
    finally:
        if tracer is not None:
            tracer.close(root)
        else:
            calibrator.stop_ticking()
    wall_s = time.perf_counter() - t0
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    job_s = wall_s - (calibrator.spent_s - spent0)
    cpu_s = ((usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
             - (calibrator.spent_cpu_s - spent_cpu0))
    calibrator.run(CALIBRATION_REPS, CALIBRATION_SHARE * job_s)

    result = {
        "job_s": job_s,
        "cal_s": statistics.fmean(calibrator.times),
        "cal_cpu_s": statistics.fmean(calibrator.cpu_times),
        "cal_reps": len(calibrator.times),
        "cpu_s": cpu_s,
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        "ops": [[r.name, r.seconds, r.checks, r.failed] for r in records],
        "errors": errors[:20],
        "numpy": np.__version__,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
