"""Run one pass of a workload in this fresh interpreter.

Reads a job (JSON) on stdin and prints the pass result (JSON) as the last
line of stdout.  Order: import, warm-up on a spec outside the workload,
the timed CLI calls (traced if asked), then the output checks, untimed.
Each call is timed twice: wall time, and the process's CPU time (user +
system).  On a Linux guest with paravirtual steal-time accounting the
CPU time leaves out the time the host gives the CPU to other guests.  A
host-speed sample (``hostspeed.py``) comes before the first call and
after each call, outside the timed calls; each call's monotonic-clock
window lets the parent add the samples it took meanwhile.

    python3 perfbench/child.py < job.json
"""

from __future__ import annotations

import json
import os
import platform
import resource
import sys
import time

import hostspeed
import workloads

ROOT = os.path.dirname(workloads.HERE)
THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_caps": {name: os.environ.get(name) for name in THREAD_CAPS},
        "cpu_model": cpu_model(),
    }


def peak_rss_kb() -> int:
    """Peak resident memory of this process image.  ``ru_maxrss`` would
    also count the parent's memory at the fork that started this process,
    so the kernel's per-image high-water mark is read first."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_pass(job: dict) -> dict:
    import unruhsim
    from unruhsim import cli

    package_dir = os.path.join(ROOT, "src", "unruhsim")
    if os.path.dirname(os.path.abspath(unruhsim.__file__)) != package_dir:
        raise SystemExit(f"imported {unruhsim.__file__}, not {package_dir}")
    code, _, err = workloads.call_main(cli.main, workloads.WARMUP_ARGV)
    if code != 0:
        raise SystemExit(f"warm-up failed: {err}")
    hostspeed.reference_kernel()  # its first run is slow: numpy's lazy set-up

    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer(run_id=job["run_id"]).install()
    calls, call_wall, call_cpu, windows = [], [], [], []
    speed = [hostspeed.sample(hostspeed.FIRST_SAMPLE_S)]
    try:
        for argv in job["argvs"]:
            t, t_cpu = time.monotonic(), time.process_time()
            calls.append((argv, *workloads.call_main(cli.main, argv)))
            call_cpu.append(time.process_time() - t_cpu)
            windows.append((t, time.monotonic()))
            call_wall.append(windows[-1][1] - t)
            speed.append(hostspeed.sample(hostspeed.SAMPLE_SHARE * call_cpu[-1]))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_kb = peak_rss_kb()

    _, check, _ = workloads.WORKLOADS[job["workload"]]
    attempted, failures = check(job, calls, cli.main, ROOT)
    result = {
        "call_wall_s": call_wall,
        "call_cpu_s": call_cpu,
        "call_window": windows,
        "speed_samples": speed,
        "points": job["points"],
        "attempted": attempted,
        "failures": failures,
        "peak_rss_kb": peak_kb,
        "environment": environment(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    return result


def main() -> int:
    job = json.load(sys.stdin)
    result = run_pass(job)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
