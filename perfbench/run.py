#!/usr/bin/env python3
"""The unruhsim benchmark: one workload, timed end to end or per layer.

    python3 perfbench/run.py --workload fig3_grid --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.
Load shape: a closed loop, one client in one process, each CLI call
starting when the previous one returns.  Every pass runs in a fresh
child interpreter (``child.py``) with the BLAS/OpenMP pools capped at one
thread, so no cache carries over from one pass to the next.  Passes
repeat until ``--seconds`` have gone by (at least one pass, and for
``esd_search`` at least 100 searches so that p90 has ten samples beyond
it).

End-to-end times are the CPU time (user + system) of the
single-threaded child, not its wall time, scaled to a fixed host speed
(see ``hostspeed.py``).  On a shared host wall time also counts the time
other tenants hold the CPU, and the speed of the CPU itself drifts; both
are noise to this benchmark.  Raw CPU and wall times are kept in the
report line.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
passes traced and then untraced and prints the per-layer metrics.  The
output checks run after each pass's timed calls; any failure makes the
command exit 1.  The last stdout line is the result object, the line
before it the full report (environment, samples, failures).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

import child
import hostspeed
import spans
import workloads

ROOT = child.ROOT
WORK = os.path.join(ROOT, ".perfbench_work")
DEADLINE_S = 165      # every run ends well inside the 180 s limit
SETUP_RUNS = 7
PERCENTILES = (50, 90, 99)


# -- statistics -------------------------------------------------------------------

def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks, q in [0, 1]."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def reportable_percentile(n: int):
    """The highest of PERCENTILES with at least ten samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n - math.ceil(n * p / 100) >= 10:
            best = p
    return best


# -- metric definitions -----------------------------------------------------------

END_TO_END = (
    ("pass_s", "s", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("call_ms_p50", "ms", "lower"),
    ("call_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for group in spans.GROUPS:
        out.append((f"{group}.calls", "count/point", "lower"))
        out.append((f"{group}.self_us", "us/point", "lower"))
    out += [(f"{layer}.self_us", "us/point", "lower") for layer in spans.LAYERS]
    out += [
        ("channels.spec_reuse", "ratio", "lower"),
        ("linalg.eigvalsh.matrices", "count/point", "lower"),
        ("sweep.esd.evals_per_search", "count", "lower"),
        ("sweep.write.bytes", "B/point", "lower"),
        ("uncovered.self_us", "us/point", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
    ]
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def scaled_calls(p: dict) -> list[float]:
    """CPU time of each call of a pass at the reference host speed."""
    return [c * k for c, k in zip(p["call_cpu_s"], p["call_scale"])]


def end_to_end(passes, setup_s) -> tuple[dict, dict]:
    """``setup_s``: (CPU time, host-speed scale) of each set-up run."""
    calls_ms = [s * 1000.0 for p in passes for s in scaled_calls(p)]
    cpu_ms = [s * 1000.0 for p in passes for s in p["call_cpu_s"]]
    wall_ms = [s * 1000.0 for p in passes for s in p["call_wall_s"]]
    pass_s = [sum(scaled_calls(p)) for p in passes]
    units = {name: unit for name, unit, _ in END_TO_END}
    values = {
        "pass_s": statistics.median(pass_s),
        "points_per_s": statistics.median(p["points"] / s for p, s in zip(passes, pass_s)),
        "call_ms_p50": quantile(calls_ms, 0.50),
        "call_ms_p90": quantile(calls_ms, 0.90),
        "setup_s": statistics.median(cpu * k for cpu, k in setup_s),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] / 1024.0 for p in passes),
    }
    detail = {
        "passes": len(passes),
        "calls": len(calls_ms),
        "reportable_percentile": reportable_percentile(len(calls_ms)),
        "host_scale": statistics.median(k for p in passes for k in p["call_scale"]),
        "cpu_s": statistics.median(sum(p["call_cpu_s"]) for p in passes),
        "wall_s": statistics.median(sum(p["call_wall_s"]) for p in passes),
        "call_cpu_ms_p50": quantile(cpu_ms, 0.50),
        "call_cpu_ms_p90": quantile(cpu_ms, 0.90),
        "call_wall_ms_p50": quantile(wall_ms, 0.50),
        "call_wall_ms_p90": quantile(wall_ms, 0.90),
        "pass_s_samples": pass_s,
        "setup_s_samples": setup_s,
    }
    return {k: _metric(v, units[k]) for k, v in values.items()}, detail


def per_layer(traced, untraced) -> tuple[dict, dict]:
    points = sum(p["points"] for p in traced)
    calls, self_ns = {}, {}
    group_of = {spans.span_name(m, f): g for m, f, g in spans.TARGETS}
    for p in traced:
        for name, n in p["trace"]["calls"].items():
            calls[group_of[name]] = calls.get(group_of[name], 0) + n
        for name, ns in p["trace"]["self_ns"].items():
            self_ns[group_of[name]] = self_ns.get(group_of[name], 0.0) + ns
    total = lambda key: sum(p["trace"][key] for p in traced)
    values = {}
    for group in spans.GROUPS:
        values[f"{group}.calls"] = calls.get(group, 0) / points
        values[f"{group}.self_us"] = self_ns.get(group, 0.0) / 1e3 / points
    for layer in spans.LAYERS:
        values[f"{layer}.self_us"] = sum(
            values[f"{g}.self_us"] for g in spans.GROUPS if g.split(".")[0] == layer)
    evolve_calls = sum(p["trace"]["calls"].get(spans.EVOLVE, 0) for p in traced)
    searches = sum(p["trace"]["calls"].get(spans.ESD, 0) for p in traced)
    traced_s = statistics.median(sum(scaled_calls(p)) for p in traced)
    untraced_s = statistics.median(sum(scaled_calls(p)) for p in untraced)
    wall_ns = sum(sum(p["call_wall_s"]) for p in traced) * 1e9
    values.update({
        "channels.spec_reuse": evolve_calls / max(total("distinct_specs"), 1),
        "linalg.eigvalsh.matrices": total("eigvalsh_matrices") / points,
        "sweep.esd.evals_per_search": total("esd_evals") / searches if searches else 0.0,
        "sweep.write.bytes": total("write_bytes") / points,
        "uncovered.self_us": (wall_ns - sum(self_ns.values())) / 1e3 / points,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    })
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    covered = sum(values[f"{layer}.self_us"] for layer in spans.LAYERS)
    detail = {
        "passes": len(traced),
        "points": points,
        "traced_pass_s": traced_s,
        "untraced_pass_s": untraced_s,
        "layer_share": {layer: values[f"{layer}.self_us"] / covered
                        for layer in spans.LAYERS} if covered else {},
        "absent": sorted({a for p in traced for a in p["trace"]["absent"]}),
    }
    return {k: _metric(v, units[k]) for k, v in values.items()}, detail


# -- child processes ----------------------------------------------------------------

def child_env(work_dir: str) -> dict:
    env = dict(os.environ)
    env.update({cap: "1" for cap in child.THREAD_CAPS})
    env.update(PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), workloads.HERE]),
               PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0", TMPDIR=work_dir)
    return env


# CPU time since the interpreter started, then a host-speed sample.
SETUP_CODE = f"""
import sys, time, unruhsim.cli
code = unruhsim.cli.main({workloads.WARMUP_ARGV!r})
cpu = time.process_time()
import hostspeed
hostspeed.reference_kernel()
print(cpu, hostspeed.scale(hostspeed.sample(hostspeed.FIRST_SAMPLE_S)))
sys.exit(code)
"""


def measure_setup(env, deadline) -> list[tuple[float, float]]:
    """(CPU time, host-speed scale) of fresh interpreters that import the
    package and make their first evaluation."""
    samples = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(deadline - time.time(), 1))
        if proc.returncode != 0:
            raise RuntimeError(f"setup failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
        cpu, scale = map(float, proc.stdout.split()[-2:])
        samples.append((cpu, scale))
    return samples


def run_child(job: dict, env, deadline) -> dict:
    """One pass; adds each call's host-speed scale from the kernel runs
    around it (in the child) and during it (in this process)."""
    with hostspeed.Sampler() as sampler:
        proc = subprocess.run(
            [sys.executable, os.path.join(workloads.HERE, "child.py")],
            input=json.dumps(job), cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - time.time(), 1))
    if proc.returncode != 0:
        raise RuntimeError(f"pass failed (exit {proc.returncode}): {proc.stderr[-2000:]}")
    p = json.loads(proc.stdout.splitlines()[-1])
    speed = p.pop("speed_samples")
    p["call_scale"] = [hostspeed.scale(before, after, sampler.during(*window))
                       for before, after, window
                       in zip(speed, speed[1:], p.pop("call_window"))]
    return p


def run_passes(jobs, trace: bool, seconds: float, min_calls: int, env, deadline):
    passes, used = [], []
    start = time.time()
    for run_id, job in enumerate(jobs):
        t = time.time()
        passes.append(run_child(dict(job, trace=trace, run_id=run_id), env, deadline))
        used.append(job)
        now = time.time()
        calls = sum(len(p["call_cpu_s"]) for p in passes)
        if now - start >= seconds and calls >= min_calls:
            break
        if now + (now - t) > deadline:
            break
    return passes, used


def git_commit() -> str:
    """HEAD of the checkout, read without git; 'unknown' outside a clone."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "unruhsim", "cli.py")):
        print(f"error: no unruhsim sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.time() + DEADLINE_S
    os.makedirs(WORK, exist_ok=True)
    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    env = child_env(work_dir)
    try:
        jobs_for, _, min_calls = workloads.WORKLOADS[args.workload]
        jobs = jobs_for(args.seed, work_dir)
        if args.trace:
            half = time.time() + (deadline - time.time()) / 2
            traced, used = run_passes(jobs, True, args.seconds, min_calls, env, half)
            untraced = [run_child(dict(job, trace=False, run_id=i), env, deadline)
                        for i, job in enumerate(used)]
            metrics, detail = per_layer(traced, untraced)
            passes = traced + untraced
        else:
            setup_s = measure_setup(env, deadline)
            passes, _ = run_passes(jobs, False, args.seconds, min_calls, env, deadline)
            metrics, detail = end_to_end(passes, setup_s)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass

    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    environment = dict(passes[0]["environment"], git_commit=git_commit(),
                       seed=args.seed, seconds=args.seconds)
    report = {
        "workload": args.workload, "trace": args.trace, "environment": environment,
        "detail": detail, "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }
    print(json.dumps({"report": report}))
    for name, m in metrics.items():
        print(f"{args.workload:>10} {name:<42} {m['value']:14.6g} {m['unit']}",
              file=sys.stderr)
    for failure in failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
