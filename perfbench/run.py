"""Layered batch benchmark for relhyp.

    python3 perfbench/run.py --workload {metric,separability,conditions} \
        --seed N --seconds S --trace {0,1}

Run from the root of a relhyp checkout.  Each workload runs in fresh
processes (one client, one thread, closed loop) with ``src/`` on PYTHONPATH
and RELHYP_TIMING / RELHYP_BUDGET removed from the environment.  The last
line of output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from worker import CALIBRATION_S, calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("metric", "separability", "conditions")
SETUP_SAMPLES = 15
TIMEOUT_S = 170
# A percentile made infinite by failed jobs (+inf) is reported as this value.
INF_MS = 1e9


def fail(msg: str) -> int:
    print("perfbench: " + msg, file=sys.stderr)
    return 1


def worker(args, mode: str, workdir: str, deadline: float, extra=()) -> dict:
    """Run worker.py in a fresh interpreter and return its report, with
    setup_s: the time from starting the interpreter to the first job,
    normalised by the calibration loop run just before (see worker.py)."""
    env = dict(os.environ)
    env.pop("RELHYP_TIMING", None)
    env.pop("RELHYP_BUDGET", None)
    env["PYTHONPATH"] = os.path.abspath("src")
    # String hashing decides dict and set layout, so a random hash seed per
    # process shifts the cost of the string-heavy CLI front end from run to run.
    env["PYTHONHASHSEED"] = "0"
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--workdir", workdir, "--mode", mode, *extra]
    slowdown = statistics.median(calibrate() for _ in range(21)) / CALIBRATION_S
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError("%s worker exited %d: %s" % (mode, proc.returncode,
                                                          proc.stderr.strip()[-2000:]))
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["setup_s"] = (report["ready"] - t0) / slowdown
    return report


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, work: str, deadline: float) -> dict:
    setups = [worker(args, "setup", os.path.join(work, "setup%d" % i), deadline)["setup_s"]
              for i in range(SETUP_SAMPLES - 1)]
    rep = worker(args, "run", os.path.join(work, "run"), deadline)
    setups.append(rep["setup_s"])
    attempted, failed = rep["attempted"], rep["failed"]
    correct = attempted - failed
    for m in rep["messages"]:
        print("failed job: " + m)
    print("jobs: %d attempted, %d failed, %d reports differ from the reference "
          "(allowed refinements included), %d rounds in %.2f s elapsed"
          % (attempted, failed, rep["changed"], rep["rounds"], rep["elapsed_s"]))
    print("batch: %.3f s of job time as measured, %.3f s normalised "
          "(machine ran the calibration loop %.2fx slower than nominal)"
          % (rep["raw_batch_s"], rep["batch_s"], rep["slowdown"]))
    print("jobs_per_s: %d correct jobs over %.3f s of normalised job time; "
          "job_ms_p50 and job_ms_p90 over %d jobs; setup_s is the median of %d set-ups"
          % (correct, rep["batch_s"], attempted, len(setups)))
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "jobs_per_s": metric(correct / rep["batch_s"], "jobs/s"),
        "job_ms_p50": metric(min(rep["job_ms_p50"], INF_MS), "ms"),
        "job_ms_p90": metric(min(rep["job_ms_p90"], INF_MS), "ms"),
        "peak_rss_mb": metric(rep["peak_rss_mb"], "MiB"),
    }
    fail_ratio = failed / attempted
    for name, m in metrics.items():
        print("%-12s %14.4f %s" % (name, m["value"], m["unit"]))
    print("%-12s %14.4f share (the failed/attempted fields below)" % ("fail_ratio", fail_ratio))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(args, work: str, deadline: float) -> dict:
    plain = worker(args, "untraced", os.path.join(work, "untraced"), deadline)
    spans = os.path.join(".bench_trace", "%s-%d.spans.tsv" % (args.workload, args.seed))
    os.makedirs(".bench_trace", exist_ok=True)
    rep = worker(args, "traced", os.path.join(work, "traced"), deadline, ("--spans", spans))
    layers = rep["layers"]
    problems = list(layers["problems"])
    if plain["digests"] != rep["digests"]:
        differ = sum(a != b for a, b in zip(plain["digests"], rep["digests"]))
        problems.append("%d traced reports differ from the untraced ones" % differ)
    if problems:
        raise RuntimeError("traced run self-check failed:\n  " + "\n  ".join(problems))
    metrics = layers["metrics"]
    metrics["trace.overhead_ratio"] = metric(rep["batch_s"] / plain["batch_s"], "ratio")
    for m in rep["messages"]:
        print("failed job: " + m)
    print("traced one round: %d jobs, %d spans (written to %s), untraced %.2f s, traced %.2f s (normalised)"
          % (rep["attempted"], layers["spans"], spans, plain["batch_s"], rep["batch_s"]))
    for name, m in metrics.items():
        print("%-46s %16.4f %s" % (name, m["value"], m["unit"]))
    return {"correct": rep["failed"] == 0, "attempted": rep["attempted"],
            "failed": rep["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "relhyp", "cli.py")):
        return fail("no relhyp sources at ./src/relhyp: run from the root of a relhyp checkout")
    deadline = time.monotonic() + TIMEOUT_S
    print("python %s, nproc %d, workload %s, seed %d, seconds %g, trace %d" % (
        sys.version.split()[0], os.cpu_count() or 0, args.workload, args.seed,
        args.seconds, args.trace))
    work = os.path.join(".bench_work", "%s-%d" % (args.workload, os.getpid()))
    try:
        result = (traced if args.trace else end_to_end)(args, work, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        return fail(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
