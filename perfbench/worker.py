"""One workload process: set up, run the jobs closed-loop, check every report.

Started by ``run.py`` in a fresh interpreter with ``src/`` on PYTHONPATH.
Prints one JSON object on its last line of output.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --workdir DIR --mode {setup,run,untraced,traced} [--spans FILE]

``setup`` stops after set-up; ``run`` runs rounds until --seconds have
passed, and at least enough of them for MIN_JOBS jobs; ``untraced`` and
``traced`` run exactly one round, the second one with the tracer installed.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import gzip
import io
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time

import corpus
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))


def reference_path(workload: str) -> str:
    return os.path.join(HERE, "reference", workload + ".json.gz")


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def select_rounds(reference: dict, seed: int) -> list:
    """Rounds of jobs: every round takes ``count`` jobs of each template.

    Each template's pool, sorted by the time its jobs took when pinned, is
    cut into strata of POOL_ROUNDS jobs, and the seed deals every stratum
    out over the rounds, one job to each.  So no job repeats within a run (a
    fixed template reuses its one job), every round has about the same cost
    whatever the seed, and the seed then shuffles the order within each
    round.
    """
    rng = random.Random("%s/%d" % (reference["workload"], seed))
    by_template: dict = {}
    for entry in reference["entries"]:
        by_template.setdefault(entry["template"], []).append(entry)
    rounds = [[] for _ in range(corpus.POOL_ROUNDS[reference["workload"]])]
    for name, count, _, fixed in corpus.WORKLOADS[reference["workload"]]:
        pool = by_template[name]
        if fixed:
            for r in rounds:
                r.extend(pool * count)
            continue
        pool = sorted(pool, key=lambda e: (e["pin_ms"], e["id"]))
        for k in range(0, len(pool), len(rounds)):
            stratum = pool[k:k + len(rounds)]
            rng.shuffle(stratum)
            for r, entry in zip(rounds, stratum):
                r.append(entry)
    for r in rounds:
        rng.shuffle(r)
    return rounds


def write_configs(jobs, workdir: str) -> dict:
    paths = {}
    for entry in jobs:
        if entry["id"] not in paths:
            path = os.path.join(workdir, "%d.cfg" % len(paths))
            with open(path, "w") as fh:
                fh.write(entry["config"])
            paths[entry["id"]] = path
    return paths


# On a shared machine the speed drifts by tens of percent over seconds to
# minutes.  A fixed calibration loop runs before every job and, through a
# SpeedSampler, every SAMPLE_PERIOD_S while a job runs.  Each job's time is
# scaled by CALIBRATION_S over the median of the samples nearest to it in
# time: all those taken while it ran, and at least NEAREST, so that times
# read as on a core that runs the loop in CALIBRATION_S.  The loop churns
# dicts and tuples as relhyp does; the garbage collector is off while it
# runs, so relhyp's heap does not change its cost.
CALIBRATION_S = 1.5e-3
SAMPLE_PERIOD_S = 0.1
NEAREST = 21
# job_ms_p90 needs ten jobs beyond it.
MIN_JOBS = 100


def calibrate() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        d = {}
        for i in range(3000):
            d[(i, i % 7)] = tuple(range(i % 5))
        for k in list(d):
            del d[k]
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Calibration samples, each (time taken, duration).  ``calibrate`` runs
    the loop between jobs; while a job runs (``with sampler:``) a timer
    signal runs it every SAMPLE_PERIOD_S in the main thread, between two
    bytecodes of the job, and ``stolen`` adds up the time those samples
    took, which run_job takes off the job's time."""

    def __init__(self, in_job: bool):
        self.samples, self.stolen = [], 0.0
        self.in_job = in_job
        if in_job:
            signal.signal(signal.SIGALRM, self._sample)

    def calibrate(self) -> float:
        t = time.perf_counter()
        d = calibrate()
        self.samples.append((t, d))
        return time.perf_counter() - t

    def _sample(self, signum, frame):
        self.stolen += self.calibrate()

    def __enter__(self):
        self.stolen = 0.0
        if self.in_job:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.in_job:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def normalise(self, spans) -> list:
        """Scale each job's time by the samples nearest to its span, given
        as (start, end, seconds)."""
        times = [t for t, _ in self.samples]
        out = []
        for start, end, dt in spans:
            lo, hi = bisect.bisect_left(times, start), bisect.bisect_right(times, end)
            while hi - lo < NEAREST and (lo > 0 or hi < len(times)):
                if hi == len(times) or (lo > 0 and start - times[lo - 1] < times[hi] - end):
                    lo -= 1
                else:
                    hi += 1
            window = sorted(d for _, d in self.samples[lo:hi])
            out.append(dt * CALIBRATION_S / window[len(window) // 2])
        return out


def run_job(main, entry: dict, path: str, call=None, sampler=None):
    """One in-process CLI call: (exit code or None, stdout, error, seconds),
    the seconds without the time the sampler's in-job samples took."""
    argv = ["--config", path, "--command", entry["command"]] + entry["args"]
    out, err = io.StringIO(), io.StringIO()
    error = None
    with sampler or contextlib.nullcontext():
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv) if call is None else call(main, argv)
        except Exception as e:  # an escaped exception is a failed job
            rc, error = None, "%s: %s" % (type(e).__name__, e)
        dt = time.perf_counter() - t - (sampler.stolen if sampler else 0.0)
    return rc, out.getvalue(), error, dt


def check_report(entry: dict, rc, stdout: str, error):
    """(correct, changed, message) against the pinned reference.

    Strict, apart from two refinements: a check-conditions line may go from
    holds-to-radius to holds, and a separate that was not-found or crashed may
    return a certificate that passes the independent permutation check.
    """
    ref_rc, ref_out = entry["exit"], entry["stdout"]
    if rc == ref_rc and stdout == ref_out and error is None:
        return True, False, None
    if error is not None:
        return False, True, error
    if rc not in (0, 2, 3, 4, 5):
        return False, True, "exit code %r" % rc
    if entry["command"] == "separate" and rc == 0 and (
            ref_rc is None or '"not-found"' in ref_out):
        msg = oracles.check_certificate(entry["config"], stdout)
        return msg is None, True, msg
    if entry["command"] == "check-conditions" and rc == ref_rc:
        new, old = stdout.splitlines(), ref_out.splitlines()
        if len(new) == len(old):
            for a, b in zip(new, old):
                ja, jb = json.loads(a), json.loads(b)
                if a != b and not (ja["inputs"] == jb["inputs"]
                                   and jb["verdict"] == "holds-to-radius"
                                   and ja["verdict"] == "holds"):
                    break
            else:
                return True, True, None
    return False, True, "report differs from the reference (exit %r, pinned %r)" % (rc, ref_rc)


def check_probe(entry: dict, rc, stdout: str, error):
    """None when a defect probe still crashes as pinned, or has been fixed:
    it exits with an allowed code, and any certificate it returns passes the
    independent permutation check."""
    if error is not None:
        return None if entry["exit"] is None else error
    if rc not in (0, 2, 3, 4, 5):
        return "exit code %r" % rc
    if entry["command"] == "separate" and rc == 0:
        return oracles.check_certificate(entry["config"], stdout)
    return None


def percentile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile, taken on log times: the
    weighted geometric mean of the order statistics, each weighted by the
    Beta(q(n+1), (1-q)(n+1)) mass of its rank interval.  Unlike a single
    order statistic it does not jump when one noisy job crosses the rank,
    and on log times the few much longer jobs beyond the rank pull it less.
    Order statistics with less than a thousandth of the weight are left out,
    so a failed job (+inf) makes the estimate infinite only when it lies
    near or below the quantile."""
    s = sorted(math.log(v) for v in values)
    n = len(s)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logc = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def pdf(x):
        return math.exp(logc + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)) \
            if 0.0 < x < 1.0 else 0.0

    steps = 8  # Simpson's rule on each rank interval [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        h = 1.0 / (n * steps)
        xs = [i / n + k * h for k in range(steps + 1)]
        weights.append(h / 3 * sum(pdf(x) * (1 if k in (0, steps) else 4 if k % 2 else 2)
                                   for k, x in enumerate(xs)))
    total = sum(weights)
    kept = [(w, x) for w, x in zip(weights, s) if w > 1e-3 * total]
    return math.exp(sum(w * x for w, x in kept) / sum(w for w, _ in kept))


def main_() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "untraced", "traced"), required=True)
    ap.add_argument("--spans", default=None, help="file for the traced run's spans")
    args = ap.parse_args()

    # -- set-up: import relhyp, pick the seeded jobs, write their configs --
    from relhyp.cli import main

    reference = load_reference(args.workload)
    rounds = select_rounds(reference, args.seed)
    if args.mode != "run":
        rounds = rounds[:1]
    paths = write_configs([e for r in rounds for e in r], args.workdir)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def traced_call(main, argv):
        return tracer.call("cli.main", main, (argv,), {})

    # The one-round untraced and traced runs take no in-job samples, which
    # would land inside the traced spans.
    sampler = SpeedSampler(in_job=args.mode == "run")
    min_rounds = math.ceil(MIN_JOBS / len(rounds[0]))
    results, spans = [], []
    t0 = time.perf_counter()
    for done, r in enumerate(rounds, 1):
        for entry in r:
            # A full collection before each job, outside its time, so that a
            # job pays for its own garbage and not for its predecessors'.
            gc.collect()
            sampler.calibrate()
            if tracer is not None:
                tracer.job = len(results)
            start = time.perf_counter()
            res = run_job(main, entry, paths[entry["id"]],
                          traced_call if tracer else None, sampler)
            spans.append((start, time.perf_counter(), res[3]))
            results.append((entry, res))
        if done >= min_rounds and time.perf_counter() - t0 >= args.seconds:
            break
    elapsed = time.perf_counter() - t0
    sampler.calibrate()
    raw = [res[3] for _, res in results]
    norm = sampler.normalise(spans)

    failed, changed, messages = 0, 0, []
    times = []
    for (entry, (rc, out, error, _)), dt in zip(results, norm):
        ok, ch, msg = check_report(entry, rc, out, error)
        changed += ch
        if not ok:
            failed += 1
            messages.append("%s: %s" % (entry["id"], msg))
        times.append(dt if ok else float("inf"))

    report = {
        "ready": ready,
        "attempted": len(results),
        "failed": failed,
        "changed": changed,
        "messages": messages[:20],
        "batch_s": sum(norm),
        "raw_batch_s": sum(raw),
        "elapsed_s": elapsed,
        "slowdown": statistics.median(d for _, d in sampler.samples) / CALIBRATION_S,
        "job_ms_p50": percentile(times, 0.5) * 1000,
        "job_ms_p90": percentile(times, 0.9) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "rounds": done,
        "digests": [[e["id"], rc, out, error] for e, (rc, out, error, _) in results]
        if args.mode in ("untraced", "traced") else None,
    }
    if tracer is not None:
        import layers

        report["layers"] = layers.collect(tracer, args.workload, results, sum(raw),
                                          changed, main, paths, reference, args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main_())
