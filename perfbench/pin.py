"""Generate the job pools, run them through relhyp, cross-check the reports
with the independent oracles and pin them in perfbench/reference/ (gzip-compressed JSON).

    PYTHONPATH=src python3 perfbench/pin.py [workload ...]

Run from the root of the checkout with RELHYP_TIMING and RELHYP_BUDGET unset.
A generated job that the independent checks cannot decide (a True product
membership whose factorization is longer than the brute-force bound) is
replaced by the template's next job, and the replacement is counted in the
summary.  Any other crash, unexpected exit code or failed cross-check stops
pinning.  The defect probes are pinned as they behave, crash included.
"""

from __future__ import annotations

import gzip
import json
import os
import random
import statistics
import sys
import tempfile

import corpus
import oracles
from worker import reference_path, run_job

PIN_SEED = 1
MAX_REDRAWS = 50


def pin_entries(workload, templates, main, tmp, keep_crashes=False):
    entries, summary = [], []
    for name, count, make, fixed in templates:
        rng = random.Random("%s/%s/%d" % (workload, name, PIN_SEED))
        want = 1 if fixed else count * corpus.POOL_ROUNDS[workload]
        times, redraws, got = [], 0, 0
        while got < want:
            entry = make(rng)
            path = os.path.join(tmp, "job.cfg")
            with open(path, "w") as fh:
                fh.write(entry["config"])
            rc, out, error, dt = run_job(main, entry, path)
            problem = error if not keep_crashes else None
            if problem is None and rc is not None and rc not in (0, 2):
                problem = "exit %d" % rc
            if problem is None:
                problem = oracles.cross_check(entry, rc, out)
            if problem is not None:
                if oracles.UNDECIDED not in problem:
                    raise SystemExit("%s/%s: %s\n%s" % (workload, name, problem, entry["config"]))
                redraws += 1
                if redraws > MAX_REDRAWS:
                    raise SystemExit("%s/%s: too many redraws, last: %s" % (workload, name, problem))
                continue
            entry.update(template=name, id="%s:%d" % (name, got), exit=rc, stdout=out,
                         pin_ms=round(dt * 1000, 3))
            entries.append(entry)
            times.append(dt * 1000)
            got += 1
        summary.append("  %-22s x%-3d median %9.2f ms  max %9.2f ms  redrawn %s"
                       % (name, count, statistics.median(times), max(times), redraws))
    return entries, summary


def main_() -> int:
    for var in ("RELHYP_TIMING", "RELHYP_BUDGET"):
        if os.environ.get(var):
            raise SystemExit("unset %s before pinning" % var)
    from relhyp.cli import main

    for workload in sys.argv[1:] or list(corpus.WORKLOADS):
        with tempfile.TemporaryDirectory(dir=".") as tmp:
            entries, summary = pin_entries(workload, corpus.WORKLOADS[workload], main, tmp)
            probes, psum = pin_entries(workload, corpus.DEFECT_PROBES.get(workload, []),
                                       main, tmp, keep_crashes=True)
        out = {"workload": workload, "pin_seed": PIN_SEED, "entries": entries, "probes": probes}
        path = reference_path(workload)
        # one job per line; no timestamp in the gzip header
        text = json.dumps(out, sort_keys=True).replace(', {"args"', ',\n{"args"')
        with open(path, "wb") as fh:
            fh.write(gzip.compress(text.encode(), mtime=0))
        print("%s: %d entries, %d probes -> %s" % (workload, len(entries), len(probes), path))
        print("\n".join(summary + psum))
    return 0


if __name__ == "__main__":
    sys.exit(main_())
