"""Golden replay: every pinned benchmark job must give its pinned report.

``perfbench/reference/{metric,separability,conditions}.json.gz`` hold 1,162
CLI jobs (config text, command, arguments) with the exit code and stdout
that were cross-checked against independent oracles when they were pinned.
Each is replayed through ``relhyp.cli.main`` in process; exit code and
stdout must match byte for byte, and each pinned report must still pass the
oracles of ``perfbench/oracles.py``.  The files are only read.
"""

import contextlib
import gzip
import io
import json
import warnings
from pathlib import Path

import pytest

from relhyp.cli import main

from conftest import perfbench_oracles

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


@pytest.mark.parametrize("workload", ["metric", "separability", "conditions"])
def test_pinned_reports_replay(workload, tmp_path, monkeypatch):
    monkeypatch.delenv("RELHYP_TIMING", raising=False)
    monkeypatch.delenv("RELHYP_BUDGET", raising=False)
    with gzip.open(REFERENCE / ("%s.json.gz" % workload), "rt") as fh:
        entries = json.load(fh)["entries"]
    assert entries
    cfg = tmp_path / "job.cfg"
    mismatches = []
    for entry in entries:
        cfg.write_text(entry["config"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(["--config", str(cfg), "--command", entry["command"]] + entry["args"])
        if (rc, out.getvalue()) != (entry["exit"], entry["stdout"]):
            mismatches.append((entry["id"], rc, entry["exit"], out.getvalue()))
    assert not mismatches, "%d of %d reports differ; first: %r" % (
        len(mismatches), len(entries), mismatches[0])


def test_pinned_reports_pass_the_oracles():
    """Every pinned report agrees with ``perfbench/oracles.cross_check``, the
    independent computation the benchmark has for its command and group
    (ball sizes, delta, relative distances and geodesics, member,
    product-member, separating certificates); reports of other commands are
    not checked.  An answer that the brute force cannot decide is counted,
    reported and left unchecked.  With the replay above, this checks what
    the library prints now."""
    problems, undecided, entries = [], 0, 0
    for workload in ("metric", "separability", "conditions"):
        with gzip.open(REFERENCE / ("%s.json.gz" % workload), "rt") as fh:
            for entry in json.load(fh)["entries"]:
                entries += 1
                problem = perfbench_oracles.cross_check(entry, entry["exit"], entry["stdout"])
                if problem is not None and perfbench_oracles.UNDECIDED in problem:
                    undecided += 1
                elif problem is not None:
                    problems.append((entry["id"], problem))
    assert entries
    assert not problems, "%d of %d reports fail their oracle; first: %r" % (
        len(problems), entries, problems[0])
    if undecided:
        warnings.warn("%d of %d pinned reports undecided by the oracles" % (undecided, entries))
