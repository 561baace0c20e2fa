"""Golden replay: every pinned benchmark job must give its pinned report.

``perfbench/reference/{metric,separability,conditions}.json.gz`` hold 1,162
CLI jobs (config text, command, arguments) with the exit code and stdout
that were cross-checked against independent oracles when they were pinned.
Each is replayed through ``relhyp.cli.main`` in process; exit code and
stdout must match byte for byte.  The files are only read.
"""

import contextlib
import gzip
import io
import json
from pathlib import Path

import pytest

from relhyp.cli import main

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
