"""The benchmark's tracer hooks into the library from outside: it reads
``Series2.domain.dtype`` and wraps the series operations by name.  This
guard runs it on the ``forced`` verify suite in a fresh process, so a
change to those names shows here rather than as silent zeros in the
per-layer metrics."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracing
from oscigen.verify import run_suite

tracer = tracing.Tracer()
tracer.install()
report = run_suite("forced")
series = [rec[6] for rec in tracer.spans if rec[0].startswith("series.")]
print(json.dumps({
    "absent": tracer.absent,
    "spans": len(series),
    "exact": sorted({c["exact"] for c in series if c}),
    "failed": [c.id for c in report.checks if c.status == "fail"],
}))
"""


def test_tracer_sees_both_series_domains():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "benchmarks")],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["exact"] == [False, True]
    assert got["spans"] > 0
    hooked = ("oscigen.series.", "oscigen.domains.")
    assert [a for a in got["absent"] if a.startswith(hooked)] == []
    assert got["failed"] == []
