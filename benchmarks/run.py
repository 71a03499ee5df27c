"""oscigen benchmark: one closed-loop client drives the CLI and checks every
answer against closed-form references.

    python3 benchmarks/run.py --workload tables|exact|excite --seed N \\
        --seconds S --trace 0|1

Run it from the repository root; it imports the program from ``src/``.

``--trace 0`` measures the end-to-end metrics.  The client makes the
workload's ``MIN_ROUNDS`` rounds of seeded requests (see ``workloads.py``)
and sends them one at a time; then it sends further whole rounds until
``--seconds`` of timed phase have passed.  The timed phase covers executing
the rounds, not making their inputs.  At ``SETUP_SAMPLES`` points spread
evenly over the first rounds, outside the timed phase, the client starts a
fresh worker and times it from launch to its first completed request
(``setup_s``, the median), so that set-up is sampled on the same machine
state as the requests.  ``tables`` and ``excite`` run in one worker
process, as a notebook session would; ``exact`` starts a fresh worker for
every request, as one CLI call does.
Latency is the service time of ``CliRunner.invoke`` in a session and the
launch-to-exit time of a fresh worker.

``--trace 1`` runs round 0 twice, untraced and then traced, reports the
per-layer metrics of the traced pass and the tracing overhead, and re-runs
one request per group to check that the exact counts repeat.

The last line of standard output is the result object; the line before it
carries the details (tail percentile, sample counts, failure reasons).
``correct`` is false when the benchmark itself could not vouch for the
run: a reference value not certified, traced output that differs from
untraced output, a span whose children cover more than itself, or an exact
count that did not repeat.  Wrong answers of the program are counted in
``failed`` and in ``correct_ratio``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_runs"

SETUP_SAMPLES = 10
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)
REF_ERR_FLOOR = 1e-17  # below double resolution of a probability

_clock = time.perf_counter


class WorkerDied(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    nproc = os.cpu_count() or 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            want = int(env.get(var) or nproc)
        except ValueError:
            want = nproc
        env[var] = str(max(1, min(want, nproc)))
    return env


class Worker:
    """One worker process; requests go over its stdin, responses come back
    as a header line plus the raw output bytes."""

    def __init__(self, rundir: Path, env: dict, trace: Path | None = None):
        cmd = [sys.executable, str(HERE / "worker.py")]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        self.log = open(rundir / "worker.stderr", "ab")
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.log, cwd=rundir, env=env)

    def request(self, req: dict) -> tuple[dict, bytes]:
        try:
            self.proc.stdin.write(json.dumps({"id": req["id"], "args": req["args"]}).encode() + b"\n")
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerDied("worker exited") from exc
        line = self.proc.stdout.readline()
        if not line:
            raise WorkerDied("worker exited")
        header = json.loads(line)
        return header, self.proc.stdout.read(header["nbytes"])

    def close(self):
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


class Client:
    """Closed-loop client: one request in flight, the next sent only after
    the previous answer arrived."""

    def __init__(self, workload: str, rundir: Path, env: dict):
        self.workload = workload
        self.fresh = workload == "exact"
        self.rundir = rundir
        self.env = env
        self.session = None
        self.trace = None
        (rundir / "profiles").mkdir(exist_ok=True)

    def prepare(self, req: dict) -> dict:
        """Write a request's profile file; inputs exist before timing."""
        if "profile" in req and "--profile" not in req["args"]:
            path = self.rundir / "profiles" / f"{req['id']}.json"
            path.write_text(json.dumps(req["profile"]))
            req["args"] = req["args"] + ["--profile", str(path)]
        return req

    def start(self, trace: Path | None = None):
        """Open a session (in-process workloads) warmed by the setup probe."""
        self.trace = trace
        if not self.fresh:
            self.session = Worker(self.rundir, self.env, trace)
            self.session.request(self.prepare(probe(self.workload)))

    def stop(self):
        if self.session is not None:
            self.session.close()
            self.session = None

    def send(self, req: dict) -> tuple[dict | None, bytes, float]:
        """(header or None if the worker died, output, latency in s)."""
        if self.fresh:
            trace = None
            if self.trace is not None:
                trace = self.trace.with_name(f"{self.trace.stem}-{req['id']}.jsonl")
            start = _clock()
            worker = Worker(self.rundir, self.env, trace)
            try:
                header, body = worker.request(req)
            except WorkerDied:
                header, body = None, b""
            worker.close()
            return header, body, _clock() - start
        try:
            header, body = self.session.request(req)
        except WorkerDied:
            self.session.close()
            self.start(self.trace)
            return None, b"", math.nan
        return header, body, header["service_ns"] * 1e-9


def probe(workload: str) -> dict:
    from workloads import SETUP_PROBES

    req = json.loads(json.dumps(SETUP_PROBES[workload]))
    req["id"] = "warmup"
    return req


def setup_time(req: dict, rundir: Path, env: dict) -> tuple[float, int]:
    """Launch-to-first-completed-request time of one fresh worker, and its
    peak RSS in KiB."""
    start = _clock()
    worker = Worker(rundir, env)
    header, _body = worker.request(req)
    took = _clock() - start
    worker.close()
    if header["exit_code"] != 0:
        raise RuntimeError(f"setup probe failed: {header}")
    return took, header["maxrss_kb"]


def execute(client: Client, reqs: list[dict], records: list[dict], digests: dict | None = None):
    import check

    for req in reqs:
        header, body, latency = client.send(req)
        if header is None:
            header = {"exit_code": -1, "exception": "WorkerDied: worker exited"}
        records.append(check.extract(req, header, body, latency))
        if digests is not None:
            digests[req["id"]] = _digest(req, header, body)


def _digest(req: dict, header: dict, body: bytes) -> tuple:
    if req["kind"] == "verify":  # drop the wall time of the summary line
        body = re.sub(rb"\(\d+\.\ds\)\s*$", b"", body)
    return header.get("exit_code"), header.get("exception"), hash(body)


def verdicts(reqs_by_id: dict, records: list[dict]):
    """[(record, failure reason or None, reference error or None)] and the
    number of requests whose reference value could not be certified."""
    import check
    import reference

    out, uncertified = [], 0
    for rec in records:
        try:
            reason, err = check.judge(reqs_by_id[rec["id"]], rec)
        except reference.ReferenceError:
            reason, err = "reference not certified", None
            uncertified += 1
        out.append((rec, reason, err))
    return out, uncertified


def tail_percentile(samples: int) -> float:
    """Highest candidate percentile with at least ten samples beyond it in
    the least number of samples a run takes; fixed per workload so runs of
    different lengths report the same percentile."""
    for p in TAIL_CANDIDATES:
        if samples * (1.0 - p / 100.0) >= 10.0:
            return p
    return 50.0


def summarize_failures(judged) -> dict:
    reasons = {}
    for rec, reason, _err in judged:
        if reason:
            key = f"{rec['group']}: {reason}"
            reasons[key] = reasons.get(key, 0) + 1
    return reasons


def run_e2e(workload: str, seed: int, seconds: float, rundir: Path, env: dict):
    import numpy as np
    from workloads import MIN_ROUNDS, make_round

    client = Client(workload, rundir, env)
    probe_req = client.prepare(probe(workload))
    rounds = MIN_ROUNDS[workload]
    reqs = [client.prepare(r) for i in range(rounds) for r in make_round(workload, seed, i)]
    least_samples = len(reqs)
    cuts = [k * least_samples // SETUP_SAMPLES for k in range(SETUP_SAMPLES + 1)]
    records, setups, setup_rss, timed = [], [], 0, 0.0
    try:
        client.start()
        for lo, hi in zip(cuts, cuts[1:]):
            took, rss = setup_time(probe_req, rundir, env)
            setups.append(took)
            setup_rss = max(setup_rss, rss)
            started = _clock()
            execute(client, reqs[lo:hi], records)
            timed += _clock() - started
        while timed < seconds:
            more = [client.prepare(r) for r in make_round(workload, seed, rounds)]
            reqs += more
            started = _clock()
            execute(client, more, records)
            timed += _clock() - started
            rounds += 1
    finally:
        client.stop()
    judged, uncertified = verdicts({r["id"]: r for r in reqs}, records)
    with open(rundir / "requests.jsonl", "w") as fh:
        for rec, reason, err in judged:
            fh.write(json.dumps({"id": rec["id"], "group": rec["group"], "latency_s": rec["latency_s"],
                                 "failure": reason, "ref_err": err}) + "\n")

    latencies = np.array([rec["latency_s"] for rec, _r, _e in judged if not math.isnan(rec["latency_s"])])
    ok = sum(1 for _rec, reason, _e in judged if reason is None)
    errors = [err for _rec, _reason, err in judged if err is not None]
    # digits of agreement with the reference, averaged over every request
    # that produced output, passing or not
    digits = statistics.fmean(
        [-math.log10(min(max(err, REF_ERR_FLOOR), 1.0)) for err in errors] or [0.0])
    pct = tail_percentile(least_samples)
    # round 0 is the same work in every run, however many rounds follow
    peak_kb = max([setup_rss] + [rec["maxrss_kb"] for rec, _r, _e in judged
                                 if rec["id"].startswith("r0.")])
    metrics = {
        "throughput_rps": (ok / timed, "1/s"),
        "latency_p50_ms": (float(np.percentile(latencies, 50)) * 1e3, "ms"),
        "latency_tail_ms": (float(np.percentile(latencies, pct)) * 1e3, "ms"),
        "correct_ratio": (ok / len(judged), "ratio"),
        "ref_digits": (digits, "digits"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    detail = {
        "workload": workload, "seed": seed, "rounds": rounds, "requests": len(judged),
        "tail_percentile": pct, "latency_samples": int(latencies.size),
        "timed_s": timed, "busy_s": float(latencies.sum()),
        "fail_ratio": 1.0 - ok / len(judged), "max_ref_err": max(errors, default=None),
        "failures": summarize_failures(judged), "setup_samples_s": setups,
    }
    return metrics, len(judged), len(judged) - ok, not uncertified, detail


def _counts_subset(reqs: list[dict]) -> list[dict]:
    """The cheapest request of each group: re-run to check exact counts."""
    best = {}
    for req in reqs:
        if req["group"] not in best or req["cost"] < best[req["group"]]["cost"]:
            best[req["group"]] = req
    return list(best.values())


def run_traced(workload: str, seed: int, rundir: Path, env: dict):
    import tracing
    from workloads import make_round

    reqs = make_round(workload, seed, 0)
    reqs_by_id = {r["id"]: r for r in reqs}
    client = Client(workload, rundir, env)
    for req in reqs:
        client.prepare(req)

    passes = {}
    subset = _counts_subset(reqs)
    try:
        for name, trace in (("untraced", None), ("traced", rundir / "spans.jsonl")):
            records, digests = [], {}
            client.start(trace)
            execute(client, reqs, records, digests)
            client.stop()
            passes[name] = (records, digests)
        client.start(rundir / "repeat.jsonl")
        execute(client, subset, [])
    finally:
        client.stop()
    busy = {name: sum(r["latency_s"] for r in recs) for name, (recs, _d) in passes.items()}

    traces = [tracing.load(p) for p in sorted(rundir.glob("spans*.jsonl"))]
    layers, absent, overlaps = tracing.layer_metrics(traces)
    counts = tracing.per_request_counts(traces)
    repeat = tracing.per_request_counts([tracing.load(p) for p in sorted(rundir.glob("repeat*.jsonl"))])
    mismatched = sorted(rid for rid in repeat if repeat[rid] != counts.get(rid))
    differing = sorted(rid for rid in passes["traced"][1]
                       if passes["traced"][1][rid] != passes["untraced"][1].get(rid))

    judged, uncertified = verdicts(reqs_by_id, passes["traced"][0])
    failed = sum(1 for _rec, reason, _e in judged if reason)
    layers["trace.overhead"] = busy["traced"] / busy["untraced"] - 1.0
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        metrics[spec["name"]] = (float(layers.get(spec["name"], 0)), spec["unit"])
    correct = not (overlaps or mismatched or differing or uncertified)
    detail = {
        "workload": workload, "seed": seed, "requests": len(reqs),
        "busy_untraced_s": busy["untraced"], "busy_traced_s": busy["traced"],
        "absent_layers": absent, "span_overlaps": overlaps,
        "count_mismatches": mismatched, "traced_output_differs": differing,
        "repeat_checked": sorted(r["id"] for r in subset),
        "failures": summarize_failures(judged),
    }
    return metrics, len(judged), failed, correct, detail


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not (SRC / "oscigen" / "__init__.py").is_file():
        print(f"error: no oscigen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    try:
        import mpmath  # noqa: F401  (the reference needs it)
        import numpy  # noqa: F401
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if opts.workload not in WORKLOADS:
        print(f"error: unknown workload {opts.workload!r}; pick from {WORKLOADS}", file=sys.stderr)
        return 2

    rundir = OUT / f"{opts.workload}-trace{opts.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    env = worker_env()
    if opts.trace:
        metrics, attempted, failed, correct, detail = run_traced(opts.workload, opts.seed, rundir, env)
    else:
        metrics, attempted, failed, correct, detail = run_e2e(
            opts.workload, opts.seed, opts.seconds, rundir, env)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
