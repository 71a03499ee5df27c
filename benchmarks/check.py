"""Correctness verdicts for each request, made outside the timed path.

``extract`` runs as each response arrives and keeps only what the check
needs (the sampled table entries, the excitation report, the verify
counts), so a run never holds whole tables in memory.  ``judge`` compares
that against the closed-form reference after the timed phase.

A request fails on a nonzero exit, an exception or traceback, output that
cannot be read, a verify report with failed or inconsistent checks, or a
value farther from the reference than the fixed tolerance of its kind.
The error of a value is |got - ref| / max(1, |ref|): absolute for
probabilities and small excitation parameters, relative for large ones.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

import reference
from workloads import TABLE_TOL

_SUMMARY = re.compile(r"^(\d+) passed, (\d+) failed, (\d+) reported-only \(")


def _scaled(got: float, ref: float) -> float:
    return abs(got - ref) / max(1.0, abs(ref))


def _table_samples(req, body: bytes):
    size, cells = req["size"], req["samples"]
    if req["format"] == "csv":
        lines = body.decode().splitlines()
        if len(lines) != size + 1:
            raise ValueError(f"{len(lines) - 1} rows, expected {size}")
        rows = {}
        for m, n in cells:
            if m not in rows:
                rows[m] = lines[m + 1].split(",")
                if len(rows[m]) != size + 1 or rows[m][0] != str(m):
                    raise ValueError(f"malformed row {m}")
        return [(m, n, float(rows[m][n + 1]), None) for m, n in cells]
    doc = json.loads(body)
    values = doc["values"]
    if doc["size"] != [size, size] or len(values) != size:
        raise ValueError(f"size {doc['size']}, expected {size}")
    symbolic = doc.get("symbolic")
    if req["mode"] == "exact" and symbolic is None:
        raise ValueError("exact mode without a symbolic block")
    return [
        (m, n, float(values[m][n]), symbolic["entries"][m][n] if symbolic else None)
        for m, n in cells
    ]


def _verify_counts(body: bytes) -> dict:
    lines = body.decode().splitlines()
    summary = _SUMMARY.match(lines[-1])
    if not summary:
        raise ValueError("no verify summary line")
    tags = [line[1:5] for line in lines if line.startswith("[")]
    return {
        "pass": int(summary[1]), "fail": int(summary[2]), "reported": int(summary[3]),
        "tagged": {t: tags.count(t) for t in ("PASS", "FAIL", "NOTE")},
    }


def extract(req: dict, header: dict, body: bytes, latency_s: float) -> dict:
    """Compact record of one response; ``problem`` is set when the program
    failed loudly or its output could not be read."""
    rec = {"id": req["id"], "kind": req["kind"], "group": req["group"],
           "latency_s": latency_s, "maxrss_kb": header.get("maxrss_kb", 0),
           "problem": None, "data": None}
    if header.get("exception"):
        rec["problem"] = "exception: " + header["exception"].split(":")[0]
    elif header["exit_code"] != 0:
        rec["problem"] = f"exit {header['exit_code']}"
    elif "Traceback" in header.get("stderr", ""):
        rec["problem"] = "traceback"
    else:
        try:
            if req["kind"] == "table":
                rec["data"] = _table_samples(req, body)
            elif req["kind"] == "verify":
                rec["data"] = _verify_counts(body)
            else:
                rec["data"] = json.loads(body)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            rec["problem"] = f"malformed output: {type(exc).__name__}"
    return rec


def _judge_table(req, samples):
    err = 0.0
    for m, n, got, _symbolic in samples:
        err = max(err, _scaled(got, reference.table_entry(req["family"], m, n, req["params"])))
    if err > TABLE_TOL:
        return "reference", err
    for m, n, _got, symbolic in samples:
        if symbolic is not None:
            if [Fraction(c) for c in symbolic] != reference.exact_poly(req["family"], m, n):
                return "symbolic", err
    return None, err


def _judge_excite(req, doc):
    ref = reference.excite_value(req["source"], req["omega"])
    what = req["what"]
    if what not in doc:
        return "malformed output", None
    err = _scaled(doc[what], ref)
    # the vacuum-row picture implied by the reference value
    if what == "nu":
        mean = ref
        row = [math.exp(-ref) * ref**n / math.factorial(n) for n in range(8)]
    else:
        mean = ref / (1.0 - ref)
        row = [0.0 if n % 2 else math.sqrt(1.0 - ref) * ref ** (n // 2)
               * math.comb(n, n // 2) / 2.0**n for n in range(8)]
    err = max(err, _scaled(doc["mean_n0"], mean),
              *(_scaled(got, want) for got, want in zip(doc["vacuum_row"], row)))
    if len(doc["vacuum_row"]) != len(row):
        return "malformed output", err
    return ("reference" if err > req["tol"] else None), err


def _judge_verify(counts):
    tagged = counts["tagged"]
    consistent = (tagged["PASS"], tagged["FAIL"], tagged["NOTE"]) == (
        counts["pass"], counts["fail"], counts["reported"])
    if counts["fail"] or not consistent or not counts["pass"]:
        return "verify", None
    return None, None


def judge(req: dict, rec: dict) -> tuple[str | None, float | None]:
    """(failure reason or None, scaled reference error or None)."""
    if rec["problem"]:
        return rec["problem"], None
    try:
        if req["kind"] == "table":
            return _judge_table(req, rec["data"])
        if req["kind"] == "excite":
            return _judge_excite(req, rec["data"])
        return _judge_verify(rec["data"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}", None
