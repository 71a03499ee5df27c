"""Span and counter wrappers installed from outside the program.

Each hook replaces a function at the attribute where its caller looks it up
(``oscigen.cli.forced_prob_table`` for the CLI, ``oscigen.forced.
forced_prob_table`` for ``verify``, ``Series2.__mul__`` on the class, ...)
with a wrapper that records a span: name, parent span, request id, start
and end in integer nanoseconds, and counters taken from the call.  Spans
stay in memory and are written out when the worker ends.  Functions called
tens of thousands of times per request (``RatPoly.__call__``,
``FrequencyProfile.omega_sq``) are folded into one record per parent span
with a call count.  A hook whose target no longer exists is listed as
absent and its layer reports zero.

A span's child time is the sum of its direct children's durations; spans
nest strictly on one thread, so that sum is the part of the span that
children cover and self time is the difference.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import types

_ns = time.perf_counter_ns

# (module, attribute path, span name, counter kind)
HOOKS = (
    ("oscigen.cli", "forced_prob_table", "forced.table", None),
    ("oscigen.cli", "param_prob_table", "parametric.table", None),
    ("oscigen.cli", "singular_prob_table", "singular.table", None),
    ("oscigen.forced", "forced_prob_table", "forced.table", None),
    ("oscigen.parametric", "param_prob_table", "parametric.table", None),
    ("oscigen.singular", "singular_prob_table", "singular.table", None),
    ("oscigen.series", "Series2.__mul__", "series.mul", "series"),
    ("oscigen.series", "Series2.inverse", "series.inverse", "series"),
    ("oscigen.series", "Series2.exp", "series.exp", "series"),
    ("oscigen.series", "Series2.pow_real", "series.pow_real", "series"),
    ("oscigen.verify", "dft_extract_table", "oracle", "oracle"),
    ("oscigen.domains", "RatPoly.__call__", "domains.poly_eval", "hot"),
    ("oscigen.probtable", "ProbTable.validate", "probtable.validate", None),
    ("oscigen.probtable", "ProbTable.to_csv", "probtable.csv", None),
    ("oscigen.probtable", "ProbTable.to_json_dict", "probtable.json", None),
    ("oscigen.cli", "json.dumps", "cli.dumps", None),
    ("oscigen.forced", "gauss_laguerre", "quadrature", None),
    ("oscigen.parametric", "gauss_jacobi_half", "quadrature", None),
    ("oscigen.parametric", "gauss_legendre", "quadrature", None),
    ("oscigen.excitation", "gauss_legendre", "quadrature", None),
    ("oscigen.excitation", "nu_from_force", "excitation.nu", None),
    ("oscigen.excitation", "bogoliubov_from_frequency", "excitation.rho", None),
    ("oscigen.verify", "nu_from_force", "excitation.nu", None),
    ("oscigen.verify", "bogoliubov_from_frequency", "excitation.rho", None),
    ("oscigen.excitation", "integrate_path", "ode", "ode"),
    ("oscigen.cli", "load_profile", "profiles.load", None),
    ("oscigen.profiles", "FrequencyProfile.omega_sq", "profiles.omega_sq", "hot"),
    ("oscigen.verify", "SUITES", "verify", "suites"),
)

# request id of the probe that warms a session; its spans are not counted
WARMUP = "warmup"

# counts that must repeat exactly for a given request
EXACT_COUNTS = ("series.madds", "oracle.points", "ode.steps", "ode.rhs_evals",
                "verify.checks", "probtable.bytes_out")


def _series_madds(op: str, mu: int, nv: int) -> int:
    """Multiply-adds of one Series2 operation, computed from its window:
    truncated row convolutions times (nv+1)(nv+2)/2 each."""
    convs = {
        "mul": (mu + 1) * (mu + 2) // 2,
        "inverse": 1 + mu * (mu + 3) // 2,
        "exp": 1 + mu * (mu + 1) // 2,
        "pow_real": 2 + mu * (mu + 1),
    }[op]
    return convs * (nv + 1) * (nv + 2) // 2


def _counters(kind, name, fn):
    if kind == "series":
        op = name.split(".", 1)[1]

        def series(args, kwargs, result):
            s = args[0]
            return {"exact": s.domain.dtype is None,
                    "madds": _series_madds(op, s.max_deg_u, s.max_deg_v)}
        return series
    if kind == "oracle":
        sig = inspect.signature(fn)

        def oracle(args, kwargs, result):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            grid = a.get("grid") or 4 * (max(a["max_m"], a["max_n"]) + 1)
            return {"points": grid * grid}
        return oracle
    if kind == "ode":
        def ode(args, kwargs, result):
            stats = result[1]
            return {"steps": stats.steps, "rejected": stats.rejected,
                    "rhs_evals": stats.rhs_evals}
        return ode
    if kind == "suite":
        def suite(args, kwargs, result):
            return {"checks": len(result),
                    "failed": sum(1 for c in result if c.status == "fail")}
        return suite
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, request, start_ns, end_ns, child_ns, counters]
        self.hot = {}  # (parent, name) -> [calls, total_ns]
        self.stack = []
        self.request = None
        self.absent = []

    def wrap(self, name, fn, counters=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, self.request, 0, 0, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[3] = _ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = _ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += rec[4] - rec[3]
            if counters is not None:
                try:
                    rec[6] = counters(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # the call changed shape: keep the span, drop its counters
            return result
        return traced

    def wrap_hot(self, name, fn):
        spans, stack, hot = self.spans, self.stack, self.hot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = _ns()
            try:
                return fn(*args, **kwargs)
            finally:
                took = _ns() - start
                parent = stack[-1] if stack else -1
                agg = hot.get((parent, name))
                if agg is None:
                    hot[(parent, name)] = [1, took]
                else:
                    agg[0] += 1
                    agg[1] += took
                if parent >= 0:
                    spans[parent][5] += took
        return traced

    def install(self):
        """Install every hook whose target exists; list the others."""
        for module_name, path, name, kind in HOOKS:
            try:
                self._install(importlib.import_module(module_name), path, name, kind)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{path}")

    def _install(self, module, path, name, kind):
        head, _, attr = path.rpartition(".")
        owner = module
        if head:
            owner = getattr(module, head)
            if isinstance(owner, types.ModuleType):
                # a module the caller imported whole (cli's ``json``): give
                # the caller a proxy so the real module stays untouched
                proxy = types.ModuleType(owner.__name__)
                proxy.__dict__.update(owner.__dict__)
                setattr(module, head, proxy)
                owner = proxy
        fn = getattr(owner, attr)
        if kind == "suites":
            for suite, check in list(fn.items()):
                fn[suite] = self.wrap(f"verify.{suite}", check, _counters("suite", name, check))
        elif kind == "hot":
            setattr(owner, attr, self.wrap_hot(name, fn))
        else:
            setattr(owner, attr, self.wrap(name, fn, _counters(kind, name, fn)))

    def dump(self, path, extra: dict):
        with open(path, "w") as fh:
            fh.write(json.dumps({"absent": self.absent, **extra}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for (parent, name), (calls, total) in self.hot.items():
                request = self.spans[parent][2] if parent >= 0 else None
                fh.write(json.dumps({"hot": name, "parent": parent, "request": request,
                                     "calls": calls, "total": total}) + "\n")


def load(path):
    """(header, spans, hot records) of one dumped trace file."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        spans, hot = [], []
        for line in fh:
            rec = json.loads(line)
            (hot if isinstance(rec, dict) else spans).append(rec)
    return header, spans, hot


def _layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def per_request_counts(traces) -> dict:
    """request id -> {count name: value} for the EXACT_COUNTS."""
    out = {}
    for header, spans, _hot in traces:
        for req, nbytes in header.get("bytes_out", {}).items():
            if req == WARMUP:
                continue
            out.setdefault(req, dict.fromkeys(EXACT_COUNTS, 0))["probtable.bytes_out"] += nbytes
        for name, _parent, req, _s, _e, _c, counters in spans:
            if req == WARMUP:
                continue
            c = out.setdefault(req, dict.fromkeys(EXACT_COUNTS, 0))
            if not counters:
                continue
            if name.startswith("series."):
                c["series.madds"] += counters["madds"]
            elif name == "oracle":
                c["oracle.points"] += counters["points"]
            elif name == "ode":
                c["ode.steps"] += counters["steps"]
                c["ode.rhs_evals"] += counters["rhs_evals"]
            elif name.startswith("verify."):
                c["verify.checks"] += counters["checks"]
    return out


def layer_metrics(traces) -> tuple[dict, list[str], int]:
    """Per-layer metrics summed over every request of the traced pass.

    Returns (metrics by name, absent layers, spans whose children cover more
    than the span itself)."""
    ms = 1e-6
    m = {}

    def add(key, value):
        m[key] = m.get(key, 0) + value

    absent_hooks = set()
    overlaps = 0
    for header, spans, hot in traces:
        absent_hooks.update(header["absent"])
        for name, parent, req, start, end, child, counters in spans:
            if req == WARMUP:
                continue
            counters = counters or {}
            dur = end - start
            if child > dur:
                overlaps += 1
            self_ns = dur - child
            parent_name = spans[parent][0] if parent >= 0 else None
            if name == "cli":
                add("cli.self_ms", self_ns * ms)
            elif name.endswith(".table"):
                fam = name.split(".")[0]
                add(f"{fam}.table_ms", dur * ms)
                add(f"{fam}.self_ms", self_ns * ms)
                add(f"{fam}.calls", 1)
            elif name.startswith("series."):
                add(f"{name}_ms", dur * ms)
                add("series.exact_ms" if counters.get("exact") else "series.float_ms", dur * ms)
                add("series.ops", 1)
                add("series.madds", counters.get("madds", 0))
            elif name == "oracle":
                add("oracle.ms", dur * ms)
                add("oracle.points", counters.get("points", 0))
            elif name in ("probtable.validate", "probtable.csv", "probtable.json"):
                add(f"{name}_ms", dur * ms)
            elif name == "cli.dumps" and parent_name == "cli" and spans[parent][6] == {"command": "table"}:
                add("probtable.json_ms", dur * ms)
            elif name.startswith("verify."):
                add(f"{name}_ms", dur * ms)
                add("verify.checks", counters.get("checks", 0))
                add("verify.failed", counters.get("failed", 0))
            elif name == "quadrature":
                add("quadrature.ms", dur * ms)
                add("quadrature.rules_built", 1)
            elif name.startswith("excitation."):
                add(f"{name}_ms", dur * ms)
            elif name == "ode":
                add("ode.ms", dur * ms)
                for key in ("steps", "rejected", "rhs_evals"):
                    add(f"ode.{key}", counters.get(key, 0))
            elif name == "profiles.load":
                add("profiles.load_ms", dur * ms)
        for rec in hot:
            if rec["request"] == WARMUP:
                continue
            if rec["hot"] == "domains.poly_eval":
                add("domains.poly_evals", rec["calls"])
                add("domains.poly_eval_ms", rec["total"] * ms)
            elif rec["hot"] == "profiles.omega_sq":
                add("profiles.omega_sq_calls", rec["calls"])
                add("profiles.omega_sq_ms", rec["total"] * ms)
        add("probtable.bytes_out", sum(n for req, n in header.get("bytes_out", {}).items()
                                       if req != WARMUP))
    if m.get("ode.steps"):
        m["ode.us_per_step"] = m["ode.ms"] * 1e3 / m["ode.steps"]
    hooked = {}
    for module_name, path, name, _kind in HOOKS:
        present = f"{module_name}.{path}" not in absent_hooks
        hooked[_layer_of(name)] = hooked.get(_layer_of(name), False) or present
    absent = sorted(layer for layer, present in hooked.items() if not present)
    return m, absent, overlaps
