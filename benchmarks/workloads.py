"""Seeded request rounds for the three workloads.

A run executes whole rounds.  Every round of a workload holds the same
multiset of request shapes (command, family or profile kind, size, format);
only the parameters and the order are drawn from the seed.  Parameters are
stratified over their full ranges within each size class (a Latin
hypercube: one draw per stratum, strata paired at random), so each class
sees its whole parameter range, and the latency quantiles, failure counts
and throughput of a round do not hinge on a few lucky draws.  The ranges
keep the known defects of the program in the draws (forced float tables
above nu ~ 8, exact-mode drift and negative probabilities at the larger
sizes, singular tables at high rho and low j).
"""

from __future__ import annotations

import math
import random

import numpy as np

FAMILIES = ("forced", "parametric", "singular")

# tables: per family, table size -> count in a round (111 requests).  The
# tail percentile (p95 over two rounds) falls in the middle of the eight
# singular M = 128 requests, whose cost depends on rho and j, not at an
# edge of that group.
TABLE_SIZES = {16: 20, 32: 8, 64: 4, 128: 4, 256: 1}
NU_RANGE = (0.0, 10.0)
RHO_RANGE = (0.0, 0.99)
J_RANGE = (-3.0, -0.25)

# exact: one `verify --suite all` plus exact JSON tables (20 requests).
# Sizes come in classes; nu or rho is stratified over its full range
# within each class.
EXACT_FORCED_SIZES = ((4, 6, 8, 10), (12, 14, 16, 18), (20, 22, 24))
EXACT_PARAM_SIZES = ((4, 8, 12, 16), (20, 24, 28, 32))

# excite: profile kind -> count in a round (178 requests).  The closed-form
# kinds cost under a millisecond and make up 72% of a round, so the median
# sits well inside them.  The tail percentile (p90) sits among the tanh
# ramps, the costliest group besides the tabulated ramps; their cost grows
# with T, so T is stratified over 32 strata in one round.
EXCITE_KINDS = {
    "gaussian": 32,
    "rectangular": 32,
    "damped_cosine": 32,
    "sudden_step": 32,
    "tabulated_force": 16,
    "tanh_ramp": 32,
    "tabulated_frequency": 2,
}

# rounds a run executes at least, whatever --seconds says.  Two rounds of
# tables give the p95 eleven samples beyond it; one round of excite gives
# the p90 seventeen.  Each workload's MIN_ROUNDS last longer than
# BENCHMARK.json's run_seconds (tables ~40 s, exact ~25 s, excite ~21 s on
# a 2-core VM), so every run does the same work.
MIN_ROUNDS = {"tables": 2, "exact": 1, "excite": 1}

# fixed correctness tolerances, on |got - ref| / max(1, |ref|)
TABLE_TOL = 1e-10
EXCITE_TOL = 1e-8
TABULATED_TOL = 1e-4  # spline interpolation of sampled profiles

# one cheap request per workload, used to time worker start-up
SETUP_PROBES = {
    "tables": {"args": ["table", "forced", "--nu", "1.0", "--max", "16"]},
    "exact": {"args": ["table", "parametric", "--rho", "0.5", "--max", "8",
                       "--mode", "exact", "--format", "json"]},
    "excite": {"args": ["excite", "--what", "nu", "--omega", "1.0"],
               "profile": {"kind": "gaussian", "f0": 1.0, "tau": 1.0, "t0": 0.0}},
}


def _draws(rng: random.Random, n: int, lo: float, hi: float,
           log: bool = False) -> list[float]:
    """One draw from each of n equal strata of [lo, hi], in an order drawn
    from ``rng``; zipping several such lists pairs their strata at random."""
    order = list(range(n))
    rng.shuffle(order)
    if log:
        lo, hi = math.log(lo), math.log(hi)
    vals = [lo + (hi - lo) * (k + rng.random()) / n for k in order]
    return [math.exp(v) for v in vals] if log else vals


def _samples(rng: random.Random, size: int) -> list[list[int]]:
    """Entries checked against the reference: all of row 0, one entry far
    off the diagonal and six random ones."""
    out = [[0, n] for n in range(size)]
    out.append([size - 1, rng.randrange(max(1, size // 4))])
    out += [[rng.randrange(size), rng.randrange(size)] for _ in range(6)]
    return out


def _table_request(rng, family, size, params, mode, fmt):
    args = ["table", family, "--max", str(size), "--mode", mode, "--format", fmt]
    for key, val in params.items():
        args += [f"--{key}", repr(val)]
    return {
        "kind": "table", "group": family, "cost": size, "family": family,
        "size": size, "mode": mode, "format": fmt, "params": params,
        "samples": _samples(rng, size), "args": args,
    }


def _tables_round(rng):
    reqs = []
    for family in FAMILIES:
        for size, count in TABLE_SIZES.items():
            draws = zip(_draws(rng, count, *NU_RANGE), _draws(rng, count, *RHO_RANGE),
                        _draws(rng, count, *J_RANGE))
            for nu, rho, j in draws:
                if family == "forced":
                    params = {"nu": nu}
                elif family == "parametric":
                    params = {"rho": rho}
                else:
                    params = {"rho": rho, "j": j}
                fmt = "csv" if (len(reqs) % 2 == 0) else "json"
                reqs.append(_table_request(rng, family, size, params, "float", fmt))
    return reqs


def _exact_round(rng):
    reqs = [{"kind": "verify", "group": "verify", "cost": 0,
             "args": ["verify", "--suite", "all"]}]
    for sizes in EXACT_FORCED_SIZES:
        for size, nu in zip(sizes, _draws(rng, len(sizes), *NU_RANGE)):
            reqs.append(_table_request(rng, "forced", size, {"nu": nu}, "exact", "json"))
    for sizes in EXACT_PARAM_SIZES:
        for size, rho in zip(sizes, _draws(rng, len(sizes), *RHO_RANGE)):
            reqs.append(_table_request(rng, "parametric", size, {"rho": rho}, "exact", "json"))
    return reqs


def _excite_request(kind, profile, source, omega, cost, tol):
    what = "nu" if omega is not None else "rho"
    args = ["excite", "--what", what]
    if omega is not None:
        args += ["--omega", repr(omega)]
    return {"kind": "excite", "group": kind, "cost": cost, "profile": profile,
            "source": source, "omega": omega, "what": what, "tol": tol, "args": args}


def _excite_round(rng):
    reqs = []
    n = EXCITE_KINDS

    def force(kind):
        omegas = _draws(rng, n[kind], 0.5, 2.0)
        f0s = _draws(rng, n[kind], 0.5, 2.0)
        return zip(omegas, f0s)

    for (omega, f0), tau in zip(force("gaussian"),
                                _draws(rng, n["gaussian"], 0.3, 2.0)):
        spec = {"kind": "gaussian", "f0": f0, "tau": tau, "t0": rng.uniform(-2, 2)}
        reqs.append(_excite_request("gaussian", spec, spec, omega, 0, EXCITE_TOL))
    for (omega, f0), width in zip(force("rectangular"),
                                  _draws(rng, n["rectangular"], 0.5, 8.0)):
        t_on = rng.uniform(-3, 3)
        spec = {"kind": "rectangular", "f0": f0, "t_on": t_on, "t_off": t_on + width}
        reqs.append(_excite_request("rectangular", spec, spec, omega, 0, EXCITE_TOL))
    for (omega, f0), gamma, omega_d in zip(
            force("damped_cosine"),
            _draws(rng, n["damped_cosine"], 0.3, 2.0),
            _draws(rng, n["damped_cosine"], 0.5, 3.0)):
        spec = {"kind": "damped_cosine", "f0": f0, "gamma": gamma, "omega_d": omega_d}
        reqs.append(_excite_request("damped_cosine", spec, spec, omega, 0, EXCITE_TOL))
    kind = "tabulated_force"
    for (omega, f0), tau, count in zip(
            force(kind), _draws(rng, n[kind], 0.5, 2.0),
            _draws(rng, n[kind], 100, 4000, log=True)):
        count, t0 = int(count), rng.uniform(-2, 2)
        ts = np.linspace(t0 - 8 * tau, t0 + 8 * tau, count)
        vals = f0 * np.exp(-(((ts - t0) / tau) ** 2))
        source = {"kind": "gaussian", "f0": f0, "tau": tau, "t0": t0}
        profile = {"kind": "tabulated", "profile": "force",
                   "times": ts.tolist(), "values": vals.tolist()}
        reqs.append(_excite_request(kind, profile, source, omega, count, TABULATED_TOL))
    kind = "sudden_step"
    for wm, wp in zip(_draws(rng, n[kind], 0.5, 3.0),
                      _draws(rng, n[kind], 0.5, 3.0)):
        spec = {"kind": kind, "omega_minus": wm, "omega_plus": wp, "t_jump": rng.uniform(-2, 2)}
        reqs.append(_excite_request(kind, spec, spec, None, 0, EXCITE_TOL))
    kind = "tanh_ramp"
    for i, (T, low, high) in enumerate(zip(
            _draws(rng, n[kind], 0.1, 15.0, log=True),
            _draws(rng, n[kind], 0.8, 1.2),
            _draws(rng, n[kind], 3.0, 4.0))):
        w2m, w2p = (low, high) if i % 2 == 0 else (high, low)  # ramps up and down
        spec = {"kind": kind, "omega2_minus": w2m, "omega2_plus": w2p, "T": T}
        reqs.append(_excite_request(kind, spec, spec, None, T, EXCITE_TOL))
    kind = "tabulated_frequency"
    for count, T, w2m, w2p in zip(_draws(rng, n[kind], 200, 800),
                                  _draws(rng, n[kind], 0.9, 1.1),
                                  _draws(rng, n[kind], 0.9, 1.1),
                                  _draws(rng, n[kind], 3.8, 4.2)):
        count = int(count)
        ts = np.linspace(-12 * T, 12 * T, count)
        w2 = w2m + (w2p - w2m) * (1.0 + np.tanh(ts / T)) / 2.0
        source = {"kind": "tanh_ramp", "omega2_minus": w2m, "omega2_plus": w2p, "T": T}
        profile = {"kind": "tabulated", "profile": "frequency",
                   "times": ts.tolist(), "values": np.sqrt(w2).tolist()}
        reqs.append(_excite_request(kind, profile, source, None, count, TABULATED_TOL))
    return reqs


_ROUNDS = {"tables": _tables_round, "exact": _exact_round, "excite": _excite_round}
WORKLOADS = tuple(_ROUNDS)


def make_round(workload: str, seed: int, index: int) -> list[dict]:
    """Round ``index`` of ``workload`` for ``seed``: same seed, same requests."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    reqs = _ROUNDS[workload](rng)
    rng.shuffle(reqs)
    for i, req in enumerate(reqs):
        req["id"] = f"r{index}.{i}"
    return reqs
