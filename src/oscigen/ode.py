"""Adaptive integration of small complex systems on scipy's DOP853.

Used by the excitation module to propagate the classical oscillator
equation xi'' + omega^2(t) xi = 0 between its asymptotic regions.  DOP853
is the explicit Runge-Kutta pair of order 8 with embedded 5th- and
3rd-order error estimates (Hairer, Norsett & Wanner, Solving ODEs I,
sec. II.10).  The complex state is integrated as its real and imaginary
parts, one solver per checkpoint segment, so every checkpoint is hit
exactly.  scipy is imported on first use, which keeps it off the
``import oscigen`` path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError

__all__ = ["IntegratorStats", "integrate_path"]

# DOP853 evaluates the right-hand side twice on start-up (derivative and
# initial step selection) and 12 times per attempted step (11 stages plus
# the derivative at the new point)
_START_EVALS = 2
_STEP_EVALS = 12


@dataclass
class IntegratorStats:
    steps: int = 0
    rejected: int = 0
    rhs_evals: int = 0


def integrate_path(f, t0: float, checkpoints, y0: np.ndarray, rtol: float,
                   atol: float, max_steps: int = 2_000_000):
    """Integrate y' = f(t, y) from t0 through increasing checkpoint times.

    ``f`` returns a new complex array on every call; it reaches the solver
    as a float view, not as a copy.  Returns (list of states at the
    checkpoints, stats).  ``steps`` counts accepted steps, ``rejected``
    the attempts beyond them and ``rhs_evals`` the calls of ``f``; accepted
    plus rejected steps may not exceed ``max_steps``.
    """
    from scipy.integrate import DOP853

    if len(checkpoints) == 0:
        raise ValueError("need at least one checkpoint")

    # the real state interleaves real and imaginary parts, so it and the
    # complex state are views of each other
    def fun(t, z):
        return np.asarray(f(t, z.view(complex)), dtype=complex).view(float)

    t = float(t0)
    z = np.array(y0, dtype=complex).view(float)
    stats = IntegratorStats()
    out = []
    for t_target in checkpoints:
        if t_target < t - 1e-12:
            raise ValueError("checkpoints must not decrease")
        if t_target > t + 1e-12:
            solver = DOP853(fun, t, z, float(t_target), rtol=rtol, atol=atol)
            accepted = 0
            while solver.status == "running":
                attempts = (solver.nfev - _START_EVALS) // _STEP_EVALS
                if stats.steps + stats.rejected + attempts > max_steps:
                    raise IntegrationError("step budget exhausted")
                solver.step()
                accepted += 1
            if solver.status == "failed":
                raise IntegrationError(f"step size underflow near t = {solver.t}")
            stats.steps += accepted
            stats.rejected += (solver.nfev - _START_EVALS) // _STEP_EVALS - accepted
            stats.rhs_evals += solver.nfev
            t, z = solver.t, solver.y
        out.append(z.view(complex).copy())
    return out, stats
