"""Adaptive embedded Runge-Kutta time stepping (Dormand-Prince 4(5) pair).

The tableau is the seven-stage DOPRI5 pair behind MATLAB's ode45: the fifth
order solution is propagated, the embedded fourth-order solution provides the
local error estimate, and the last stage equals the first stage of the next
step (FSAL). Step control is plain proportional,

    dt_new = dt * min(5, max(0.2, 0.9 * err_norm**(-1/5))),

with the error normalized componentwise by abs_tol + rel_tol * |y| and a step
accepted when the norm is <= 1.

``integrate`` is the one stepping driver behind both the graph scheme and the
parametric contour dynamics, and its loop is the only place that accepts or
rejects a trial step (``dopri_step``): it lands on the sample times, projects
the initial and each accepted state, guards its amplitude, builds the
``Trajectory`` of sampled states and records, and turns a failure into an
early end recorded on it. Every step therefore starts from a projected state:
a stage keeps each exact symmetry its start state and the right-hand side
both have, which both right-hand sides use to halve their pair sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import DegenerateParametrizationError, SelfIntersectionError

# accepted states deviating beyond this amplitude are treated as blown up
AMPLITUDE_GUARD = 1e6

# a step end or t0 this close to a sample time is taken as that sample
_SAMPLE_TOL = 1e-12


class BlowupError(RuntimeError):
    """Non-finite value produced by the right-hand side."""

    def __init__(self, node: int, t: Optional[float] = None):
        super().__init__(f"non-finite right-hand side at node {node}" +
                         (f", t={t}" if t is not None else ""))
        self.node = node
        self.t = t


class StepFailureError(RuntimeError):
    """dt_min reached with error estimate above tolerance."""

    def __init__(self, t, message="step size underflow"):
        super().__init__(f"{message} at t={t}")
        self.t = t


# Dormand-Prince coefficients
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# b5 - b4, applied to the stages to get the embedded error
_E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)

MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
SAFETY = 0.9


@dataclass
class IntegratorParams:
    """Tolerances, step bounds and horizon for the adaptive integrator."""

    t_end: float
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 0.1

    def __post_init__(self):
        if self.rel_tol < 1e-12 or self.abs_tol < 1e-12:
            raise ValueError("tolerances must be >= 1e-12")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")


def dopri_step(f, t, y, dt, rel_tol, abs_tol, k1=None):
    """One trial Dormand-Prince step from (t, y) of size dt.

    Returns (y_new, err_norm, k_first_next) where err_norm <= 1 means the
    step is acceptable and k_first_next is the FSAL stage f(t+dt, y_new).
    """
    k = [None] * 7
    k[0] = f(t, y) if k1 is None else k1
    for i in range(1, 6):
        yi = y + dt * sum(a * kj for a, kj in zip(_A[i], k[:i]))
        k[i] = f(t + _C[i] * dt, yi)
    y_new = y + dt * sum(b * kj for b, kj in zip(_B5[:6], k[:6]))
    k[6] = f(t + dt, y_new)
    err = dt * sum(e * kj for e, kj in zip(_E, k))
    scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    err_norm = float(np.max(np.abs(err) / scale))
    return y_new, err_norm, k[6]


def _step_factor(err_norm: float) -> float:
    if err_norm == 0.0:
        return MAX_FACTOR
    return min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * err_norm ** (-0.2)))


def _prepare_samples(t0: float, ip: IntegratorParams, sample_times) -> np.ndarray:
    """Sample times as an array, or ValueError unless increasing within [t0, t_end]."""
    ts = np.asarray(list(sample_times), dtype=float)
    if ts.size == 0:
        raise ValueError("sample_times must be nonempty")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    if ts[0] < t0 - _SAMPLE_TOL or ts[-1] > ip.t_end + _SAMPLE_TOL:
        raise ValueError("sample_times must lie within [initial.t, t_end]")
    return ts


@dataclass
class Trajectory:
    """Time-ordered states and their diagnostics records.

    ``states`` holds GraphState or CurveState snapshots at the sample times;
    a failed run keeps everything recorded up to the failure time.
    """

    states: list = field(default_factory=list)
    records: list = field(default_factory=list)
    failed: bool = False
    failure_time: Optional[float] = None
    failure_message: Optional[str] = None


def integrate(
    f: Callable,
    t0: float,
    y0: np.ndarray,
    ip: IntegratorParams,
    sample_times,
    project: Callable,
    guard: Callable,
    sample: Callable,
    on_sample: Optional[Callable] = None,
) -> Trajectory:
    """Integrate y' = f(t, y) from (t0, y0), stopping exactly at each sample time.

    Each trial step is the proposed dt clamped to [dt_min, dt_max] and
    shortened to land on the next sample time, so samples are step
    endpoints, not interpolants. A trial step whose error norm is > 1 is
    rejected and retried from the same state with dt shrunk by
    ``_step_factor``; so is one whose stages raise BlowupError (an infinite
    error norm). A rejection at dt_min is a StepFailureError ("step size
    underflow"), or the BlowupError itself, and a BlowupError at the current
    state ends the run at once. An accepted step proposes the next dt from
    its error norm. At each sample, ``sample(t, y)`` returns
    the (state, record) pair appended to the Trajectory, and
    ``on_sample(state, record)``, if given, is called with it (used for
    incremental output). The initial state and every accepted state are
    replaced by ``project(y)``, so the first sample and every step start
    from a projected state.
    ``guard(y)`` gives each node's deviation from the rest state; once the
    largest exceeds AMPLITUDE_GUARD the run blows up at that node. A blowup,
    a step failure or a self-intersecting or degenerate curve (raised by
    ``sample``) ends the run early; the Trajectory records the last time
    reached and the error message.
    """
    traj = Trajectory()

    def take_sample(t, y):
        state, record = sample(t, y)
        traj.states.append(state)
        traj.records.append(record)
        if on_sample is not None:
            on_sample(state, record)

    ts = _prepare_samples(t0, ip, sample_times)
    t = t0
    y = project(y0)
    idx = 0
    if abs(ts[0] - t) <= _SAMPLE_TOL:
        take_sample(t, y)
        idx = 1
    dt = ip.dt_init
    k1 = None
    try:
        while idx < ts.size:
            target = ts[idx]
            if k1 is None:
                k1 = f(t, y)
            dt_try = min(max(dt, ip.dt_min), ip.dt_max, target - t)
            try:
                y_new, err_norm, k_last = dopri_step(
                    f, t, y, dt_try, ip.rel_tol, ip.abs_tol, k1=k1
                )
            except BlowupError:
                if dt_try <= ip.dt_min:
                    raise
                err_norm = np.inf
            dt = dt_try * _step_factor(err_norm)  # clamped as the next trial starts
            if not err_norm <= 1.0:  # a NaN norm is rejected too
                if dt_try <= ip.dt_min:
                    raise StepFailureError(t)
                continue  # retry from the same state; k1 = f(t, y) stays valid
            # k_last is f at the unprojected y_new; the projection moves that
            # state only at roundoff, so it still serves as the next k1 (FSAL)
            t, k1 = t + dt_try, k_last
            y = project(y_new)
            deviation = guard(y)
            if np.max(deviation) > AMPLITUDE_GUARD:
                raise BlowupError(int(np.argmax(deviation)), t)
            if abs(t - target) <= _SAMPLE_TOL:
                t = target
                take_sample(t, y)
                idx += 1
    except (BlowupError, StepFailureError, SelfIntersectionError,
            DegenerateParametrizationError) as exc:
        traj.failed = True
        traj.failure_time = t
        traj.failure_message = str(exc)
    return traj
