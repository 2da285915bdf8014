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
rejects a trial step (``dopri_step``). It does not shorten a step to reach a
sample time: a sample inside an accepted step is read from DOPRI5's free
fourth-order continuous extension (``dense_output``, Hairer, Norsett &
Wanner, Solving ODEs I, sec. II.6), as MATLAB's ode45 does, so a sample
carries an error of the order of the integration tolerance. It projects the
initial state, each accepted state and each interpolated sample, guards the
amplitude of each node, the last axis of the state (the graph's heights,
shape (m,), or the curve's (p, z2), shape (2, m)), builds the
``Trajectory`` of sampled states and records with the counts of its steps,
and turns a failure into an early end recorded on it. Every step
therefore starts from a projected state: a stage keeps each exact
symmetry its start state and the right-hand side both have, which both
right-hand sides use to halve their pair sums.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import (
    DegenerateParametrizationError,
    SelfIntersectionError,
    check_finite_fields,
    is_finite_number,
)

# accepted states deviating beyond this amplitude are treated as blown up
AMPLITUDE_GUARD = 1e6

# a step end or t0 this close to a sample time is taken as that sample
_SAMPLE_TOL = 1e-12


class BlowupError(RuntimeError):
    """A non-finite right-hand side, or an accepted state past AMPLITUDE_GUARD (``what``)."""

    def __init__(self, node: int, t: Optional[float] = None,
                 what: str = "non-finite right-hand side"):
        super().__init__(f"{what} at node {node}" + (f", t={t}" if t is not None else ""))
        self.node = node
        self.t = t


class StepFailureError(RuntimeError):
    """dt_min reached with error estimate above tolerance."""

    def __init__(self, t):
        super().__init__(f"step size underflow at t={t}")
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
# Shampine's coefficients of the continuous extension (Hairer's CONTD5)
_D = np.array([
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
])

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
        check_finite_fields(self, "t_end", "rel_tol", "abs_tol", "dt_init", "dt_min", "dt_max")
        if self.rel_tol < 1e-12 or self.abs_tol < 1e-12:
            raise ValueError("tolerances must be >= 1e-12")
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")


def dopri_step(f, t, y, dt, rel_tol, abs_tol, k1=None):
    """One trial Dormand-Prince step from (t, y) of size dt.

    Returns (y_new, err_norm, k) where err_norm <= 1 means the step is
    acceptable and k is the list of the seven stages, the last one the FSAL
    stage f(t+dt, y_new); ``dense_output`` reads the step from them.
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
    return y_new, err_norm, k


def dense_output(y, y_new, k, dt, theta):
    """The state at t + theta*dt, 0 <= theta <= 1, inside the step (t, y) -> y_new.

    DOPRI5's fourth-order continuous extension, built from the step's own
    stages k (``dopri_step``) with Shampine's coefficients, so it costs no
    right-hand side call; at theta = 0 it is y, at theta = 1 y_new up to roundoff.
    """
    # the coefficient arrays rcont2..rcont5 of Hairer's dopri5, in its order
    ydiff = y_new - y
    bspl = dt * k[0] - ydiff
    c4 = ydiff - dt * k[6] - bspl
    c5 = dt * sum(d * kj for d, kj in zip(_D, k))
    rest = 1.0 - theta
    return y + theta * (ydiff + rest * (bspl + theta * (c4 + rest * c5)))


def _step_factor(err_norm: float) -> float:
    if err_norm == 0.0:
        return MAX_FACTOR
    return min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * err_norm ** (-0.2)))


def _prepare_samples(t0: float, ip: IntegratorParams, sample_times) -> np.ndarray:
    """Sample times as an array, or ValueError unless finite, increasing within [t0, t_end]."""
    times = list(sample_times)
    # a NaN passes every comparison below, and a run would never reach it;
    # NumPy would read a boolean or a string as a time
    if not times or not all(map(is_finite_number, times)):
        raise ValueError("sample_times must be nonempty and finite numbers")
    ts = np.asarray(times, dtype=float)
    if np.any(np.diff(ts) <= 0):
        raise ValueError("sample_times must be strictly increasing")
    if ts[0] < t0 - _SAMPLE_TOL or ts[-1] > ip.t_end + _SAMPLE_TOL:
        raise ValueError("sample_times must lie within [initial.t, t_end]")
    return ts


@dataclass
class RunStats:
    """What ``integrate`` did: step and right-hand-side counts, accepted dt range.

    Deterministic: a rerun of the same run gives equal stats. A trial step
    that is not accepted (error norm > 1, a blown-up stage, or the step
    that fails at dt_min) counts as rejected; ``rhs_calls`` counts every
    evaluation of f, the ones that raised included. ``min_dt`` and
    ``max_dt`` are None until a step is accepted.
    """

    accepted_steps: int = 0
    rejected_steps: int = 0
    rhs_calls: int = 0
    min_dt: Optional[float] = None
    max_dt: Optional[float] = None


@dataclass
class Trajectory:
    """Time-ordered states and their diagnostics records.

    ``states`` holds GraphState or CurveState snapshots at the sample times;
    a failed run keeps everything recorded up to the failure time.
    ``stats`` counts the steps that produced them.
    """

    states: list = field(default_factory=list)
    records: list = field(default_factory=list)
    failed: bool = False
    failure_time: Optional[float] = None
    failure_message: Optional[str] = None
    stats: RunStats = field(default_factory=RunStats)


def integrate(
    f: Callable,
    t0: float,
    y0: np.ndarray,
    ip: IntegratorParams,
    sample_times,
    project: Callable,
    sample: Callable,
    on_sample: Optional[Callable] = None,
) -> Trajectory:
    """Integrate y' = f(t, y) from (t0, y0), sampling at each sample time.

    Each trial step is the proposed dt clamped to [dt_min, dt_max] and to
    the last sample time, so the run ends at a step end; it is not
    shortened to reach the samples before that. A trial step whose error
    norm is > 1 is rejected and retried from the same state with dt shrunk
    by ``_step_factor``; so is one whose stages raise BlowupError (an
    infinite error norm). A rejection at dt_min is a StepFailureError
    ("step size underflow"), or the BlowupError itself, and a BlowupError
    at the current state ends the run at once. An accepted step proposes
    the next dt from its error norm. The initial state and every accepted
    state are replaced by ``project(y)``, so the first sample and every
    step start from a projected state. The last axis of y is the node, so a
    node's deviation from the rest state is its largest |y| over the other
    axes (|h| for graph heights, max(|p|, |z2|) for a curve's (2, m)
    state); once the largest exceeds AMPLITUDE_GUARD the run blows up at
    that node, named in the message, with no sample taken inside that step.
    Then every sample time the step reached is sampled: one within
    _SAMPLE_TOL of the step end is that end state, bit for bit, and one
    inside the step is ``project`` of the step's ``dense_output``, a
    fourth-order interpolant, so it carries an error of the order of the
    integration tolerance. At each sample, ``sample(t, y)`` returns the
    (state, record) pair appended to the Trajectory, and
    ``on_sample(state, record)``, if given, is called with it (used for
    incremental output). A blowup, a step failure or a self-intersecting or
    degenerate curve (raised by ``sample``) ends the run early; the
    Trajectory records the last time reached (the sample's time when
    ``sample`` raised) and the error message. ``Trajectory.stats`` counts
    the run's steps and right-hand-side calls.
    """
    traj = Trajectory()
    stats = traj.stats

    def rhs(t, y):
        stats.rhs_calls += 1
        return f(t, y)

    def take_sample(t, y):
        state, record = sample(t, y)
        traj.states.append(state)
        traj.records.append(record)
        if on_sample is not None:
            on_sample(state, record)

    ts = _prepare_samples(t0, ip, sample_times)
    t = t0
    y = project(y0)
    t_last, idx = float(ts[-1]), 0
    if abs(ts[0] - t) <= _SAMPLE_TOL:
        take_sample(t, y)
        idx = 1
    dt = ip.dt_init
    k1 = None
    try:
        while idx < ts.size:
            if k1 is None:
                k1 = rhs(t, y)
            dt_try = min(max(dt, ip.dt_min), ip.dt_max, t_last - t)
            blowup = None
            try:
                y_new, err_norm, k = dopri_step(
                    rhs, t, y, dt_try, ip.rel_tol, ip.abs_tol, k1=k1
                )
            except BlowupError as exc:
                blowup, err_norm = exc, np.inf
            dt = dt_try * _step_factor(err_norm)  # clamped as the next trial starts
            if not err_norm <= 1.0:  # a NaN norm is rejected too
                stats.rejected_steps += 1
                if dt_try <= ip.dt_min:
                    raise blowup or StepFailureError(t)
                continue  # retry from the same state; k1 = f(t, y) stays valid
            stats.accepted_steps += 1
            stats.min_dt = dt_try if stats.min_dt is None else min(stats.min_dt, dt_try)
            stats.max_dt = dt_try if stats.max_dt is None else max(stats.max_dt, dt_try)
            # k[6] is f at the unprojected y_new; the projection moves that
            # state only at roundoff, so it still serves as the next k1 (FSAL)
            t_start, y_start = t, y
            t, k1 = t + dt_try, k[6]
            y = project(y_new)
            deviation = np.abs(y).reshape(-1, y.shape[-1]).max(axis=0)
            if np.max(deviation) > AMPLITUDE_GUARD:
                raise BlowupError(int(np.argmax(deviation)), t,
                                  f"amplitude past AMPLITUDE_GUARD = {AMPLITUDE_GUARD:g}")
            while idx < ts.size and ts[idx] <= t + _SAMPLE_TOL:
                if ts[idx] >= t - _SAMPLE_TOL:
                    take_sample(ts[idx], y)
                else:
                    theta = (ts[idx] - t_start) / dt_try
                    take_sample(ts[idx], project(dense_output(y_start, y_new, k, dt_try, theta)))
                idx += 1
    except (BlowupError, StepFailureError) as exc:
        traj.failed, traj.failure_time, traj.failure_message = True, t, str(exc)
    except (SelfIntersectionError, DegenerateParametrizationError) as exc:
        # raised by ``sample`` at the sample time ts[idx]
        traj.failed, traj.failure_time, traj.failure_message = True, ts[idx], str(exc)
    return traj
