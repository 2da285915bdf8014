import numpy as np
import pytest

import stokescontour as sc
from stokescontour import evolution_graph
from stokescontour.integrators import (
    BlowupError,
    StepFailureError,
    advance,
    dopri_step,
    integrate,
)

from conftest import make_integrator


def test_params_validation():
    with pytest.raises(ValueError):
        sc.IntegratorParams(t_end=1.0, rel_tol=1e-13)
    with pytest.raises(ValueError):
        sc.IntegratorParams(t_end=1.0, dt_init=1e-3, dt_min=1e-2)
    with pytest.raises(ValueError):
        sc.IntegratorParams(t_end=1.0, dt_init=1.0, dt_max=0.5)


def test_fifth_order_on_exponential():
    f = lambda t, y: -y
    y0 = np.array([1.0])
    errs = []
    for dt in (0.1, 0.05):
        y1, _, _ = dopri_step(f, 0.0, y0, dt, 1e-12, 1e-12)
        errs.append(abs(y1[0] - np.exp(-dt)))
    assert errs[0] <= 5e-10
    # local error is O(dt^6): halving dt shrinks it by about 64
    assert 40 <= errs[0] / errs[1] <= 90


def test_error_norm_semantics():
    f = lambda t, y: -y
    y0 = np.array([1.0])
    _, err, _ = dopri_step(f, 0.0, y0, 0.05, 1e-6, 1e-9)
    assert err <= 1.0  # an easy step is acceptable
    _, err_big, _ = dopri_step(f, 0.0, y0, 3.0, 1e-12, 1e-14)
    assert err_big > 1.0


def test_advance_grows_dt_on_trivial_field():
    f = lambda t, y: np.zeros_like(y)
    ip = make_integrator(t_end=10.0, dt_init=1e-3, dt_max=0.5)
    t, y, dt_used, err, dt_next, _ = advance(f, 0.0, np.ones(4), ip.dt_init, ip)
    assert err == 0.0
    assert dt_next == pytest.approx(min(5 * dt_used, ip.dt_max))


def test_advance_respects_cap():
    f = lambda t, y: -y
    ip = make_integrator(t_end=1.0, dt_init=0.01, dt_max=0.5)
    t, *_ = advance(f, 0.0, np.ones(2), 0.01, ip, dt_cap=0.003)
    assert t == pytest.approx(0.003)


def test_step_failure_at_dt_min():
    f = lambda t, y: -1e8 * y
    ip = sc.IntegratorParams(
        t_end=1.0, rel_tol=1e-10, abs_tol=1e-12, dt_init=0.5, dt_min=0.5, dt_max=0.5
    )
    with pytest.raises(StepFailureError):
        advance(f, 0.0, np.ones(3), 0.5, ip)


def test_recoverable_blowup_is_rejected_not_fatal():
    calls = {"n": 0}

    def f(t, y):
        calls["n"] += 1
        if t > 0.0 and calls["n"] < 12:
            raise BlowupError(0, t)  # any stage away from the current state explodes
        return -y

    ip = make_integrator(t_end=1.0, dt_init=0.2, dt_max=0.2)
    t, y, dt_used, *_ = advance(f, 0.0, np.ones(1), 0.2, ip)
    assert t == pytest.approx(dt_used)
    assert dt_used < 0.2  # had to shrink past the failing trials


def test_first_sample_just_before_t0_is_the_initial_state():
    # accepted as in range, so taken at t0 without a backward step
    y0 = np.array([1.0, -2.0])
    ip = make_integrator(t_end=0.1, dt_max=0.05)
    traj = integrate(lambda t, y: -y, 0.0, y0, ip, [-5e-13, 0.1], lambda y: y,
                     np.abs, lambda t, y: ((t, y.copy()), t))
    samples = traj.states
    assert not traj.failed and traj.records == [0.0, 0.1]
    assert samples[0][0] == 0.0 and np.array_equal(samples[0][1], y0)
    assert [s[0] for s in samples] == [0.0, 0.1]


def test_first_step_starts_from_the_projected_initial_state():
    # y0 is projected before the first sample and the first right-hand side
    y0 = np.array([1.0, 2.0, -0.5, 3.0])

    def project(y):
        return 0.5 * (y - y[::-1])

    seen = []

    def f(t, y):
        seen.append(y.copy())
        return -y

    ip = make_integrator(t_end=0.1, dt_max=0.05)
    traj = integrate(f, 0.0, y0, ip, [0.0, 0.1], project, np.abs,
                     lambda t, y: ((t, y.copy()), t))
    assert not traj.failed
    assert np.array_equal(seen[0], project(y0))
    assert np.array_equal(traj.states[0][1], project(y0))


def test_graph_run_right_hand_side_sees_antiperiodic_states(monkeypatch):
    # preset_f2 carries both symmetries, which together give
    # h(alpha + pi) = -h(alpha); once y0 is projected, every stage state of
    # every step has it exactly, so each call takes the half pair sum
    m = 64
    h = sc.preset_f2(m)
    assert not np.array_equal(h[m // 2 :], -h[: m // 2])
    exact = []
    rhs = evolution_graph._rhs_arrays

    def traced(y, params):
        exact.append(np.array_equal(y[m // 2 :], -y[: m // 2]))
        return rhs(y, params)

    monkeypatch.setattr(evolution_graph, "_rhs_arrays", traced)
    params = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m)
    traj = sc.evolve(sc.GraphState(0.0, sc.GraphInterface(h=h)), params,
                     make_integrator(t_end=0.02, dt_max=0.01), [0.0, 0.02])
    assert not traj.failed
    assert len(exact) > 7 and all(exact)
