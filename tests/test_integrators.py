import warnings

import numpy as np
import pytest

import stokescontour as sc
from stokescontour import evolution_curve, evolution_graph
from stokescontour.cli import fourier_heights
from stokescontour.geometry import (
    SelfIntersectionError,
    exact_symmetries,
    graph_to_curve,
    symmetry_projection,
)
from stokescontour.integrators import (
    AMPLITUDE_GUARD,
    BlowupError,
    StepFailureError,
    _step_factor,
    dense_output,
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


def test_dense_output_is_fourth_order_on_exponential():
    # the continuous extension's local error is O(dt^5), so on y' = -y it
    # falls by at least 2^4 each time dt halves, at every point of the step
    f = lambda t, y: -y
    y0 = np.array([1.0])
    thetas = (0.1, 0.3, 0.5, 0.7, 0.9)
    errs = []
    for dt in (0.4, 0.2, 0.1, 0.05):
        y1, _, k = dopri_step(f, 0.0, y0, dt, 1e-6, 1e-9)
        errs.append([abs(dense_output(y0, y1, k, dt, th)[0] - np.exp(-th * dt))
                     for th in thetas])
    errs = np.array(errs)
    assert np.all(errs[:-1] / errs[1:] >= 2**4)
    # and it starts at the step's start state
    assert np.array_equal(dense_output(y0, y1, k, 0.05, 0.0), y0)


def reversal_odd(y):
    """y projected onto y[::-1] = -y, which -c(t) y keeps exactly."""
    return 0.5 * (y - y[::-1])


def run(f, ip, sample_times, y0=np.ones(2)):
    """integrate with (t, y) samples."""
    return integrate(f, 0.0, y0, ip, sample_times, lambda t, y: ((t, y.copy()), t))


def test_advance_grows_dt_on_trivial_field():
    # on a zero field every error norm is 0, so dt grows by MAX_FACTOR = 5
    # per step up to dt_max; the last stage of each step is at its end time
    times = []

    def f(t, y):
        times.append(t)
        return np.zeros_like(y)

    ip = make_integrator(t_end=1.0, dt_init=1e-3, dt_max=0.5)
    traj = run(f, ip, [0.0, 1.0])
    assert not traj.failed and traj.records == [0.0, 1.0]
    ends = np.array([0.0] + times[6::6])  # times[0] is the first stage f(0, y0)
    assert len(times) == 1 + 6 * (len(ends) - 1)
    dts = np.diff(ends)
    assert dts[:4] == pytest.approx([1e-3, 5e-3, 2.5e-2, 0.125], rel=1e-12)
    assert dts[4] == 0.5  # clamped at dt_max
    assert ends[-1] == pytest.approx(1.0)  # the last step is capped at the sample


def test_advance_respects_cap():
    # a step is not shortened to reach a sample: the first step is dt_init,
    # and the 0.003 sample inside it is read from the continuous extension
    times = []

    def f(t, y):
        times.append(t)
        return -y

    ip = make_integrator(t_end=1.0, dt_init=0.01, dt_max=0.5)
    traj = run(f, ip, [0.0, 0.003, 1.0])
    assert not traj.failed
    assert times[6] == 0.01  # the first step ends at dt_init, past the sample
    assert traj.records == [0.0, 0.003, 1.0]
    # a fourth-order interpolant errs by O(dt^5), here with a constant under 1e-3
    assert np.max(np.abs(traj.states[1][1] - np.exp(-0.003))) <= 1e-3 * 0.01**5


def test_step_failure_at_dt_min():
    f = lambda t, y: -1e8 * y
    ip = sc.IntegratorParams(
        t_end=1.0, rel_tol=1e-10, abs_tol=1e-12, dt_init=0.5, dt_min=0.5, dt_max=0.5
    )
    traj = run(f, ip, [0.0, 1.0], y0=np.ones(3))
    assert traj.failed and traj.failure_time == 0.0
    assert "step size underflow" in traj.failure_message
    assert traj.records == [0.0]  # the run ended at the first step


def test_recoverable_blowup_is_rejected_not_fatal():
    calls = {"n": 0}
    times = []

    def f(t, y):
        calls["n"] += 1
        times.append(t)
        if t > 0.0 and calls["n"] < 12:
            raise BlowupError(0, t)  # any stage away from the current state explodes
        return -y

    ip = make_integrator(t_end=1.0, dt_init=0.2, dt_max=0.2)
    traj = run(f, ip, [0.0, 1.0], y0=np.ones(1))
    assert not traj.failed and traj.records == [0.0, 1.0]
    # calls 2-11 are the first stages of ten blown-up trials, each an
    # infinite error norm that shrinks dt by MIN_FACTOR = 0.2; the eleventh
    # trial is accepted and its last stage (call 17) is at its end time
    assert times[1:11] == pytest.approx([0.2 * 0.2**i / 5 for i in range(10)], rel=1e-12)
    assert times[16] == pytest.approx(0.2 * 0.2**10, rel=1e-12)


def test_blowup_at_the_current_state_ends_the_run():
    def f(t, y):
        raise BlowupError(1, t)

    traj = run(f, make_integrator(t_end=1.0), [0.0, 1.0])
    assert traj.failed and traj.failure_time == 0.0
    assert traj.failure_message == "non-finite right-hand side at node 1, t=0.0"
    assert traj.records == [0.0]


def test_blowup_persisting_at_dt_min_ends_the_run():
    def f(t, y):
        if t > 0.0:
            raise BlowupError(0, t)
        return -y

    traj = run(f, make_integrator(t_end=1.0), [0.0, 1.0])
    assert traj.failed and traj.failure_time == 0.0
    assert traj.failure_message.startswith("non-finite right-hand side at node 0")


def reference_integrate(f, y0, ip, sample_times):
    """The stepping loop with accept/reject in a separate retry function.

    A second, independent statement of the step control on top of
    ``dopri_step``: each accepted step retries from the same state with dt
    shrunk after a rejection (error norm > 1 or a BlowupError on a trial
    stage), raises StepFailureError at dt_min and proposes the next dt
    clamped to [dt_min, dt_max]; only the last sample time caps a step. A
    sample inside a step is the ``dense_output`` of that step, one within
    1e-12 of a step end the end state; no state is projected. Returns the
    (t, y) samples, the failure message (or None) and counts of the step
    events.
    """
    events = {"accepted": 0, "rejected": 0, "blown_up": 0, "interpolated": 0}

    def accepted_step(t, y, dt, k1, dt_cap):
        dt = min(max(dt, ip.dt_min), ip.dt_max)
        while True:
            dt_try = min(dt, dt_cap)
            try:
                y_new, err, k = dopri_step(f, t, y, dt_try, ip.rel_tol, ip.abs_tol, k1=k1)
            except BlowupError:
                if dt_try <= ip.dt_min:
                    raise
                events["blown_up"] += 1
                err = np.inf
            if err <= 1.0:
                events["accepted"] += 1
                dt_next = min(max(dt_try * _step_factor(err), ip.dt_min), ip.dt_max)
                return dt_try, y_new, k, dt_next
            if dt_try <= ip.dt_min:
                raise StepFailureError(t)
            events["rejected"] += 1
            dt = max(dt_try * _step_factor(err), ip.dt_min)

    t, y, dt = 0.0, y0, ip.dt_init
    samples = [(t, y.copy())]
    pending = list(sample_times[1:])
    try:
        k1 = f(t, y)
        while pending:
            h, y_new, k, dt = accepted_step(t, y, dt, k1, sample_times[-1] - t)
            t_start, y_start = t, y
            t, y, k1 = t + h, y_new, k[6]
            while pending and pending[0] <= t + 1e-12:
                target = pending.pop(0)
                if target >= t - 1e-12:
                    samples.append((target, y.copy()))
                else:
                    events["interpolated"] += 1
                    y_mid = dense_output(y_start, y_new, k, h, (target - t_start) / h)
                    samples.append((target, y_mid))
    except (BlowupError, StepFailureError) as exc:
        return samples, str(exc), events
    return samples, None, events


@pytest.mark.parametrize("rel_tol, dt_min", [(1e-8, 1e-12), (1e-12, 1e-3)],
                         ids=["completes", "step_failure"])
def test_integrate_matches_a_reference_retry_loop_bitwise(rel_tol, dt_min):
    # rejections, interpolated samples and blown-up trial stages, all on one
    # run from a state odd under reversal, which f keeps exactly
    def f(t, y):
        calls.append((t, y.copy()))
        if np.max(np.abs(y)) > 2.0:
            raise BlowupError(int(np.argmax(np.abs(y))), t)
        return -12.0 * (1.0 + np.cos(3.0 * t)) * y

    y0 = reversal_odd(np.array([1.0, -0.3, 0.2, -1.1]))
    ip = sc.IntegratorParams(t_end=1.0, rel_tol=rel_tol, abs_tol=1e-10,
                             dt_init=0.5, dt_min=dt_min, dt_max=0.5)
    sample_times = [0.0, 0.37, 1.0]
    calls = []
    samples, failure, events = reference_integrate(f, y0, ip, sample_times)
    reference_calls, calls = calls, []
    traj = run(f, ip, sample_times, y0=y0)

    assert traj.failed == (failure is not None)
    assert traj.failure_message == failure
    assert len(traj.states) == len(samples)
    for (t, y), (t_ref, y_ref) in zip(traj.states, samples):
        assert t == t_ref and np.array_equal(y, y_ref)
        assert np.array_equal(y, reversal_odd(y))
    assert len(calls) == len(reference_calls)
    assert all(t == t_ref and np.array_equal(y, y_ref)
               for (t, y), (t_ref, y_ref) in zip(calls, reference_calls))
    assert events["rejected"] > 0 and events["blown_up"] > 0
    assert traj.stats.accepted_steps == events["accepted"]
    assert traj.stats.rhs_calls == len(calls)
    if failure is None:
        assert events["interpolated"] > 0
        assert traj.stats.rejected_steps == events["rejected"]
    else:
        assert "step size underflow" in failure
        # the trial that fails at dt_min counts as rejected too
        assert traj.stats.rejected_steps == events["rejected"] + 1


def test_sample_at_a_step_end_is_the_end_state_bitwise():
    # samples do not move the steps: a rerun sampling at (and 5e-13 past) a
    # step end makes the same calls and records that step's end state, the
    # input of its last stage (FSAL), kept odd under reversal by f
    times, ends = [], []

    def f(t, y):
        times.append(t)
        ends.append(y.copy())
        return -4.0 * (1.0 + t) * y

    y0 = reversal_odd(np.array([1.0, -0.3, 0.2, -1.1]))
    ip = make_integrator(t_end=1.0, dt_init=0.05, dt_max=0.2)
    first = run(f, ip, [0.0, 1.0], y0=y0)
    assert not first.failed and first.stats.rejected_steps == 0
    step_ends, states, calls = times[6::6], ends[6::6], times
    assert len(step_ends) == len(states) == first.stats.accepted_steps > 4
    assert all(np.array_equal(y, reversal_odd(y)) for y in states)
    for offset in (0.0, 5e-13):
        times, ends = [], []
        t_end = step_ends[3]
        traj = run(f, ip, [0.0, t_end + offset, 1.0], y0=y0)
        assert times == calls
        assert traj.records == [0.0, t_end + offset, 1.0]
        assert np.array_equal(traj.states[1][1], states[3])
        assert np.array_equal(traj.states[2][1], states[-1])


def test_projected_f2_samples_are_exactly_odd_and_antiperiodic():
    # samples read from the continuous extension are sums of scalar multiples
    # of the exactly symmetric start state and stages, like the step ends,
    # so each one keeps both symmetries exactly
    m = 64
    params = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m)
    sample_times = np.linspace(0.0, 0.04, 17)
    traj = sc.evolve(sc.GraphState(0.0, sc.GraphInterface(h=sc.preset_f2(m))), params,
                     make_integrator(t_end=0.04, dt_max=0.01), sample_times)
    assert not traj.failed and len(traj.states) == 17
    # fewer steps than sample intervals: some samples lie inside a step
    assert traj.stats.accepted_steps < 16
    odd = (-np.arange(m)) % m
    for state, record in zip(traj.states, traj.records):
        h = state.interface.h
        assert np.array_equal(h[odd], -h)
        assert np.array_equal(h[m // 2 :], -h[: m // 2])
        assert record.central_sym_err == record.even_sym_err == 0.0


def test_sample_error_ends_the_run_at_that_sample_time():
    # the 0.3 sample lies inside a step; its failure is the run's end time
    def sample(t, y):
        if t == 0.3:
            raise SelfIntersectionError("nodes 1 and 2 coincide")
        return (t, y.copy()), t

    ip = make_integrator(t_end=1.0, dt_init=0.5, dt_max=0.5)
    traj = integrate(lambda t, y: np.zeros_like(y), 0.0, np.ones(2), ip,
                     [0.0, 0.1, 0.3, 1.0], sample)
    assert traj.failed and traj.failure_time == 0.3
    assert traj.failure_message == "nodes 1 and 2 coincide"
    assert traj.records == [0.0, 0.1]
    assert traj.stats.accepted_steps == 1  # 0 -> 0.5 holds both samples


def test_samples_inside_a_step_that_fails_the_guard_are_not_recorded():
    # on a zero field the first step, 0 -> 0.5, is accepted and holds the
    # samples 0.1 and 0.2; its end state, the initial one, fails the
    # amplitude guard, which checks accepted states only
    ip = make_integrator(t_end=1.0, dt_init=0.5, dt_max=0.5)
    traj = integrate(lambda t, y: np.zeros_like(y), 0.0, np.full(3, 2.0 * AMPLITUDE_GUARD), ip,
                     [0.0, 0.1, 0.2, 1.0], lambda t, y: ((t, y.copy()), t))
    assert traj.failed and traj.failure_time == 0.5
    assert traj.failure_message == "amplitude past AMPLITUDE_GUARD = 1e+06 at node 0, t=0.5"
    assert traj.records == [0.0]


def test_run_stats_count_steps_and_calls():
    # ten blown-up trials, then accepted steps: the counts and the dt range
    # are those of the run, and a rerun gives equal stats
    def f(t, y):
        calls.append(t)
        if t > 0.0 and len(calls) < 12:
            raise BlowupError(0, t)
        return -y

    ip = make_integrator(t_end=1.0, dt_init=0.2, dt_max=0.2)
    stats = []
    for _ in range(2):
        calls = []
        traj = run(f, ip, [0.0, 1.0], y0=np.ones(1))
        assert not traj.failed
        stats.append(traj.stats)
    first = stats[0]
    assert first == stats[1]
    assert first.rejected_steps == 10
    assert first.rhs_calls == len(calls) == 11 + 6 * first.accepted_steps
    assert first.min_dt == pytest.approx(0.2 * 0.2**10, rel=1e-12)
    assert first.max_dt == 0.2


@pytest.mark.parametrize("preset, quadrature, cell", [
    ("f1", "taylor_cell", "printed"), ("f2", "spectral_log", "halfangle")])
def test_graph_samples_within_twice_the_tolerance_of_a_tight_run(preset, quadrature, cell):
    # most samples lie inside a step and are read from the continuous
    # extension; each stays within 2 rel_tol max|h| of a rel_tol = 1e-11 run
    m = 512
    h = sc.preset_f1(m) if preset == "f1" else sc.preset_f2(m)
    params = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m,
                             quadrature=quadrature, singular_cell_variant=cell)
    sample_times = np.linspace(0.0, 0.12, 13)
    runs = []
    for rel_tol, abs_tol in ((1e-6, 1e-9), (1e-11, 1e-12)):
        traj = sc.evolve(sc.GraphState(0.0, sc.GraphInterface(h=h)), params,
                         make_integrator(0.12, rel_tol, abs_tol, dt_max=0.01), sample_times,
                         sc.DiagnosticsOptions(compute_delta=False))
        assert not traj.failed and len(traj.states) == 13
        runs.append(np.array([s.interface.h for s in traj.states]))
    run, ref = runs
    err = np.max(np.abs(run - ref), axis=1)
    assert np.all(err <= 2e-6 * np.max(np.abs(ref), axis=1))


def test_graph_f1_step_economy():
    # the polygon graph on the panel RHS with the benchmark's integrator
    # settings at m = 64, where dt_max = 0.01 sets every step after the
    # first two; sampled every 0.0075, so that steps cut short to end on the
    # samples would take 18 steps and 109 calls instead of these
    m = 64
    params = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m,
                             quadrature="taylor_cell", singular_cell_variant="printed")
    ip = make_integrator(t_end=0.12, dt_max=0.01)
    traj = sc.evolve(sc.GraphState(0.0, sc.GraphInterface(h=sc.preset_f1(m))), params, ip,
                     np.linspace(0.0, 0.12, 17), sc.DiagnosticsOptions(compute_delta=False))
    assert not traj.failed and len(traj.records) == 17
    stats = traj.stats
    assert (stats.accepted_steps, stats.rejected_steps, stats.rhs_calls) == (14, 0, 85)
    assert (stats.min_dt, stats.max_dt) == (1e-3, 0.01)


def test_first_sample_just_before_t0_is_the_initial_state():
    # accepted as in range, so taken at t0 without a backward step
    y0 = np.array([1.0, -2.0])
    ip = make_integrator(t_end=0.1, dt_max=0.05)
    traj = integrate(lambda t, y: -y, 0.0, y0, ip, [-5e-13, 0.1],
                     lambda t, y: ((t, y.copy()), t))
    samples = traj.states
    assert not traj.failed and traj.records == [0.0, 0.1]
    assert samples[0][0] == 0.0 and np.array_equal(samples[0][1], y0)
    assert [s[0] for s in samples] == [0.0, 0.1]


@pytest.mark.parametrize("formulation", ["graph", "curve"])
def test_first_step_starts_from_the_projected_initial_state(monkeypatch, formulation):
    # the initial state carries its symmetries only to roundoff; the
    # formulation projects it once, and that is the first right-hand-side
    # input and the first sample, bit for bit
    seen = []
    ip = make_integrator(t_end=0.002, dt_max=0.001)
    if formulation == "graph":
        interface = sc.GraphInterface(h=sc.preset_f2(64))
        raw = interface.h
        projected = symmetry_projection(graph_to_curve(interface))(None, raw)[1]
        rhs = evolution_graph._rhs_arrays

        def spy(y, params):
            seen.append(y.copy())
            return rhs(y, params)

        monkeypatch.setattr(evolution_graph, "_rhs_arrays", spy)
        params = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=64)
        traj = sc.evolve(sc.GraphState(0.0, interface), params, ip, [0.0, 0.002])
        first, expected = traj.states[0].interface.h, projected
    else:
        curve = sc.build_turning_family(sc.TurningFamilyParams(b=16.9), 64)
        raw = np.array([curve.z1 - curve.alpha, curve.z2])
        projected = np.array(symmetry_projection(curve)(*raw))
        rhs = evolution_curve._rhs_curve_arrays

        def spy(p, z2, *args):
            seen.append(np.array([p, z2]))
            return rhs(p, z2, *args)

        monkeypatch.setattr(evolution_curve, "_rhs_curve_arrays", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # node clustering
            traj = sc.evolve_curve(sc.CurveState(0.0, curve, delta_rho=1.0), ip, [0.0, 0.002])
        # the sample stores z1 = p + alpha
        first = np.array([traj.states[0].curve.z1, traj.states[0].curve.z2])
        expected = np.array([projected[0] + curve.alpha, projected[1]])
    assert not traj.failed and not np.array_equal(raw, projected)
    assert np.array_equal(seen[0], projected)
    assert np.array_equal(first, expected)


# at m = 128 the full sum on the central-only series is not exactly odd
# on most calls, so a state would lose the symmetry without the projection
GRAPH_RUNS = {"f2": (sc.preset_f2(128), (True, True)),
              "central-only fourier": (fourier_heights(128, [[1, 0.3], [2, 0.15], [4, 0.05]]),
                                       (True, False))}


@pytest.mark.parametrize("case", GRAPH_RUNS)
def test_graph_run_right_hand_side_sees_antiperiodic_states(monkeypatch, case):
    # preset_f2 carries both symmetries, which together give
    # h(alpha + pi) = -h(alpha), the Fourier series the central one alone;
    # once y0 is projected, with no projection in the driver, every stage
    # state of every step and every sample, read inside a step or at its
    # end, has exactly the carried symmetries, so each call takes the
    # quarter pair sum on f2 and the full sum on the series
    h, carried = GRAPH_RUNS[case]
    assert not any(exact_symmetries(None, h))
    paths = []
    rhs = evolution_graph._rhs_arrays

    def traced(y, params):
        paths.append(exact_symmetries(None, y))
        return rhs(y, params)

    monkeypatch.setattr(evolution_graph, "_rhs_arrays", traced)
    params = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=h.size)
    traj = sc.evolve(sc.GraphState(0.0, sc.GraphInterface(h=h)), params,
                     make_integrator(t_end=0.02, dt_max=0.01), np.linspace(0.0, 0.02, 9))
    assert not traj.failed and len(traj.states) == 9
    # fewer steps than sample intervals: some samples lie inside a step
    assert traj.stats.accepted_steps < 8
    assert len(paths) > 7 and set(paths) == {carried}
    for state, record in zip(traj.states, traj.records):
        assert exact_symmetries(None, state.interface.h) == carried
        errors = (record.central_sym_err, record.even_sym_err)
        assert all(err == 0.0 for err, on in zip(errors, carried) if on)
