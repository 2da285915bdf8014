"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them on
success). The two long runs are session fixtures shared by several
criteria. The polygonal-profile run uses the panel quadrature with the
printed singular-cell variant. Its O(d) cell defect slows the steepening:
the accurate ``spectral_log`` runs agree across m = 512-2048 up to t = 0.24,
then the interface overturns at alpha = 0 near t = 0.288, which is no
grid-scale mode, and no graph can follow it past that. The printed cell's
max slope at t = 0.3 is 47.6 (m = 1024), a value the accurate run reaches at
t ~ 0.277, and its L(0.3) moves 15.644 -> 15.717 -> 15.754 over
m = 512, 1024, 2048, at first order in the grid spacing. The cubed-sine run
uses the default spectral quadrature so the dissipation functional can be
compared against the energy slope at full accuracy.
"""

import time
import warnings

import numpy as np
import pytest

import stokescontour as sc
from stokescontour.geometry import curve_derivatives

CRITERIA = []


def report(num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label} ({detail})"
    print(line)
    CRITERIA.append(line)
    assert ok, line


@pytest.fixture(scope="session")
def f1_run():
    # polygonal profile, m = 1024, eps = 1e-3, unstable sign, t in [0, 0.3]
    params = sc.SchemeParams(
        sign_factor=-1.0, viscosity=1e-3, m=1024,
        quadrature="taylor_cell", singular_cell_variant="printed",
    )
    ip = sc.IntegratorParams(t_end=0.3, rel_tol=1e-6, abs_tol=1e-9,
                             dt_init=1e-3, dt_max=0.01)
    ts = [round(0.01 * i, 10) for i in range(31)]
    state = sc.GraphState(0.0, sc.GraphInterface(h=sc.preset_f1(1024)))
    t0 = time.time()
    traj = sc.evolve(state, params, ip, ts,
                     options=sc.DiagnosticsOptions(compute_delta=False))
    traj.wall = time.time() - t0
    assert not traj.failed, traj.failure_message
    return traj


@pytest.fixture(scope="session")
def f2_run():
    # cubed-sine profile, m = 2048, eps = 1e-3, unstable sign, t in [0, 0.25]
    params = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=2048)
    ip = sc.IntegratorParams(t_end=0.25, rel_tol=1e-6, abs_tol=1e-9,
                             dt_init=1e-3, dt_max=0.01)
    ts = [round(0.0125 * i, 10) for i in range(21)]
    state = sc.GraphState(0.0, sc.GraphInterface(h=sc.preset_f2(2048)))
    t0 = time.time()
    traj = sc.evolve(state, params, ip, ts, options=sc.DiagnosticsOptions(mu=0.05))
    traj.wall = time.time() - t0
    assert not traj.failed, traj.failure_message
    return traj


@pytest.fixture(scope="session")
def even_curve_run():
    p = sc.TurningFamilyParams(b=5.0, variant="even_symmetric")
    curve = sc.build_turning_family(p, 256)
    ip = sc.IntegratorParams(t_end=0.06, rel_tol=1e-8, abs_tol=1e-11,
                             dt_init=1e-3, dt_max=0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = sc.evolve_curve(sc.CurveState(0.0, curve, delta_rho=1.0), ip,
                               [0.0, 0.02, 0.04, 0.06])
    assert not traj.failed
    return traj


def test_criterion_1_flat_steady_states():
    m = 256
    params = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m)
    t0 = time.time()
    worst = 0.0
    for c in (0.0, 0.5, -0.5):
        rhs = sc.rhs_graph(sc.GraphState(0.0, sc.GraphInterface(h=np.full(m, c))), params)
        worst = max(worst, float(np.max(np.abs(rhs))))
    wall = time.time() - t0
    report(1, "flat steady states", worst <= 1e-10 and wall < 1.0,
           f"max |rhs| = {worst:.2e}, {wall:.2f} s")


def test_criterion_2_kernel_identities(rng):
    x1 = rng.uniform(-np.pi, np.pi, 10_000)
    x2 = rng.uniform(-3, 3, 10_000)
    bad = (np.abs(x1) < 1e-3) & (np.abs(x2) < 1e-3)
    x1[bad] += 0.5
    a, b = sc.stokeslet(x1, x2), sc.stokeslet(-x1, -x2)
    sym = max(
        float(np.max(np.abs(getattr(a, c) - getattr(b, c))))
        for c in ("s11", "s12", "s21", "s22")
    )
    parity = max(
        float(np.max(np.abs(sc.dK12(-x1, x2) + sc.dK12(x1, x2)))),
        float(np.max(np.abs(sc.dK12(-x1, -x2) - sc.dK12(x1, x2)))),
    )
    p1 = rng.uniform(0.3, np.pi, 100)
    p2 = rng.uniform(0.5, 2.5, 100)
    eps = 1e-4
    fd = (sc.dK1_series(p1, p2 + eps, 0) - sc.dK1_series(p1, p2 - eps, 0)) / (2 * eps)
    fd_err = float(np.max(np.abs(fd - sc.dK12(p1, p2))))
    ok = sym <= 1e-14 and parity <= 1e-14 and fd_err <= 1e-6
    report(2, "kernel identities",
           ok, f"sym={sym:.1e}, parity={parity:.1e}, fd={fd_err:.1e}")


def test_criterion_3_energy_monotonicity(f1_run):
    e = np.array([r.energy for r in f1_run.records])
    worst = float(np.min(np.diff(e)))
    ok = worst >= -1e-8 and f1_run.wall < 600
    report(3, "energy monotone on polygonal run",
           ok, f"worst step {worst:.2e}, wall {f1_run.wall:.0f} s")


def test_criterion_4_delta_oracle_agreement(f2_run):
    dEdt = sc.dE_dt_fd(f2_run)
    delta = np.array([r.delta for r in f2_run.records])
    interior = np.zeros(delta.size, dtype=bool)
    interior[1:-1] = True
    usable = interior & (np.abs(dEdt) >= 1e-6)
    rel = np.abs(delta[usable] - dEdt[usable]) / np.abs(dEdt[usable])
    ok = usable.sum() >= 10 and float(np.max(rel)) <= 0.05
    report(4, "dissipation matches energy slope",
           ok, f"{int(usable.sum())} samples, worst rel {np.max(rel):.2e}")


def test_criterion_5_symmetry_conservation(f1_run, f2_run, even_curve_run):
    c1 = max(r.central_sym_err for r in f1_run.records)
    c2 = max(r.central_sym_err for r in f2_run.records)
    e3 = max(r.even_sym_err for r in even_curve_run.records)
    pinned = 0.0
    for state in even_curve_run.states:
        c = state.curve
        m = c.m
        pinned = max(
            pinned,
            abs(c.z1[3 * m // 4] - np.pi / 2),
            abs(c.z1[m // 4] + np.pi / 2),
            abs(c.z1[0] + np.pi),
            abs(c.z2[0]),
        )
    ok = c1 <= 1e-8 and c2 <= 1e-8 and e3 <= 1e-8 and pinned <= 1e-8
    report(5, "symmetries conserved",
           ok, f"csym {max(c1, c2):.1e}, esym {e3:.1e}, pinned {pinned:.1e}")


def test_criterion_6_polygon_run_qualitative(f1_run):
    L = np.array([r.perimeter for r in f1_run.records])
    K = np.array([r.max_curvature for r in f1_run.records])
    tail = L[len(L) // 5 :]
    ok = (
        L[-1] > L[0]
        and bool(np.all(np.diff(tail) > 0))
        and float(np.max(K[1:])) <= 2.0 * K[1]
    )
    report(6, "length grows, curvature does not",
           ok, f"L {L[0]:.2f}->{L[-1]:.2f}, maxK/K(0+) {np.max(K[1:]) / K[1]:.2f}")


def test_criterion_7_finger_relaxation(f2_run):
    counts = [r.finger_count for r in f2_run.records]
    # independent brute-force baseline at t = 0
    h = f2_run.states[0].interface.h
    m = h.size
    d = 2 * np.pi / m
    slope = [(h[(j + 1) % m] - h[(j - 1) % m]) / (2 * d) for j in range(m)]
    flat = [abs(s) <= 0.05 for s in slope]
    baseline = sum(
        1 for j in range(m) if flat[j] and not flat[(j - 1) % m]
    ) + sum(
        1 for j in range(m)
        if not flat[j] and not flat[(j + 1) % m] and slope[j] * slope[(j + 1) % m] < 0
    )
    ok = counts[0] == baseline and counts[-1] < counts[0]
    report(7, "finger count relaxes",
           ok, f"baseline {baseline}, final {counts[-1]}")


def test_criterion_8_turning_certificate():
    p = sc.TurningFamilyParams(b=1.0)
    b_star = sc.find_b_threshold(p, 1.0, 100.0, m=1024)
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=2 * b_star), 1024)
    _, _, total = sc.turning_integral(curve)
    ip = sc.IntegratorParams(t_end=0.03, rel_tol=1e-8, abs_tol=1e-11,
                             dt_init=5e-4, dt_max=0.005)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = sc.evolve_curve(
            sc.CurveState(0.0, curve, delta_rho=1.0), ip,
            [0.0, 0.005, 0.01, 0.02, 0.03],
        )
    slopes = np.array([r.min_slope_x1 for r in traj.records])
    fd_rate = (slopes[1] - slopes[0]) / 0.005
    crossed = bool(np.any(slopes < 0)) and slopes[0] >= 0
    decreasing = bool(np.all(np.diff(slopes) < 0))
    ok = (
        np.isfinite(b_star)
        and total < 0
        and crossed
        and decreasing
        and np.sign(fd_rate) == np.sign(total)
    )
    report(8, "turning certificate and dynamics",
           ok, f"b*={b_star:.2f}, total(2b*)={total:.2e}, l'(0)~{fd_rate:.2e}")


def test_criterion_9_height_energy_bound_chain(f1_run, f2_run, even_curve_run):
    worst = np.inf
    for traj in (f1_run, f2_run, even_curve_run):
        for r in traj.records:
            lhs = max(r.max_height, r.min_height)
            worst = min(worst, lhs - np.sqrt(max(r.energy, 0.0)) / (2 * np.sqrt(np.pi)))
    report(9, "max{M, m} >= sqrt(E)/(2 sqrt(pi))",
           worst >= -1e-8, f"worst margin {worst:.3e}")


def test_criterion_10_self_convergence():
    sols = {}
    for m in (256, 512, 1024):
        ip = sc.IntegratorParams(t_end=0.1, rel_tol=1e-9, abs_tol=1e-12,
                                 dt_init=1e-4, dt_max=0.02)
        params = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m)
        state = sc.GraphState(0.0, sc.GraphInterface(h=0.1 * np.sin(sc.uniform_grid(m))))
        traj = sc.evolve(state, params, ip, [0.1],
                         options=sc.DiagnosticsOptions(compute_delta=False))
        assert not traj.failed
        sols[m] = traj.states[-1].interface.h
    d1 = np.max(np.abs(sols[256] - sols[512][::2]))
    d2 = np.max(np.abs(sols[512] - sols[1024][::2]))
    report(10, "self-convergence order >= 2",
           d1 / d2 >= 3.0, f"diff ratio {d1 / d2:.2f}")


def test_criterion_11_cross_formulation():
    m, a = 1024, 1e-3
    g = sc.GraphInterface(h=a * np.sin(sc.uniform_grid(m)))
    ht = sc.rhs_graph(sc.GraphState(0.0, g),
                      sc.SchemeParams(sign_factor=-1.0, viscosity=0.0, m=m))
    curve = sc.graph_to_curve(g)
    u1, u2 = sc.rhs_curve(sc.CurveState(0.0, curve, delta_rho=-8 * np.pi))
    dz1, dz2 = curve_derivatives(curve)
    speed = np.hypot(dz1, dz2)
    rel = np.max(np.abs((-dz2 * u1 + dz1 * u2) / speed - ht / np.sqrt(1 + dz2**2)))
    rel /= np.max(np.abs(ht))
    report(11, "curve and graph normal velocities agree",
           rel <= 1e-3, f"rel err {rel:.2e}")


def test_criterion_12_unit_fixtures():
    g = sc.GraphInterface(h=np.sin(sc.uniform_grid(1024)))
    w0 = sc.wiener_norm(g, 0.0, 0.0)
    w1 = sc.wiener_norm(g, 1.0, 1.0)
    fingers = sc.finger_count(g, 0.1)
    ok = abs(w0 - 1.0) <= 1e-8 and abs(w1 - np.e) <= 1e-8 and fingers == 2
    report(12, "Wiener and finger unit fixtures",
           ok, f"A^0_0={w0:.10f}, A^1_1={w1:.10f}, fingers={fingers}")


def test_zz_print_summary():
    print()
    for line in CRITERIA:
        print(line)
    assert len(CRITERIA) == 12
