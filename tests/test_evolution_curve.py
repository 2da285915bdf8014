import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stokescontour as sc
from stokescontour.evolution_curve import _rhs_curve_arrays
from stokescontour.geometry import (
    carried_symmetries,
    central_diff,
    curve_derivatives,
    symmetry_projection,
)
from stokescontour.kernels import ONE_OVER_8PI, clausen2, stokeslet_terms

from conftest import band_limited, grids, make_integrator, modes, sine_interface


def lifted_curve(m, lift, shear):
    """z1 = alpha + 0.1 * shear(alpha), z2 = lift(alpha): an x-monotone curve."""
    al = sc.uniform_grid(m)
    return al + 0.1 * band_limited(m, shear), band_limited(m, lift), al


# References for the reflection table of ``geometry``: the central and even
# projections and the symmetry errors written out one symmetry at a time.


def odd_projection_curve(z1, z2):
    """Project a curve onto central symmetry z(alpha) = -z(-alpha)."""
    m = z1.size
    j = np.arange(m)
    k = (-j) % m
    const = np.where(j == 0, 2 * np.pi, 0.0)
    return 0.5 * (z1 - z1[k] - const), 0.5 * (z2 - z2[k])


def even_projection_curve(z1, z2):
    """Project a curve onto the two-line even symmetry."""
    m = z1.size
    j = np.arange(m)
    k = (m // 2 - j) % m
    c = np.where(j <= m // 2, -np.pi, np.pi)
    return 0.5 * (z1 + c - z1[k]), 0.5 * (z2 + z2[k])


def reference_symmetry_errors(z1, z2):
    """(central, even) deviations, each even half-line with its own partner rule."""
    m = z1.size
    j = np.arange(m)
    k = (-j) % m
    c1 = z1 + z1[k] + np.where(j == 0, 2 * np.pi, 0.0)
    central = max(np.max(np.abs(c1)), np.max(np.abs(z2 + z2[k])))
    ja = np.arange(0, m // 2 + 1)  # alpha in [-pi, 0]: partner m/2 - j
    ka = m // 2 - ja
    jb = np.arange(m // 2, m)  # alpha in [0, pi): partner 3m/2 - j, wrapping once
    kb = 3 * (m // 2) - jb
    z1_kb = z1[kb % m] + 2 * np.pi * (kb // m)
    even = max(
        np.max(np.abs(z1[ja] + np.pi + z1[ka])),
        np.max(np.abs(z2[ja] - z2[ka])),
        np.max(np.abs(z1[jb] + z1_kb - np.pi)),
        np.max(np.abs(z2[jb] - z2[kb % m])),
    )
    return float(central), float(even)


@given(m=grids, lift=modes, shear=modes)
@settings(max_examples=25, deadline=None)
def test_reflection_table_matches_reference(m, lift, shear):
    z1, z2, _ = lifted_curve(m, lift, shear)
    tol = 4 * np.spacing(max(np.max(np.abs(z1)), np.max(np.abs(z2))))
    errors = sc.symmetry_errors(sc.ParamCurve(z1=z1, z2=z2))
    assert np.max(np.abs(np.subtract(errors, reference_symmetry_errors(z1, z2)))) <= tol
    # a curve carrying a symmetry yields the projection onto it (onto both,
    # central first), applied here to the unprojected data
    odd = odd_projection_curve(z1, z2)
    for carrier in (odd, even_projection_curve(z1, z2), even_projection_curve(*odd)):
        curve = sc.ParamCurve(z1=carrier[0], z2=carrier[1])
        carried = tuple(err <= 1e-12 for err in reference_symmetry_errors(*carrier))
        assert carried_symmetries(curve) == carried
        reference = (z1, z2)
        for step, on in zip((odd_projection_curve, even_projection_curve), carried):
            reference = step(*reference) if on else reference
        p1, p2 = symmetry_projection(curve)(z1, z2)
        assert max(np.max(np.abs(p1 - reference[0])), np.max(np.abs(p2 - reference[1]))) <= tol


def all_offsets_curve_rhs(z1, z2, alpha, delta_rho):
    """The curve RHS as a plain sum over every offset r = 1..m-1, one at a time."""
    m = z1.size
    d = 2 * np.pi / m
    dz1 = 1.0 + central_diff(z1 - alpha, d)
    dz2 = central_diff(z2, d)
    speed2 = dz1 * dz1 + dz2 * dz2
    v1, v2 = -dz2 * z2, dz1 * z2
    cell = -4.0 * clausen2(0.5 * d)
    g0, a_ss0, a_sn0 = np.log(speed2), 2 * dz2 * dz2 / speed2, 2 * dz2 * dz1 / speed2
    u1 = d * (g0 * v1 + a_ss0 * v1 - a_sn0 * v2) + cell * v1
    u2 = d * (g0 * v2 - a_sn0 * v1 - a_ss0 * v2) + cell * v2
    for r in range(1, m):
        lg, a_ss, a_sn = stokeslet_terms(z1 - np.roll(z1, r), z2 - np.roll(z2, r))
        v1b, v2b = np.roll(v1, r), np.roll(v2, r)
        u1 += d * ((lg + a_ss) * v1b - a_sn * v2b)
        u2 += d * ((lg - a_ss) * v2b - a_sn * v1b)
    return delta_rho * ONE_OVER_8PI * u1, delta_rho * ONE_OVER_8PI * u2


def test_flat_curve_zero_velocity():
    m = 128
    curve = sc.ParamCurve(z1=sc.uniform_grid(m), z2=np.zeros(m))
    u1, u2 = sc.rhs_curve(sc.CurveState(0.0, curve, delta_rho=1.0))
    assert np.max(np.abs(u1)) == 0.0
    assert np.max(np.abs(u2)) == 0.0


@given(m=grids, k=st.integers(1, 4), a=st.floats(1e-3, 0.3), phase=st.floats(0.0, 6.3))
@example(m=1024, k=1, a=1e-3, phase=0.0)
@settings(max_examples=10, deadline=None)
def test_normal_velocity_matches_graph_scheme(m, k, a, phase):
    # cross-formulation oracle on the graph lift of one resolved Fourier mode
    assume(k <= m // 8)
    g = sc.GraphInterface(h=a * np.sin(k * sc.uniform_grid(m) + phase))
    ht = sc.rhs_graph(
        sc.GraphState(0.0, g),
        sc.SchemeParams(sign_factor=-1.0, viscosity=0.0, m=m),
    )
    curve = sc.graph_to_curve(g)
    u1, u2 = sc.rhs_curve(sc.CurveState(0.0, curve, delta_rho=-8 * np.pi))
    dz1, dz2 = curve_derivatives(curve)
    speed = np.hypot(dz1, dz2)
    normal_curve = (-dz2 * u1 + dz1 * u2) / speed
    normal_graph = ht / np.sqrt(1.0 + dz2**2)
    scale = np.max(np.abs(normal_graph))
    # the two schemes differ at first order in k d (at most 0.061 k d
    # measured for k <= m/8, m <= 64, a <= 0.3); 6.1e-4 in the m = 1024 example
    assert np.max(np.abs(normal_curve - normal_graph)) <= 0.1 * k * (2 * np.pi / m) * scale


@given(m=grids, lift=modes, shear=modes)
# m = 200: the last block of offset rows is partial and holds r = m/2
@example(m=200, lift=[(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)], shear=[(0.2, 0.1), (0.0, -0.1)])
@settings(max_examples=10, deadline=None)
def test_blocked_curve_rhs_matches_all_offsets_sum(m, lift, shear):
    z1, z2, al = lifted_curve(m, lift, shear)
    u1, u2 = _rhs_curve_arrays(z1, z2, al, -2.0)
    r1, r2 = all_offsets_curve_rhs(z1, z2, al, -2.0)
    scale = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
    assert max(np.max(np.abs(u1 - r1)), np.max(np.abs(u2 - r2))) <= 1e-12 * scale


@given(m=grids, lift=modes, shear=modes)
@example(m=256, lift=[(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)], shear=[(0.2, 0.1), (0.0, -0.1)])
@settings(max_examples=10, deadline=None)
def test_rhs_even_symmetry(m, lift, shear):
    # a curve mirror-symmetric about the lines z1 = -pi/2 and z1 = pi/2 (node
    # j pairs with m/2 - j) moves mirror-symmetrically
    z1, z2, al = lifted_curve(m, lift, shear)
    z1, z2 = even_projection_curve(z1, z2)
    u1, u2 = _rhs_curve_arrays(z1, z2, al, -2.0)
    k = (m // 2 - np.arange(m)) % m
    scale = max(np.max(np.abs(u1)), np.max(np.abs(u2)))
    assert np.max(np.abs(u1 + u1[k])) <= 1e-12 * scale
    assert np.max(np.abs(u2 - u2[k])) <= 1e-12 * scale


def test_rhs_centrally_antisymmetric(rng):
    m = 256
    h = np.zeros(m)
    h[1 : m // 2] = rng.normal(scale=0.2, size=m // 2 - 1)
    h[m // 2 + 1 :] = -h[1 : m // 2][::-1]
    curve = sc.graph_to_curve(sc.GraphInterface(h=h))
    u1, u2 = sc.rhs_curve(sc.CurveState(0.0, curve, delta_rho=-2.0))
    j = np.arange(m)
    k = (-j) % m
    assert np.max(np.abs(u1 + u1[k])) <= 1e-10
    assert np.max(np.abs(u2 + u2[k])) <= 1e-10


def test_even_symmetry_and_pinned_points_conserved():
    p = sc.TurningFamilyParams(b=5.0, variant="even_symmetric")
    curve = sc.build_turning_family(p, 256)
    ip = make_integrator(t_end=0.06, rel_tol=1e-8, abs_tol=1e-11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = sc.evolve_curve(
            sc.CurveState(0.0, curve, delta_rho=1.0), ip, [0.0, 0.03, 0.06]
        )
    assert not traj.failed
    m = 256
    for state in traj.states:
        c = state.curve
        csym, esym = sc.symmetry_errors(c)
        assert csym <= 1e-8 and esym <= 1e-8
        assert abs(c.z1[3 * m // 4] - np.pi / 2) <= 1e-8   # z1(+pi/2) pinned
        assert abs(c.z1[m // 4] + np.pi / 2) <= 1e-8       # z1(-pi/2) pinned
        assert abs(c.z1[0] + np.pi) <= 1e-8                # z1(-pi) pinned
        assert abs(c.z2[0]) <= 1e-8                        # z2(+-pi) pinned


def test_time_reversibility_smoke():
    m = 128
    curve = sc.graph_to_curve(sine_interface(m, 0.2))
    ip = make_integrator(t_end=0.05, rel_tol=1e-8, abs_tol=1e-11)
    fwd = sc.evolve_curve(sc.CurveState(0.0, curve, delta_rho=-2.0), ip, [0.0, 0.05])
    assert not fwd.failed
    mid = fwd.states[-1].curve
    back = sc.evolve_curve(sc.CurveState(0.0, mid, delta_rho=2.0), ip, [0.0, 0.05])
    assert not back.failed
    final = back.states[-1].curve
    tol = 10 * (ip.rel_tol * np.max(np.abs(curve.z2)) + ip.abs_tol)
    assert np.max(np.abs(final.z2 - curve.z2)) <= tol
    assert np.max(np.abs(final.z1 - curve.z1)) <= tol


def test_node_clustering_warning():
    p = sc.TurningFamilyParams(b=40.0)
    curve = sc.build_turning_family(p, 512)
    with pytest.warns(RuntimeWarning, match="node clustering"):
        sc.rhs_curve(sc.CurveState(0.0, curve, delta_rho=1.0))


def test_node_clustering_warning_during_evolve_curve():
    p = sc.TurningFamilyParams(b=40.0)
    curve = sc.build_turning_family(p, 256)
    ip = make_integrator(t_end=1e-4)
    with pytest.warns(RuntimeWarning, match="node clustering"):
        traj = sc.evolve_curve(sc.CurveState(0.0, curve, delta_rho=1.0), ip, [0.0, 1e-4])
    assert not traj.failed


def test_amplitude_guard_reports_offending_node():
    # a far-lifted curve barely moves (tiny density jump); the guard trips
    # after the first accepted step at the node of largest |z2|
    m, k = 64, 37
    al = sc.uniform_grid(m)
    z2 = 2e6 + 0.5 * np.exp(-(((al - al[k]) / 0.2) ** 2))
    curve = sc.ParamCurve(z1=al.copy(), z2=z2)
    ip = make_integrator(t_end=0.1)
    traj = sc.evolve_curve(sc.CurveState(0.0, curve, delta_rho=1e-12), ip, [0.0, 0.1])
    assert traj.failed
    node = int(re.search(r"at node (\d+)", traj.failure_message).group(1))
    assert 0 <= node < m
    assert node == k


def test_evolve_curve_snapshots_and_min_slope():
    p = sc.TurningFamilyParams(b=16.0)
    curve = sc.build_turning_family(p, 512)
    ip = make_integrator(t_end=0.03, rel_tol=1e-8, abs_tol=1e-11)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = sc.evolve_curve(
            sc.CurveState(0.0, curve, delta_rho=1.0), ip, [0.0, 0.015, 0.03]
        )
    assert not traj.failed
    slopes = [r.min_slope_x1 for r in traj.records]
    assert all(s is not None for s in slopes)
    # the certificate is negative at b = 16: the minimum slope decreases
    assert slopes[-1] < slopes[0]


def test_evolve_flat_curve_stationary():
    m = 64
    curve = sc.ParamCurve(z1=sc.uniform_grid(m), z2=np.zeros(m))
    ip = make_integrator(t_end=1.0, dt_max=0.5)
    traj = sc.evolve_curve(sc.CurveState(0.0, curve, delta_rho=-2.0), ip, [0.0, 0.5, 1.0])
    assert not traj.failed
    for state in traj.states:
        # the symmetry projection may touch the last bit of the stored grid
        assert np.allclose(state.curve.z1, curve.z1, rtol=0, atol=1e-14)
        assert np.array_equal(state.curve.z2, curve.z2)
