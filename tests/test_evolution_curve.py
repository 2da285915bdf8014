import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stokescontour as sc
from stokescontour import evolution_curve, kernels
from stokescontour.evolution_curve import _rhs_curve_arrays
from stokescontour.geometry import (
    carried_symmetries,
    central_diff,
    curve_derivatives,
    exact_symmetries,
    symmetry_group,
    symmetry_projection,
    symmetry_projector,
)
from stokescontour.integrators import AMPLITUDE_GUARD
from stokescontour.kernels import ONE_OVER_8PI, clausen2, stokeslet_terms

from conftest import band_limited, grids, make_integrator, modes, sine_interface


def lifted_curve(m, lift, shear):
    """z1 = alpha + 0.1 * shear(alpha), z2 = lift(alpha): an x-monotone curve."""
    al = sc.uniform_grid(m)
    return al + 0.1 * band_limited(m, shear), band_limited(m, lift), al


# the lift and shear of the explicit examples
LIFT = [(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)]
SHEAR = [(0.2, 0.1), (0.0, -0.1)]


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


def reflected_state(p, z2, even):
    """The state (p, z2), p = z1 - alpha, made exactly odd, and with ``even``
    exactly even-symmetric as well, hence half-period symmetric: on p each
    reflection is a sign and an index map."""
    m = p.size
    j = np.arange(m)
    k = (-j) % m
    p, z2 = 0.5 * (p - p[k]), 0.5 * (z2 - z2[k])
    if even:
        k = (m // 2 - j) % m
        p, z2 = 0.5 * (p - p[k]), 0.5 * (z2 + z2[k])
    return p, z2


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
    z1, z2, al = lifted_curve(m, lift, shear)
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
        # the projection works on the remainder p = z1 - alpha
        p1, p2 = symmetry_projection(curve)(z1 - al, z2)
        assert max(np.max(np.abs(p1 + al - reference[0])),
                   np.max(np.abs(p2 - reference[1]))) <= tol
        # with no constant, each carried symmetry holds exactly
        j = np.arange(m)
        for (k, sign), on in zip((((-j) % m, -1.0), ((m // 2 - j) % m, 1.0)), carried):
            if on:
                assert np.array_equal(p1[k], -p1) and np.array_equal(p2[k], sign * p2)
        # the heights-only form used by graph runs: the same z2 half, bitwise
        q1, q2 = symmetry_projection(curve)(None, z2)
        assert q1 is None and np.array_equal(q2, p2)


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


def assert_exactly_symmetric_velocity(u1, u2, quarter=True):
    """(u1, u2) exactly odd, so 0 at alpha = -pi and 0; with ``quarter``, u1
    also exactly periodic and u2 antiperiodic under the shift by pi, and u1
    exactly 0 at alpha = -pi/2."""
    m = u1.size
    for u in (u1, u2):
        assert np.array_equal(u[1:], -u[:0:-1])
        assert u[0] == 0.0 and u[m // 2] == 0.0
    if quarter:
        assert np.array_equal(u1[m // 2 :], u1[: m // 2])
        assert np.array_equal(u2[m // 2 :], -u2[: m // 2])
        assert u1[m // 4] == 0.0


def assert_rhs_matches_all_offsets(p, z2, al, delta_rho):
    """The blocked RHS on the state (p, z2), p = z1 - alpha, against the
    reference sum, to 1e-12 of its scale. On an exactly centrally symmetric
    curve, where the half or the quarter sum runs, it is also exactly odd
    and exactly 0 at the nodes alpha = -pi and 0; on the quarter path u1 is
    also exactly periodic and u2 antiperiodic under the shift by pi, and u1
    is exactly 0 at alpha = -pi/2."""
    u1, u2 = _rhs_curve_arrays(p, z2, al, delta_rho)
    r1, r2 = all_offsets_curve_rhs(p + al, z2, al, delta_rho)
    scale = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
    assert max(np.max(np.abs(u1 - r1)), np.max(np.abs(u2 - r2))) <= 1e-12 * scale
    central, even = exact_symmetries(p, z2)
    if central:
        assert_exactly_symmetric_velocity(u1, u2, even)


PATHS = {"full": (False, False), "central": (True, False), "quarter": (True, True)}


@given(m=grids, lift=modes, shear=modes, path=st.sampled_from(sorted(PATHS)))
# each path on one node block (m = 8, 12), on the blocks of m = 200 and 204
# (the full path's last block partial) and on the blocks of m = 1024 (every
# path's last block partial); every path's domain holds its fixed nodes,
# 0 and m/2 (central) or 0 and m/4 (quarter)
@example(m=8, lift=LIFT, shear=SHEAR, path="full")
@example(m=12, lift=LIFT, shear=SHEAR, path="full")
@example(m=200, lift=LIFT, shear=SHEAR, path="full")
@example(m=204, lift=LIFT, shear=SHEAR, path="full")
@example(m=1024, lift=LIFT, shear=SHEAR, path="full")
@example(m=8, lift=LIFT, shear=SHEAR, path="central")
@example(m=12, lift=LIFT, shear=SHEAR, path="central")
@example(m=200, lift=LIFT, shear=SHEAR, path="central")
@example(m=204, lift=LIFT, shear=SHEAR, path="central")
@example(m=1024, lift=LIFT, shear=SHEAR, path="central")
@example(m=8, lift=LIFT, shear=SHEAR, path="quarter")
@example(m=12, lift=LIFT, shear=SHEAR, path="quarter")
@example(m=200, lift=LIFT, shear=SHEAR, path="quarter")
@example(m=204, lift=LIFT, shear=SHEAR, path="quarter")
@example(m=1024, lift=LIFT, shear=SHEAR, path="quarter")
@settings(max_examples=10, deadline=None)
def test_blocked_curve_rhs_matches_all_offsets_sum(m, lift, shear, path):
    z1, z2, al = lifted_curve(m, lift, shear)
    p = z1 - al
    if path != "full":
        p, z2 = reflected_state(p, z2, even=path == "quarter")
    # the state has at least the symmetries of its path exactly (a flat
    # curve has both)
    assert all(have or not want for have, want in zip(exact_symmetries(p, z2), PATHS[path]))
    assert_rhs_matches_all_offsets(p, z2, al, -2.0)


@pytest.mark.parametrize(
    "m, variant, b, fold",
    [(m, variant, b, fold) for m in (256, 512, 1024)
     for variant, b in (("basic", 16.9), ("even_symmetric", 10.4)) for fold in (0.0, 0.2)]
    # the vertical tangent at large m: the near rows, where subtraction
    # would cancel first
    + [(4096, "basic", 16.9, 0.2)],
)
def test_far_rows_match_direct_half_angle(m, variant, b, fold):
    # every offset row takes the pair sines from per-node sines and cosines
    # of z1/2 by angle subtraction; the reference takes them directly from
    # the half angle of every pair. The turning families' velocity is a
    # 1e-3 remainder of O(1) terms; fold > 0 turns the curve past vertical.
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=b, variant=variant), m)
    p = curve.z1 - curve.alpha - fold * np.sin(curve.alpha)
    assert_rhs_matches_all_offsets(p, curve.z2, curve.alpha, 1.0)


@pytest.mark.parametrize("fold", [0.0, 0.2])
@pytest.mark.parametrize("variant, b", [("basic", 16.9), ("even_symmetric", 10.4)])
@pytest.mark.parametrize("m", [256, 1024])
def test_half_sum_on_projected_turning_families(m, variant, b, fold):
    # the states of turning runs: the raw families are not exactly symmetric.
    # Projected, the even family also has the half-period symmetry and takes
    # the quarter sum; folded by sin(alpha) it keeps only the central one
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=b, variant=variant), m)
    z1 = curve.z1 - fold * np.sin(curve.alpha)
    p, z2 = symmetry_projection(sc.ParamCurve(z1=z1, z2=curve.z2))(z1 - curve.alpha, curve.z2)
    assert exact_symmetries(p, z2) == (True, variant != "basic" and fold == 0.0)
    assert_rhs_matches_all_offsets(p, z2, curve.alpha, 1.0)


def quarter_and_central_sums(p, z2, al):
    """The curve RHS on its quarter path and, forced, on the central path,
    each concatenated (u1, u2)."""
    assert exact_symmetries(p, z2) == (True, True)
    quarter = np.concatenate(_rhs_curve_arrays(p, z2, al, -2.0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolution_curve, "exact_symmetries", lambda p, z2: (True, False))
        central = np.concatenate(_rhs_curve_arrays(p, z2, al, -2.0))
    return quarter, central


# the turning families' velocity is a 1e-3 remainder of O(1) terms: at
# m = 1024 the central and the full path differ by 2.2e-14 of its scale
# (the basic family at b = 16.9), the quarter and the central path by
# 2.7e-14 (the even family at b = 10.4); on the lift of f2 the quarter and
# the central path differ by at most 1.3e-15 (m = 8-1024)
@pytest.mark.parametrize("m", [8, 12, 200, 204, 1024])
def test_quarter_sum_matches_central_sum_on_projected_even_family(m):
    p, z2, al = turning_curve_state(m, "even_symmetric", 10.4, 0.0, True)
    quarter, central = quarter_and_central_sums(p, z2, al)
    assert np.max(np.abs(quarter - central)) <= 1e-13 * np.max(np.abs(central))
    assert_exactly_symmetric_velocity(*np.split(quarter, 2))


@pytest.mark.parametrize("m", [8, 12, 200, 204, 1024])
def test_quarter_sum_matches_central_sum_on_projected_f2_lift(m):
    c = sc.graph_to_curve(sc.GraphInterface(h=sc.preset_f2(m)))
    p, z2 = symmetry_projection(c)(c.z1 - c.alpha, c.z2)
    quarter, central = quarter_and_central_sums(p, z2, c.alpha)
    assert np.max(np.abs(quarter - central)) <= 1e-14 * np.max(np.abs(central))
    assert_exactly_symmetric_velocity(*np.split(quarter, 2))


@given(m=grids, lift=modes, shear=modes)
@example(m=8, lift=LIFT, shear=SHEAR)
@settings(max_examples=25, deadline=None)
def test_quarter_sum_matches_central_sum_on_symmetric_curves(m, lift, shear):
    z1, z2, al = lifted_curve(m, lift, shear)
    p, z2 = reflected_state(z1 - al, z2, even=True)
    quarter, central = quarter_and_central_sums(p, z2, al)
    assert np.max(np.abs(quarter - central)) <= 1e-14 * np.max(np.abs(central))
    assert_exactly_symmetric_velocity(*np.split(quarter, 2))


@pytest.mark.parametrize("variant, b", [("basic", 16.9), ("even_symmetric", 10.4)])
def test_turning_run_states_stay_centrally_symmetric(monkeypatch, variant, b):
    # the projected initial state is exactly symmetric and the central path's
    # output is exactly odd, so every DOPRI5 stage and accepted state stays
    # symmetric and every call of the run takes a symmetric path
    symmetric = []
    rhs = evolution_curve._rhs_curve_arrays

    def spy(p, z2, alpha, delta_rho):
        symmetric.append(exact_symmetries(p, z2)[0])
        return rhs(p, z2, alpha, delta_rho)

    monkeypatch.setattr(evolution_curve, "_rhs_curve_arrays", spy)
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=b, variant=variant), 256)
    ip = make_integrator(t_end=0.003, dt_max=0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # node clustering
        traj = sc.evolve_curve(sc.CurveState(0.0, curve, delta_rho=1.0), ip, [0.0, 0.003])
    assert not traj.failed
    assert len(symmetric) >= 1 + 3 * 6 and all(symmetric)


@pytest.mark.parametrize("case, path", [("basic", (True, False)), ("even_symmetric", (True, True)),
                                        ("asymmetric", (False, False))])
def test_turning_run_states_keep_their_sum_path(monkeypatch, case, path):
    # the even family carries the half-period symmetry as well: its projected
    # state, every DOPRI5 stage, every accepted state and every sample keep
    # both exactly with no projection in the driver, so every call takes the
    # quarter path; the basic family keeps the central path, and a curve
    # with neither symmetry the full path
    paths = []
    choose = evolution_curve.exact_symmetries

    def spy(p, z2):
        paths.append(choose(p, z2))
        return paths[-1]

    monkeypatch.setattr(evolution_curve, "exact_symmetries", spy)
    if case == "asymmetric":
        z1, z2, _ = lifted_curve(256, LIFT, SHEAR)
        curve = sc.ParamCurve(z1=z1, z2=z2)
        assert carried_symmetries(curve) == (False, False)
    else:
        b = {"basic": 16.9, "even_symmetric": 10.4}[case]
        curve = sc.build_turning_family(sc.TurningFamilyParams(b=b, variant=case), 256)
    ip = make_integrator(t_end=0.003, dt_max=0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # node clustering
        traj = sc.evolve_curve(sc.CurveState(0.0, curve, delta_rho=1.0), ip,
                               np.linspace(0.0, 0.003, 7))
    assert not traj.failed and len(traj.states) == 7
    # fewer steps than sample intervals: some samples lie inside a step
    assert traj.stats.accepted_steps < 6
    assert len(paths) >= 1 + 3 * 6 and set(paths) == {path}
    # each record measures the symmetries on the sampled p itself
    for record in traj.records:
        errors = (record.central_sym_err, record.even_sym_err)
        assert all(err == 0.0 for err, on in zip(errors, path) if on)


@pytest.mark.parametrize("case, path", [("basic", (True, False)), ("even_symmetric", (True, True))])
def test_rhs_curve_takes_the_symmetric_sum_on_sampled_states(monkeypatch, case, path):
    # a sampled state stores z1, and z1 - alpha recomputed from it is odd
    # only to roundoff: rhs_curve projects it, as every step of the run
    # does, so it takes the sum of the run and agrees with the full sum on
    # the state as stored
    b = {"basic": 16.9, "even_symmetric": 10.4}[case]
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=b, variant=case), 256)
    ip = make_integrator(t_end=0.003, dt_max=0.001)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # node clustering
        traj = sc.evolve_curve(sc.CurveState(0.0, curve, delta_rho=1.0), ip,
                               [0.0, 0.001, 0.002, 0.003])
    assert not traj.failed
    choose = evolution_curve.exact_symmetries
    stored = [choose(s.curve.z1 - s.curve.alpha, s.curve.z2) for s in traj.states]
    assert (False, False) in stored
    paths = []

    def spy(p, z2):
        paths.append(choose(p, z2))
        return paths[-1]

    monkeypatch.setattr(evolution_curve, "exact_symmetries", spy)
    for state in traj.states:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            u1, u2 = sc.rhs_curve(state)
        c = state.curve
        r1, r2 = all_offsets_curve_rhs(c.z1, c.z2, c.alpha, state.delta_rho)
        scale = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
        assert max(np.max(np.abs(u1 - r1)), np.max(np.abs(u2 - r2))) <= 1e-12 * scale
    assert paths == [path] * len(traj.states)


def out_of_place_curve_rhs(p, z2, alpha, delta_rho):
    """The curve RHS with a fresh array for every term of every block.

    The same operations in the same order as ``_rhs_curve_arrays``, which
    computes the block terms in place in one workspace: the two agree bit
    for bit, on the full, the central and the quarter path. The domain, its
    images and the triangle weights are built here from the path's group.
    """
    m = p.size
    d = 2 * np.pi / m
    dz1 = 1.0 + central_diff(p, d)
    dz2 = central_diff(z2, d)
    speed2 = dz1 * dz1 + dz2 * dz2
    v1 = -dz2 * z2
    v2 = dz1 * z2
    cell = -4.0 * clausen2(0.5 * d)
    g0 = np.log(speed2)
    a_ss0 = 2.0 * dz2 * dz2 / speed2
    a_sn0 = 2.0 * dz2 * dz1 / speed2
    u1 = d * (g0 * v1 + a_ss0 * v1 - a_sn0 * v2) + cell * v1
    u2 = d * (g0 * v2 - a_ss0 * v2 - a_sn0 * v1) + cell * v2
    central, even = exact_symmetries(p, z2)
    # nodes 0..size-1, one of each orbit, and their images by every element
    group = symmetry_group(m, central, even)
    count = len(group)
    size = m if count == 1 else m // count + 1
    images = np.array([g[:size] for g, _, _ in group])
    orbit = count / np.sum(images == np.arange(size), axis=0)
    z1 = p + alpha
    sn, cs = np.sin(0.5 * z1), np.cos(0.5 * z1)
    w1, w2 = v1[images] * (orbit / count), v2[images] * (orbit / count)
    vectors = [np.stack(pair, axis=-1) for pair in ((w1, w2), (w1, -w2), (-w2, -w1))]
    near = np.zeros((3, size, 2))
    far = np.zeros((size, 2))
    for b in kernels.blocks(size, kernels.block_rows(count * size, count * size)):
        start, stop = b.start, b.stop
        n, width = stop - start, size - start
        rows, cols = np.arange(start, stop), images[:, start:]
        # sin(x1/2), cos(x1/2) and x2 of every pair: one product of the rows
        # (sin, -cos, 0, 0), (cos, sin, 0, 0) and (0, 0, z2, 1) at the row
        # node with the column (cos, sin, 1, -z2) at the image node
        zero = np.zeros(n)
        a = np.array([np.stack(r, axis=1) for r in ((sn[rows], -cs[rows], zero, zero),
                                                    (cs[rows], sn[rows], zero, zero),
                                                    (zero, zero, z2[rows], np.ones(n)))])
        b = np.stack((cs[cols].ravel(), sn[cols].ravel(), np.ones(width * count), -z2[cols].ravel()))
        sn2, cos_half, x2 = (a @ b).reshape(3, n, count, width)
        # sin(x1/2) cos(x1/2) = sin(x1)/2
        half_sn = cos_half * sn2
        # the leading square: 1 above the diagonal, 1/2 on it, 0 below it and
        # on a node paired with itself
        offset = (rows - rows[:, None])[:, None]
        weight = np.where(offset > 0, 1.0, 0.5 * (offset == 0)) * np.ones((1, count, 1))
        weight[images[:, start:stop] == rows[:, None, None]] = 0.0
        sn2 = np.concatenate((np.where(weight == 0.0, 1.0, sn2[..., :n]), sn2[..., n:]), axis=-1)
        terms = kernels.stokeslet_terms_into(sn2, half_sn, x2, *np.empty((3, *x2.shape)))
        terms = np.array([np.concatenate((t[..., :n] * weight, t[..., n:]), axis=-1)
                          for t in terms])
        near_vec = np.array([v[:, start:].reshape(-1, 2) for v in vectors])
        near[:, start:stop] += np.matmul(terms.reshape(3, n, -1), near_vec)
        # the far sum reads the vectors at the row nodes, a_sn's signed by
        # the swap: the p sign times the z2 sign of each element
        far_vec = np.array([v[:, start:stop].transpose(1, 0, 2) for v in vectors])
        far_vec[2] *= np.array([p_sign * z2_sign for _, p_sign, z2_sign in group])[:, None]
        far[start:] += terms.reshape(-1, width).T @ far_vec.reshape(-1, 2)
    acc1, acc2 = ((near.sum(axis=0) + far) * orbit[:, None]).T
    u1[:size] += d * acc1
    u2[:size] += d * acc2
    u1 *= delta_rho * ONE_OVER_8PI
    u2 *= delta_rho * ONE_OVER_8PI
    # the group average completes the sum over all pairs: u1 is a remainder
    # like p, u2 a height like z2
    return symmetry_projector(m, central, even)(u1, u2)


def turning_curve_state(m, variant, b, fold, project):
    """(p, z2, alpha) of a turning family at m nodes, folded by fold * sin(alpha).

    Below m = 48 the family is not built on its own grid; its nodes are read
    from the family built on 48 nodes, every (48/m)-th.
    """
    step = max(1, 48 // m)
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=b, variant=variant), m * step)
    alpha = sc.uniform_grid(m)
    z1 = curve.z1[::step] - fold * np.sin(alpha)
    z2 = curve.z2[::step]
    p = z1 - alpha
    if project:
        p, z2 = symmetry_projection(sc.ParamCurve(z1=z1, z2=z2))(p, z2)
        assert exact_symmetries(p, z2)[0]
    return p, z2, alpha


@pytest.mark.parametrize("m", [8, 12, 200, 1024])
@pytest.mark.parametrize(
    "case",
    [(variant, b, fold, project) for variant, b in (("basic", 16.9), ("even_symmetric", 10.4))
     for fold in (0.0, 0.2) for project in (False, True)] + ["graph lift"],
    ids=str,
)
def test_rhs_bitwise_equals_out_of_place_blocks(m, case):
    if case == "graph lift":
        c = sc.graph_to_curve(sc.GraphInterface(h=sc.preset_f2(m)))
        p, z2, alpha = c.z1 - c.alpha, c.z2, c.alpha
    else:
        p, z2, alpha = turning_curve_state(m, *case)
    new = np.concatenate(_rhs_curve_arrays(p, z2, alpha, -2.0))
    ref = np.concatenate(out_of_place_curve_rhs(p, z2, alpha, -2.0))
    assert np.array_equal(new.view(np.uint64), ref.view(np.uint64))
    # the node-block sums reduce inside BLAS: a second call on the same state
    # repeats the first bit for bit
    again = np.concatenate(_rhs_curve_arrays(p, z2, alpha, -2.0))
    assert np.array_equal(again.view(np.uint64), new.view(np.uint64))


@pytest.mark.parametrize("change", ["shift", "seam"])
def test_asymmetric_curve_takes_the_full_sum(monkeypatch, change):
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=16.9), 256)
    p, z2 = symmetry_projection(curve)(curve.z1 - curve.alpha, curve.z2)
    u1, u2 = _rhs_curve_arrays(p, z2, curve.alpha, -2.0)
    if change == "shift":
        # the same curve, its nodes shifted by one and the curve by one grid
        # step in x1, which the velocity does not see: no longer symmetric on
        # the grid
        p, z2 = np.roll(p, 1), np.roll(z2, 1)
        u1, u2 = np.roll(u1, 1), np.roll(u2, 1)
    else:
        # symmetric but for the seam node alpha = -pi, moved along the curve
        p = p.copy()
        p[0] += 1e-3
    assert not exact_symmetries(p, z2)[0]
    # the path the sum chooses sets the width of all its rows
    paths = []
    choose = evolution_curve.exact_symmetries

    def spy(p, z2):
        paths.append(choose(p, z2))
        return paths[-1]

    monkeypatch.setattr(evolution_curve, "exact_symmetries", spy)
    s1, s2 = _rhs_curve_arrays(p, z2, curve.alpha, -2.0)
    assert paths == [(False, False)]
    r1, r2 = all_offsets_curve_rhs(p + curve.alpha, z2, curve.alpha, -2.0)
    scale = max(np.max(np.abs(r1)), np.max(np.abs(r2)))
    assert max(np.max(np.abs(s1 - r1)), np.max(np.abs(s2 - r2))) <= 1e-12 * scale
    if change == "shift":
        assert max(np.max(np.abs(s1 - u1)), np.max(np.abs(s2 - u2))) <= 1e-12 * scale


@given(m=grids, lift=modes, shear=modes)
@example(m=256, lift=LIFT, shear=SHEAR)
@settings(max_examples=10, deadline=None)
def test_rhs_even_symmetry(m, lift, shear):
    # a curve mirror-symmetric about the lines z1 = -pi/2 and z1 = pi/2 (node
    # j pairs with m/2 - j) moves mirror-symmetrically
    z1, z2, al = lifted_curve(m, lift, shear)
    z1, z2 = even_projection_curve(z1, z2)
    u1, u2 = _rhs_curve_arrays(z1 - al, z2, al, -2.0)
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
    # the records measure the projected state p = z1 - alpha itself
    assert all(r.central_sym_err == 0.0 and r.even_sym_err == 0.0 for r in traj.records)
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


def test_amplitude_guard_reports_the_node_where_p_trips_it():
    # the curve translated far along x1 (p = z1 - alpha near 2e6, with a
    # bump at node k) and z2 of order 1: p, not z2, passes the guard, at
    # the node of largest |p|
    m, k = 64, 21
    al = sc.uniform_grid(m)
    z1 = al + 2e6 + 0.1 * np.exp(-(((al - al[k]) / 0.2) ** 2))
    curve = sc.ParamCurve(z1=z1, z2=0.3 * np.sin(al))
    assert np.max(np.abs(curve.z2)) < AMPLITUDE_GUARD < np.max(np.abs(z1 - al))
    ip = make_integrator(t_end=0.1)
    traj = sc.evolve_curve(sc.CurveState(0.0, curve, delta_rho=1e-12), ip, [0.0, 0.1])
    assert traj.failed and "AMPLITUDE_GUARD" in traj.failure_message
    assert int(re.search(r"at node (\d+)", traj.failure_message).group(1)) == k


def test_rhs_curve_is_one_two_row_array():
    # the velocity is one (2, m) array, rows u1 and u2, that unpacks as a pair
    m = 64
    curve = sc.graph_to_curve(sc.GraphInterface(h=sc.preset_f2(m)))
    u = sc.rhs_curve(sc.CurveState(0.0, curve, delta_rho=-2.0))
    assert isinstance(u, np.ndarray) and u.shape == (2, m)
    u1, u2 = u
    assert np.array_equal(u1, u[0]) and np.array_equal(u2, u[1])


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


def test_non_finite_velocity_is_a_blowup_at_its_first_node():
    # z2 scaled by 1e300: the velocity overflows at every node, the first
    # of which the error names
    c = sc.build_turning_family(sc.TurningFamilyParams(b=16.9), 256)
    with pytest.raises(sc.BlowupError, match="non-finite right-hand side at node 0") as err:
        _rhs_curve_arrays(c.z1 - c.alpha, c.z2 * 1e300, c.alpha, 1.0)
    assert err.value.node == 0
