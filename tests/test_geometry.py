import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import stokescontour as sc
from stokescontour.geometry import (
    DegenerateParametrizationError,
    SelfIntersectionError,
    curve_derivatives,
    simpson_weights,
)

from conftest import sine_interface


# --- central_diff -----------------------------------------------------------


@given(
    c=st.floats(-1e6, 1e6, allow_nan=False),
    m=st.integers(min_value=8, max_value=512).filter(lambda n: n % 2 == 0),
)
@settings(max_examples=40, deadline=None)
def test_central_diff_constant_exactly_zero(c, m):
    out = sc.central_diff(np.full(m, c), 2 * np.pi / m)
    assert np.all(out == 0.0)


def test_central_diff_sin_taylor_bound():
    m = 64
    al = sc.uniform_grid(m)
    d = 2 * np.pi / m
    err = np.max(np.abs(sc.central_diff(np.sin(al), d) - np.cos(al)))
    assert err <= d * d  # Taylor remainder |sin| d^2/6 < d^2


def test_central_diff_linear_via_curve_convention():
    # z1 = alpha wraps by one period; the curve derivative handles the seam
    m = 128
    curve = sc.ParamCurve(z1=sc.uniform_grid(m), z2=np.zeros(m))
    dz1, _ = curve_derivatives(curve)
    assert np.allclose(dz1, 1.0, atol=1e-14)


def test_central_diff_rejects_short_input():
    with pytest.raises(ValueError):
        sc.central_diff(np.array([1.0, 2.0]), 0.1)


# --- curvature --------------------------------------------------------------


def test_curvature_flat_graph_zero():
    curve = sc.graph_to_curve(sc.GraphInterface(h=np.zeros(128)))
    assert np.max(sc.curvature(curve)) <= 1e-14


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_curvature_circle(r):
    # test-only shape ignoring the periodicity convention, which only holds
    # away from the parameter seam (the two nodes straddling alpha = -pi see
    # the winding the circle does not have)
    m = 256
    al = sc.uniform_grid(m)
    curve = sc.ParamCurve(z1=r * np.cos(al), z2=r * np.sin(al))
    kappa = sc.curvature(curve)
    assert np.allclose(kappa[1:-1], 1.0 / r, rtol=1e-3)


def test_curvature_small_sine_graph_matches_formula():
    m = 512
    a = 0.1
    curve = sc.graph_to_curve(sine_interface(m, a))
    kappa = sc.curvature(curve)
    assert abs(kappa[m // 2]) <= 1e-4  # alpha = 0: h'' = 0 there
    assert abs(kappa[3 * m // 4] - 0.1) <= 1e-3  # alpha = pi/2: |h''|/(1+h'^2)^1.5


def test_curvature_invariances():
    m = 256
    h = 0.3 * np.sin(sc.uniform_grid(m)) + 0.05 * np.cos(2 * sc.uniform_grid(m))
    base = sc.curvature(sc.graph_to_curve(sc.GraphInterface(h=h)))
    shifted = sc.curvature(sc.graph_to_curve(sc.GraphInterface(h=h + 1.7)))
    assert np.max(np.abs(base - shifted)) <= 1e-10
    # alpha -> -alpha: node j maps to (m - j) mod m
    j = np.arange(m)
    hr = h[(-j) % m]
    reversed_ = sc.curvature(sc.graph_to_curve(sc.GraphInterface(h=hr)))
    assert np.max(np.abs(reversed_ - base[(-j) % m])) <= 1e-10


def test_curvature_degenerate_tangent_raises():
    # a vanishing discrete tangent requires equal neighbor nodes, which the
    # constructor rejects as a self-intersection; mutate a valid curve in
    # place to exercise the curvature-side guard
    curve = sc.graph_to_curve(sine_interface(64, 0.2))
    curve.z1[11] = curve.z1[9]
    curve.z2[11] = curve.z2[9]
    with pytest.raises(DegenerateParametrizationError):
        sc.curvature(curve)


# --- perimeter --------------------------------------------------------------


def test_perimeter_flat_and_constant():
    for c in (0.0, 1.3):
        curve = sc.graph_to_curve(sc.GraphInterface(h=np.full(256, c)))
        assert abs(sc.perimeter(curve) - 2 * np.pi) <= 1e-12


def test_perimeter_sine_against_quadrature_oracle():
    oracle, _ = quad(lambda a: np.sqrt(1 + 0.25 * np.cos(a) ** 2), -np.pi, np.pi,
                     limit=200, epsabs=1e-13)
    val = sc.perimeter(sc.graph_to_curve(sine_interface(1024, 0.5)))
    assert abs(val - oracle) <= 1e-6 * oracle


def test_perimeter_graph_lift_lower_bound(rng):
    for _ in range(20):
        h = rng.normal(scale=0.5, size=256)
        h = np.fft.irfft(np.fft.rfft(h)[:9], 256)  # smooth it
        curve = sc.graph_to_curve(sc.GraphInterface(h=h))
        assert sc.perimeter(curve) >= 2 * np.pi * (1 - 1e-10)


def test_odd_grid_rejected():
    with pytest.raises(ValueError):
        sc.GraphInterface(h=np.zeros(9))
    with pytest.raises(ValueError):
        sc.GraphInterface(h=np.zeros(4))
    # even but not a multiple of 4: no nodes at +-pi/2
    with pytest.raises(ValueError, match="multiple of 4"):
        sc.GraphInterface(h=np.zeros(10))
    with pytest.raises(ValueError, match="multiple of 4"):
        sc.ParamCurve(z1=sc.uniform_grid(10), z2=np.zeros(10))


# --- extremes, slopes, symmetry ---------------------------------------------


def test_height_extremes():
    assert sc.height_extremes(sc.graph_to_curve(sc.GraphInterface(h=np.zeros(64)))) == (0.0, 0.0)
    big, small = sc.height_extremes(sc.graph_to_curve(sine_interface(1024)))
    assert abs(big - 1) <= 1e-5 and abs(small - 1) <= 1e-5
    # f2 initial data: brute-force scan of the sampled preset
    h = sc.preset_f2(2048)
    big, small = sc.height_extremes(sc.graph_to_curve(sc.GraphInterface(h=h)))
    assert big == np.max(h) == 1.0
    assert small == -np.min(h) == 1.0


def test_min_slope_x1():
    m = 1024
    al = sc.uniform_grid(m)
    assert abs(sc.min_slope_x1(sc.ParamCurve(z1=al, z2=0.1 * np.sin(al))) - 1.0) <= 1e-12
    curve = sc.ParamCurve(z1=al - np.sin(al), z2=0.1 * np.sin(al))
    assert abs(sc.min_slope_x1(curve)) <= (2 * np.pi / m) ** 2
    steep = sc.ParamCurve(z1=al - 1.5 * np.sin(al), z2=0.3 * np.sin(al))
    assert abs(sc.min_slope_x1(steep) + 0.5) <= 1e-4


def test_symmetry_errors_values():
    m = 1024
    csym, esym = sc.symmetry_errors(sc.graph_to_curve(sine_interface(m)))
    assert csym <= 1e-12 and esym <= 1e-12
    cos_curve = sc.graph_to_curve(sc.GraphInterface(h=np.cos(sc.uniform_grid(m))))
    csym, _ = sc.symmetry_errors(cos_curve)
    assert abs(csym - 2.0) <= 1e-12
    # f1 polygonal data is odd by construction
    csym, esym = sc.symmetry_errors(sc.graph_to_curve(sc.GraphInterface(h=sc.preset_f1(m))))
    assert csym <= 1e-12 and esym <= 1e-12


def test_symmetry_errors_mirrored_construction(rng):
    m = 256
    h = np.zeros(m)
    h[1 : m // 2] = rng.normal(size=m // 2 - 1)
    h[m // 2 + 1 :] = -h[1 : m // 2][::-1]  # h[k] = -h[m-k]: odd by mirroring
    csym, _ = sc.symmetry_errors(sc.graph_to_curve(sc.GraphInterface(h=h)))
    assert csym <= 1e-12


def test_symmetry_errors_requires_divisible_by_four():
    with pytest.raises(ValueError):
        sc.symmetry_errors(sc.graph_to_curve(sc.GraphInterface(h=np.zeros(10))))


def test_height_energy_lower_bound(rng):
    # max(M, m) >= sqrt(E)/(2 sqrt(pi)) on arbitrary graphs
    for _ in range(25):
        h = np.fft.irfft(np.fft.rfft(rng.normal(size=128))[:7], 128)
        g = sc.GraphInterface(h=h)
        big, small = sc.height_extremes(sc.graph_to_curve(g))
        assert max(big, small) >= np.sqrt(sc.energy(g)) / (2 * np.sqrt(np.pi)) - 1e-8


# --- curve validation and snapshots ------------------------------------------


def test_self_intersection_rejected():
    m = 64
    al = sc.uniform_grid(m)
    z1 = al.copy()
    z1[10] = al[40]  # node 10 now coincides with node 40 in (z1 mod 2pi, z2)
    with pytest.raises(SelfIntersectionError):
        sc.ParamCurve(z1=z1, z2=np.zeros(m))


@pytest.mark.parametrize("where", ["interior", "seam"])
def test_self_intersection_of_close_nodes_on_monotone_curve(where):
    # x-monotone, but one gap (or the wrap gap across the seam) is below the
    # coincidence tolerance, so the full scan must still run and raise
    m = 64
    z1 = sc.uniform_grid(m)
    if where == "interior":
        z1[5] = z1[4] + 5e-13
    else:
        z1[-1] = z1[0] + 2 * np.pi - 5e-13
    with pytest.raises(SelfIntersectionError):
        sc.ParamCurve(z1=z1, z2=np.zeros(m))


def test_simpson_weights_integrate_trig_exactly():
    m = 64
    w = simpson_weights(m, 2 * np.pi / m)
    al = sc.uniform_grid(m)
    assert abs(np.dot(w, np.ones(m)) - 2 * np.pi) <= 1e-12
    assert abs(np.dot(w, np.sin(al) ** 2) - np.pi) <= 1e-9


def test_snapshot_roundtrip(tmp_path):
    g = sine_interface(64, 0.3)
    path = tmp_path / "snap_graph.csv"
    sc.write_snapshot(path, g)
    back = sc.read_snapshot(path)
    assert isinstance(back, sc.GraphInterface)
    assert np.array_equal(back.h, g.h)

    curve = sc.graph_to_curve(g)
    path2 = tmp_path / "snap_curve.csv"
    sc.write_snapshot(path2, curve)
    back2 = sc.read_snapshot(path2)
    assert isinstance(back2, sc.ParamCurve)
    assert np.array_equal(back2.z1, curve.z1)
    assert np.array_equal(back2.z2, curve.z2)
