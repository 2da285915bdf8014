import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import stokescontour as sc
from stokescontour.geometry import (
    DegenerateParametrizationError,
    SelfIntersectionError,
    _check_no_self_intersection,
    curve_derivatives,
    exact_symmetries,
    is_finite_number,
    open_simpson_weights,
    second_diff,
    simpson_weights,
    symmetry_projector,
)

from conftest import bits, sine_interface


# --- finite numbers ---------------------------------------------------------


@pytest.mark.parametrize("value, expected", [
    (0, True), (-2, True), (1.5, True), (-1.7e308, True), (np.float32(2.0), True),
    (np.int64(3), True), (True, False), (np.True_, False), (False, False), ("1e-6", False),
    (None, False), ([1.0], False), (float("nan"), False), (float("inf"), False),
    (10**400, False),
], ids=repr)
def test_is_finite_number(value, expected):
    # booleans and strings are not numbers, though NumPy reads them as such
    assert is_finite_number(value) is expected


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


def roll_central_diff(v, spacing):
    return (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * spacing)


def roll_second_diff(v, spacing):
    return (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / spacing**2


@given(
    v=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=64),
    spacing=st.floats(1e-3, 10.0),
)
# length 3: each node's neighbours are the other two
@example(v=[1.0, -2.5, 7.0], spacing=0.5)
# non-finite entries: inf - inf and nan propagate as in the formulas
@example(v=[np.inf, 1.0, np.inf, -np.inf, np.nan, 2.0], spacing=0.1)
@settings(max_examples=40, deadline=None)
def test_periodic_differences_bitwise_equal_roll_formulas(v, spacing):
    # the slices into one output take each operation of the np.roll formulas
    # in their order, so the results agree bit for bit
    v = np.array(v)
    with np.errstate(all="ignore"):
        got = sc.central_diff(v, spacing), second_diff(v, spacing)
        ref = roll_central_diff(v, spacing), roll_second_diff(v, spacing)
    for a, b in zip(bits(*got), bits(*ref)):
        assert np.array_equal(a, b)


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



@pytest.mark.parametrize("h", [np.zeros((2, 8)), np.zeros((16, 1)), 0.0], ids=["2x8", "16x1", "0d"])
def test_graph_interface_rejects_heights_that_are_not_1d(h):
    # a (2, 8) array once made a 16-node interface whose first use failed
    # with an error naming nothing
    with pytest.raises(ValueError, match="heights must be a 1-d array"):
        sc.GraphInterface(h=h)


@pytest.mark.parametrize("make, error, message", [
    (lambda: sc.central_diff(np.zeros(8), 0.0), ValueError, "spacing must be positive"),
    (lambda: second_diff(np.zeros(2), 1.0), ValueError,
     "second_diff needs a 1-d array of length >= 3"),
    (lambda: sc.GraphInterface(h=np.r_[np.nan, np.zeros(7)]), ValueError,
     "heights must be finite"),
    (lambda: sc.ParamCurve(z1=sc.uniform_grid(8), z2=np.zeros(12)), ValueError,
     "z1 and z2 must be 1-d arrays of equal length"),
    (lambda: sc.ParamCurve(z1=sc.uniform_grid(8), z2=np.r_[np.inf, np.zeros(7)]), ValueError,
     "curve samples must be finite"),
    (lambda: sc.write_snapshot("unused.csv", [0.0] * 8), TypeError,
     "cannot snapshot object of type <class 'list'>"),
], ids=["central_diff_spacing_0", "second_diff_2_nodes", "nan_heights", "unequal_z1_z2",
        "infinite_z2", "snapshot_of_a_list"])
def test_invalid_geometry_input_is_rejected(make, error, message):
    with pytest.raises(error, match=re.escape(message)):
        make()


def test_vanishing_tangent_with_distinct_nodes_is_degenerate():
    # nodes 2 and 4 stay 1.2e-12 apart, past the 1e-12 coincidence check,
    # but the central difference at node 3 is 7.6e-13 long
    m = 8
    z1, z2 = sc.uniform_grid(m).copy(), np.zeros(m)
    z1[4] = z1[2]
    z2[4] = z2[2] + 1.2e-12
    assert np.hypot(z1[4] - z1[2], z2[4] - z2[2]) == 1.2e-12
    with pytest.raises(DegenerateParametrizationError, match="vanishing tangent at node 3"):
        sc.ParamCurve(z1=z1, z2=z2)


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


def test_symmetry_errors_zero_on_symmetric_curve_and_positive_on_moved_node():
    # m = 12: the remainder p = z1 - alpha and z2 are exactly odd under both
    # reflections, so the errors on the p a run integrates are exactly 0;
    # the stored z1 = p + alpha minus alpha reads only the grid's rounding
    a, b = 0.5, 0.25
    p = np.array([0.0, a, b, 0.0, -b, -a, 0.0, a, b, 0.0, -b, -a])
    z2 = np.array([0.0, 0.25, 0.5, 0.75, 0.5, 0.25,
                   0.0, -0.25, -0.5, -0.75, -0.5, -0.25])
    curve = sc.ParamCurve(z1=p + sc.uniform_grid(12), z2=z2)
    assert sc.symmetry_errors(curve, p) == (0.0, 0.0)
    assert max(sc.symmetry_errors(curve)) <= 4 * np.spacing(np.pi)
    p[2] += 0.125
    z2[2] += 0.25
    curve = sc.ParamCurve(z1=p + sc.uniform_grid(12), z2=z2)
    assert sc.symmetry_errors(curve, p) == (0.25, 0.25)


# the exact tests the pair sums once chose their path by, kept as a
# reference: odd by slices, z2 antiperiodic and p half-period symmetric
def odd_by_slices(x):
    return bool(x[0] == -x[0]) and np.array_equal(x[1:], -x[:0:-1])


def shifted_by_half(x, sign):
    half = x.size // 2
    return np.array_equal(x[half:], sign * x[:half])


def reference_symmetries(p, z2):
    """(odd, odd and shift-symmetric): the central symmetry and the quarter sums' pair."""
    odd = (p is None or odd_by_slices(p)) and odd_by_slices(z2)
    shift = (p is None or shifted_by_half(p, 1.0)) and shifted_by_half(z2, -1.0)
    return odd, odd and shift


def reflected(x, k, sign):
    """x projected onto x[k] = sign * x, exactly, by an index map of its own."""
    return 0.5 * (x + sign * x[k])


@given(m=st.sampled_from([8, 12, 16, 64]), seed=st.integers(0, 2**32 - 1),
       symmetry=st.sampled_from(["none", "central", "even", "both"]),
       graph=st.booleans(), shift=st.integers(0, 63),
       special=st.sampled_from([None, "-0.0", "nan", "ulp"]))
@settings(max_examples=300, deadline=None)
def test_exact_symmetries_agree_with_reference_tests(m, seed, symmetry, graph, shift, special):
    # the curve state (p, z2) or graph heights (p None) with none, one or both
    # symmetries exactly, shifted by whole nodes, its zeros made -0.0, a node
    # made NaN or moved by one ulp; given the central symmetry the even one holds exactly
    # if and only if the half-period one does
    rng = np.random.default_rng(seed)
    p, z2 = rng.normal(size=(2, m))
    j = np.arange(m)
    central, even = ((-j) % m, -1.0), ((m // 2 - j) % m, 1.0)
    for (k, sign), on in ((central, symmetry in ("central", "both")),
                          (even, symmetry in ("even", "both"))):
        if on:
            p, z2 = reflected(p, k, -1.0), reflected(z2, k, sign)
    p, z2 = np.roll(p, shift), np.roll(z2, shift)
    if special == "-0.0":
        p[p == 0.0] = -0.0
        z2[z2 == 0.0] = -0.0
    elif special is not None:
        x, i = (p if rng.random() < 0.5 else z2), rng.integers(m)
        x[i] = np.nan if special == "nan" else np.nextafter(x[i], np.inf)
    if graph:
        p = None
    got = exact_symmetries(p, z2)
    assert all(type(b) is bool for b in got)
    assert (got[0], got[0] and got[1]) == reference_symmetries(p, z2)
    if shift == 0 and special is None:
        assert got == (symmetry in ("central", "both"), symmetry in ("even", "both"))
    if graph:
        # the heights of a graph are the z2 of its lift, whose p is 0
        assert exact_symmetries(np.zeros(m), z2) == got


@given(m=st.sampled_from([8, 12, 16, 64, 200]), seed=st.integers(0, 2**32 - 1),
       central=st.booleans(), even=st.booleans(),
       scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e300]))
@settings(max_examples=100, deadline=None)
def test_symmetry_projector_is_an_exact_projection(m, seed, central, even, scale):
    # the requested symmetries exactly, bitwise idempotent, the identity on
    # no symmetry; its z2 half alone projects graph heights
    p, z2 = scale * np.random.default_rng(seed).normal(size=(2, m))
    project = symmetry_projector(m, central, even)
    q, w = project(p, z2)
    if not (central or even):
        assert q is p and w is z2
    got = exact_symmetries(q, w)
    assert (got[0] or not central) and (got[1] or not even)
    assert all(map(np.array_equal, bits(q, w), bits(*project(q, w))))
    heights = project(None, z2)
    assert heights[0] is None and np.array_equal(*bits(heights[1], w))


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


TOL = 1e-12  # the coincidence tolerance of ParamCurve
# planted node distances on both sides of the tolerance, and on it
PLANTED = [0.5 * TOL, np.nextafter(TOL, 0.0), TOL, 2 * TOL]


def all_pairs_coincide(z1, z2, tol=TOL):
    """Whether two distinct nodes lie within tol, every pair tested (O(m^2))."""
    dx = (z1[:, None] - z1[None, :] + np.pi) % (2 * np.pi) - np.pi
    dist = np.hypot(dx, z2[:, None] - z2[None, :])
    np.fill_diagonal(dist, np.inf)
    return bool(np.any(dist < tol))


def assert_check_matches_all_pairs(z1, z2):
    if all_pairs_coincide(z1, z2):
        with pytest.raises(SelfIntersectionError):
            _check_no_self_intersection(z1, z2)
    else:
        _check_no_self_intersection(z1, z2)


@given(
    m=st.sampled_from([8, 16, 64, 256]),
    fold=st.floats(0.0, 3.0),
    i=st.one_of(st.none(), st.integers(0, 255)),
    j=st.integers(0, 255),
    dist=st.sampled_from(PLANTED),
    angle=st.one_of(st.sampled_from([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi]),
                    st.floats(0.0, 2 * np.pi)),
    winding=st.integers(-2, 2),
)
# node m/2 sits at z1 = 0, the seam of z1 mod 2pi: a partner just below it
# reduces to just below 2pi, whole periods away or not
@example(m=64, fold=1.5, i=None, j=40, dist=0.5 * TOL, angle=np.pi, winding=1)
@example(m=64, fold=1.5, i=None, j=5, dist=0.5 * TOL, angle=0.75 * np.pi, winding=0)
@example(m=64, fold=1.5, i=None, j=5, dist=np.nextafter(TOL, 0.0), angle=np.pi, winding=-1)
@settings(max_examples=200, deadline=None)
def test_node_check_matches_all_pairs(m, fold, i, j, dist, angle, winding):
    # a folded (x-monotone only for fold <= 1) curve with node j planted at
    # distance dist from node i (i = None: node m/2), possibly whole periods
    # away in z1
    i = m // 2 if i is None else i % m
    j %= m
    al = sc.uniform_grid(m)
    z1 = al - fold * np.sin(al)
    z2 = 0.3 * np.sin(2 * al)
    if i != j:
        z1[j] = z1[i] + dist * np.cos(angle) + winding * 2 * np.pi
        z2[j] = z2[i] + dist * np.sin(angle)
    assert_check_matches_all_pairs(z1, z2)


@given(
    m=st.sampled_from([16, 64, 256]),
    start=st.integers(0, 255),
    gaps=st.lists(st.sampled_from(PLANTED + [-g for g in PLANTED] + [1e-3, -1e-3]),
                  min_size=1, max_size=40),
)
# the coincident nodes are two apart in the run, with a node between them
@example(m=64, start=10, gaps=[1e-3, -1e-3])
@settings(max_examples=100, deadline=None)
def test_node_check_vertical_run_matches_all_pairs(m, start, gaps):
    # a vertical run: consecutive nodes share z1 and step in z2 by the gaps
    start %= m
    al = sc.uniform_grid(m)
    z1 = al - 1.5 * np.sin(al)
    z2 = 0.3 * np.sin(2 * al)
    run = np.arange(start, start + len(gaps) + 1) % m
    z1[run] = z1[start]
    z2[run] = z2[start] + np.concatenate([[0.0], np.cumsum(gaps)])
    assert_check_matches_all_pairs(z1, z2)


@pytest.mark.parametrize("variant, b", [("basic", 8.0), ("basic", 16.9), ("basic", 40.0),
                                        ("even_symmetric", 5.0), ("even_symmetric", 10.4)])
@pytest.mark.parametrize("m", [256, 1024])
def test_turning_families_build_and_fold_without_coincidence(variant, b, m):
    # the basic family's nodes near alpha = 0 are only d^3/6 apart in z1
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=b, variant=variant), m)
    assert not all_pairs_coincide(curve.z1, curve.z2)
    # folded past turning, so the x-monotone shortcut does not apply
    z1 = curve.z1 - 0.2 * np.sin(curve.alpha)
    assert np.min(np.diff(z1)) < 0
    assert_check_matches_all_pairs(z1, curve.z2)
    sc.ParamCurve(z1=z1, z2=curve.z2)


def test_node_check_m8192_in_bounded_memory():
    # peak traced allocation (NumPy reports its buffers to tracemalloc) while
    # validating a non-monotone turning-family curve: a dense scan holds
    # 16 MB blocks of pair distances at this size. ru_maxrss cannot show it
    # here: a child process starts from the test process's high-water mark.
    m = 8192
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=16.9), m)
    z1 = curve.z1 - 0.2 * np.sin(curve.alpha)
    assert np.min(np.diff(z1)) < 0
    tracemalloc.start()
    try:
        sc.ParamCurve(z1=z1, z2=curve.z2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_simpson_weights_integrate_trig_exactly():
    m = 64
    w = simpson_weights(m, 2 * np.pi / m)
    al = sc.uniform_grid(m)
    assert abs(np.dot(w, np.ones(m)) - 2 * np.pi) <= 1e-12
    assert abs(np.dot(w, np.sin(al) ** 2) - np.pi) <= 1e-9


def test_open_simpson_weights_exact_on_cubics_and_periodic_closure():
    # Simpson, with the 3/8 rule on the last three panels of an odd count, is
    # exact on cubics; the trapezoid rule on one panel is exact on lines
    spacing = 0.3
    for nodes in range(2, 42):
        x = spacing * np.arange(nodes)
        end = x[-1]
        coeffs = [0.7, -1.3, 2.1, -0.4] if nodes > 2 else [0.7, -1.3]
        f = sum(c * x**p for p, c in enumerate(coeffs))
        exact = sum(c * end ** (p + 1) / (p + 1) for p, c in enumerate(coeffs))
        w = open_simpson_weights(nodes, spacing)
        assert w.shape == (nodes,)
        assert np.dot(w, f) == pytest.approx(exact, rel=1e-13)
    assert np.array_equal(open_simpson_weights(1, spacing), [0.0])  # no panel
    # the periodic closure is the classical 2, 4, 2, ... pattern, bit for bit
    for m in (8, 12, 200, 1024):
        d = 2 * np.pi / m
        classical = np.tile([2.0, 4.0], m // 2) * (d / 3.0)
        assert np.array_equal(*bits(simpson_weights(m, d), classical))


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


def savetxt_snapshot(path, header, columns):
    """The snapshot writer as it was, row by row through ``np.savetxt``: the
    reference for the bytes ``write_snapshot`` writes."""
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack(columns), fmt="%.17g", delimiter=",",
                   header=header, comments="", newline="\r\n")


@pytest.mark.parametrize("kind", ["graph", "curve"])
def test_snapshot_bytes_match_savetxt(tmp_path, kind):
    # values of every kind the runs write: signed zeros, tiny and large
    # magnitudes, and the 17 digits that round-trip a double
    m = 64
    h = 0.3 * np.sin(sc.uniform_grid(m)) + 1e-300 * np.cos(3 * sc.uniform_grid(m))
    h[[4, 8, 12]] = 0.0, -0.0, 1.2345678901234567e15
    if kind == "graph":
        obj = sc.GraphInterface(h=h)
        header, columns = "alpha,h", (obj.alpha, obj.h)
    else:
        obj = sc.build_turning_family(sc.TurningFamilyParams(b=8.0, variant="even_symmetric"),
                                      m)
        header, columns = "alpha,z1,z2", (obj.alpha, obj.z1, obj.z2)
    sc.write_snapshot(tmp_path / "new.csv", obj)
    savetxt_snapshot(tmp_path / "ref.csv", header, columns)
    written = (tmp_path / "new.csv").read_bytes()
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert written.startswith(header.encode() + b"\r\n") and written.count(b"\r\n") == m + 1
    back = sc.read_snapshot(tmp_path / "new.csv")
    for got, want in zip(((back.h,) if kind == "graph" else (back.z1, back.z2)), columns[1:]):
        assert np.array_equal(bits(got)[0], bits(want)[0])
        # a copy of its own, not a view keeping the whole parsed table alive:
        # the heights own their data, a curve's z1 and z2 are the two rows of
        # one (2, m) array that does
        own = got if kind == "graph" else got.base
        assert got.flags.c_contiguous and own.flags.owndata and own.size == m * (len(columns) - 1)


@pytest.mark.parametrize(
    "content, message",
    [("", "no data rows"), ("alpha,h\r\n", "no data rows"),
     ("alpha,x\r\n" + "0.5,0.5\r\n" * 8, "unrecognized snapshot header"),
     ("alpha,h\r\n" + "0.5\r\n" * 8, "every snapshot row needs 2 values"),
     ("alpha,h\r\n" + "0.5,0.5\r\n" * 7 + "0.5\r\n", "number of columns"),
     ("alpha,h\r\n" + "0.5,0.5\r\n" * 7 + "0.5,nan0\r\n", "nan0"),
     ("alpha,h\r\n" + "0.5,0.5\r\n" * 7 + "#0.5,0.5\r\n", "#0.5"),
     ("alpha,h\r\n" + "0.5,0.5\r\n" * 10, "multiple of 4")],
    ids=["empty", "header_only", "header", "short_rows", "ragged", "not_a_number", "hash",
         "grid_rule"],
)
def test_read_snapshot_errors_name_the_path(tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_text(content, newline="")
    with pytest.raises(ValueError, match=message) as info:
        sc.read_snapshot(path)
    assert str(info.value).startswith(f"{path}: ")


def test_interfaces_share_one_read_only_grid_per_m():
    # every interface on m nodes holds the same alpha; uniform_grid still
    # hands out a new writable array
    g = sine_interface(64, 0.3)
    c = sc.graph_to_curve(g)
    assert c.alpha is g.alpha is sc.GraphInterface(h=np.zeros(64)).alpha
    assert not g.alpha.flags.writeable
    assert np.array_equal(bits(g.alpha)[0], bits(sc.uniform_grid(64))[0])
    fresh = sc.uniform_grid(64)
    assert fresh.flags.writeable and fresh is not sc.uniform_grid(64)
    assert sine_interface(128).alpha is not g.alpha
