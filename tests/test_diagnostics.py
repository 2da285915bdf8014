import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import stokescontour as sc
from stokescontour.diagnostics import (
    DIAG_COLUMNS,
    DiagnosticsOptions,
    DiagnosticsRecord,
    DiagnosticsWriter,
    dEdt_series,
    read_diagnostics_csv,
    record_for_graph,
)
from stokescontour import kernels
from stokescontour.geometry import exact_symmetries
from stokescontour.kernels import bilaplacian_pair_kernel_exact

from conftest import (
    antiperiodic,
    band_limited,
    bits,
    doubly_symmetric,
    grids,
    make_integrator,
    modes,
    sine_interface,
)


# --- energy -------------------------------------------------------------------


def test_energy_values():
    assert sc.energy(sc.GraphInterface(h=np.zeros(64))) == 0.0
    c = 0.7
    val = sc.energy(sc.GraphInterface(h=np.full(256, c)))
    assert abs(val - 2 * np.pi * c * c) <= 1e-12
    assert abs(sc.energy(sine_interface(256)) - np.pi) <= 1e-10


def test_energy_constant_matches_2d_monte_carlo():
    # independent oracle: E = int x2 (rho_s - rho) over the strip; for h = c
    # the integrand is 2 x2 on 0 < x2 < c
    rng = np.random.default_rng(7)
    c = 0.5
    n = 400_000
    x2 = rng.uniform(0.0, c, n)
    box_area = 2 * np.pi * c
    mc = box_area * np.mean(2.0 * x2)
    val = sc.energy(sc.GraphInterface(h=np.full(128, c)))
    assert abs(val - mc) <= 0.01 * val


def test_energy_symmetries(rng):
    h = np.fft.irfft(np.fft.rfft(rng.normal(size=128))[:9], 128)
    g = sc.GraphInterface(h=h)
    assert sc.energy(sc.GraphInterface(h=-h)) == sc.energy(g)
    rolled = sc.GraphInterface(h=np.roll(h, 17))
    assert abs(sc.energy(rolled) - sc.energy(g)) <= 1e-12 * max(1, sc.energy(g))
    assert sc.energy(g) >= 0.0


def test_energy_curve_matches_graph_reduction(rng):
    h = np.fft.irfft(np.fft.rfft(rng.normal(size=128))[:7], 128)
    g = sc.GraphInterface(h=h)
    assert abs(sc.energy_curve(sc.graph_to_curve(g)) - sc.energy(g)) <= 1e-12


# --- delta ---------------------------------------------------------------------


def test_delta_flat_zero():
    assert sc.delta_spectral(sc.GraphInterface(h=np.full(64, 0.8))) == 0.0


def test_delta_small_amplitude_scaling():
    m, a = 256, 1e-3
    d1 = sc.delta_spectral(sine_interface(m, a))
    d2 = sc.delta_spectral(sine_interface(m, a / 2))
    assert abs(d1 / d2 - 4.0) <= 1e-3
    assert abs(d1 - np.pi * a * a) <= 1e-3 * np.pi * a * a


def test_delta_matches_energy_slope_physical_convention():
    # with sign_factor = -1/(4 pi) the density jump is the +-1 normalization
    # and dE/dt = delta exactly (up to quadrature and finite-difference
    # accuracy)
    m, a = 256, 1e-3
    g = sine_interface(m, a)
    params = sc.SchemeParams(sign_factor=-1.0 / (4 * np.pi), viscosity=0.0, m=m)
    ip = make_integrator(t_end=0.04, rel_tol=1e-9, abs_tol=1e-12)
    ts = [0.0, 0.01, 0.02, 0.03, 0.04]
    traj = sc.evolve(sc.GraphState(0.0, g), params, ip, ts)
    dEdt = sc.dE_dt_fd(traj)
    for i in (1, 2, 3):
        delta = traj.records[i].delta
        assert abs(delta - dEdt[i]) <= 0.05 * abs(dEdt[i])
        assert abs(delta - dEdt[i]) <= 0.01 * abs(dEdt[i])  # comfortably inside


def test_delta_rate_sign_convention():
    g = sine_interface(128, 1e-2)
    base = sc.delta_spectral(g)
    assert sc.delta_rate(g, -1.0) == pytest.approx(4 * np.pi * base)
    assert sc.delta_rate(g, 1 / (8 * np.pi)) == pytest.approx(-0.5 * base)


def drawn_interface(m, coeffs, symmetry=None):
    h = band_limited(m, coeffs)
    if symmetry is not None:
        h = symmetry(h)
    # delta is quadratic in h: keep h'^2 clear of the subnormal range
    assume(np.max(np.abs(h)) >= 1e-100)
    return sc.GraphInterface(h=h)


@given(m=grids, coeffs=modes)
@settings(max_examples=10, deadline=None)
def test_delta_nonnegative(m, coeffs):
    assert sc.delta_spectral(drawn_interface(m, coeffs)) >= 0.0


@given(m=grids, coeffs=modes, shift=st.integers(-8, 8), roll=st.integers(1, 63))
@settings(max_examples=10, deadline=None)
def test_delta_invariant_under_vertical_shift_and_roll(m, coeffs, shift, roll):
    # heights on a 2^-40 grid, so h + shift/4 is exact in floating point and
    # the comparison sees delta, not the rounding of the shifted data
    h = np.round(drawn_interface(m, coeffs).h * 2.0**40) / 2.0**40
    base = sc.delta_spectral(sc.GraphInterface(h=h))
    for moved in (h + shift / 4, np.roll(h, roll)):
        assert abs(sc.delta_spectral(sc.GraphInterface(h=moved)) - base) <= 1e-12 * base


@given(m=grids, coeffs=modes, symmetry=st.sampled_from([None, antiperiodic, doubly_symmetric]))
@settings(max_examples=10, deadline=None)
# heights 8 apart: both kernel branches, a < 2 and a >= 2
@example(m=64, coeffs=[(0.0, 4.0)], symmetry=None)
# h(alpha + pi) = -h(alpha) exactly, not odd: the full sum
@example(m=64, coeffs=[(0.0, 4.0), (0.3, 0.1), (0.1, -0.2)], symmetry=antiperiodic)
# also h(-alpha) = -h(alpha) exactly: the sum over the pair centres 0..m/4
@example(m=64, coeffs=[(0.0, 4.0), (0.3, 0.1), (0.1, -0.2)], symmetry=doubly_symmetric)
def test_delta_matches_dense_pair_sum(m, coeffs, symmetry):
    g = drawn_interface(m, coeffs, symmetry)
    hp = sc.central_diff(g.h, g.spacing)
    ker = bilaplacian_pair_kernel_exact(
        g.alpha[:, None] - g.alpha[None, :], g.h[:, None] - g.h[None, :]
    )
    dense = 4.0 * g.spacing**2 * (hp @ ker @ hp)
    assert abs(sc.delta_spectral(g) - dense) <= 1e-12 * dense


def out_of_place_pair_kernel(m, rows, a):
    """Kpair at the offset rows ``rows`` (shaped to broadcast against a) and
    heights a = |x2|, with a fresh array for every step."""
    x, xsq, scale, shift, near = kernels._row_tables(np.arange(m // 2 + 1) * (2 * np.pi / m))
    clipped = np.minimum(a, 2.0)
    t = clipped - 1.0
    s = near[-1][rows] * t
    for c in near[-2:0:-1]:
        s = (s + c[rows]) * t
    s = s + near[0][rows]
    csq = clipped * clipped
    arg = np.maximum(csq * scale[rows] + shift[rows], np.nextafter(-1.0, 0.0))
    s = s + 0.25 * (csq + xsq[rows]) * np.log1p(arg)
    far = a >= 2.0
    if far.any():
        af = a[far]
        xf = x[np.broadcast_to(rows, a.shape)[far]]
        li2, li3 = kernels._polylog_series(np.exp(-af + 1j * xf), kernels._FAR_TERMS, (2, 3))
        s[far] = li3.real + af * li2.real
    return kernels.ONE_OVER_4PI * s


def out_of_place_delta(interface, magnitudes=False):
    """delta_spectral on the full sum with a fresh array for every step of the pair kernel.

    The same operations in the same order as ``delta_spectral``, which
    evaluates the kernel of a block in place in one workspace: the two agree
    bit for bit. The r = 0 row is Kpair(0, 0) sum_i h'_i^2, the rows
    r = 1..m/2 count twice, the row m/2 half of that. With ``magnitudes``
    the sum of the magnitudes of the same terms, the scale of the roundoff
    of any order of summing them.
    """
    size = np.abs if magnitudes else (lambda t: t)
    h, m, d = interface.h, interface.m, interface.spacing
    hp = sc.central_diff(h, d)
    origin = out_of_place_pair_kernel(m, np.zeros((1, 1), dtype=int), np.zeros((1, 1)))[0, 0]
    total = float(size(origin) * (hp @ hp))
    near, far = kernels.central_pair_rows(h, hp, width=m)
    for b in kernels.offset_blocks(m, m):
        # the row pairs b hold the offsets 2 b.start + 1 .. 2 b.stop
        r = np.arange(2 * b.start + 1, 2 * b.stop + 1)
        (ha, hpa), (hb, hpb) = near[:, b], far[:, b]
        ker = out_of_place_pair_kernel(m, r.reshape(-1, 2, 1), np.abs(ha - hb))
        total += 2.0 * float(kernels.stabilizer_weights(size(ker * hpb * hpa), b, m).sum())
    return 4.0 * d * d * total


# heights 8 apart: both kernel branches, a < 2 and a >= 2
@pytest.mark.parametrize("coeffs", [[(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)], [(0.0, 4.0)]])
@pytest.mark.parametrize("anti", [False, True])
# m = 200, 204: m/2 is not a multiple of the block, so the last block is short
@pytest.mark.parametrize("m", [8, 12, 200, 204, 512])
def test_delta_bitwise_equals_out_of_place_kernel(m, anti, coeffs):
    h = sc.preset_f2(m) + band_limited(m, coeffs)
    if anti:
        # antiperiodic but not odd: the full sum, as out_of_place_delta
        h = antiperiodic(h)
        assert np.array_equal(h[m // 2 :], -h[: m // 2])
    assert not all(exact_symmetries(None, h))
    g = sc.GraphInterface(h=h)
    new, ref = bits(sc.delta_spectral(g), out_of_place_delta(g))
    assert np.array_equal(new, ref)


def assert_quarter_sum_matches_full_sum(h):
    assert all(exact_symmetries(None, h))
    g = sc.GraphInterface(h=h)
    quarter, full = sc.delta_spectral(g), out_of_place_delta(g)
    assert abs(quarter - full) <= 1e-14 * full


@pytest.mark.parametrize("preset", [sc.preset_f1, sc.preset_f2])
# one block of offset rows (m = 8, 12), a short last block (m = 200, 204:
# m/2 is not a multiple of the block) and several blocks (m = 512)
@pytest.mark.parametrize("m", [8, 12, 200, 204, 512])
def test_delta_quarter_sum_on_doubly_symmetric_presets(preset, m):
    # out_of_place_delta reads all m columns of every row: the full sum
    assert_quarter_sum_matches_full_sum(doubly_symmetric(preset(m)))


COEFFS = [(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)]


@given(m=grids, coeffs=modes)
@example(m=8, coeffs=COEFFS)
@example(m=12, coeffs=COEFFS)
@example(m=200, coeffs=COEFFS)
@example(m=204, coeffs=COEFFS)
@example(m=512, coeffs=COEFFS)
# cancelling terms: delta is 0.0323, its terms' magnitudes sum to more
@example(m=48, coeffs=[(-0.25, 0.125), (0, 0), (0, 0.25), (0, 0), (0, -0.125), (0.25, 0)])
@settings(max_examples=10, deadline=None)
def test_delta_quarter_sum_matches_full_sum(m, coeffs):
    # the two sums add the same terms in other orders, so they agree to the
    # roundoff of summing them, which scales with the sum of the terms'
    # magnitudes: on heights whose terms cancel, delta lies far below it
    g = drawn_interface(m, coeffs, doubly_symmetric)
    assert all(exact_symmetries(None, g.h))
    gap = abs(sc.delta_spectral(g) - out_of_place_delta(g))
    assert gap <= 1e-14 * out_of_place_delta(g, magnitudes=True)


@pytest.mark.parametrize("symmetry", [None, antiperiodic, doubly_symmetric])
def test_delta_is_a_python_float_on_every_path(symmetry):
    h = sc.preset_f2(64) + band_limited(64, COEFFS)
    if symmetry is not None:
        h = symmetry(h)
    # the full sum (raw and antiperiodic heights) and the quarter sum
    assert all(exact_symmetries(None, h)) == (symmetry is doubly_symmetric)
    assert type(sc.delta_spectral(sc.GraphInterface(h=h))) is float


# peak traced allocation of one evaluation at m = 4096, MiB, with the
# per-offset kernel tables warm. Measured in a fresh process: the raw
# heights take the full sum (2.22, 16-row blocks), their doubly symmetric
# continuation the quarter sum (2.26, 64-row blocks). Each bound, 1.5 and
# 1.2 times its peak, is below the peak plus the sum's 2.0 MiB block
# workspace, so that the workspace made twice exceeds it
DELTA_PEAK_MIB = {"raw": 3.3, "doubly-symmetric": 2.7}


@pytest.mark.parametrize("heights", DELTA_PEAK_MIB)
def test_delta_m4096_in_bounded_memory(heights):
    # peak traced allocation (NumPy reports its buffers to tracemalloc) of one
    # evaluation: its blocks of offset rows are O(block * m), where one m x m
    # array of kernel values alone is 128 MB. ru_maxrss cannot show it here:
    # a child process starts from the test process's high-water mark.
    g = sc.GraphInterface(h=sc.preset_f2(4096))
    if heights == "doubly-symmetric":
        g = sc.GraphInterface(h=doubly_symmetric(g.h))
    assert all(exact_symmetries(None, g.h)) == (heights == "doubly-symmetric")
    # the first evaluation at this m builds the per-offset kernel tables
    # (about 7 MiB); with them warm the bound is that of the sum alone
    sc.delta_spectral(g)
    tracemalloc.start()
    try:
        val = sc.delta_spectral(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(val) and val > 0.0
    assert peak < DELTA_PEAK_MIB[heights] * 2**20


# --- dE/dt finite differences ----------------------------------------------------


def test_dEdt_quadratic_exact():
    t = np.array([0.0, 0.1, 0.2, 0.35, 0.5])
    e = t * t
    out = dEdt_series(t, e)
    assert np.max(np.abs(out[1:-1] - 2 * t[1:-1])) <= 1e-12


def test_dEdt_flat_and_errors():
    t = np.linspace(0, 1, 5)
    assert np.all(dEdt_series(t, np.ones(5)) == 0.0)
    with pytest.raises(ValueError):
        dEdt_series(np.array([0.0, 0.2, 0.1]), np.zeros(3))
    with pytest.raises(ValueError):
        dEdt_series(np.array([0.0, 0.1]), np.zeros(2))


# --- finger count ----------------------------------------------------------------


def brute_force_count(h, mu):
    """Independent reimplementation: count maximal flat runs (cyclically) when
    any steep node exists, plus steep-to-steep slope sign flips."""
    m = len(h)
    d = 2 * np.pi / m
    slope = [(h[(j + 1) % m] - h[(j - 1) % m]) / (2 * d) for j in range(m)]
    flat = [abs(s) <= mu for s in slope]
    if all(flat):
        return 0
    count = 0
    for j in range(m):
        if flat[j] and not flat[(j - 1) % m]:
            count += 1
    for j in range(m):
        if not flat[j] and not flat[(j + 1) % m] and slope[j] * slope[(j + 1) % m] < 0:
            count += 1
    return count


def test_fingers_flat():
    assert sc.finger_count(sc.GraphInterface(h=np.zeros(64)), 0.1) == 0


def test_fingers_sine():
    g = sine_interface(1024)
    assert sc.finger_count(g, 0.1) == 2 == brute_force_count(g.h, 0.1)


def test_fingers_f2_baseline_frozen():
    g = sc.GraphInterface(h=sc.preset_f2(2048))
    assert sc.finger_count(g, 0.05) == brute_force_count(g.h, 0.05) == 4


def test_fingers_grid_scale_flip_counts():
    # sawtooth spike: steep up then steep down between adjacent nodes
    m = 64
    h = np.zeros(m)
    h[10] = 1.0
    g = sc.GraphInterface(h=h)
    count = sc.finger_count(g, 0.05)
    assert count == brute_force_count(h, 0.05)
    assert count >= 1


@st.composite
def finger_heights(draw):
    """Heights on m = 8..256 nodes, m a multiple of 4: runs of repeated
    levels, exact zeros among them, repeated cyclically to m nodes, so that
    flat ranges of every length occur and some wrap past node m - 1."""
    m = 4 * draw(st.integers(2, 64))
    level = st.sampled_from([0.0, 0.5, -0.5, 1e-3]) | st.floats(-3.0, 3.0)
    runs = draw(st.lists(st.tuples(level, st.integers(1, 12)), min_size=1, max_size=40))
    return np.resize(np.repeat(*zip(*runs)), m)


@settings(max_examples=200, deadline=None)
@given(h=finger_heights(), mu=st.floats(0.0, 4.0, exclude_min=True))
@example(h=[0.0] * 8, mu=0.1)                                   # all flat
@example(h=[0.0, 0.0, 0.0, 1.0, 2.0, 1.0, 0.0, 0.0], mu=0.1)    # a range wraps past m - 1
@example(h=[0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0], mu=0.1)    # a one-node spike
@example(h=[3.0 * k * k for k in range(8)], mu=0.1)             # no flat node
def test_finger_count_matches_brute_force(h, mu):
    g = sc.GraphInterface(h=np.array(h))
    assert sc.finger_count(g, mu) == brute_force_count(h, mu)


def test_finger_count_needs_positive_mu():
    with pytest.raises(ValueError, match="mu must be positive"):
        sc.finger_count(sine_interface(64), 0.0)


# --- wiener norm -----------------------------------------------------------------


def test_wiener_fixture_values():
    g = sine_interface(1024)
    assert abs(sc.wiener_norm(g, 0.0, 0.0) - 1.0) <= 1e-8
    assert abs(sc.wiener_norm(g, 1.0, 1.0) - np.e) <= 1e-8
    assert sc.wiener_norm(sc.GraphInterface(h=np.zeros(1024)), 1.0, 0.3) == 0.0


@given(
    nu=st.floats(0.0, 0.02),
    s=st.floats(0.0, 2.0),
)
@settings(max_examples=25, deadline=None)
def test_wiener_monotone_in_weights(nu, s):
    h = np.sin(sc.uniform_grid(256)) + 0.3 * np.sin(3 * sc.uniform_grid(256))
    g = sc.GraphInterface(h=h)
    base = sc.wiener_norm(g, s, nu)
    assert sc.wiener_norm(g, s, nu + 0.01) >= base - 1e-12
    assert sc.wiener_norm(g, s + 0.5, nu) >= base - 1e-12


def test_wiener_guards():
    with pytest.raises(ValueError):
        sc.wiener_norm(sc.GraphInterface(h=np.zeros(1024)), 0.0, 2.0)  # overflow guard


@pytest.mark.parametrize("s, nu", [(800.0, 0.0), (float("nan"), 0.0), (0.0, float("nan"))],
                         ids=["s_overflow", "s_nan", "nu_nan"])
def test_wiener_guards_reject_large_s_and_nan(s, nu):
    # (m/2)^800 overflows at m = 1024 (log 4990), and NaN fails no < 0 test;
    # both once gave a nan norm
    with pytest.raises(ValueError):
        sc.wiener_norm(sc.GraphInterface(h=np.zeros(1024)), s, nu)


# h = a sin(k alpha) has |h_hat(+-k)| = a/2 and no other mode: norm a e^{nu k} k^s
SINE_A, SINE_K, WIENER_S, WIENER_NU = 0.3, 5, 1.5, 0.2
SINE_WIENER = SINE_A * np.exp(WIENER_NU * SINE_K) * SINE_K**WIENER_S


@pytest.mark.parametrize("m", [96, 200, 1024])  # 96 and 200 are not powers of two
def test_wiener_closed_form(m):
    g = sine_interface(m, SINE_A, SINE_K)
    assert sc.wiener_norm(g, WIENER_S, WIENER_NU) == pytest.approx(SINE_WIENER, rel=1e-12)


# --- records and CSV ---------------------------------------------------------------


def test_record_for_graph_wiener_on_every_grid():
    opts = DiagnosticsOptions(wiener_s=WIENER_S, wiener_nu=WIENER_NU, compute_delta=False)
    g = sine_interface(96, SINE_A, SINE_K)
    wnorm = record_for_graph(0.0, g, -1.0, opts).wiener_norm
    assert wnorm == pytest.approx(SINE_WIENER, rel=1e-12)
    # an invalid knob is an error, not a silent gap (configs reject it)
    with pytest.raises(ValueError, match="overflow guard"):
        record_for_graph(0.0, g, -1.0, DiagnosticsOptions(wiener_nu=22.0, compute_delta=False))


def test_diagnostics_csv_roundtrip(tmp_path):
    path = tmp_path / "diag.csv"
    recs = [
        DiagnosticsRecord(
            t=0.1 * i,
            energy=float(i),
            delta=0.5 * i,
            perimeter=6.3,
            max_curvature=1.0,
            max_height=1.0,
            min_height=0.5,
            central_sym_err=1e-15,
            even_sym_err=1e-15,
            finger_count=2,
            wiener_norm=1.0,
        )
        for i in range(4)
    ]
    with DiagnosticsWriter(path) as w:
        for r in recs:
            w.write(r)
    data = read_diagnostics_csv(path)
    assert list(data.keys()) == DIAG_COLUMNS
    assert np.allclose(data["E"], [0, 1, 2, 3])
    assert np.isnan(data["dEdt"][0])
    assert np.allclose(data["dEdt"][1:], 10.0)  # backward difference of E over t


def test_perimeter_lower_bound_chain_on_short_run():
    g = sine_interface(128, 0.4)
    params = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=128)
    ip = make_integrator(t_end=0.05)
    traj = sc.evolve(sc.GraphState(0.0, g), params, ip, [0.0, 0.025, 0.05])
    for rec in traj.records:
        lhs = max(rec.max_height, rec.min_height)
        assert lhs >= np.sqrt(rec.energy) / (2 * np.sqrt(np.pi)) - 1e-8


def test_delta_nonnegative_on_random_smooth_interfaces(rng):
    for _ in range(10):
        h = 5e-3 * np.fft.irfft(np.fft.rfft(rng.normal(size=128))[:9], 128)
        assert sc.delta_spectral(sc.GraphInterface(h=h)) >= -1e-6
