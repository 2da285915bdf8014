import os
import subprocess
import sys
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stokescontour as sc
from stokescontour import kernels
from stokescontour.kernels import (
    bilaplacian_pair_kernel_exact,
    clausen2,
    pair_kernel_rows,
)


def random_points(rng, n, x2_scale=3.0):
    x1 = rng.uniform(-np.pi, np.pi, n)
    x2 = rng.uniform(-x2_scale, x2_scale, n)
    # keep away from the singular point
    bad = (np.abs(x1) < 1e-3) & (np.abs(x2) < 1e-3)
    x1[bad] += 0.5
    return x1, x2


# --- stokeslet ----------------------------------------------------------------


def test_stokeslet_at_pi_zero():
    s = sc.stokeslet(np.pi, 0.0)
    expect = np.log(4.0) / (8 * np.pi)
    assert abs(s.s11 - expect) <= 1e-15
    assert abs(s.s22 - expect) <= 1e-15
    assert abs(s.s12) <= 1e-15


def test_stokeslet_even_under_point_reflection(rng):
    x1, x2 = random_points(rng, 10_000)
    a = sc.stokeslet(x1, x2)
    b = sc.stokeslet(-x1, -x2)
    for comp in ("s11", "s12", "s21", "s22"):
        assert np.max(np.abs(getattr(a, comp) - getattr(b, comp))) <= 1e-14


def test_stokeslet_s12_equals_s21_exactly(rng):
    x1, x2 = random_points(rng, 100)
    s = sc.stokeslet(x1, x2)
    assert np.all(s.s12 == s.s21)


def test_stokeslet_off_diagonal_reference_value():
    # (pi/2, 1): s12 = -(1/8pi)/cosh(1), cross-checked in high precision
    mp.mp.dps = 40
    den = mp.cosh(1) - mp.cos(mp.pi / 2)
    ref = float(-(1 / (8 * mp.pi)) * 1 * mp.sin(mp.pi / 2) / den)
    s = sc.stokeslet(np.pi / 2, 1.0)
    assert abs(s.s12 - ref) <= 1e-16
    assert -0.025786 < ref < -0.025785


def test_stokeslet_matches_alternate_normalization(rng):
    # the same matrix scaled by 8pi, with the log and rational parts as
    # printed in the symmetry-proof form
    x1, x2 = random_points(rng, 200)
    den = np.cosh(x2) - np.cos(x1)
    s11_alt = np.log(2 * den) + x2 * np.sinh(x2) / den
    s12_alt = -x2 * np.sin(x1) / den
    s22_alt = np.log(2 * den) - x2 * np.sinh(x2) / den
    s = sc.stokeslet(x1, x2)
    assert np.max(np.abs(8 * np.pi * s.s11 - s11_alt)) <= 1e-12
    assert np.max(np.abs(8 * np.pi * s.s12 - s12_alt)) <= 1e-12
    assert np.max(np.abs(8 * np.pi * s.s22 - s22_alt)) <= 1e-12


def test_stokeslet_near_origin_log_bound(rng):
    # |s11| <= C + |log r|/(4 pi) along random rays into the singularity
    theta = rng.uniform(0, 2 * np.pi, 50)
    for r in (0.1, 0.01, 1e-4):
        x1, x2 = r * np.cos(theta), r * np.sin(theta)
        s = sc.stokeslet(x1, x2)
        bound = 1.0 + abs(np.log(r)) / (4 * np.pi)
        assert np.max(np.abs(s.s11)) <= bound
        assert np.max(np.abs(s.s22)) <= bound


def test_stokeslet_singular_point_raises():
    with pytest.raises(ValueError):
        sc.stokeslet(0.0, 0.0)
    with pytest.raises(ValueError):
        sc.stokeslet(2 * np.pi, 0.0)


def test_stokeslet_and_dk12_match_mpmath_near_singularity():
    # rays into (0, 0) off the axes, where cosh x2 - cos x1 cancels; the
    # reference is evaluated at the exact float inputs
    theta = np.array([0.3, 1.1, 2.0, 2.9, 4.0, 5.5])
    c = 1 / (8 * mp.pi)
    with mp.workdps(60):
        for r in (1e-3, 1e-5, 1e-7, 1e-9):
            x1, x2 = r * np.cos(theta), r * np.sin(theta)
            s, k12 = sc.stokeslet(x1, x2), sc.dK12(x1, x2)
            for i in range(theta.size):
                a, b = mp.mpf(x1[i]), mp.mpf(x2[i])
                den = mp.cosh(b) - mp.cos(a)
                lg, a_ss, a_sn = mp.log(2 * den), b * mp.sinh(b) / den, b * mp.sin(a) / den
                for val, ref in ((s.s11[i], c * (lg + a_ss)), (s.s22[i], c * (lg - a_ss)),
                                 (s.s12[i], -c * a_sn), (k12[i], c * a_sn)):
                    assert abs(val - float(ref)) <= 1e-13 * abs(float(ref))


# --- dK12 ----------------------------------------------------------------------


def test_dk12_values_and_parity(rng):
    x1 = rng.uniform(0.1, np.pi, 200)
    assert np.max(np.abs(sc.dK12(x1, np.zeros_like(x1)))) == 0.0
    mp.mp.dps = 40
    ref = float(1 / (8 * mp.pi * mp.cosh(1)))
    assert abs(sc.dK12(np.pi / 2, 1.0) - ref) <= 1e-16
    x1, x2 = random_points(rng, 10_000)
    # odd in each argument separately (the x2 factor in the closed form),
    # hence even under the point reflection (x1, x2) -> (-x1, -x2)
    assert np.max(np.abs(sc.dK12(-x1, x2) + sc.dK12(x1, x2))) <= 1e-14
    assert np.max(np.abs(sc.dK12(x1, -x2) + sc.dK12(x1, x2))) <= 1e-14
    assert np.max(np.abs(sc.dK12(-x1, -x2) - sc.dK12(x1, x2))) <= 1e-14


def test_dk12_is_minus_s12(rng):
    x1, x2 = random_points(rng, 500)
    s = sc.stokeslet(x1, x2)
    assert np.max(np.abs(sc.dK12(x1, x2) + s.s12)) <= 1e-16


# --- dK1 series ------------------------------------------------------------------


def test_dk1_series_zeros_and_symmetry(rng):
    for n_max in (1, 7, 100):
        assert sc.dK1_series(0.0, 1.3, n_max) == 0.0
    x1, x2 = random_points(rng, 100, x2_scale=2.0)
    a = sc.dK1_series(x1, x2, 200)
    b = sc.dK1_series(x1, -x2, 200)
    assert np.max(np.abs(a - b)) == 0.0


def test_dk1_series_fd_matches_dk12(rng):
    # finite difference in x2 of the series against the closed form, at the
    # reference point and at 100 random points (criterion tolerance 1e-6)
    eps = 1e-4
    pts1 = np.concatenate([[np.pi / 2], rng.uniform(0.3, np.pi, 99)])
    pts2 = np.concatenate([[1.0], rng.uniform(0.5, 2.5, 99)])
    fd = (sc.dK1_series(pts1, pts2 + eps, 0) - sc.dK1_series(pts1, pts2 - eps, 0)) / (
        2 * eps
    )
    assert np.max(np.abs(fd - sc.dK12(pts1, pts2))) <= 1e-6


def test_dk1_series_auto_truncation_tail():
    # explicit large truncation vs the automatic rule
    val_auto = sc.dK1_series(1.1, 0.5, 0)
    val_big = sc.dK1_series(1.1, 0.5, 5000)
    assert abs(val_auto - val_big) <= 1e-12


def test_dk1_series_memory_is_independent_of_n_max(rng):
    # peak traced allocation of 20,000 points at the automatic truncation,
    # here n_max = 800: a (points, n_max) array of terms would be 128 MB
    x1, x2 = random_points(rng, 20_000)
    x2[0] = 0.01  # |x2| floored at 0.05 sets n_max = 800
    tracemalloc.start()
    try:
        sc.dK1_series(x1, x2, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# --- bilaplacian pair kernel -----------------------------------------------------


def test_biharm_single_term_value():
    assert abs(sc.biharm_pair_kernel(0.0, 0.0, 1) - 1 / (4 * np.pi)) <= 1e-16


def test_biharm_even_in_x1(rng):
    x1, x2 = random_points(rng, 300, x2_scale=2.0)
    a = sc.biharm_pair_kernel(x1, x2, 64)
    b = sc.biharm_pair_kernel(-x1, x2, 64)
    assert np.max(np.abs(a - b)) <= 1e-15


def test_biharm_fd_matches_dk1_series():
    # term-by-term differentiation: d/dx1 of the pair kernel is dK1
    eps = 1e-4
    n_max = 400
    fd = (
        sc.biharm_pair_kernel(np.pi / 2 + eps, 1.0, n_max)
        - sc.biharm_pair_kernel(np.pi / 2 - eps, 1.0, n_max)
    ) / (2 * eps)
    assert abs(fd - sc.dK1_series(np.pi / 2, 1.0, n_max)) <= 1e-6


def test_biharm_decay_envelope(rng):
    # series domination: the absolute-sum envelope at height 10 is under
    # 1e-3 of the envelope at height 0, and every value sits inside it
    n = np.arange(1, 2000)
    env = lambda a: np.sum((1 + n * a) / n**3 * np.exp(-n * a)) / (4 * np.pi)
    assert env(10.0) <= 1e-3 * env(0.0)
    x1 = rng.uniform(-np.pi, np.pi, 200)
    vals = sc.biharm_pair_kernel(x1, np.full_like(x1, 10.0), 2000)
    assert np.max(np.abs(vals)) <= env(10.0) + 1e-18


def test_biharm_exact_matches_series_and_mpmath(rng):
    x1, x2 = random_points(rng, 60, x2_scale=5.0)
    exact = bilaplacian_pair_kernel_exact(x1, x2)
    series = sc.biharm_pair_kernel(x1, x2, 200_000 // 40)
    # truncation tail dominates the series side away from x2 = 0
    mask = np.abs(x2) >= 0.5
    assert np.max(np.abs(exact[mask] - series[mask])) <= 1e-12
    mp.mp.dps = 30
    for i in range(0, 60, 7):
        w = mp.e ** (-abs(x2[i]) + 1j * x1[i])
        ref = float(
            (mp.polylog(3, w).real + abs(x2[i]) * mp.polylog(2, w).real) / (4 * mp.pi)
        )
        assert abs(exact[i] - ref) <= 1e-13


def expansion_table(s):
    """zeta(s - k)/k!, k < 60: the mu^k coefficients of Li_s(e^mu) around mu = 0.

    The log term takes the slot k = s - 1, which holds 0.
    """
    with mp.workdps(50):
        return np.array([0.0 if s - k == 1 else float(mp.zeta(s - k) / mp.factorial(k))
                         for k in range(60)])


C2, C3 = expansion_table(2), expansion_table(3)


def polylog23_near_one(mu):
    """Li2(e^mu) and Li3(e^mu) by the expansion around mu = 0 (|mu| < 2pi), Horner."""
    # mu = 0 occurs only at w = 1; the log factor is multiplied by mu/mu^2
    safe = np.where(mu == 0, 1.0, mu)
    lg = np.log(-safe)
    s2 = np.full_like(mu, C2[-1])
    s3 = np.full_like(mu, C3[-1])
    for k in range(C2.size - 2, -1, -1):
        s2 *= mu
        s2 += C2[k]
        s3 *= mu
        s3 += C3[k]
    return mu * (1.0 - lg) + s2, 0.5 * mu**2 * (1.5 - lg) + s3


def complex_pair_kernel(x1, x2):
    """Kpair by complex Horner sums: the defining series in w = e^mu for
    |x2| >= log 2, else the expansion of Li2/Li3 around mu = 0."""
    x1 = np.asarray(x1, dtype=float)
    a = np.abs(np.asarray(x2, dtype=float))
    mu = -a + 1j * (x1 - 2 * np.pi * np.round(x1 / (2 * np.pi)))
    li2 = np.empty_like(mu)
    li3 = np.empty_like(mu)
    far = np.broadcast_to(a >= np.log(2.0), mu.shape)
    li2[far], li3[far] = kernels._polylog_series(np.exp(mu[far]), 48, (2, 3))
    li2[~far], li3[~far] = polylog23_near_one(mu[~far])
    return (li3.real + a * li2.real) / (4 * np.pi)


# |x2| on both sides of the branch switches: 2 here, log 2 in the reference
heights = st.one_of(
    st.floats(0.0, 4.0),
    st.floats(1.99, 2.01),
    st.floats(0.69, 0.70),
    st.floats(0.0, 1e-6),
    st.floats(4.0, 800.0),
)


def tables_at_offsets(m, r):
    """``kernels._row_tables`` of the offset rows r of an m-node grid, shaped (*r.shape, 1)."""
    return tuple(t[..., None] for t in kernels._row_tables(r * (2 * np.pi / m)))


@given(
    log2m=st.integers(3, 13),
    row=st.floats(0.0, 1.0),
    x2=st.lists(heights, min_size=1, max_size=40),
    sign=st.sampled_from([1.0, -1.0]),
)
@settings(max_examples=200, deadline=None)
def test_offset_rows_match_complex_reference(log2m, row, x2, sign):
    m = 2**log2m
    r = np.array([round(row * m / 2)])
    x2 = sign * np.array([x2])
    x1 = r[0] * (2 * np.pi / m)
    ref = complex_pair_kernel(x1, x2)
    assert np.max(np.abs(pair_kernel_rows(tables_at_offsets(m, r), x2) - ref)) <= 1e-15
    # the pointwise entry point, also off [0, pi] (evenness and periodicity)
    for shift in (0.0, -2 * x1, 2 * np.pi, -6 * np.pi):
        got = bilaplacian_pair_kernel_exact(x1 + shift, x2)
        assert np.max(np.abs(got - complex_pair_kernel(x1 + shift, x2))) <= 1e-15


@pytest.mark.parametrize("m", [8, 512, 4096])
def test_offset_rows_match_mpmath(m):
    heights = [0.0, 1e-300, 1e-12, 1.0, np.nextafter(2.0, 0.0), 2.0,
               np.nextafter(2.0, 3.0), 10.0, 40.0, 700.0]
    rows = np.array([0, 1, m // 2 - 1, m // 2])
    got = pair_kernel_rows(tables_at_offsets(m, rows),
                           np.broadcast_to(np.array(heights), (rows.size, len(heights))))
    with mp.workdps(40):
        for k, r in enumerate(rows):
            for j, a in enumerate(heights):
                w = mp.exp(mp.mpf(-a) + 1j * mp.mpf(r * (2 * np.pi / m)))
                ref = (mp.polylog(3, w).real + mp.mpf(a) * mp.polylog(2, w).real) / (4 * mp.pi)
                assert abs(got[k, j] - float(ref)) <= 1e-15
    far = pair_kernel_rows(tables_at_offsets(m, rows), np.full((rows.size, 1), 2e6))
    assert np.all(np.isfinite(far))


@pytest.mark.parametrize("m", [64, 1024])
def test_far_rows_match_mpmath(rng, m):
    # the |x2| >= 2 branch sums the defining series by the same Horner loop
    # as complex_pair_kernel, so it is checked against mpmath here
    rows = rng.integers(0, m // 2 + 1, 40)
    x2 = rng.uniform(2.0, 14.0, 40) * rng.choice([-1.0, 1.0], 40)
    got = pair_kernel_rows(tables_at_offsets(m, rows), x2[:, None])[:, 0]
    exact = bilaplacian_pair_kernel_exact(rows * (2 * np.pi / m), x2)
    with mp.workdps(30):
        for k, r in enumerate(rows):
            a = abs(mp.mpf(x2[k]))
            w = mp.exp(-a + 1j * mp.mpf(r * (2 * np.pi / m)))
            ref = float((mp.polylog(3, w).real + a * mp.polylog(2, w).real) / (4 * mp.pi))
            assert abs(got[k] - ref) <= 1e-15
            assert abs(exact[k] - ref) <= 1e-15


def test_biharm_pair_kernel_rejects_n_max_below_one():
    # the exact kernel has its own entry point, bilaplacian_pair_kernel_exact
    for n_max in (0, -1):
        with pytest.raises(ValueError):
            sc.biharm_pair_kernel(0.7, 0.3, n_max)


@pytest.mark.parametrize("m", [2**k for k in range(3, 15)] + [12, 200, 204])
def test_clausen2_matches_mpmath_on_cell_widths(m):
    # the half panel, panel and printed-cell widths of an m-node grid
    with mp.workdps(30):
        for w in (np.pi / m, 2 * np.pi / m, 4 * np.pi / m):
            ref = float(mp.clsin(2, w))
            assert abs(clausen2(w) - ref) <= 2e-15 * abs(ref)


# --- blocks of the pair sums ----------------------------------------------------


def block_plan(path, m):
    """(blocks, rows to cover, width, m of the rule) of one path of a pair sum.

    The offset-row sums (graph and ``delta``) block the row pairs
    s = 0..m/4 - 1 of width m/4 + 1 or m; the curve's node blocks the nodes
    of its domain, against the elements x nodes columns of its widest block.
    """
    kind, name = path.split("-")
    if kind == "offset":
        width = m // 4 + 1 if name == "quarter" else m
        return kernels.offset_blocks(m, width), m // 4, width, m
    central, even = {"full": (False, False), "central": (True, False),
                     "quarter": (True, True)}[name]
    images, _, _, _, plan = sc.evolution_curve._path_blocks(m, central, even)
    return tuple(b for b, _, _ in plan), images.shape[1], images.size, images.size


# offsets (two a row pair) or nodes a block: at m = 512, and from m = 1024 on
PINNED_ROWS = {"offset-quarter": (128, 64), "offset-full": (32, 16), "node-full": (16, 8),
               "node-central": (16, 8), "node-quarter": (16, 8)}


@pytest.mark.parametrize("path", list(PINNED_ROWS))
@pytest.mark.parametrize("m", [8, 12, 200, 204, 512, 1024, 2048, 8192])
def test_blocks_are_slices_sized_by_the_one_rule(path, m):
    # every block is a slice of the rows, and the slices cover the rows once,
    # in order, each but the last of one size
    blocks, count, width, scale = block_plan(path, m)
    assert all(b.step is None for b in blocks)
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == count
    rows = blocks[0].stop
    assert all(b.stop - b.start == rows for b in blocks[:-1])
    # the rule: about _BLOCK_ELEMENTS elements a block up to m = 1024, and
    # beyond it proportionally more, so that the rows stay those of m = 1024;
    # at least one row and at most all of them
    assert rows == min(count, max(1, kernels.block_rows(width, scale)))
    elements = kernels._BLOCK_ELEMENTS * max(1, scale / 1024)
    assert 1 <= rows <= count and (rows == count or abs(rows * width - elements) <= width / 2)
    if m >= 512:
        per_row = 2 if path.startswith("offset") else 1
        assert per_row * rows == PINNED_ROWS[path][m > 512]


def expected_rows(x, r, m, width):
    """x at the near and far nodes ``central_pair_rows`` reads for the offsets r."""
    # column k of the rows r = 2s + 1, 2s + 2: near node k on the full
    # layout (width m) and k + s + 1 on the pair centres (width m/4 + 1),
    # far node near - r
    r = r.reshape(-1, 2)
    near = np.arange(width) + int(width != m) * ((r[:, :1, None] + 1) // 2)
    return x[near % m], x[(near - r[..., None]) % m]


@pytest.mark.parametrize("layout", ["full", "quarter"])
def test_reader_keeps_its_rows_after_another_is_built(rng, layout):
    # each reader holds a buffer of its own, so a second reader of the same
    # grid and width leaves the rows of the first as they were
    m = 64
    width = {"full": m, "quarter": m // 4 + 1}[layout]
    xs, ys = rng.normal(size=(2, 2, m))
    first, second = (kernels.central_pair_rows(*z, width=width) for z in (xs, ys))
    # blocks of 4 row pairs (8 offsets), so that m = 64 reads several
    for b in kernels.blocks(m // 4, 4):
        r = np.arange(2 * b.start + 1, 2 * b.stop + 1)
        for (near, far), z in ((first, xs), (second, ys)):
            got = near[:, b], far[:, b]
            for k, x in enumerate(z):
                want = expected_rows(x, r, m, width)
                assert np.array_equal(got[0][k], want[0]) and np.array_equal(got[1][k], want[1])
                assert not (got[0].flags.writeable or got[1].flags.writeable)


@pytest.mark.parametrize("layout", ["full", "quarter"])
@pytest.mark.parametrize("m", [8, 12, 64])
def test_folded_and_projected_terms_are_the_orbit_sum(rng, m, layout):
    # weighted random terms of the held pairs, folded and projected onto the
    # path's symmetries, are their sum over every image of every pair, for a
    # component that maps like p (row 0) and one that maps like z2 (row 1),
    # each in a folder of its own
    width = {"full": m, "quarter": m // 4 + 1}[layout]
    central = even = layout == "quarter"
    (kc, sign_c), (ke, sign_e) = sc.geometry._reflections(m)
    # (node map, sign of the p row, sign of the z2 row) of each group element
    group = [(np.arange(m), 1.0, 1.0)]
    if even:
        group += [(kc, -1.0, sign_c), (ke, -1.0, sign_e), (ke[kc], 1.0, sign_c * sign_e)]
    folders = [kernels.central_folder(m, width) for _ in range(2)]
    expect = np.zeros((2, m))
    for b in kernels.offset_blocks(m, width):
        # near node of column i of row r: i on all m columns, i + s + 1 with
        # r = 2s + 1 or 2s + 2 on the pair centres; the far node r less
        offset = np.arange(2 * b.start + 1, 2 * b.stop + 1).reshape(-1, 2, 1)
        near_node = (np.arange(width) + (width < m) * ((offset - 1) // 2 + 1)) % m
        for k in range(2):
            near, far = (kernels.stabilizer_weights(rng.normal(size=(len(offset), 2, width)), b, m)
                         for _ in range(2))
            for g, *signs in group:
                np.add.at(expect[k], g[near_node], signs[k] * near)
                np.add.at(expect[k], g[(near_node - offset) % m], signs[k] * far)
            folders[k][0](near, far, b)
    got = np.array(sc.geometry.symmetry_projector(m, central, even)(*(t() for _, t in folders)))
    assert np.max(np.abs(got - expect)) <= 1e-14 * np.max(np.abs(expect))


def test_expansion_tables_are_correctly_rounded():
    # (-1)^j zeta(1 - 2j)/(2j + 1)! of the Cl2 series, bit for bit
    with mp.workdps(50):
        ref = [0.0] + [float((-1) ** j * mp.zeta(1 - 2 * j) / mp.factorial(2 * j + 1))
                       for j in range(1, kernels._CL2.size)]
        assert np.array_equal(kernels._CL2, ref)
        # the reference tables, with zeta(-j) = (-1)^j B_{j+1}/(j + 1)
        def zeta(n):
            return mp.zeta(n) if n > 1 else (-1) ** -n * mp.bernoulli(1 - n) / (1 - n)

        for s, table in ((2, C2), (3, C3)):
            ref = [0.0 if s - k == 1 else float(zeta(s - k) / mp.factorial(k))
                   for k in range(table.size)]
            assert np.array_equal(table, ref)


def test_package_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(sc.__file__))
    code = ("import stokescontour, sys; "
            "assert not any(k.split('.')[0] == 'scipy' for k in sys.modules)")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
