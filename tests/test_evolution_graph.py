import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import stokescontour as sc
from stokescontour import diagnostics, evolution_graph
from stokescontour.evolution_graph import (
    _block_constants,
    _cell_correction_values,
    _log_circulant,
    _rhs_arrays,
)
from stokescontour import kernels
from stokescontour.evolution_curve import _rhs_curve_arrays
from stokescontour.geometry import (
    central_diff,
    exact_symmetries,
    graph_to_curve,
    second_diff,
    symmetry_projection,
    symmetry_projector,
)
from stokescontour.integrators import BlowupError, dopri_step
from stokescontour.kernels import dK12, stokeslet, stokeslet_terms

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


def params_for(m, quadrature="spectral_log", viscosity=1e-3, sign=-1.0):
    return sc.SchemeParams(sign_factor=sign, viscosity=viscosity, m=m, quadrature=quadrature)


# --- right-hand side ---------------------------------------------------------


def test_full_period_log_integral_vanishes():
    # the derivation behind flat steadiness: int log(2(1 - cos b)) db = 0
    val, _ = quad(lambda b: np.log(2 * (1 - np.cos(b))), 0.0, np.pi,
                  points=[0.0], limit=300, epsabs=1e-12)
    assert abs(2 * val) <= 1e-9


@pytest.mark.parametrize("c", [0.0, 0.5, -0.5, 1.0, -1.0])
@given(m=grids)
@example(m=256)
@settings(max_examples=10, deadline=None)
def test_flat_states_steady(c, m):
    state = sc.GraphState(0.0, sc.GraphInterface(h=np.full(m, c)))
    rhs = sc.rhs_graph(state, params_for(m))
    assert np.max(np.abs(rhs)) <= 1e-10


def test_small_sine_linear_growth_rate():
    # the linearization of the unstable scheme grows mode k at rate 2 pi/|k|
    m, a = 1024, 1e-3
    state = sc.GraphState(0.0, sine_interface(m, a))
    rhs = sc.rhs_graph(state, params_for(m, viscosity=0.0))
    target = 2 * np.pi * a * np.sin(sc.uniform_grid(m))
    assert np.max(np.abs(rhs - target)) <= 5e-4 * (2 * np.pi * a)


def test_rhs_against_refined_panel_quadrature_oracle():
    # independent oracle: the classical Taylor-cell panel scheme at 16x the
    # resolution, evaluated on the analytically sampled data
    m, a = 1024, 1e-3
    rhs = sc.rhs_graph(sc.GraphState(0.0, sine_interface(m, a)), params_for(m, viscosity=0.0))
    mf = 16 * m
    oracle_all = _rhs_arrays(
        a * np.sin(sc.uniform_grid(mf)),
        params_for(mf, quadrature="taylor_cell", viscosity=0.0),
    )
    oracle = oracle_all[::16]
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(rhs - oracle)) <= 1e-4 * scale


def test_constant_plus_wiggle_taylor_cell_consistency():
    # both quadratures approximate the same field on resolved data
    m = 512
    h = 0.2 * np.sin(sc.uniform_grid(m)) + 0.05 * np.sin(2 * sc.uniform_grid(m))
    st = sc.GraphState(0.0, sc.GraphInterface(h=h))
    r1 = sc.rhs_graph(st, params_for(m))
    r2 = sc.rhs_graph(st, params_for(m, quadrature="taylor_cell"))
    assert np.max(np.abs(r1 - r2)) <= 2e-3 * max(np.max(np.abs(r1)), 1e-12)


@given(m=grids, coeffs=modes)
@example(m=256, coeffs=[(0.0, 0.2), (0.1, -0.1), (0.0, 0.05)])
@settings(max_examples=10, deadline=None)
def test_rhs_odd_symmetry(m, coeffs):
    # the sine part mirrored node by node, so h is odd on the grid exactly
    h = np.zeros(m)
    h[1 : m // 2] = band_limited(m, [(0.0, b) for _, b in coeffs])[1 : m // 2]
    h[m // 2 + 1 :] = -h[1 : m // 2][::-1]
    rhs = sc.rhs_graph(sc.GraphState(0.0, sc.GraphInterface(h=h)), params_for(m))
    j = np.arange(m)
    assert np.max(np.abs(rhs + rhs[(-j) % m])) <= 1e-12


def taylor_cell_offset_weights(m):
    """Simpson's weights 1, 4, 2, ..., 4, 1 times d/3 by offset r = 1..m-1, 0 at r = 0."""
    weights = np.zeros(m)
    weights[1::2] = 2.0
    weights[2::2] = 4.0
    weights[1] = weights[m - 1] = 1.0
    d = 2 * np.pi / m
    return weights * (d / 3.0)


def all_offsets_rhs(h, params):
    """The graph RHS as a plain sum over every offset r = 1..m-1, one at a time."""
    m = h.size
    d = 2 * np.pi / m
    dh = central_diff(h, d)
    spectral = params.quadrature == "spectral_log"
    if spectral:
        omega = _log_circulant(m)
        one_p = 1.0 + dh * dh
        acc = d * (np.log(one_p) * h * one_p
                   + 2 * h * dh * dh * (dh * dh - 1) / one_p + 4 * h * dh * dh / one_p)
        log_a, log_b = omega[0] * h, omega[0] * h * dh
        weights = np.full(m, d)
    else:
        acc = 2 * _cell_correction_values(h, dh, d, params.singular_cell_variant)
        weights = taylor_cell_offset_weights(m)
    for r in range(1, m):
        hb, dhb = np.roll(h, r), np.roll(dh, r)
        lg, a_ss, a_sn = stokeslet_terms(r * d, h - hb)
        if spectral:
            lg = lg - np.log(4 * np.sin(0.5 * r * d) ** 2)
            log_a += omega[r] * hb
            log_b += omega[r] * np.roll(h * dh, r)
        dd = dh * dhb
        acc += weights[r] * hb * (lg * (1 + dd) + a_ss * (dd - 1) + a_sn * (dh + dhb))
    if spectral:
        acc += log_a + dh * log_b
    return params.sign_factor * acc + params.viscosity * second_diff(h, d)


QUADRATURES = [("spectral_log", "halfangle"), ("taylor_cell", "halfangle"),
               ("taylor_cell", "printed")]
COEFFS = [(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)]


def assert_quarter_sum_matches_all_offsets(h, quadrature, cell):
    """On exactly odd and antiperiodic heights, where the quarter sum runs, the
    RHS agrees with the reference sum to 1e-13 of its scale and is exactly
    odd and exactly antiperiodic."""
    m = h.size
    j = np.arange(m)
    assert np.array_equal(h, -h[(-j) % m]) and np.array_equal(h[m // 2 :], -h[: m // 2])
    p = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m, quadrature=quadrature,
                        singular_cell_variant=cell)
    rhs = _rhs_arrays(h, p)
    ref = all_offsets_rhs(h, p)
    assert np.max(np.abs(rhs - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert np.array_equal(rhs, -rhs[(-j) % m])
    assert np.array_equal(rhs[m // 2 :], -rhs[: m // 2])


@pytest.mark.parametrize("quadrature, cell", [("spectral_log", "halfangle"),
                                              ("taylor_cell", "halfangle"),
                                              ("taylor_cell", "printed")])
@given(m=grids, coeffs=modes, anti=st.booleans())
# m = 200: the last block of offset rows is partial and holds r = m/2
@example(m=200, coeffs=[(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)], anti=False)
# antiperiodic heights: the full sum, still exactly antiperiodic
@example(m=200, coeffs=[(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)], anti=True)
@settings(max_examples=10, deadline=None)
def test_blocked_rhs_matches_all_offsets_sum(quadrature, cell, m, coeffs, anti):
    h = band_limited(m, coeffs)
    if anti:
        h = antiperiodic(h)
    p = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m, quadrature=quadrature,
                        singular_cell_variant=cell)
    rhs = _rhs_arrays(h, p)
    if anti:
        assert np.array_equal(rhs[m // 2 :], -rhs[: m // 2])
    ref = all_offsets_rhs(h, p)
    assert np.max(np.abs(rhs - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_graph_scheme_is_under_the_grid_rule():
    # m an integer multiple of 4, as for every interface: m/2 is even, so
    # the pair sums pair up their offset rows 1..m/2 without a pad row; a
    # float, even an integral one, or a boolean is no grid size
    for m in (6, 66, 202, 64.0, 64.5, True):
        with pytest.raises(ValueError, match=re.escape(
                f"m must be an integer multiple of 4 and >= 8, got {m!r}")):
            params_for(m)
    with pytest.raises(ValueError, match="state has m=66 but params.m=68"):
        _rhs_arrays(band_limited(66, COEFFS), params_for(68))


def projected(h):
    """h projected onto the symmetries it carries, as every state of a run is."""
    return symmetry_projection(graph_to_curve(sc.GraphInterface(h=h)))(None, h)[1]


@pytest.mark.parametrize("quadrature, cell", QUADRATURES)
@pytest.mark.parametrize("preset", ["f1", "f2"])
# one block of offset rows (m = 8, 12), a short last block (m = 200, 204:
# m/2 is not a multiple of the block) and several blocks (m = 512)
@pytest.mark.parametrize("m", [8, 12, 200, 204, 512])
def test_quarter_sum_on_projected_presets(quadrature, cell, preset, m):
    h = projected({"f1": sc.preset_f1, "f2": sc.preset_f2}[preset](m))
    assert_quarter_sum_matches_all_offsets(h, quadrature, cell)


@pytest.mark.parametrize("quadrature, cell", QUADRATURES)
@given(m=grids, coeffs=modes)
@example(m=8, coeffs=COEFFS)
@example(m=12, coeffs=COEFFS)
@example(m=200, coeffs=COEFFS)
@example(m=204, coeffs=COEFFS)
@example(m=512, coeffs=COEFFS)
@settings(max_examples=10, deadline=None)
def test_quarter_sum_matches_all_offsets_sum(quadrature, cell, m, coeffs):
    h = doubly_symmetric(band_limited(m, coeffs))
    # the reference's scale: not all heights 0
    assume(np.max(np.abs(h)) >= 1e-100)
    assert_quarter_sum_matches_all_offsets(h, quadrature, cell)


def exactly_doubly_symmetric(h):
    """h(-alpha) = -h(alpha) and h(alpha + pi) = -h(alpha), bit for bit."""
    m = h.size
    return (np.array_equal(h, -h[(-np.arange(m)) % m])
            and np.array_equal(h[m // 2 :], -h[: m // 2]))


@pytest.mark.parametrize("preset", ["f1", "f2"])
def test_graph_run_states_stay_doubly_symmetric(monkeypatch, preset):
    # the projected initial state is exactly odd and antiperiodic and so is
    # the quarter sum, so every DOPRI5 stage and accepted state stays so and
    # every call of the run takes the quarter sum
    m = 128
    symmetric = []

    def spy(h, params):
        symmetric.append(exactly_doubly_symmetric(h))
        return rhs(h, params)

    rhs = evolution_graph._rhs_arrays
    monkeypatch.setattr(evolution_graph, "_rhs_arrays", spy)
    h = {"f1": sc.preset_f1, "f2": sc.preset_f2}[preset](m)
    traj = sc.evolve(sc.GraphState(0.0, sc.GraphInterface(h=h)), params_for(m),
                     make_integrator(t_end=0.12, dt_max=0.01), [0.0, 0.06, 0.12])
    assert not traj.failed
    assert len(symmetric) >= 1 + 6 * 12 and all(symmetric)


@pytest.mark.parametrize("preset", ["f1", "f2"])
def test_graph_run_records_take_the_quarter_delta(monkeypatch, preset):
    # every record of a projected run is exactly odd and antiperiodic, so
    # every delta of the run takes the quarter sum
    m = 128
    seen = []

    def spy(interface):
        h = interface.h
        seen.append(exactly_doubly_symmetric(h) and all(exact_symmetries(None, h)))
        return delta(interface)

    delta = diagnostics.delta_spectral
    monkeypatch.setattr(diagnostics, "delta_spectral", spy)
    h = {"f1": sc.preset_f1, "f2": sc.preset_f2}[preset](m)
    samples = np.linspace(0.0, 0.12, 7)
    traj = sc.evolve(sc.GraphState(0.0, sc.GraphInterface(h=h)), params_for(m),
                     make_integrator(t_end=0.12, dt_max=0.01), samples,
                     sc.DiagnosticsOptions(compute_delta=True))
    assert not traj.failed
    assert len(seen) == len(traj.records) == samples.size and all(seen)
    assert all(np.isfinite(rec.delta) and rec.delta > 0.0 for rec in traj.records)


@pytest.mark.parametrize("quadrature", ["spectral_log", "taylor_cell"])
@pytest.mark.parametrize("symmetry", ["central", "even"])
def test_rhs_keeps_a_single_exact_symmetry(quadrature, symmetry):
    # the stepper does not project: on heights with one symmetry exactly the
    # full sum is symmetric only to roundoff, and the right-hand side's own
    # projection makes that symmetry exact, so every stage keeps it
    rng = np.random.default_rng(7)
    which = ("central", "even").index(symmetry)
    carried = (which == 0, which == 1)
    exact = []
    for _ in range(30):
        m = int(rng.choice([8, 16, 32, 48, 64]))
        coeffs = rng.uniform(-0.3, 0.3, size=(int(rng.integers(1, 7)), 2))
        h = symmetry_projector(m, *carried)(None, band_limited(m, coeffs))[1]
        assert exact_symmetries(None, h) == carried
        exact.append(exact_symmetries(None, _rhs_arrays(h, params_for(m, quadrature)))[which])
    assert all(exact), f"{exact.count(False)} of {len(exact)} outputs not exactly {symmetry}"


@pytest.mark.parametrize("quadrature", ["spectral_log", "taylor_cell"])
@given(m=grids, coeffs=modes, shift=st.integers(1, 63), anti=st.booleans())
@example(m=128, coeffs=[(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)], shift=1, anti=False)
# several blocks of offset rows
@example(m=256, coeffs=[(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)], shift=45, anti=False)
# antiperiodic heights: the full sum
@example(m=256, coeffs=[(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)], shift=45, anti=True)
# heights exactly odd and antiperiodic (the quarter sum) whose shift is
# neither (the full sum): drawn sines are exactly odd at subnormal amplitudes
@example(m=8, coeffs=[(0.0, 2.2250738585e-313)], shift=1, anti=False)
@example(m=48, coeffs=[(0.0, 2.2e-311)], shift=1, anti=True)
@settings(max_examples=10, deadline=None)
def test_grid_translation_equivariance(quadrature, m, coeffs, shift, anti):
    # the RHS commutes with a shift of the nodes bit for bit while the shift
    # keeps the heights' exact symmetries, which choose the sum's path; a
    # shift that changes them changes the path, and moves the output only by
    # the roundoff between the two paths: relative to the output, and in the
    # subnormal range, where a number holds fewer bits, relative to the
    # smallest normal number
    h = band_limited(m, coeffs)
    if anti:
        h = antiperiodic(h)
    p = params_for(m, quadrature=quadrature)
    rhs = np.roll(_rhs_arrays(h, p), shift)
    rhs_shifted = _rhs_arrays(np.roll(h, shift), p)
    if exact_symmetries(None, np.roll(h, shift)) == exact_symmetries(None, h):
        assert np.array_equal(rhs_shifted, rhs)
    else:
        scale = max(np.max(np.abs(rhs)), np.finfo(float).tiny)
        assert np.max(np.abs(rhs_shifted - rhs)) <= 1e-13 * scale


@pytest.mark.parametrize("quadrature", ["spectral_log", "taylor_cell"])
def test_node_shifted_graph_state_takes_the_full_sum(monkeypatch, quadrature):
    # projected f2 shifted by one node: still exactly antiperiodic, no longer
    # odd about node 0, so the RHS and delta take the full sum and agree with
    # the quarter sums of the unshifted state, shifted
    m = 256
    h = projected(sc.preset_f2(m))
    p = params_for(m, quadrature=quadrature)
    assert exact_symmetries(None, h) == (True, True)
    rhs, delta = _rhs_arrays(h, p), sc.delta_spectral(sc.GraphInterface(h=h))
    shifted = np.roll(h, 1)
    assert np.array_equal(shifted[m // 2 :], -shifted[: m // 2])
    # the symmetries each sum reads set the width of all its rows
    paths = []

    def spy(*state):
        paths.append(exact_symmetries(*state))
        return paths[-1]

    monkeypatch.setattr(evolution_graph, "exact_symmetries", spy)
    monkeypatch.setattr(diagnostics, "exact_symmetries", spy)
    rhs_shifted = _rhs_arrays(shifted, p)
    assert np.max(np.abs(rhs_shifted - np.roll(rhs, 1))) <= 1e-13 * np.max(np.abs(rhs))
    delta_shifted = sc.delta_spectral(sc.GraphInterface(h=shifted))
    assert abs(delta_shifted - delta) <= 1e-14 * delta
    assert paths == [(False, False)] * 2


def out_of_place_rhs(h, params):
    """The graph RHS with a fresh array for every term of every block.

    The same operations in the same order as ``_rhs_arrays``, which computes
    the block terms in place in one workspace: the two agree bit for bit.
    """
    m = h.size
    d = 2 * np.pi / m
    dh = central_diff(h, d)
    spectral = params.quadrature == "spectral_log"
    if spectral:
        weights = np.full(m, d)
        omega = _log_circulant(m)
        one_p = 1.0 + dh * dh
        t23_0 = 2.0 * h * dh * dh * (dh * dh - 1.0) / one_p + 4.0 * h * dh * dh / one_p
        r0 = d * (np.log(one_p) * h * one_p + t23_0) + omega[0] * h * one_p
    else:
        weights = taylor_cell_offset_weights(m)
        r0 = 2.0 * _cell_correction_values(h, dh, d, params.singular_cell_variant)
    # the rows of all m columns, and the blocks of offset rows of the
    # production sum on this path
    rows, (fold, total) = kernels.central_pair_rows(h, dh, width=m), kernels.central_folder(m, m)
    for r, *_ in _block_constants(m, params.quadrature, m):
        x1 = r * d
        (ha, dha), (hb, dhb) = rows(r)
        lg, a_ss, a_sn = stokeslet_terms(x1.reshape(-1, 2, 1), ha - hb)
        if spectral:
            lg += (omega[r] / d - np.log(4.0 * np.sin(0.5 * x1) ** 2)).reshape(-1, 2, 1)
        dd = dha * dhb
        pair = weights[r].reshape(-1, 2, 1) * (lg * (1.0 + dd) + a_ss * (dd - 1.0)
                                               + a_sn * (dha + dhb))
        kernels.stabilizer_weights(pair, r, m)
        fold(hb * pair, ha * pair, r)
    return params.sign_factor * (r0 + total()) + params.viscosity * second_diff(h, d)


@pytest.mark.parametrize("quadrature, cell", [("spectral_log", "halfangle"),
                                              ("taylor_cell", "halfangle"),
                                              ("taylor_cell", "printed")])
@pytest.mark.parametrize("anti", [False, True])
# m = 200, 204: m/2 is not a multiple of the block, so the last block is short
@pytest.mark.parametrize("m", [8, 12, 200, 204, 512])
def test_rhs_bitwise_equals_out_of_place_blocks(quadrature, cell, anti, m):
    h = sc.preset_f2(m) + band_limited(m, [(0.3, -0.2), (0.1, 0.2), (-0.05, 0.1)])
    if anti:
        # antiperiodic but not odd: the full sum, as out_of_place_rhs
        h = antiperiodic(h)
        assert np.array_equal(h[m // 2 :], -h[: m // 2])
    assert not all(exact_symmetries(None, h))
    p = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m, quadrature=quadrature,
                        singular_cell_variant=cell)
    new, ref = bits(_rhs_arrays(h, p), out_of_place_rhs(h, p))
    assert np.array_equal(new, ref)


@pytest.mark.parametrize("call", ["graph", "curve", "delta", "stokeslet", "dK12",
                                  "stokeslet_terms"])
def test_inputs_left_unchanged(call):
    # the right-hand sides and kernels compute in place in their own arrays
    # only: an input written over would corrupt the integrator's state
    m = 256
    h = sc.preset_f2(m)
    x1 = np.linspace(0.1, 6.0, 40).reshape(8, 5)
    x2 = np.cos(3.0 * x1)
    if call == "graph":
        # the full sum, on raw and on antiperiodic heights, and the quarter sum
        cases = [(y, params_for(m, quadrature=q)) for y in (h, antiperiodic(h), projected(h))
                 for q in ("spectral_log", "taylor_cell")]
        f = _rhs_arrays
    elif call == "curve":
        # the full, the central and the quarter path, on the state (p, z2)
        basic, even = (sc.build_turning_family(sc.TurningFamilyParams(b=b, variant=v), m)
                       for v, b in (("basic", 16.9), ("even_symmetric", 10.4)))
        cases = [(basic.z1 - basic.alpha, basic.z2, basic.alpha, -2.0)]
        cases += [(*symmetry_projection(c)(c.z1 - c.alpha, c.z2), c.alpha, -2.0)
                  for c in (basic, even)]
        assert [exact_symmetries(*args[:2]) for args in cases] == [
            (False, False), (True, False), (True, True)]
        f = _rhs_curve_arrays
    elif call == "delta":
        # the full sum, on raw and on antiperiodic heights, and the quarter
        # sum; GraphInterface keeps the heights it is given, so delta reads
        # this very array
        cases = [(y,) for y in (h, antiperiodic(h), projected(h))]
        assert [all(exact_symmetries(None, y)) for y, in cases] == [False, False, True]

        def f(y):
            g = sc.GraphInterface(h=y)
            assert g.h is y
            return sc.delta_spectral(g)
    else:
        cases = [(x1, x2), (x1[:, :1], x2), (x1[0, 0], x2[0, 0])]
        f = {"stokeslet": stokeslet, "dK12": dK12, "stokeslet_terms": stokeslet_terms}[call]
    for args in cases:
        before = [np.array(a, copy=True) for a in args if isinstance(a, np.ndarray)]
        f(*args)
        after = [a for a in args if isinstance(a, np.ndarray)]
        assert len(before) == len(after) and all(map(np.array_equal, bits(*before), bits(*after)))


def cached_constants():
    """Every cache of the package, by name, with arguments to fill it on a small grid."""
    m = 64
    args = {
        "geometry._shared_grid": [(m,)],
        "geometry._reflections": [(m,)],
        "kernels.clausen2": [(0.1,)],
        "kernels._taylor_shifts": [()],
        "evolution_graph._log_circulant": [(m,)],
        "evolution_graph._block_constants": [(m, q, width) for q in evolution_graph.QUADRATURES
                                             for width in (m // 4 + 1, m)],
        "diagnostics._kernel_blocks": [(m, m // 4 + 1), (m, m)],
        "evolution_curve._path_blocks": [(m, False, False), (m, True, False), (m, True, True)],
        "turning._family_without_b": [(sc.TurningFamilyParams(b=1.0, variant=v), m)
                                      for v in ("basic", "even_symmetric")],
        "diagnostics._kpair_origin": [()],
    }
    found = {}
    for module in (sc.geometry, kernels, sc.integrators, sc.turning, evolution_graph,
                   sc.evolution_curve, diagnostics, sc.config, sc.cli):
        for name, fn in vars(module).items():
            if hasattr(fn, "cache_info") and fn.__module__ == module.__name__:
                found[f"{module.__name__.split('.')[-1]}.{name}"] = fn
    assert set(found) == set(args)
    return [(name, found[name], a) for name in sorted(args) for a in args[name]]


def arrays_in(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from arrays_in(v)


def test_cached_constants_are_read_only_and_bounded():
    # a cache hands the same arrays to every call, so none may be written
    # through, and each holds a bounded number of grids
    for name, fn, args in cached_constants():
        assert fn.cache_parameters()["maxsize"] is not None, name
        for a in arrays_in(fn(*args)):
            assert not a.flags.writeable, name
            with pytest.raises(ValueError):
                a[...] = 0.0


def test_interleaved_grids_give_the_results_of_fresh_calls():
    # the sums keep per-grid constants across calls and nothing else: sums
    # on other grids and of the other kinds in between leave every result as
    # it is with every cache emptied first
    def sums(m):
        h = projected(sc.preset_f2(m))
        basic, even = (sc.build_turning_family(sc.TurningFamilyParams(b=b, variant=v), m)
                       for v, b in (("basic", 16.9), ("even_symmetric", 10.4)))
        curves = [(*symmetry_projection(c)(c.z1 - c.alpha, c.z2), c.alpha, -2.0)
                  for c in (basic, even)]
        return [lambda q=q: _rhs_arrays(h, params_for(m, quadrature=q))
                for q in evolution_graph.QUADRATURES] + [
                lambda: np.array(sc.delta_spectral(sc.GraphInterface(h=h)))] + [
                lambda c=c: np.concatenate(_rhs_curve_arrays(*c)) for c in curves]

    calls = [(m, f) for m in (512, 256, 512) for f in sums(m)]
    fresh = []
    for _, f in calls:
        for _, fn, _ in cached_constants():
            fn.cache_clear()
        fresh.append(f())
    interleaved = [f() for _, f in calls]
    assert all(np.array_equal(*bits(a, b)) for a, b in zip(fresh, interleaved))


# traced peak of one RHS call at m = 4096, MiB. Measured in a fresh process
# (NumPy 2.4 on x86-64): 4.26 and 3.44 for the graph full and quarter sums
# (16- and 64-row blocks), whose bounds are about 1.5 and 1.2 times that,
# each below its peak plus the sum's one block workspace (2.5 MiB), so that
# the workspace made twice, or made anew per block while the last is still
# held, exceeds them. The bounds of the curve's three paths were set so for
# its offset-row sums (peaks 4.92, 4.12 and 4.20); on node blocks of 8 rows
# they read 3.52, 2.99 and 2.77 (1.5 MiB workspace)
PEAK_MIB = {"graph": 6.4, "graph-quarter": 4.1, "curve": 7.4, "curve-central": 4.9,
            "curve-quarter": 5.4}


@pytest.mark.parametrize("formulation", ["graph", "graph-quarter", "curve", "curve-central",
                                         "curve-quarter"])
def test_rhs_m4096_in_bounded_memory(formulation):
    # peak traced allocation (NumPy reports its buffers to tracemalloc) of one
    # evaluation: the temporaries of a block of offset rows are O(block * m),
    # where one m x m array of pair terms alone is 128 MB. ru_maxrss cannot
    # show it here: a child process starts from the test process's
    # high-water mark. Raw preset_f2 takes the full sum and its projection
    # (exactly odd and antiperiodic) the quarter sum. The lift of the
    # projection takes the curve's quarter path, the projected lift of odd
    # heights that are not antiperiodic its central path, and the raw lift
    # its full path.
    m = 4096
    h = sc.preset_f2(m)
    j = np.arange(m)
    if formulation in ("graph-quarter", "curve-quarter"):
        h = projected(h)
        assert np.array_equal(h, -h[(-j) % m])
        assert np.array_equal(h[m // 2 :], -h[: m // 2])
    else:
        assert not np.array_equal(h[m // 2 :], -h[: m // 2])
    c = sc.graph_to_curve(sc.GraphInterface(h=h))
    p, z2 = c.z1 - c.alpha, c.z2
    if formulation == "curve-central":
        c = sc.ParamCurve(z1=c.z1, z2=h + 0.1 * np.sin(2 * c.alpha))
        p, z2 = symmetry_projection(c)(p, c.z2)
    if formulation.startswith("curve"):
        path = {"curve": (False, False), "curve-central": (True, False),
                "curve-quarter": (True, True)}[formulation]
        assert exact_symmetries(p, z2) == path

        def call():
            return np.concatenate(_rhs_curve_arrays(p, z2, c.alpha, -2.0))
    else:
        def call():
            return _rhs_arrays(h, sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m))
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(out))
    assert peak < PEAK_MIB[formulation] * 2**20


def test_rhs_blowup_error_carries_node():
    m = 64
    h = 800.0 * np.sin(sc.uniform_grid(m))  # cosh overflows
    with pytest.raises(BlowupError) as info:
        sc.rhs_graph(sc.GraphState(0.0, sc.GraphInterface(h=h)), params_for(m))
    assert 0 <= info.value.node < m


# --- singular cell -----------------------------------------------------------


def cell_values(h, w, variant="halfangle"):
    """Taylor-cell value of the singular panel [0, w] at every node."""
    return _cell_correction_values(h, sc.central_diff(h, 2 * np.pi / h.size), w, variant)


def test_singular_cell_zero_height():
    m = 256
    h = np.zeros(m)
    h[0] = 0.3  # nonzero somewhere else; node m//2 has h = 0 and flat slope
    assert cell_values(h, 2 * np.pi / m)[m // 2] == 0.0


def test_singular_cell_flat_slope_value():
    # dh = 0, h = 1: the cell reduces to the log integral, a negative number
    m = 256
    w = 2 * np.pi / m
    val = cell_values(np.ones(m), w)[5]
    oracle, _ = quad(lambda b: np.log(4 * np.sin(b / 2) ** 2), 0, w,
                     points=[0.0], limit=200, epsabs=1e-13)
    assert val < 0
    assert abs(val - oracle) <= 1e-12


def test_singular_cell_shrinks_superlinearly():
    # w log w scaling: halving the panel better than halves the correction
    vals = {}
    for m in (256, 512, 1024):
        vals[m] = abs(cell_values(np.ones(m), 2 * np.pi / m)[3])
    assert vals[512] / vals[256] <= 0.62
    assert vals[1024] / vals[512] <= 0.62


def test_log_cell_variants_differ():
    # with h = 1 and a flat slope the cell is the bare log integral
    w = 2 * np.pi / 256
    h = np.ones(8)
    half, printed = cell_values(h, w, "halfangle")[0], cell_values(h, w, "printed")[0]
    assert half != printed
    # the printed variant drops the half angle: log(4 sin^2 b) over the panel
    oracle, _ = quad(lambda b: np.log(4 * np.sin(b) ** 2), 0, w,
                     points=[0.0], limit=200, epsabs=1e-13)
    assert abs(printed - oracle) <= 1e-12


# --- stepping and evolve --------------------------------------------------------


def step(h, params, ip, t=0.0, dt=None):
    """One Dormand-Prince step of the graph scheme at a fixed dt: (h_new, err)."""
    f = lambda t, y: _rhs_arrays(y, params)
    dt = ip.dt_init if dt is None else dt
    h_new, err, _ = dopri_step(f, t, h.copy(), dt, ip.rel_tol, ip.abs_tol)
    return h_new, err


def test_step_adaptive_flat_state():
    m = 64
    h = np.zeros(m)
    ip = make_integrator(t_end=1.0, dt_init=1e-3, dt_max=0.5)
    new, err = step(h, params_for(m), ip)
    assert np.array_equal(new, h)
    assert err == 0.0


def test_step_doubling_consistency():
    # one acceptable step against two half steps, within the error-estimate scale
    m = 64
    h = sc.preset_f2(m)
    p = params_for(m)
    ip = make_integrator(t_end=1.0, dt_init=0.02, dt_max=0.02, rel_tol=1e-6, abs_tol=1e-9)
    full, err = step(h, p, ip)
    assert err <= 1.0
    half1, _ = step(h, p, ip, dt=0.01)
    half2, _ = step(half1, p, ip, t=0.01, dt=0.01)
    scale = ip.abs_tol + ip.rel_tol * np.max(np.abs(full))
    diff = np.max(np.abs(full - half2))
    assert diff <= 2.0 * scale


def test_evolve_flat_trajectory():
    m = 64
    st = sc.GraphState(0.0, sc.GraphInterface(h=np.zeros(m)))
    ip = make_integrator(t_end=1.0, dt_max=0.5)
    traj = sc.evolve(st, params_for(m), ip, [0.0, 0.5, 1.0])
    assert not traj.failed
    assert [r.t for r in traj.records] == [0.0, 0.5, 1.0]
    for rec, state in zip(traj.records, traj.states):
        assert rec.energy == 0.0
        assert np.array_equal(state.interface.h, st.interface.h)


def test_evolve_hits_sample_times_exactly():
    m = 64
    st = sc.GraphState(0.0, sine_interface(m, 1e-3))
    ip = make_integrator(t_end=0.1, dt_max=0.03)
    ts = [0.0, 0.037, 0.1]
    traj = sc.evolve(st, params_for(m), ip, ts)
    assert [r.t for r in traj.records] == ts


def test_evolve_partial_on_step_failure():
    m = 64
    st = sc.GraphState(0.0, sine_interface(m, 0.5))
    ip = sc.IntegratorParams(
        t_end=1.0, rel_tol=1e-12, abs_tol=1e-12, dt_init=0.5, dt_min=0.5, dt_max=0.5
    )
    traj = sc.evolve(st, params_for(m), ip, [0.0, 0.5, 1.0])
    assert traj.failed
    assert traj.failure_time == 0.0
    assert len(traj.records) == 1  # the initial sample was still recorded


def test_evolve_energy_monotone_unstable_short():
    m = 128
    st = sc.GraphState(0.0, sine_interface(m, 0.3))
    ip = make_integrator(t_end=0.1)
    traj = sc.evolve(st, params_for(m), ip, list(np.linspace(0, 0.1, 6)))
    e = np.array([r.energy for r in traj.records])
    assert np.all(np.diff(e) >= -1e-8)


def test_self_convergence_order_two_small_grids():
    sols = {}
    for m in (64, 128, 256):
        st = sc.GraphState(0.0, sine_interface(m, 0.1))
        ip = make_integrator(t_end=0.1, rel_tol=1e-9, abs_tol=1e-12, dt_init=1e-4)
        traj = sc.evolve(st, params_for(m), ip, [0.1],
                         options=sc.DiagnosticsOptions(compute_delta=False))
        sols[m] = traj.states[-1].interface.h
    d1 = np.max(np.abs(sols[64] - sols[128][::2]))
    d2 = np.max(np.abs(sols[128] - sols[256][::2]))
    assert d1 / d2 >= 3.0


def test_scheme_params_validation():
    with pytest.raises(ValueError):
        sc.SchemeParams(sign_factor=0.0, viscosity=1e-3, m=64)
    with pytest.raises(ValueError):
        sc.SchemeParams(sign_factor=-1.0, viscosity=-1e-3, m=64)
    with pytest.raises(ValueError):
        sc.SchemeParams(sign_factor=-1.0, viscosity=0.0, m=64, quadrature="exact")
    with pytest.raises(ValueError):
        sc.SchemeParams(sign_factor=-1.0, viscosity=0.0, m=64, singular_cell_variant="x")
    with pytest.raises(ValueError):
        # params/state grid mismatch
        sc.rhs_graph(
            sc.GraphState(0.0, sc.GraphInterface(h=np.zeros(64))),
            sc.SchemeParams(sign_factor=-1.0, viscosity=0.0, m=128),
        )
