import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import stokescontour as sc
import stokescontour.turning as turning
from stokescontour.geometry import central_diff

FIXTURES = json.loads(
    (Path(__file__).parent / "fixtures" / "turning_fixtures.json").read_text()
)


def test_params_validation():
    with pytest.raises(ValueError):
        sc.TurningFamilyParams(b=1.0, alpha2=1.3, alpha3=1.2)
    with pytest.raises(ValueError):
        sc.TurningFamilyParams(b=0.5)
    with pytest.raises(ValueError):
        sc.TurningFamilyParams(b=1.0, variant="even_symmetric", eps_flat=1.0)
    # eps_flat = 0.2 fits the flats (below (pi/2 - alpha2)/2) but not alpha2/2
    with pytest.raises(ValueError, match="eps_flat too large relative to alpha2"):
        sc.TurningFamilyParams(b=1.0, variant="even_symmetric", alpha2=0.3, alpha3=0.5,
                               eps_flat=0.2)
    with pytest.raises(ValueError):
        sc.TurningFamilyParams(b=1.0, variant="unknown")


@pytest.mark.parametrize("m", [2048, 3072])
@pytest.mark.parametrize("variant", ["basic", "even_symmetric"])
def test_basic_family_conditions(variant, m):
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=3.0, variant=variant), m)
    d = curve.spacing
    dz1 = 1.0 + central_diff(curve.z1 - curve.alpha, d)
    j0 = m // 2
    assert abs(dz1[j0]) <= d * d  # vertical tangent at alpha = 0
    assert central_diff(curve.z2, d)[j0] > 0.0
    # increasing away from the vertical tangents (also at +-pi when even)
    vertical = [j0, 0] if variant == "even_symmetric" else [j0]
    assert np.all(np.delete(dz1, vertical) > 0.0)
    csym, _ = sc.symmetry_errors(curve)
    assert csym <= 1e-12


# the smooth steps of the even zstar underflow to exact zeros near their
# window ends, which properties (b) and (c) pass: such zeros lie inside
# (c)'s interval at m = 332 and inside (b)'s at m = 1420
@pytest.mark.parametrize("m", [332, 1420, 2048, 3072, 6144, 16384])
def test_even_family_symmetry_and_flats(m):
    p = sc.TurningFamilyParams(b=4.0, variant="even_symmetric")
    curve = sc.build_turning_family(p, m)
    csym, esym = sc.symmetry_errors(curve)
    assert csym <= 1e-12 and esym <= 1e-12
    a, z2 = curve.alpha, curve.z2
    near = np.abs(np.abs(a) - np.pi / 2) <= p.eps_flat
    assert np.all(z2[near] == 0.0)
    # no node of the reversed sign (z2 has the signs of zstar)
    assert np.all(z2[(a > 0.0) & (a < p.alpha2 - p.eps_flat)] >= 0.0)
    assert np.all(z2[(a > p.alpha2 + p.eps_flat) & (a < np.pi / 2 - p.eps_flat)] <= 0.0)


def test_construction_error_on_violated_signs(monkeypatch):
    # the b-independent part is cached by family and grid: build it afresh
    turning._family_without_b.cache_clear()
    monkeypatch.setattr(turning, "BASIC_NEGATIVE", -0.002)  # flips property (c)
    with pytest.raises(sc.ConstructionError, match=r"property \(c\)"):
        sc.build_turning_family(sc.TurningFamilyParams(b=1.0), 512)


def test_turning_integral_flat_curve():
    m = 512
    curve = sc.ParamCurve(z1=sc.uniform_grid(m), z2=np.zeros(m))
    assert sc.turning_integral(curve) == (0.0, 0.0, 0.0)
    assert sc.turning_integral_even(curve) == (0.0, 0.0, 0.0)


def test_turning_integral_against_oracle():
    fx = FIXTURES["basic"]
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=1.0), 2048)
    j1, j2, tot = sc.turning_integral(curve)
    assert j1 > 0 > j2
    assert j1 == pytest.approx(fx["J1_b1"], rel=2e-4)
    assert j2 == pytest.approx(fx["J2_b1"], rel=2e-4)
    assert tot == j1 + j2


def test_turning_integral_even_against_oracle():
    fx = FIXTURES["even_symmetric"]
    curve = sc.build_turning_family(
        sc.TurningFamilyParams(b=1.0, variant="even_symmetric"), 2048
    )
    k1, k2, tot = sc.turning_integral_even(curve)
    assert k1 > 0 > k2
    assert k1 == pytest.approx(fx["K1_b1"], rel=2e-3)
    assert k2 == pytest.approx(fx["K2_b1"], rel=2e-3)
    assert tot == k1 + k2


def test_raw_negative_part_sign_independent_of_b():
    for b in (1.0, 10.0, 100.0):
        curve = sc.build_turning_family(sc.TurningFamilyParams(b=b), 2048)
        _, j2, _ = sc.turning_integral(curve)
        assert j2 < 0


def test_raw_positive_integral_decays_with_b():
    # the raw [0, alpha2] integral (certificate without its b-proportional
    # prefactor) decays like 1/b: by b = 100 it is under a tenth of its b = 1
    # value; the prefactor-included J1 itself saturates at a constant, so the
    # decay statement is about the integral
    fx = FIXTURES["basic"]
    assert abs(fx["raw_J1_b100"]) < abs(fx["raw_J1_b1"]) / 10
    vals = {}
    for b in (1.0, 100.0):
        curve = sc.build_turning_family(sc.TurningFamilyParams(b=b), 2048)
        j1, _, _ = sc.turning_integral(curve)
        slope0 = central_diff(curve.z2, curve.spacing)[curve.m // 2]
        vals[b] = j1 / slope0  # remove the b-proportional prefactor
    assert abs(vals[100.0]) < abs(vals[1.0]) / 8  # grid realization of the oracle decay


def test_total_crosses_zero_once_in_b():
    signs = []
    for b in np.linspace(1.0, 100.0, 40):
        curve = sc.build_turning_family(sc.TurningFamilyParams(b=b), 512)
        signs.append(np.sign(sc.turning_integral(curve)[2]))
    changes = np.sum(np.abs(np.diff(signs)) > 0)
    assert changes == 1


def test_find_b_threshold_matches_oracle():
    fx = FIXTURES["basic"]
    b_star = sc.find_b_threshold(sc.TurningFamilyParams(b=1.0), 1.0, 100.0, m=2048)
    assert np.isfinite(b_star)
    assert b_star == pytest.approx(fx["b_star"], rel=0.02)


def test_find_b_threshold_even_variant():
    fx = FIXTURES["even_symmetric"]
    p = sc.TurningFamilyParams(b=1.0, variant="even_symmetric")
    b_star = sc.find_b_threshold(p, 1.0, 100.0, m=1024)
    assert b_star == pytest.approx(fx["b_star"], rel=0.05)


def test_find_b_threshold_bracketing_error():
    with pytest.raises(sc.BracketingError):
        sc.find_b_threshold(sc.TurningFamilyParams(b=1.0), 50.0, 100.0, m=512)


def test_certificate_matches_direct_slope_velocity():
    # independent check of the certificate: central difference of the
    # contour-dynamics velocity at alpha = 0 in the stable configuration
    b = 2.0
    curve = sc.build_turning_family(sc.TurningFamilyParams(b=b), 2048)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        u1, _ = sc.rhs_curve(sc.CurveState(0.0, curve, delta_rho=1.0))
    direct = central_diff(u1, curve.spacing)[curve.m // 2]
    tot = sc.turning_integral(curve)[2]
    assert direct == pytest.approx(tot, rel=0.05)


def test_even_turning_appears_at_both_ends():
    # evolve an even-symmetric family past its threshold: the slope of z1
    # turns negative around alpha = 0 and around alpha = +-pi simultaneously
    # (m = 1024 keeps the quadrature error below the certificate size)
    b = 4 * FIXTURES["even_symmetric"]["b_star"]
    curve = sc.build_turning_family(
        sc.TurningFamilyParams(b=b, variant="even_symmetric"), 1024
    )
    ip = sc.IntegratorParams(t_end=0.06, rel_tol=1e-8, abs_tol=1e-11,
                             dt_init=1e-3, dt_max=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        traj = sc.evolve_curve(
            sc.CurveState(0.0, curve, delta_rho=1.0), ip, [0.0, 0.03, 0.06]
        )
    assert not traj.failed
    final = traj.states[-1].curve
    dz1 = 1.0 + central_diff(final.z1 - final.alpha, final.spacing)
    m = final.m
    assert dz1[m // 2] < 0.0  # turned at alpha = 0
    assert dz1[0] < 0.0       # and at alpha = +-pi


def rolled_by_one_node(curve):
    return sc.ParamCurve(z1=np.roll(curve.z1 - curve.alpha, 1) + curve.alpha,
                         z2=np.roll(curve.z2, 1))


@pytest.mark.parametrize("change, message", [
    (rolled_by_one_node, "turning integrals need central symmetry, error"),
    (lambda c: sc.ParamCurve(z1=c.z1, z2=-c.z2), "turning integrals need dz2/da >= 0"),
], ids=["rolled", "z2_negated"])
def test_turning_integral_rejects_a_curve_outside_its_preconditions(change, message):
    curve = change(sc.build_turning_family(sc.TurningFamilyParams(b=16.9), 256))
    with pytest.raises(ValueError, match=re.escape(message)):
        sc.turning_integral(curve)


@pytest.mark.parametrize("m, variant", [(8, "basic"), (8, "even_symmetric"),
                                        (12, "even_symmetric")])
def test_family_on_too_coarse_a_grid_violates_property_a(m, variant):
    with pytest.raises(sc.ConstructionError, match=r"property \(a\)"):
        sc.build_turning_family(sc.TurningFamilyParams(b=2.0, variant=variant), m)
