"""Initial-data families for the turning instability and their certificates.

The basic family is z1 = alpha - sin(alpha) (vertical tangent at alpha = 0)
with z2 = b * zstar on [0, alpha2] and zstar on (alpha2, pi], extended oddly.
The default zstar is one concrete smooth representative of the sign pattern
the construction needs: a low positive hump A sin(pi a / alpha2) before the
split point and a shallow negative arch -c3 sin(pi (a - alpha2)/(pi -
alpha2)) after it, crossing zero exactly at alpha2 so the b-scaling keeps the
curve continuous. The sign properties

    (a) zstar'(0) > 0,   (b) zstar > 0 on (0, alpha2),
    (c) zstar < 0 on (alpha2, alpha3),   (d) zstar <= 0 on [alpha3, pi]

are re-checked node-wise at construction time.

The sign of the initial slope velocity at alpha = 0 in the stable regime
(rho^- - rho^+ = 1) is the turning certificate

    d/dt dz1/da (0, 0) = z2'(0)/(4 pi) *
        int_0^pi z2 sin(z1) / (cosh z2 - cos z1) * z1'(beta) d beta,

split into J1 (over [0, alpha2], suppressed as b grows) and J2 (over
[alpha2, pi], negative). The even-symmetric variant replaces z1 beyond
alpha1 by a quintic Hermite transition into the reflection z1(a) = pi -
z1(pi - a), flattens zstar to exactly zero in eps_flat-windows around alpha2
and pi/2, and uses the folded kernel with prefactor z2'(0)/(2 pi) over
[0, pi/2].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Tuple

import numpy as np

from .geometry import (
    TWO_PI,
    ParamCurve,
    central_diff,
    check_finite_fields,
    check_grid_size,
    curve_derivatives,
    open_simpson_weights,
    symmetry_errors,
    uniform_grid,
)
from .kernels import ONE_OVER_4PI, read_only, stokeslet_terms

ONE_OVER_2PI = 1.0 / (2.0 * np.pi)

# default shape constants (amplitudes chosen so the b = 1 certificate is
# positive, the threshold b* is moderate, and the grids in use resolve
# every feature)
BASIC_AMPLITUDE = 0.05
BASIC_NEGATIVE = 0.002
EVEN_AMPLITUDE = 0.05
EVEN_NEGATIVE = 0.0008
_EVEN_Z1_ALPHA1 = 1.0
_EVEN_Z1_END_SLOPE = 2.0


class ConstructionError(ValueError):
    """A constructed family violates one of the required sign properties."""


class BracketingError(ValueError):
    """Bisection endpoints do not bracket a sign change."""


@dataclass(frozen=True)
class TurningFamilyParams:
    """Parameters of the turning initial-data families."""

    b: float
    alpha2: float = 0.6
    alpha3: float = 1.2
    eps_flat: float = 0.1
    variant: str = "basic"

    def __post_init__(self):
        check_finite_fields(self, "b")
        if not (0.0 < self.alpha2 < self.alpha3 < np.pi / 2):
            raise ValueError("need 0 < alpha2 < alpha3 < pi/2")
        if self.b < 1.0:
            raise ValueError("need b >= 1")
        if self.variant not in ("basic", "even_symmetric"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "even_symmetric":
            if not (0.0 < self.eps_flat < 0.5 * (np.pi / 2 - self.alpha2)):
                raise ValueError("eps_flat too large for the even variant")
            if self.eps_flat >= 0.5 * self.alpha2:
                raise ValueError("eps_flat too large relative to alpha2")


def smooth_step(x):
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, flat at both ends."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    xm = x[mid]
    e1 = np.exp(-1.0 / xm)
    e2 = np.exp(-1.0 / (1.0 - xm))
    out[mid] = e1 / (e1 + e2)
    return out


def zstar_basic(alpha, p: TurningFamilyParams):
    """Default odd zstar of the basic family, vectorized on [-pi, pi]."""
    a = np.asarray(alpha, dtype=float)
    aa = np.abs(a)
    pos = BASIC_AMPLITUDE * np.sin(np.pi * aa / p.alpha2)
    neg = -BASIC_NEGATIVE * np.sin(np.pi * (aa - p.alpha2) / (np.pi - p.alpha2))
    return np.sign(a) * np.where(aa <= p.alpha2, pos, neg)


def zstar_even(alpha, p: TurningFamilyParams):
    """Default odd zstar of the even variant, flat near alpha2 and pi/2."""
    a = np.asarray(alpha, dtype=float)
    aa = np.abs(a)
    edge = p.alpha2 - p.eps_flat
    wplus = smooth_step((edge**2 - a * a) / (0.5 * edge * edge))
    pos = EVEN_AMPLITUDE * np.sin(np.pi * a / edge) * wplus
    lo = p.alpha2 + p.eps_flat
    hi = np.pi / 2 - p.eps_flat
    width = 0.25 * (hi - lo)
    wminus = smooth_step((aa - lo) / width) * smooth_step((hi - aa) / width)
    return pos - EVEN_NEGATIVE * np.sign(a) * wminus


def _hermite_quintic(x0, x1, f0, d0, c0, f1, d1, c1):
    """Quintic matching value/slope/curvature at both ends; returns callable."""
    L = x1 - x0
    coef = np.zeros(6)
    coef[0] = f0
    coef[1] = d0 * L
    coef[2] = 0.5 * c0 * L * L
    # remaining three coefficients from the t = 1 conditions
    lhs = np.array([[1.0, 1.0, 1.0], [3.0, 4.0, 5.0], [6.0, 12.0, 20.0]])
    rhs = np.array(
        [
            f1 - (coef[0] + coef[1] + coef[2]),
            d1 * L - (coef[1] + 2.0 * coef[2]),
            c1 * L * L - 2.0 * coef[2],
        ]
    )
    coef[3:] = np.linalg.solve(lhs, rhs)

    def f(x):
        t = (np.asarray(x, dtype=float) - x0) / L
        return sum(coef[k] * t**k for k in range(6))

    return f


def _z1_even(alpha, p: TurningFamilyParams):
    """Odd z1 with the reflection z1(a) = pi - z1(pi - a), C^2 at the joints."""
    a1 = _EVEN_Z1_ALPHA1
    herm = _hermite_quintic(
        a1,
        np.pi / 2,
        a1 - np.sin(a1),
        1.0 - np.cos(a1),
        np.sin(a1),
        np.pi / 2,
        _EVEN_Z1_END_SLOPE,
        0.0,
    )
    a = np.asarray(alpha, dtype=float)
    aa = np.abs(a)
    folded = np.where(aa <= np.pi / 2, aa, np.pi - aa)
    base = np.where(folded <= a1, folded - np.sin(folded), herm(folded))
    val = np.where(aa <= np.pi / 2, base, np.pi - base)
    return np.sign(a) * val


def build_turning_family(p: TurningFamilyParams, m: int) -> ParamCurve:
    """Sample the family on m nodes and verify its signs.

    Everything but z2 on the nodes that b scales is independent of b, and is
    built and checked once per family and grid (``_family_without_b``).

    Raises
    ------
    ConstructionError
        Naming the violated sign property, when the sampled zstar or z1 does
        not realize the pattern the turning argument needs.
    """
    z1, zs, scaled = _family_without_b(replace(p, b=1.0), m)
    curve = ParamCurve(z1=z1.copy(), z2=np.where(scaled, p.b * zs, zs))
    if central_diff(curve.z2, curve.spacing)[m // 2] <= 0.0:
        raise ConstructionError("condition 2: slope of z2 at 0 not positive")
    return curve


@lru_cache(maxsize=8)
def _family_without_b(p: TurningFamilyParams, m: int):
    """(z1, zstar, scaled): the b-independent part of a family on m nodes, read-only.

    z2 = b * zstar on the nodes ``scaled`` and zstar elsewhere. Every check
    of the sampled zstar and z1 that does not read b runs here, once per
    family (p at b = 1) and grid.
    """
    check_grid_size(m)  # before the sign checks, which assume 0 is a node
    alpha = uniform_grid(m)

    if p.variant == "basic":
        z1 = alpha - np.sin(alpha)
        zs = zstar_basic(alpha, p)
        scaled = np.abs(alpha) <= p.alpha2
        _check_sign_properties(alpha, zs, p.alpha2, p.alpha2, p.alpha3, upper=np.pi)
    else:
        z1 = _z1_even(alpha, p)
        # fold to [0, pi/2] with the even reflection, then extend oddly (a
        # sign commutes with the scaling by b exactly)
        fold = np.where(np.abs(alpha) > np.pi / 2, np.pi - np.abs(alpha), np.abs(alpha))
        zs = np.sign(alpha) * zstar_even(fold, p)
        scaled = fold <= p.alpha2
        _check_sign_properties(
            alpha,
            zstar_even(alpha, p),
            p.alpha2 - p.eps_flat,
            p.alpha2 + p.eps_flat,
            np.pi / 2 - p.eps_flat,
            upper=np.pi / 2,
        )
        # b scales no node there: fold > alpha2 + eps_flat
        flat_hi = np.abs(np.abs(alpha) - np.pi / 2) <= p.eps_flat
        if np.any(np.abs(zs[flat_hi]) > 1e-12):
            raise ConstructionError("even variant: z2 not flat near +-pi/2")

    d = TWO_PI / m
    # the tangent of ``geometry.curve_derivatives``
    dz1 = 1.0 + central_diff(z1 - alpha, d)
    j0 = m // 2
    if not dz1[j0] <= d * d:
        raise ConstructionError("condition 2: slope of z1 at 0 not vanishing")
    interior = np.ones(m, dtype=bool)
    interior[j0] = False
    if p.variant == "even_symmetric":
        interior[0] = False  # reflection forces a vertical tangent at +-pi too
    if np.any(dz1[interior] <= 0.0):
        raise ConstructionError("condition 2: z1 not increasing away from 0")
    return read_only(z1, zs, scaled)


def _check_sign_properties(alpha, zs, pos_end, neg_start, neg_end, upper=np.pi):
    """Node-wise (a)-(d) checks of a sampled zstar (positive alphas only).

    (b) and (c) are verified on the open intervals (0, pos_end) and
    (neg_start, neg_end): a continuous zstar cannot be strictly positive up
    to the split and strictly negative at it, so the crossing point itself
    is exempt.
    """
    da = alpha[1] - alpha[0]
    j0 = len(alpha) // 2
    slope0 = (zs[j0 + 1] - zs[j0 - 1]) / (2 * da)
    if slope0 <= 0.0:
        raise ConstructionError("property (a): zstar slope at 0 not positive")
    a = alpha
    sel_b = (a > 1e-12) & (a < pos_end - 1e-12)
    if np.any(zs[sel_b] <= 0.0):
        raise ConstructionError("property (b): zstar not positive before the split")
    sel_c = (a > neg_start + 1e-12) & (a < neg_end - 1e-12)
    if np.any(zs[sel_c] >= 0.0):
        raise ConstructionError("property (c): zstar not negative after the split")
    sel_d = (a >= neg_end) & (a <= upper)
    if np.any(zs[sel_d] > 1e-12):
        raise ConstructionError("property (d): zstar positive in the tail")


def _half_period_arrays(curve: ParamCurve):
    """z2'(0), then z1, z2, dz1 on the closed node range alpha in [0, pi].

    z1 is winding-aware. Raises ValueError unless the curve is centrally
    symmetric with z2'(0) >= 0, the preconditions of both certificates.
    """
    central, _ = symmetry_errors(curve)
    if central > 1e-8:
        raise ValueError(f"turning integrals need central symmetry, error {central:.2e}")
    m = curve.m
    dz1, dz2 = curve_derivatives(curve)
    slope0 = dz2[m // 2]
    if slope0 < 0.0:
        raise ValueError("turning integrals need dz2/da >= 0 at alpha = 0")
    idx = np.arange(m // 2, m + 1)
    wrapped = idx % m
    return slope0, curve.z1[wrapped] + TWO_PI * (idx // m), curve.z2[wrapped], dz1[wrapped]


def turning_integral(curve: ParamCurve) -> Tuple[float, float, float]:
    """Certificate (J1, J2, J1 + J2) of the basic family.

    Composite Simpson of z2 sin(z1) z1' / (cosh z2 - cos z1) over [0, alpha2]
    and [alpha2, pi] (split at the first node where z2 stops being positive;
    the family vanishes there), scaled by z2'(0)/(4 pi). The integrand's
    removable endpoint singularity at beta = 0 is evaluated as its limit 0.
    """
    slope0, z1, z2, dz1 = _half_period_arrays(curve)
    g = np.zeros_like(z2)
    g[1:] = stokeslet_terms(z1[1:], z2[1:])[2] * dz1[1:]
    pref = slope0 * ONE_OVER_4PI
    return _split_certificate(z2, g, pref, curve.spacing)


def turning_integral_even(curve: ParamCurve) -> Tuple[float, float, float]:
    """Certificate (K1, K2, K1 + K2) of the even-symmetric family.

    Folded kernel z2 sin(z1) cosh(z2) / (cosh^2 z2 - cos^2 z1), the mean of
    the basic kernel at (z1, z2) and (pi - z1, z2), with prefactor
    z2'(0)/(2 pi), integrated over [0, alpha2] and [alpha2, pi/2]; both
    endpoint singularities are removable with limit 0 (z2 is flat-zero near
    pi/2 by construction).
    """
    slope0, z1, z2, dz1 = _half_period_arrays(curve)
    quarter = curve.m // 4
    z1, z2, dz1 = z1[: quarter + 1], z2[: quarter + 1], dz1[: quarter + 1]
    g = np.zeros_like(z2)
    inner = slice(1, quarter)  # beta = 0 and pi/2 carry limit value 0
    z1i, z2i = z1[inner], z2[inner]
    folded = stokeslet_terms(z1i, z2i)[2] + stokeslet_terms(np.pi - z1i, z2i)[2]
    g[inner] = 0.5 * folded * dz1[inner]
    pref = slope0 * ONE_OVER_2PI
    return _split_certificate(z2, g, pref, curve.spacing)


def _split_certificate(z2, g, pref, d):
    """(J1, J2, J1 + J2): pref times the Simpson sums of g up to and from the split node.

    The split node recovers alpha2 from z2 on the same nodes, read from
    alpha = 0: the first node where z2 stops being positive after being
    positive, which is exact enough because every default family vanishes
    at its split point; node 1 where z2 is nowhere positive; kept in
    [1, last - 1]. Both parts are summed by ``geometry.open_simpson_weights``.
    """
    last = g.size - 1
    pos = np.flatnonzero(z2 > 0.0)
    k = 1
    if pos.size:
        stop = np.flatnonzero(z2[pos[0]:] <= 0.0)
        k = pos[0] + stop[0] if stop.size else last
    k = int(min(max(k, 1), last - 1))
    j1 = pref * float(open_simpson_weights(k + 1, d) @ g[: k + 1])
    j2 = pref * float(open_simpson_weights(last + 1 - k, d) @ g[k:])
    return j1, j2, j1 + j2


def find_b_threshold(
    p: TurningFamilyParams, b_lo: float, b_hi: float, m: int = 2048
) -> float:
    """Bisect the amplitude split b at which the certificate changes sign.

    Requires total(b_lo) > 0 > total(b_hi); returns b* to relative width 1e-6.
    """

    def total(b):
        curve = build_turning_family(replace(p, b=b), m)
        if p.variant == "basic":
            return turning_integral(curve)[2]
        return turning_integral_even(curve)[2]

    t_lo, t_hi = total(b_lo), total(b_hi)
    if not (t_lo > 0.0 > t_hi):
        raise BracketingError(
            f"certificate does not change sign on [{b_lo}, {b_hi}]: "
            f"{t_lo:.3e}, {t_hi:.3e}"
        )
    lo, hi = b_lo, b_hi
    while (hi - lo) > 1e-6 * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if total(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
