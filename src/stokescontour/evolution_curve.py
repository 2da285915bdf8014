"""Full contour dynamics for parametrized (possibly non-graph) interfaces.

The material velocity of the interface is the Stokeslet boundary integral

    dz/dt (a) = (rho^- - rho^+) int S(z(a) - z(b)) zdot_perp(b) z2(b) db,

with zdot_perp = (-dz2, dz1). Quadrature is the periodic trapezoid rule: the
smooth part of the kernel is summed over nodes with its removable diagonal
limits filled in (the log remainder tends to log |zdot(a)|^2 and the rational
matrix term to -(1/4pi)(dz2/|zdot|^2) [[-dz2, dz1], [dz1, dz2]]), while the
log(4 sin^2((a-b)/2)) factor is integrated analytically over the two half
panels adjacent to the singular node against the frozen node value. The
Stokeslet is even, S(-x) = S(x), so each unordered pair of nodes is
evaluated once and feeds both nodes: the sum runs over the offsets
r = 1..m/2 in blocks of offset rows, every node accumulating in the same
order. The kernel needs sin(x1/2) and sin(x1) of every pair: every row
reads them from per-node sin and cos of z1/2 by angle subtraction, so no
pair costs a sine.
The tangential component of the velocity is kept exactly as the
integral produces it; node clustering is only monitored.

The state is (p, z2), with p = z1 - alpha the periodic remainder of z1.
On it each symmetry of the curve is a sign and an index map with no
constant: central symmetry z(-alpha) = -z(alpha) reads p[-j] = -p[j],
z2[-j] = -z2[j]; the two-line even symmetry p[m/2 - j] = -p[j],
z2[m/2 - j] = z2[j]; and their composition, the half-period symmetry
z1(alpha + pi) = z1(alpha) + pi, z2(alpha + pi) = -z2(alpha), reads
p[j + m/2] = p[j], z2[j + m/2] = -z2[j]. Rounding commutes with these maps,
so a projected state, every DOPRI5 stage built from it and the velocity
below keep them bit for bit. The sum takes one of three paths, chosen by
the exact O(m) test ``geometry.exact_symmetries`` on (p, z2): given the
central symmetry, the even one holds exactly if and only if the
half-period one does. All three run one block loop
(``_velocity_totals``): it reads the rows through
``kernels.central_pair_rows``, weights the pair terms by their orbits
(``kernels.stabilizer_weights``) and totals them on every node with
``kernels.central_folder``; the width of the rows sets the path:

- on exactly odd p and z2 the velocity is odd, and the pair of nodes
  (-i, -j) carries the negated terms of (i, j). The central half sum
  (width m/2 + 1) evaluates one pair of each such mirror orbit,
  (m/2) * (m/2 + 1) pairs instead of (m/2) * m;
- on such a state that is also exactly half-period symmetric the quarter
  sum (width m/4 + 1) evaluates one pair of each orbit of the four-element
  group, (m/2) * (m/4 + 1) pairs;
- any other state takes the full sum (width m).

A symmetric sum's folder totals the held pairs times the orbit size, and
the velocity is projected onto the symmetries found
(``geometry.symmetry_projector``, u1 mapping like p and u2 like z2), whose
average over each node's images completes the sum over all pairs. The
symmetric sums agree with the full sum to roundoff (not bitwise).

The right-hand side is the owner of the symmetries of a run: its output
has exactly every symmetry its input has, so every DOPRI5 stage, accepted
state and sample built from a projected state keeps them bit for bit and
takes the path of its initial state: the basic turning family the half
sum, the even one the quarter sum.

The state and its velocity are each one (2, m) array, rows p and z2 (u1
and u2), from ``_rhs_curve_arrays`` through ``integrators.integrate``.
``evolve_curve`` projects only the initial state, by
``geometry.symmetry_projection``, and supplies the right-hand side and the
per-sample record; ``integrators.integrate`` steps, samples, guards the
amplitude and builds the Trajectory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .diagnostics import record_for_curve
from .geometry import (
    TWO_PI,
    ParamCurve,
    central_diff,
    curve_derivatives,
    exact_symmetries,
    symmetry_projection,
    symmetry_projector,
)
from .integrators import BlowupError, IntegratorParams, Trajectory, integrate
from .kernels import (
    ONE_OVER_8PI,
    block_workspace,
    central_folder,
    central_pair_rows,
    clausen2,
    offset_blocks,
    stabilizer_weights,
    stokeslet_terms_into,
)

SPEED_RATIO_WARN = 20.0


@dataclass(frozen=True)
class CurveState:
    """A parametrized interface at a moment in time, with its density jump."""

    t: float
    curve: ParamCurve
    delta_rho: float


# transient over/underflows surface as the finiteness check below
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _rhs_curve_arrays(p: np.ndarray, z2: np.ndarray, alpha: np.ndarray, delta_rho: float):
    m = p.size
    # the Stokeslet is even, so the offsets r and m - r share one evaluation:
    # on an exactly odd state one pair of each mirror orbit; with the even
    # symmetry too one pair of each orbit of the mirror and the half-period
    # shift; each finished by the projection onto its symmetries. On any
    # other state every pair
    central, even = exact_symmetries(p, z2)
    width = m // 4 + 1 if central and even else m // 2 + 1 if central else m
    # the sum's temporaries are freed before the projection allocates the
    # returned array, which a run keeps as a stage: allocated above them, it
    # pinned the heap and raised a run's peak RSS (0.5 MB at m = 1024)
    u = _velocity_totals(p, z2, alpha, width)
    u *= delta_rho * ONE_OVER_8PI
    # u1 is a remainder like p, u2 a height like z2
    u = np.array(symmetry_projector(m, central, even)(*u))
    bad = ~np.isfinite(u).all(axis=0)
    if bad.any():
        raise BlowupError(int(np.flatnonzero(bad)[0]))
    return u


def _velocity_totals(p, z2, alpha, width):
    """The unscaled velocity, shape (2, m), by the pair sum of ``width`` columns a row."""
    m = p.size
    d = TWO_PI / m
    dz1 = 1.0 + central_diff(p, d)
    dz2 = central_diff(z2, d)

    # integrand vector zdot_perp * z2 at the source nodes
    v1 = -dz2 * z2
    v2 = dz1 * z2

    # two half panels of int_0^{d/2} log(4 sin^2(s/2)) ds = -2 Cl2(d/2)
    cell = -4.0 * clausen2(0.5 * d)

    # r = 0: diagonal limits; the log singular factor contributes the frozen
    # half-panel cell, the smooth remainder its limit log |zdot|^2, and the
    # rational matrix term its one-sided Taylor limit.
    speed2 = dz1 * dz1 + dz2 * dz2
    g0 = np.log(speed2)
    a_ss0 = 2.0 * dz2 * dz2 / speed2
    a_sn0 = 2.0 * dz2 * dz1 / speed2
    u = np.empty((2, m))
    u[0] = d * (g0 * v1 + a_ss0 * v1 - a_sn0 * v2) + cell * v1
    u[1] = d * (g0 * v2 - a_sn0 * v1 - a_ss0 * v2) + cell * v2

    # sin and cos of z1/2 per node: the sines of every pair by angle
    # subtraction; the kernel is 2pi-periodic in x1, so the winding of z1
    # across the seam is immaterial here. The block terms are computed in
    # place in one workspace for all blocks
    z1 = p + alpha
    xs = (z2, v1, v2, np.sin(0.5 * z1), np.cos(0.5 * z1))
    rows, (fold, total) = central_pair_rows(*xs, width=width), central_folder(m, width, (2,))
    work = block_workspace(6, m, width)
    for r in offset_blocks(m, width):
        (z2a, *va, sa, ca), (z2b, *vb, sb, cb) = rows(r)
        sn2, sc, x2, lg, a_ss, a_sn = work[:, : len(z2b)]
        # lg holds intermediates until the Stokeslet terms are written; sc
        # is sin(x1/2) cos(x1/2) = sin(x1)/2
        np.multiply(sa, cb, out=sn2)
        sn2 -= np.multiply(ca, sb, out=lg)
        np.multiply(ca, cb, out=sc)
        sc += np.multiply(sa, sb, out=lg)
        sc *= sn2
        stokeslet_terms_into(sn2, sc, np.subtract(z2a, z2b, out=x2), lg, a_ss, a_sn)
        for t in (lg, a_ss, a_sn):
            stabilizer_weights(t, r, m)
        s11 = np.add(lg, a_ss, out=sn2)
        s22 = np.subtract(lg, a_ss, out=sc)
        # the terms of u_k for the near and the far node, s v_b - a_sn w_b
        # and s v_a - a_sn w_a, v being v_k and w the other component
        for k, s in enumerate((s11, s22)):
            near = np.multiply(s, vb[k], out=lg)
            near -= np.multiply(a_sn, vb[1 - k], out=a_ss)
            far = np.multiply(s, va[k], out=a_ss)
            far -= np.multiply(a_sn, va[1 - k], out=x2)
            fold(near, far, r, k)
    u += d * total()
    return u


def rhs_curve(state: CurveState):
    """Material velocity (dz1/dt, dz2/dt) of the contour dynamics, one (2, m) array.

    The state (z1 - alpha, z2) is first projected onto the symmetries the
    curve carries (``geometry.symmetry_projection``), as a run projects its
    initial state: z1 - alpha recomputed from a stored z1 is odd only to
    roundoff, and the projected state takes the sum of its symmetries.
    """
    c = state.curve
    _warn_if_clustered(c)
    p, z2 = symmetry_projection(c)(c.z1 - c.alpha, c.z2)
    return _rhs_curve_arrays(p, z2, c.alpha, state.delta_rho)


def _warn_if_clustered(curve: ParamCurve) -> None:
    """Warn when the max/min node-speed ratio exceeds SPEED_RATIO_WARN."""
    speed = np.hypot(*curve_derivatives(curve))
    ratio = float(np.max(speed) / np.min(speed))
    if ratio > SPEED_RATIO_WARN:
        warnings.warn(
            f"node clustering: max/min speed ratio {ratio:.1f} exceeds "
            f"{SPEED_RATIO_WARN}",
            RuntimeWarning,
            stacklevel=3,
        )


def evolve_curve(
    initial: CurveState,
    ip: IntegratorParams,
    sample_times: Sequence[float],
    on_sample: Optional[Callable] = None,
) -> Trajectory:
    """Integrate the contour dynamics with the shared embedded RK machinery.

    ``integrators.integrate`` steps, samples and captures failures as for the
    graph scheme: a sample inside a step is read from the step's continuous
    extension, to the integration tolerance. The state is the
    (2, m) array (p, z2), p = z1 - alpha, on which the symmetries are sign
    and index maps, and each record's symmetry errors are measured on that
    p, so a projected state reads 0. Each record additionally stores
    min_slope_x1 so turning (a sign change of the minimum slope) can
    be read off the trajectory, and each sample warns when the nodes cluster
    beyond SPEED_RATIO_WARN. A sample that self-intersects or degenerates
    ends the run early like a blowup. The symmetries the initial curve
    carries to machine precision are made exact on the initial state by
    ``geometry.symmetry_projection``; the right-hand side keeps them exact
    on every later state.
    """
    alpha = initial.curve.alpha
    symmetrize = symmetry_projection(initial.curve)

    def f(t, y):
        return _rhs_curve_arrays(*y, alpha, initial.delta_rho)

    def sample(t, y):
        curve = ParamCurve(z1=y[0] + alpha, z2=y[1].copy())
        _warn_if_clustered(curve)
        state = CurveState(t=t, curve=curve, delta_rho=initial.delta_rho)
        return state, record_for_curve(t, curve, p=y[0])

    y0 = np.array(symmetrize(initial.curve.z1 - alpha, initial.curve.z2))
    return integrate(f, initial.t, y0, ip, sample_times, sample, on_sample)
