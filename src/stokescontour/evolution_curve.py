"""Full contour dynamics for parametrized (possibly non-graph) interfaces.

The material velocity of the interface is the Stokeslet boundary integral

    dz/dt (a) = (rho^- - rho^+) int S(z(a) - z(b)) zdot_perp(b) z2(b) db,

with zdot_perp = (-dz2, dz1). Quadrature is the periodic trapezoid rule: the
smooth part of the kernel is summed over nodes with its removable diagonal
limits filled in (the log remainder tends to log |zdot(a)|^2 and the rational
matrix term to -(1/4pi)(dz2/|zdot|^2) [[-dz2, dz1], [dz1, dz2]]), while the
log(4 sin^2((a-b)/2)) factor is integrated analytically over the two half
panels adjacent to the singular node against the frozen node value.
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
half-period one does. The path's group (``geometry.symmetry_group``) is
the identity alone, or with the central symmetry, or with all four maps,
and the sum runs over a domain F holding one node of each orbit:

- the full path, on a state with neither symmetry: F is every node;
- the central path, on exactly odd p and z2: F is the nodes 0..m/2;
- the quarter path, on such a state that is also exactly half-period
  symmetric: F is the nodes 0..m/4.

The sum runs on node blocks (``_velocity_totals``): a block, a slice of
the rows of F (``kernels.blocks``, sized by ``kernels.block_rows`` as the
blocks of every pair sum are), against the run of columns from its first
row to the end of F, in each image g(F) of F under the group, side by
side. The Stokeslet is even, S(-x) = S(x), so each pair is held once, on
the upper triangle of F against each image, the diagonal half weighted and
a node paired with itself dropped, and feeds both its nodes. The three
steps around the kernel are matrix products of the block with per-node
vectors:

- the pair sines sin((z1_a - z1_b)/2) and cos((z1_a - z1_b)/2) and the
  heights z2_a - z2_b are one product of per-node rows, from the sin and
  cos of z1/2 and z2 at the row nodes, with per-node columns at the image
  nodes; its zero entries add exactly, so the heights round once, as the
  difference does;
- the near sum, onto the row nodes, is the product of the blocks lg, a_ss
  and a_sn with the column nodes' source vectors, each weighted by 1 over
  its stabilizer;
- the far sum, onto the column nodes, is the transposed product with the
  row nodes' vectors: the pair swap maps the terms of (a, g(b)) to those
  of (b, g(a)), a_sn taking the p sign times the z2 sign of g.

The source vectors, (v1, v2), (v1, -v2) and (-v2, -v1) with
v = zdot_perp * z2, are one (3, m, 2) array built once a call. The r = 0
term is its contraction with the diagonal limits of lg, a_ss and a_sn, as
a block's sums are with the block. Its copy at the image nodes, weighted
by the stabilizers, serves the near sum of every block, and the transpose
of that copy, its a_sn vectors signed by the pair swap, the far sum.

``kernels.stokeslet_terms_into`` evaluates the block in place in one
workspace. The per-path constants (the images, orbits, signs, the frozen
cell -4 Cl2(d/2) of the r = 0 term and the weights of each block's leading
square) are built once per grid and path (``_path_blocks``), so a call
evaluates no Clausen function. The graph right-hand side and
``diagnostics.delta_spectral`` run on offset rows instead (``kernels``):
on a graph x1 is fixed along an offset row, so each row has constants
built once per grid, and the graph's full sum adds every node's rows in
one order, which keeps it bitwise equivariant under a shift of the nodes.
A curve's x1 differs along every row, so it has no such constants, and the
products of the node blocks replace the elementwise passes of the offset
rows. The central path holds about m^2/4 pairs and the quarter path about
m^2/8, as the pair orbits of their groups. The totals on F, times each
node's orbit size, are projected onto the symmetries found
(``geometry.symmetry_projector``, u1 mapping like p and u2 like z2), whose
average over each node's images completes the sum on all m nodes. The
sums reduce inside BLAS, so their rounding is that of its kernels, which
also depends on the memory layout of the operands: equal for equal inputs
on one machine, and within roundoff of the sums of the other paths (not
bitwise).

The right-hand side is the owner of the symmetries of a run: its output
has exactly every symmetry its input has, so every DOPRI5 stage, accepted
state and sample built from a projected state keeps them bit for bit and
takes the path of its initial state: the basic turning family the central
path, the even one the quarter path.

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
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .diagnostics import record_for_curve
from .geometry import (
    TWO_PI,
    ParamCurve,
    central_diff,
    curve_derivatives,
    exact_symmetries,
    symmetry_group,
    symmetry_projection,
    symmetry_projector,
)
from .integrators import BlowupError, IntegratorParams, Trajectory, integrate
from .kernels import ONE_OVER_8PI, block_rows, blocks, clausen2, read_only, stokeslet_terms_into

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
    # on an exactly odd state the pairs of nodes 0..m/2 with themselves and
    # with their mirror images; with the even symmetry too those of nodes
    # 0..m/4 with their four images; each finished by the projection onto
    # its symmetries. On any other state every pair
    central, even = exact_symmetries(p, z2)
    # the sum's temporaries are freed before the projection allocates the
    # returned array, which a run keeps as a stage: allocated above them, it
    # pinned the heap and raised a run's peak RSS (0.5 MB at m = 1024)
    u = _velocity_totals(p, z2, alpha, central, even)
    u *= delta_rho * ONE_OVER_8PI
    # u1 is a remainder like p, u2 a height like z2
    u = np.array(symmetry_projector(m, central, even)(*u))
    bad = ~np.isfinite(u).all(axis=0)
    if bad.any():
        raise BlowupError(int(np.flatnonzero(bad)[0]))
    return u


@lru_cache(maxsize=16)
def _path_blocks(m: int, central: bool, even: bool):
    """The node blocks of the curve pair sum on one path, with their constants.

    Returns (images, orbit, far_signs, cell, blocks), read-only. The domain F is
    the nodes 0..size-1: every node on the full path, 0..m/2 on the central
    one and 0..m/4 on the quarter one, one node of each orbit of the path's
    group (``geometry.symmetry_group``). ``images`` (elements x size) holds
    the image g(k) of each node k of F and ``orbit`` the size of the orbit
    of k. ``far_signs`` (elements,) holds the sign a_sn takes under the pair
    swap for each element g, the p sign of g times its z2 sign (lg and a_ss
    keep theirs). ``cell`` is the r = 0 integral of the log
    factor against the frozen node value, -4 Cl2(d/2) on the two half panels
    next to the node.

    ``blocks`` holds (b, dropped, weight) per block b, a slice of the rows
    of F (``kernels.blocks``, ``kernels.block_rows`` rows a block for the
    elements x size columns of the widest block), each row i paired with
    the columns b.start..size-1 of every image. On the leading square of
    those columns (rows x elements x rows) ``weight`` keeps the triangle: 1
    above the diagonal, 1/2 on it (as the near and the far sum both add
    it), 0 below it and on the pairs (i, g(i)) of a node with itself;
    ``dropped`` marks its zeros.
    """
    group = symmetry_group(m, central, even)
    size = m if len(group) == 1 else m // len(group) + 1
    nodes = np.arange(size)
    images = np.array([g[:size] for g, _, _ in group])
    orbit = len(group) / np.sum(images == nodes, axis=0)
    far_signs = np.array([p_sign * z2_sign for _, p_sign, z2_sign in group])
    columns = len(group) * size
    plan = blocks(size, block_rows(columns, columns))
    # one triangle for every block, (rows x elements x rows); a block holding
    # a node that an element fixes (the ends of F) takes a copy with that
    # node's pair with itself weighted 0
    rows = nodes[plan[0]]
    offset = (rows - rows[:, None])[:, None]
    triangle = np.repeat(np.where(offset > 0, 1.0, 0.5 * (offset == 0)), len(group), axis=1)
    triangle[:, 0] *= offset[:, 0] > 0
    out = []
    for b in plan:
        n = b.stop - b.start
        weight = triangle[:n, :, :n]
        singular = images[:, b] == nodes[b, None, None]
        if singular[:, 1:].any():
            weight = np.where(singular, 0.0, weight)
        out.append((b, *read_only(weight == 0.0, weight)))
    # the frozen cell: two half panels of int_0^{d/2} log(4 sin^2(s/2)) ds
    # = -2 Cl2(d/2), d/2 = pi/m
    cell = -4.0 * clausen2(np.pi / m)
    return (*read_only(images, orbit, far_signs), cell, tuple(out))


def _velocity_totals(p, z2, alpha, central, even):
    """The unscaled velocity, shape (2, m), by the node-block pair sum of the path."""
    m = p.size
    d = TWO_PI / m
    dz1 = 1.0 + central_diff(p, d)
    dz2 = central_diff(z2, d)
    # the source vectors that lg, a_ss and a_sn multiply, (v1, v2), (v1, -v2)
    # and (-v2, -v1) with v = zdot_perp * z2, shape (3, m, 2)
    v1, v2 = -dz2 * z2, dz1 * z2
    vecs = np.array(((v1, v2), (v1, -v2), (-v2, -v1))).transpose(0, 2, 1)
    images, orbit, far_signs, cell, blocks = _path_blocks(m, central, even)

    # r = 0: the diagonal limits of lg, a_ss and a_sn (the smooth remainder's
    # log |zdot|^2 and the rational term's one-sided Taylor limits) against
    # the node's own vectors, and the log factor's frozen half-panel cell
    speed2 = dz1 * dz1 + dz2 * dz2
    diagonal = np.array((np.log(speed2), 2.0 * dz2 * dz2 / speed2, 2.0 * dz2 * dz1 / speed2))
    u = d * (diagonal[..., None] * vecs).sum(axis=0) + cell * vecs[0]

    count, size = images.shape
    # sin((z1_a - z1_b)/2), cos((z1_a - z1_b)/2) and z2_a - z2_b of a block's
    # pairs are one product each: the rows (sin, -cos, 0, 0), (cos, sin, 0, 0)
    # and (0, 0, z2, 1) at the row node a with the column (cos, sin, 1, -z2)
    # at the image node b, whose zeros add exactly, so the heights round once,
    # as the difference does. The kernel is 2pi-periodic in x1, so the
    # winding of z1 across the seam is immaterial here
    z1 = p + alpha
    sn, cs = np.sin(0.5 * z1), np.cos(0.5 * z1)
    rows = np.zeros((3, size, 4))
    rows[0, :, 0] = rows[1, :, 1] = sn[:size]
    np.negative(cs[:size], out=rows[0, :, 1])
    rows[1, :, 0] = cs[:size]
    rows[2, :, 2] = z2[:size]
    rows[2, :, 3] = 1.0
    # (take keeps the columns and the vectors row-major, so BLAS reads them
    # untransposed, as the rounding of its products depends on the layout)
    cols = np.stack((cs, sn, np.ones(m), -z2)).take(images, axis=1)
    # the near sum reads the vectors at the image nodes, weighted by 1 over
    # their stabilizer; the far sum the same at the row nodes, a_sn's signed
    # by the pair swap
    near_vecs = vecs.take(images, axis=1) * (orbit / count)[:, None]
    far_vecs = near_vecs.transpose(0, 2, 1, 3).copy()
    far_vecs[2] *= far_signs[:, None]
    near, far = np.zeros((3, size, 2)), np.zeros((size, 2))
    work = np.empty(6 * blocks[0][0].stop * count * size)
    for b, dropped, weight in blocks:
        n, width = b.stop - b.start, size - b.start
        block = work[: 6 * n * count * width].reshape(6, n, count, width)
        (sn2, sc, x2), terms = block[:3], block[3:]
        np.matmul(rows[:, b], cols[:, :, b.start :].reshape(4, -1),
                  out=block[:3].reshape(3, n, -1))
        # sc is sin(x1/2) cos(x1/2) = sin(x1)/2
        sc *= sn2
        # any finite terms on the pairs weighted 0 below, the pairs of a
        # node with itself among them
        np.copyto(sn2[..., :n], 1.0, where=dropped)
        stokeslet_terms_into(sn2, sc, x2, *terms)
        terms[..., :n] *= weight
        # the near sum onto the row nodes, the far one onto the column nodes
        near[:, b] += np.matmul(terms.reshape(3, n, -1),
                                near_vecs[:, :, b.start :].reshape(3, -1, 2))
        far[b.start :] += terms.reshape(-1, width).T @ far_vecs[:, b].reshape(-1, 2)
    # each node of F times its orbit, the projection completing the sum
    u[:size] += d * ((near.sum(axis=0) + far) * orbit[:, None])
    return u.T


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
