"""Graph-interface evolution: quadrature right-hand side and adaptive stepping.

The vertical velocity of a graph interface z = (alpha, h(alpha)) is the
boundary integral

    h_t(a) = s * int [ log(2(cosh(h(a)-h(b)) - cos(a-b))) h(b) (1 + h'(a)h'(b))
                     + h(b)(h(a)-h(b))/(cosh(..) - cos(..)) *
                       ( (h'(a)h'(b) - 1) sinh(h(a)-h(b))
                       + (h'(a) + h'(b)) sin(a-b) ) ] db
             + eps * h_aa,

with s = (rho^- - rho^+)/(8 pi) (s = -1 is the unstable normalization used
throughout) and an artificial viscosity eps. Derivatives are periodic central
differences. Away from b = a everything is smooth; at b = a only the log
factor is singular.

Two quadratures are provided. The default ("spectral_log") splits the log
into log(4 sin^2((a-b)/2)) plus a smooth periodic remainder: the singular
factor is integrated exactly against the trigonometric interpolant of its
smooth cofactor (a circulant with symbol -2pi/|n|), the remainder and the
rational terms by the periodic trapezoid rule with their removable diagonal
limits filled in. Flat states are then steady to machine precision and the
scheme converges at the order of the central differences. The alternative
("taylor_cell") is the classical panel scheme: composite Simpson over the
panels away from the singularity plus the frozen-coefficient Taylor cell

    I1 ~ h(a)(1+h'(a)^2) int_0^w log(4 sin^2(b/2)) db
         + h(a)(1+h'(a)^2) log(1+h'(a)^2) w + 2 h(a) h'(a)^2 w

on the two panels adjacent to the node (mirror panel by periodicity). The
half-angle form of the cell logarithm is the small-height limit of the true
kernel; the variant "printed" drops the half angle and is kept selectable
for A/B comparison.

Both quadratures have one diagonal (r = 0) term,

    r0 = w0 (h (1+h'^2) log(1+h'^2) + 2 h h'^2) + c0 h (1+h'^2),

the removable limit of the pair term, weighted w0, plus the log(4 sin^2)
factor integrated against the frozen node value: (w0, c0) = (d, omega_0)
for "spectral_log" and (2d, 2 clog) for "taylor_cell", with clog =
-2 Cl2(d) for the half-angle cell and -Cl2(2d) for the printed one.

The integrand is symmetric in its two nodes and both quadratures weight the
offsets r and m - r alike, so every unordered pair is evaluated once: the sum
runs over the offsets r = 1..m/2, each pair feeding both of its nodes, and
the spectral circulant joins the same rows. The offsets are paired as the
row pairs s = 0..m/4 - 1 (offsets 2s + 1 and 2s + 2), and every block of
the sum is a slice of them (``kernels.offset_blocks``). The per-offset
constants (the sines, the spectral row term and the weights) and the r = 0
pair (w0, c0) are built once per grid, quadrature and cell over all the row
pairs (``_block_constants``), so a call evaluates no Clausen function and
no circulant. One block loop (``_pair_totals``) reads its slice of them and
of the rows of ``kernels.central_pair_rows``, weights the pair terms by
their orbits (``kernels.stabilizer_weights``), totals them with
``kernels.central_folder`` and adds r0; the width of the rows sets the path.

The sum takes one of two paths, chosen by the exact O(m) test
``geometry.exact_symmetries`` of the heights. Heights that are exactly odd,
h(-alpha) = -h(alpha), and exactly antiperiodic, h(alpha + pi) = -h(alpha)
(the central and even symmetries together) take the quarter sum: the pairs
(i, j), (-i, -j), (i + m/2, j + m/2) and (m/2 - i, m/2 - j) carry the same
terms up to sign, so one pair of each such orbit is evaluated, indexed by
its centre 0..m/4 in every offset row (width m/4 + 1): m/2 * (m/4 + 1)
pairs. The folder totals their terms on every node, four times over, and
the projection onto both symmetries (``geometry.symmetry_projector``),
whose average over the four images of each node completes the sum over all
pairs, agrees with the full sum to roundoff (not bitwise). Any other state
takes the full sum over all m/2 * m pairs (width m), on which every node
accumulates its terms in the same order, so shifting the state by one
grid node shifts the sum by exactly one node, bitwise.

The right-hand side is the owner of the symmetries of a run: whatever the
path, it is projected onto every symmetry its heights have exactly, so it
has each of them exactly too, and every DOPRI5 stage, accepted state and
sample built from exactly symmetric heights keeps their symmetries bit for
bit and takes the path of the initial state. ``evolve`` projects only the
initial heights, by the z2 half of ``geometry.symmetry_projection``, and
supplies the right-hand side and the per-sample record;
``integrators.integrate`` steps, samples and builds the Trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .diagnostics import DiagnosticsOptions, record_for_graph
from .geometry import (
    GraphInterface,
    TWO_PI,
    central_diff,
    check_finite_fields,
    check_grid_size,
    exact_symmetries,
    graph_to_curve,
    open_simpson_weights,
    second_diff,
    symmetry_projection,
    symmetry_projector,
)
from .integrators import BlowupError, IntegratorParams, Trajectory, integrate
from .kernels import (
    block_workspace,
    central_folder,
    central_pair_rows,
    clausen2,
    offset_blocks,
    read_only,
    stabilizer_weights,
    stokeslet_terms_into,
)

QUADRATURES = ("spectral_log", "taylor_cell")
CELL_VARIANTS = ("halfangle", "printed")


@dataclass(frozen=True)
class GraphState:
    """A graph interface at a moment in time."""

    t: float
    interface: GraphInterface


@dataclass(frozen=True)
class SchemeParams:
    """Physical and discretization constants of the graph scheme.

    ``sign_factor`` is (rho^- - rho^+)/(8 pi); negative means the denser
    fluid sits on top (Rayleigh-Taylor unstable). ``m`` is under the grid
    rule of every interface, ``geometry.check_grid_size``.
    """

    sign_factor: float
    viscosity: float
    m: int
    quadrature: str = "spectral_log"
    singular_cell_variant: str = "halfangle"

    def __post_init__(self):
        check_grid_size(self.m)
        check_finite_fields(self, "sign_factor", "viscosity")
        if self.sign_factor == 0.0:
            raise ValueError("sign_factor must be nonzero")
        if self.viscosity < 0.0:
            raise ValueError("viscosity must be nonnegative")
        if self.quadrature not in QUADRATURES:
            raise ValueError(f"unknown quadrature {self.quadrature!r}")
        if self.singular_cell_variant not in CELL_VARIANTS:
            raise ValueError(f"unknown cell variant {self.singular_cell_variant!r}")


def _log_circulant(m: int) -> np.ndarray:
    """Column of the circulant integrating log(4 sin^2(.)/2) exactly.

    omega[r] are the quadrature weights such that sum_r omega[r] f[j-r]
    equals the integral of log(4 sin^2((a_j - b)/2)) against the trig
    interpolant of f; the Fourier symbol of the log kernel is -2pi/|n|.
    """
    n = np.abs(np.fft.fftfreq(m, d=1.0 / m))
    omega = np.fft.ifft(np.divide(-TWO_PI, n, out=np.zeros(m), where=n != 0)).real
    return omega - omega.mean()  # exact zero mean: constants integrate to zero


@lru_cache(maxsize=16)
def _block_constants(m: int, quadrature: str, cell: str):
    """The constants of the graph pair sum, built once per grid, quadrature and cell.

    (sin(x1/2), sin(x1)/2, log_row, weight) over the offsets r = 1..m/2,
    x1 = r d (the sines ``stokeslet_terms_into`` takes), each in the
    row-pair shape (m/4, 2, 1) of ``kernels.central_pair_rows`` and
    read-only, so that a block b of the sum reads the slice [b] of each.
    ``log_row`` is the spectral row term omega_r/d - log(4 sin^2(x1/2)),
    None for "taylor_cell"; ``weight`` the quadrature weight of the offset.
    Then (w0, c0) of the r = 0 term: the weight of the removable limit of
    the pair term, and the integral of the log(4 sin^2) factor against the
    node value. That is omega_0 on the spectral circulant; on the Taylor
    cell it is the log over its two panels [-d, d] in closed form, -2 Cl2(d)
    each, or -Cl2(2d) each for the printed log(4 sin^2 b) (``cell``).
    """
    d = TWO_PI / m
    r = np.arange(1, m // 2 + 1)
    x1 = r * d
    sn2 = np.sin(0.5 * x1)
    if quadrature == "spectral_log":
        omega = _log_circulant(m)
        log_row = omega[r] / d - np.log(4.0 * sn2**2)
        # by offset 1..m - 1: the trapezoid rule
        weights, w0, c0 = np.full(m - 1, d), d, omega[0]
    else:
        # Simpson's over the panels [d, 2pi - d] away from the cell
        log_row, weights, w0 = None, open_simpson_weights(m - 1, d), 2.0 * d
        c0 = -4.0 * clausen2(d) if cell == "halfangle" else -2.0 * clausen2(2.0 * d)
    return (*read_only(*(None if a is None else a.reshape(-1, 2, 1)
                         for a in (sn2, 0.5 * np.sin(x1), log_row, weights[r - 1]))), w0, c0)


# transient over/underflows surface as the finiteness check below; the
# adaptive driver treats the resulting BlowupError on a trial step as a
# rejection
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _rhs_arrays(h: np.ndarray, params: SchemeParams) -> np.ndarray:
    m = h.size
    if m != params.m:
        raise ValueError(f"state has m={m} but params.m={params.m}")
    d = TWO_PI / m
    dh = central_diff(h, d)
    # on heights that are exactly odd, h(-alpha) = -h(alpha), and
    # antiperiodic, h(alpha + pi) = -h(alpha), one pair of each orbit of both
    # symmetries, finished by the projection onto them; on any other heights
    # every pair, the projection making exact each symmetry the heights have
    central, even = exact_symmetries(None, h)
    # the sum's temporaries are freed before the returned array is allocated
    totals = _pair_totals(h, dh, params, m // 4 + 1 if central and even else m)
    rhs = params.sign_factor * totals + params.viscosity * second_diff(h, d)
    rhs = symmetry_projector(m, central, even)(None, rhs)[1]
    if not np.all(np.isfinite(rhs)):
        raise BlowupError(int(np.flatnonzero(~np.isfinite(rhs))[0]))
    return rhs


def _pair_totals(h, dh, params, width):
    """The pair sum of ``width`` columns a row, r = 0 included, on all m nodes."""
    m = h.size
    # the pair integrand below is symmetric in its two nodes and both weights
    # are even in the offset, so the offsets r and m - r share one evaluation;
    # the block terms are computed in place in one workspace for all blocks
    (near, far), (fold, total) = central_pair_rows(h, dh, width=width), central_folder(m, width)
    work = block_workspace(5, m, width)
    sn2, sc, log_row, weight, w0, c0 = _block_constants(m, params.quadrature,
                                                        params.singular_cell_variant)
    for b in offset_blocks(m, width):
        (ha, dha), (hb, dhb) = near[:, b], far[:, b]
        x2, lg, a_ss, a_sn, dd = work[:, : len(hb)]
        stokeslet_terms_into(sn2[b], sc[b], np.subtract(ha, hb, out=x2), lg, a_ss, a_sn)
        if log_row is not None:
            # spectral: keep the smooth remainder of the log only; the circulant
            # weight omega_r of its log(4 sin^2) factor joins it per offset row
            lg += log_row[b]
        # pair = w_r (lg (1 + dd) + a_ss (dd - 1) + a_sn (h'_i + h'_j)), in place
        np.multiply(dha, dhb, out=dd)
        a_ss *= np.subtract(dd, 1.0, out=x2)
        dd += 1.0
        lg *= dd
        lg += a_ss
        a_sn *= np.add(dha, dhb, out=x2)
        lg += a_sn
        pair = stabilizer_weights(np.multiply(lg, weight[b], out=lg), b, m)
        fold(np.multiply(hb, pair, out=x2), np.multiply(ha, pair, out=a_ss), b)
    # r = 0: the removable limit h ((1 + h'^2) log(1 + h'^2) + 2 h'^2) of the
    # pair term, weight w0, and the log(4 sin^2) factor integrated against
    # the frozen node value h (1 + h'^2), c0
    one_p = 1.0 + dh * dh
    return total() + (w0 * (h * one_p * np.log(one_p) + 2.0 * h * dh * dh) + c0 * h * one_p)


def rhs_graph(state: GraphState, params: SchemeParams) -> np.ndarray:
    """Time derivative h_t at every node for the current graph state."""
    return _rhs_arrays(state.interface.h, params)


def evolve(
    initial: GraphState,
    params: SchemeParams,
    ip: IntegratorParams,
    sample_times: Sequence[float],
    options: Optional[DiagnosticsOptions] = None,
    on_sample: Optional[Callable] = None,
) -> Trajectory:
    """Integrate the graph scheme, with a snapshot at each sample time.

    Stepping, sampling and failure capture are ``integrators.integrate``'s:
    a snapshot inside a step is read from the step's continuous extension
    (to the integration tolerance) and one at a step end is that state, a
    diagnostics record is computed at every sample, ``on_sample(state,
    record)`` is invoked as each one is taken (used for incremental output),
    and a blowup or step failure ends the run early and is recorded on the
    returned Trajectory with the run's step counts. The symmetries the initial
    data carries to machine precision are made exact on the initial heights
    by the z2 half of ``geometry.symmetry_projection`` of its lift; the
    right-hand side keeps them exact on every later state.
    """
    h0 = symmetry_projection(graph_to_curve(initial.interface))(None, initial.interface.h)[1]

    def f(t, y):
        return _rhs_arrays(y, params)

    def sample(t, y):
        state = GraphState(t=t, interface=GraphInterface(h=y.copy()))
        return state, record_for_graph(t, state.interface, params.sign_factor, options)

    return integrate(f, initial.t, h0, ip, sample_times, sample, on_sample)
