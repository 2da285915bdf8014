"""Scalar monitors along the interface evolution.

The modulated potential energy of a graph interface separating density +1
above from -1 below reduces to E = integral of h^2 over the period (each
vertical column between the flat stratified profile and the graph contributes
2|x2| over half the height range). Its exact production rate in the
normalization rho+- = +-1 is

    delta = 4 * iint h'(a) h'(b) Kpair(a - b, h(a) - h(b)) da db,

the squared L2 norm of (-Delta)^{-1} d1 rho written through the measure form
of grad rho. ``delta_spectral`` evaluates it as a pair sum over the grid
offsets, in the one row layout of ``kernels.central_pair_rows``: all m
columns of every offset row, or m/4 + 1 pair centres on heights that are
exactly odd and antiperiodic (the full and quarter sums, chosen by
``geometry.exact_symmetries``). Each block of the sum is a slice of the
row pairs (``kernels.offset_blocks``), and reads its slice of the kernel
tables of all the offsets, built once per grid with the r = 0 row's
Kpair(0, 0) (``kernels.pair_kernel_tables``). A run integrated with a
different density jump is the same flow with time rescaled; ``delta_rate``
applies that exact factor so the stored dissipation matches dE/dt in the
run's own time units (sign_factor = (rho^- - rho^+)/(8 pi), so the factor is
-4 pi * sign_factor).

``finger_count`` counts fingers by the flat/steep split: I_mu collects the
nodes where |h'| <= mu, and the count is the number of its maximal ranges
(each isolated near-flat window between steep flanks marks one extremum of
the interface), plus any slope sign flips happening at grid scale strictly
between steep nodes. A state with no steep region has no fingers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .geometry import (
    GraphInterface,
    ParamCurve,
    central_diff,
    curve_derivatives,
    curvature,
    exact_symmetries,
    graph_to_curve,
    height_extremes,
    min_slope_x1,
    perimeter,
    simpson_weights,
    symmetry_errors,
)
from .integrators import Trajectory
from .kernels import (
    block_workspace,
    central_pair_rows,
    offset_blocks,
    pair_kernel_rows,
    pair_kernel_tables,
    stabilizer_weights,
)


def energy(interface: GraphInterface) -> float:
    """Modulated potential energy: composite Simpson of h^2 over the period."""
    w = simpson_weights(interface.m, interface.spacing)
    return float(np.dot(w, interface.h**2))


def energy_curve(curve: ParamCurve) -> float:
    """Energy of a general curve via the flux form integral of z2^2 * dz1.

    Reduces to the graph formula when z1 = alpha; valid before and after
    turning (the signed dz1 keeps the underlying area integral exact).
    """
    dz1, _ = curve_derivatives(curve)
    w = simpson_weights(curve.m, curve.spacing)
    return float(np.dot(w, curve.z2**2 * dz1))


def delta_spectral(interface: GraphInterface) -> float:
    """Dissipation rate delta in the rho = +-1 normalization.

    Double periodic-trapezoid quadrature of
    4 * h'(a) h'(b) Kpair(a - b, h(a) - h(b)), the pair kernel evaluated
    exactly, by the evaluation behind ``bilaplacian_pair_kernel_exact``.

    On the uniform grid x1 depends only on the offset r = (i - j) mod m, and
    Kpair is even in x1 and depends on |x2| only, so offsets r and m - r
    contribute equally. The r = 0 row is Kpair(0, 0) sum_i h'_i^2, Kpair(0, 0)
    read from the grid's tables (``pair_kernel_tables``). The rows
    r = 1..m/2, each sum_i h'_i h'_{i-r} Kpair(r d, h_i - h_{i-r}), count
    twice (the r = m/2 row holds each pair twice and counts half,
    ``stabilizer_weights``), in blocks of row pairs (``offset_blocks``),
    each a slice of the rows of ``central_pair_rows``. x1 is fixed along a
    row, so ``kernels.pair_kernel_rows`` evaluates Kpair in real arithmetic
    from the block's slice of per-row tables built once per grid
    (``pair_kernel_tables``), in place in one workspace of a block's rows;
    memory is O(block * m).

    The sum takes one of two paths, chosen as the graph right-hand side
    chooses its own (``geometry.exact_symmetries``), in one block loop whose
    rows' width sets the path. Heights that are exactly odd,
    h(-alpha) = -h(alpha), and exactly antiperiodic,
    h(alpha + pi) = -h(alpha), as every record of a run projected onto both
    symmetries is, take the quarter sum: the mirror i -> r - i and the
    shift i -> i + m/2 leave a row's term unchanged, so each row is 4 times
    its sum over one pair of each orbit, the pair centres 0..m/4 weighted
    by ``stabilizer_weights``. It agrees with the full sum to roundoff, not
    bitwise. Any other state takes the full sum over all m columns. Both
    paths return a Python float.

    Raises
    ------
    ValueError
        If the quadrature returns a value below -1e-6 (the exact result is
        a squared norm).
    """
    h = interface.h
    m = interface.m
    d = interface.spacing
    hp = central_diff(h, d)
    # the orbit of a held pair: itself and its offset m - r, and on the
    # quarter sum also its images by the mirror and the shift
    width, orbit = (m // 4 + 1, 8.0) if all(exact_symmetries(None, h)) else (m, 2.0)
    near, far = central_pair_rows(h, hp, width=width)
    *tables, origin = pair_kernel_tables(m)
    # the kernel of a block is computed in place in one workspace for all blocks
    work = block_workspace(4, m, width)
    total = float(origin * (hp @ hp))
    for b in offset_blocks(m, width):
        (ha, hpa), (hb, hpb) = near[:, b], far[:, b]
        block = work[:, : len(hb)]
        x2 = np.subtract(ha, hb, out=block[0])
        ker = pair_kernel_rows([t[..., b, :, :] for t in tables], x2, block)
        ker *= hpb
        ker *= hpa
        total += orbit * float(stabilizer_weights(ker, b, m).sum())
    val = 4.0 * d * d * total
    if val < -1e-6:
        raise ValueError(f"delta_spectral returned {val}, inconsistent quadrature")
    return val


def delta_rate(interface: GraphInterface, sign_factor: float) -> float:
    """delta expressed in the time units of a run with the given sign_factor.

    The contour velocity scales linearly with the density jump
    rho^- - rho^+ = 8 pi * sign_factor while delta is quadratic in it, so
    along such a run dE/dt = -4 pi * sign_factor * delta_spectral. Negative
    values (stable stratification, sign_factor > 0) mean E decreases.
    """
    return -4.0 * np.pi * sign_factor * delta_spectral(interface)


def dE_dt_fd(trajectory: Trajectory) -> np.ndarray:
    """Centered finite differences of the energy series in t (one-sided at ends)."""
    t = np.array([r.t for r in trajectory.records])
    e = np.array([r.energy for r in trajectory.records])
    return dEdt_series(t, e)


def dEdt_series(t: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Derivative of samples e(t) by 3-point formulas, exact for quadratics."""
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    if t.size < 3:
        raise ValueError("need at least 3 samples")
    if np.any(np.diff(t) <= 0):
        raise ValueError("time grid must be strictly increasing")
    out = np.empty_like(e)
    a = t[1:-1] - t[:-2]
    b = t[2:] - t[1:-1]
    out[1:-1] = (e[2:] * a**2 - e[:-2] * b**2 + e[1:-1] * (b**2 - a**2)) / (
        a * b * (a + b)
    )
    out[0] = (e[1] - e[0]) / (t[1] - t[0])
    out[-1] = (e[-1] - e[-2]) / (t[-1] - t[-2])
    return out


def finger_count(interface: GraphInterface, mu: float) -> int:
    """Number of fingers at slope threshold mu: I_mu is |h'| <= mu, R_mu the rest.

    Every maximal cyclic range of I_mu counts once, by its first node, and so
    does a sign change of h' between two adjacent R_mu nodes (an extremum
    unresolved at grid scale). A grid that is all flat has neither, so no
    finger.
    """
    if mu <= 0:
        raise ValueError("mu must be positive")
    slope = central_diff(interface.h, interface.spacing)
    flat = np.abs(slope) <= mu
    steep = ~flat
    starts = flat & ~np.roll(flat, 1)
    flips = steep & np.roll(steep, -1) & (slope * np.roll(slope, -1) < 0.0)
    return int(np.count_nonzero(starts) + np.count_nonzero(flips))


# largest log, nu |k| + s log|k|, of a Wiener weight: e^700 is still finite
WIENER_EXPONENT_MAX = 700.0


def check_wiener_weights(s: float, nu: float, m: int) -> None:
    """ValueError unless s, nu >= 0 and the largest Wiener weight on m nodes is finite.

    That weight is e^{nu m/2} (m/2)^s, whose log nu m/2 + s log(m/2) may
    not pass WIENER_EXPONENT_MAX (the overflow guard). NaN fails both tests.
    """
    if not (s >= 0 and nu >= 0):
        raise ValueError(f"wiener_s and wiener_nu must be nonnegative, got {s} and {nu}")
    exponent = nu * (m / 2) + s * math.log(m / 2)
    if not exponent <= WIENER_EXPONENT_MAX:
        raise ValueError(f"log of the largest Wiener weight, wiener_nu m/2 + wiener_s ln(m/2) "
                         f"= {exponent:g}, passes the overflow guard ({WIENER_EXPONENT_MAX:g})")


def wiener_norm(interface: GraphInterface, s: float, nu: float) -> float:
    """Weighted Fourier-coefficient sum  sum_k e^{nu |k|} |k|^s |h_hat(k)|.

    h_hat(k) = (1/2pi)(2pi/m) sum_j h_j e^{-ik alpha_j} over k in
    (-m/2, m/2] (m is even on every admitted grid); the k = 0 term enters
    only for s = 0. Requires the weights of ``check_wiener_weights``.
    """
    m = interface.m
    check_wiener_weights(s, nu, m)
    coeffs = np.abs(np.fft.fft(interface.h)) / m
    # coefficients at FFT roundoff level are exact zeros of the data; without
    # this floor the e^{nu k} weight amplifies machine noise astronomically
    floor = 64.0 * np.finfo(float).eps * np.max(coeffs, initial=0.0)
    coeffs[coeffs <= floor] = 0.0
    k = np.abs(np.fft.fftfreq(m, d=1.0 / m))
    weights = np.exp(nu * k) * k**s  # numpy's 0**0 == 1 covers the s = 0 rule
    return float(np.dot(weights, coeffs))


# ---------------------------------------------------------------------------
# per-sample records and trajectory container


@dataclass
class DiagnosticsRecord:
    """One time slice of the scalar monitors along a trajectory.

    ``min_slope_x1`` is populated only for curve-formulation runs; ``delta``,
    ``finger_count`` and ``wiener_norm`` only for graph runs (the energy
    reduction backing delta needs a graph).
    """

    t: float
    energy: float
    delta: float
    perimeter: float
    max_curvature: float
    max_height: float
    min_height: float
    central_sym_err: float
    even_sym_err: float
    finger_count: Optional[int] = None
    wiener_norm: Optional[float] = None
    min_slope_x1: Optional[float] = None


@dataclass
class DiagnosticsOptions:
    """Knobs of a graph run's per-sample record; a curve record reads none."""

    mu: float = 0.05
    wiener_s: float = 0.0
    wiener_nu: float = 0.0
    compute_delta: bool = True


def record_for_curve(t: float, curve: ParamCurve, p=None) -> DiagnosticsRecord:
    """DiagnosticsRecord for a parametric state (no delta/finger/wiener).

    The symmetry errors are measured on the remainder p = z1 - alpha, the
    stored z1 minus alpha unless given (``geometry.symmetry_errors``).
    """
    big, small = height_extremes(curve)
    csym, esym = symmetry_errors(curve, p)
    return DiagnosticsRecord(
        t=t,
        energy=energy_curve(curve),
        delta=float("nan"),
        perimeter=perimeter(curve),
        max_curvature=float(np.max(curvature(curve))),
        max_height=big,
        min_height=small,
        central_sym_err=csym,
        even_sym_err=esym,
        min_slope_x1=min_slope_x1(curve),
    )


def record_for_graph(
    t: float,
    interface: GraphInterface,
    sign_factor: float,
    options: Optional[DiagnosticsOptions] = None,
) -> DiagnosticsRecord:
    """DiagnosticsRecord for a graph state (delta in the run's time units).

    The curve monitors are those of the lifted curve (its ``energy_curve``
    equals ``energy``); delta, the finger count and the Wiener norm are
    added, and min_slope_x1 stays unset.
    """
    opt = options or DiagnosticsOptions()
    return replace(
        record_for_curve(t, graph_to_curve(interface)),
        delta=delta_rate(interface, sign_factor) if opt.compute_delta else float("nan"),
        finger_count=finger_count(interface, opt.mu),
        wiener_norm=wiener_norm(interface, opt.wiener_s, opt.wiener_nu),
        min_slope_x1=None,
    )


# ---------------------------------------------------------------------------
# diagnostics CSV: fixed column order, full precision, one flushed row per
# sample so a crashed run still leaves a valid file.

# (column, DiagnosticsRecord field); dEdt is the writer's own difference
_DIAG_FIELDS = (
    ("t", "t"),
    ("E", "energy"),
    ("dEdt", None),
    ("delta", "delta"),
    ("L", "perimeter"),
    ("Kmax", "max_curvature"),
    ("Mheight", "max_height"),
    ("mheight", "min_height"),
    ("csym", "central_sym_err"),
    ("esym", "even_sym_err"),
    ("fingers", "finger_count"),
    ("wiener", "wiener_norm"),
)
DIAG_COLUMNS = [column for column, _ in _DIAG_FIELDS]


def _fmt(x) -> str:
    if x is None:
        return "nan"
    return f"{float(x):.17g}"


class DiagnosticsWriter:
    """Incremental CSV writer for DiagnosticsRecord rows.

    The dEdt column is the backward difference of the energy column between
    consecutive samples (nan on the first row); verification recomputes the
    centered version from the stored E series.
    """

    def __init__(self, path):
        self._fh = open(path, "w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(DIAG_COLUMNS)
        self._fh.flush()
        self._prev: Optional[Tuple[float, float]] = None

    def write(self, rec: DiagnosticsRecord) -> None:
        dEdt = float("nan")
        if self._prev is not None and rec.t > self._prev[0]:
            dEdt = (rec.energy - self._prev[1]) / (rec.t - self._prev[0])
        self._writer.writerow(
            [_fmt(dEdt if name is None else getattr(rec, name)) for _, name in _DIAG_FIELDS])
        self._fh.flush()
        self._prev = (rec.t, rec.energy)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def read_diagnostics_csv(path) -> dict:
    """Read a diagnostics CSV back into a dict of float arrays."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != DIAG_COLUMNS:
            raise ValueError(f"unexpected diagnostics header {header!r}")
        rows = [[float(x) for x in row] for row in reader if row]
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        data = data.reshape(0, len(DIAG_COLUMNS))
    return {name: data[:, i] for i, name in enumerate(DIAG_COLUMNS)}
