"""Discrete interfaces on the periodic strip and their geometric measurements.

The interface between the two fluids lives on ``T x R`` with ``T = [-pi, pi)``.
Two discrete representations are used: a graph of heights ``h(alpha)`` sampled
on a uniform grid, and a parametrized curve ``(z1, z2)`` that closes modulo one
horizontal period, ``z1(alpha + 2*pi) = z1(alpha) + 2*pi`` with ``z2`` periodic.

Everything here is a pure function of node values: derivatives are periodic
central differences, integrals are composite Simpson sums on the uniform grid,
and extrema are node-wise (no sub-grid interpolation).

The curve conventions live here alone: the grid rule ``check_grid_size``, the
winding-aware tangent ``curve_derivatives`` and the table of the two
symmetries the flow conserves, from which ``carried_symmetries`` decides what
every run enforces and ``verify`` checks.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi


class DegenerateParametrizationError(ValueError):
    """The discrete tangent vector vanishes at some node."""


class SelfIntersectionError(ValueError):
    """Two distinct curve nodes coincide in (z1 mod 2pi, z2)."""


def uniform_grid(m: int) -> np.ndarray:
    """Nodes alpha_j = -pi + 2*pi*j/m for j = 0..m-1."""
    return -np.pi + TWO_PI * np.arange(m) / m


def check_grid_size(m: int) -> None:
    """ValueError unless m >= 8 is a multiple of 4, so that 0 and +-pi/2 are nodes."""
    if m < 8 or m % 4:
        raise ValueError(f"m must be a multiple of 4 and >= 8, got {m}")


def central_diff(values, spacing: float) -> np.ndarray:
    """Periodic central difference (v[j+1] - v[j-1]) / (2*spacing).

    Parameters
    ----------
    values : array_like
        Samples of a periodic function, length >= 3.
    spacing : float
        Grid spacing, positive.

    Returns
    -------
    ndarray of the same length.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ValueError("central_diff needs a 1-d array of length >= 3")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    return (np.roll(v, -1) - np.roll(v, 1)) / (2.0 * spacing)


def second_diff(values, spacing: float) -> np.ndarray:
    """Periodic 3-point second difference (v[j+1] - 2 v[j] + v[j-1]) / spacing^2."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ValueError("second_diff needs a 1-d array of length >= 3")
    return (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / spacing**2


def simpson_weights(m: int, spacing: float) -> np.ndarray:
    """Composite Simpson weights for one full period on an even uniform grid.

    With periodic closure f[m] = f[0] the classical rule collapses to weight
    2*spacing/3 on even nodes and 4*spacing/3 on odd nodes.
    """
    check_grid_size(m)
    w = np.empty(m)
    w[0::2] = 2.0
    w[1::2] = 4.0
    return w * (spacing / 3.0)


@dataclass(frozen=True)
class GraphInterface:
    """Uniform-grid samples of a periodic height function h(alpha).

    Attributes
    ----------
    h : ndarray
        Heights at the m grid nodes.
    m : int
        Grid size (a multiple of 4, >= 8).
    alpha : ndarray
        Nodes -pi + 2*pi*j/m.
    """

    h: np.ndarray
    m: int = field(init=False)
    alpha: np.ndarray = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        check_grid_size(h.size)
        if not np.all(np.isfinite(h)):
            raise ValueError("heights must be finite")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "m", h.size)
        object.__setattr__(self, "alpha", uniform_grid(h.size))

    @property
    def spacing(self) -> float:
        return TWO_PI / self.m


@dataclass(frozen=True)
class ParamCurve:
    """Closed-in-T parametrized curve z(alpha) = (z1, z2).

    The closure convention is one horizontal period: z1(alpha + 2*pi) =
    z1(alpha) + 2*pi and z2 periodic. Construction rejects curves whose
    nodes coincide in (z1 mod 2pi, z2) or whose discrete tangent vanishes.
    """

    z1: np.ndarray
    z2: np.ndarray
    m: int = field(init=False)
    alpha: np.ndarray = field(init=False)

    def __post_init__(self):
        z1 = np.asarray(self.z1, dtype=float)
        z2 = np.asarray(self.z2, dtype=float)
        if z1.shape != z2.shape or z1.ndim != 1:
            raise ValueError("z1 and z2 must be 1-d arrays of equal length")
        check_grid_size(z1.size)
        if not (np.all(np.isfinite(z1)) and np.all(np.isfinite(z2))):
            raise ValueError("curve samples must be finite")
        object.__setattr__(self, "z1", z1)
        object.__setattr__(self, "z2", z2)
        object.__setattr__(self, "m", z1.size)
        object.__setattr__(self, "alpha", uniform_grid(z1.size))
        _check_no_self_intersection(z1, z2)
        dz1, dz2 = curve_derivatives(self)
        speed = np.hypot(dz1, dz2)
        if np.any(speed <= 1e-12):
            raise DegenerateParametrizationError(
                f"vanishing tangent at node {int(np.argmin(speed))}"
            )

    @property
    def spacing(self) -> float:
        return TWO_PI / self.m


def _check_no_self_intersection(z1, z2, tol: float = 1e-12, block: int = 256) -> None:
    m = z1.size
    # x-monotone with every gap, the wrap gap included, at least tol: every
    # pair is then at least tol apart in z1 mod 2pi and the scan cannot raise
    if np.min(np.diff(z1)) >= tol and z1[0] + TWO_PI - z1[-1] >= tol:
        return
    for start in range(0, m, block):
        stop = min(start + block, m)
        dx = z1[start:stop, None] - z1[None, :]
        dx = (dx + np.pi) % TWO_PI - np.pi
        dy = z2[start:stop, None] - z2[None, :]
        dist = np.hypot(dx, dy)
        rows = np.arange(start, stop)
        dist[rows - start, rows] = np.inf
        if np.any(dist < tol):
            i = int(np.argmin(dist) // m) + start
            raise SelfIntersectionError(f"nodes coincide near index {i}")


def graph_to_curve(interface: GraphInterface) -> ParamCurve:
    """Lift a graph h(alpha) to the curve (alpha, h(alpha))."""
    return ParamCurve(z1=interface.alpha.copy(), z2=interface.h.copy())


def curve_derivatives(curve: ParamCurve):
    """Central-difference tangent (dz1, dz2), winding-aware in z1.

    The periodic remainder p = z1 - alpha is differenced and the unit slope
    of the winding is added back, which realizes z1(alpha + 2*pi) =
    z1(alpha) + 2*pi across the seam.
    """
    p = curve.z1 - curve.alpha
    dz1 = 1.0 + central_diff(p, curve.spacing)
    dz2 = central_diff(curve.z2, curve.spacing)
    return dz1, dz2


def curve_second_derivatives(curve: ParamCurve):
    """Periodic 3-point second derivatives (ddz1, ddz2) of the curve."""
    p = curve.z1 - curve.alpha
    ddz1 = second_diff(p, curve.spacing)
    ddz2 = second_diff(curve.z2, curve.spacing)
    return ddz1, ddz2


def curvature(curve: ParamCurve) -> np.ndarray:
    """Unsigned scalar curvature |dz1*ddz2 - ddz1*dz2| / |dz|^3 at each node."""
    dz1, dz2 = curve_derivatives(curve)
    ddz1, ddz2 = curve_second_derivatives(curve)
    speed2 = dz1 * dz1 + dz2 * dz2
    if np.any(speed2 <= 1e-24):
        raise DegenerateParametrizationError(
            f"vanishing tangent at node {int(np.argmin(speed2))}"
        )
    return np.abs(dz1 * ddz2 - ddz1 * dz2) / speed2**1.5


def perimeter(curve: ParamCurve) -> float:
    """Composite-Simpson length of one period, integral of |dz| d(alpha)."""
    dz1, dz2 = curve_derivatives(curve)
    w = simpson_weights(curve.m, curve.spacing)
    return float(np.dot(w, np.hypot(dz1, dz2)))


def height_extremes(curve: ParamCurve):
    """Node-wise (M, m) with M = max z2 and m = -min z2 (both as stored signs)."""
    return float(np.max(curve.z2)), float(-np.min(curve.z2))


def min_slope_x1(curve: ParamCurve) -> float:
    """Minimum over nodes of the central-difference d(z1)/d(alpha).

    Positive values mean the curve is still a graph over x1; a sign change
    flags the turning instability.
    """
    dz1, _ = curve_derivatives(curve)
    return float(np.min(dz1))


CARRIED_TOL = 1e-12  # a symmetry error at most this counts as carried


def _reflections(m: int):
    """Central and two-line even symmetry as rows (k, c, sign), for all nodes j:

    z1[j] + z1[k[j]] = c[j] and z2[j] = sign * z2[k[j]]. Central symmetry
    z(alpha) = -z(-alpha) pairs j with -j, the seam node with itself across
    one period. Even symmetry pairs j with m/2 - j, mirroring the curve about
    the lines z1 = -pi/2 on [-pi, 0] and z1 = pi/2 on (0, pi).
    """
    j = np.arange(m)
    central = ((-j) % m, np.where(j == 0, -TWO_PI, 0.0), -1.0)
    even = ((m // 2 - j) % m, np.where(j <= m // 2, -np.pi, np.pi), 1.0)
    return central, even


def symmetry_errors(curve: ParamCurve):
    """Max deviation from central symmetry and from the two-line even symmetry.

    Returns
    -------
    (central, even) : pair of floats
    """
    z1, z2 = curve.z1, curve.z2
    return tuple(
        float(max(np.max(np.abs(z1 + z1[k] - c)), np.max(np.abs(z2 - sign * z2[k]))))
        for k, c, sign in _reflections(curve.m)
    )


def carried_symmetries(curve: ParamCurve):
    """(central, even): whether ``curve`` carries each symmetry to CARRIED_TOL."""
    return tuple(err <= CARRIED_TOL for err in symmetry_errors(curve))


def symmetry_projection(curve: ParamCurve):
    """Projection onto the symmetries ``curve`` carries (``carried_symmetries``).

    Both are conserved by the flow, so enforcing them keeps roundoff
    asymmetries from growing under unstable dynamics. Returns ``project(z1,
    z2) -> (z1, z2)``; its z2 half alone projects the heights of a graph.
    """
    rows = [row for row, on in zip(_reflections(curve.m), carried_symmetries(curve)) if on]

    def project(z1, z2):
        for k, c, sign in rows:
            z1, z2 = 0.5 * (z1 + c - z1[k]), 0.5 * (z2 + sign * z2[k])
        return z1, z2

    return project


# ---------------------------------------------------------------------------
# snapshot files: CSV with header "alpha,h" or "alpha,z1,z2", 17 significant
# digits per value, one row per node.


def write_snapshot(path, obj) -> None:
    """Write a GraphInterface or ParamCurve as a snapshot CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if isinstance(obj, GraphInterface):
            writer.writerow(["alpha", "h"])
            for a, h in zip(obj.alpha, obj.h):
                writer.writerow([f"{a:.17g}", f"{h:.17g}"])
        elif isinstance(obj, ParamCurve):
            writer.writerow(["alpha", "z1", "z2"])
            for a, x, y in zip(obj.alpha, obj.z1, obj.z2):
                writer.writerow([f"{a:.17g}", f"{x:.17g}", f"{y:.17g}"])
        else:
            raise TypeError(f"cannot snapshot object of type {type(obj)!r}")


def read_snapshot(path):
    """Read a snapshot CSV, returning GraphInterface or ParamCurve per header.

    Raises ValueError naming the path for a file without data rows, with an
    unrecognized header, with a row of the wrong length, with a value that is
    not a number or with data the constructor rejects (a grid off the grid
    rule, say).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: snapshot has no data rows")
    if header not in (["alpha", "h"], ["alpha", "z1", "z2"]):
        raise ValueError(f"{path}: unrecognized snapshot header {header!r}")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: every snapshot row needs {len(header)} values")
    try:
        data = np.asarray([[float(x) for x in row] for row in rows])
        if len(header) == 2:
            return GraphInterface(h=data[:, 1])
        return ParamCurve(z1=data[:, 1], z2=data[:, 2])
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
