"""Discrete interfaces on the periodic strip and their geometric measurements.

The interface between the two fluids lives on ``T x R`` with ``T = [-pi, pi)``.
Two discrete representations are used: a graph of heights ``h(alpha)`` sampled
on a uniform grid, and a parametrized curve ``(z1, z2)`` that closes modulo one
horizontal period, ``z1(alpha + 2*pi) = z1(alpha) + 2*pi`` with ``z2`` periodic.

Everything here is a pure function of node values: derivatives are periodic
central differences, integrals are composite Simpson sums on the uniform grid,
and extrema are node-wise (no sub-grid interpolation).
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


def _validate_grid_size(m: int) -> None:
    if m < 8 or m % 2 != 0:
        raise ValueError(f"grid size must be even and >= 8, got m={m}")


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
    _validate_grid_size(m)
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
        Grid size (even, >= 8).
    alpha : ndarray
        Nodes -pi + 2*pi*j/m.
    """

    h: np.ndarray
    m: int = field(init=False)
    alpha: np.ndarray = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.h, dtype=float)
        _validate_grid_size(h.size)
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
        _validate_grid_size(z1.size)
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


def _z1_at(curve: ParamCurve, idx: np.ndarray) -> np.ndarray:
    """z1 at possibly out-of-range node indices, adding one period per wrap."""
    wraps, j = np.divmod(idx, curve.m)
    return curve.z1[j] + TWO_PI * wraps


def symmetry_errors(curve: ParamCurve):
    """Max deviation from central symmetry and from the two-line even symmetry.

    Central symmetry is z(alpha) = -z(-alpha); the even symmetry identities
    are z1(alpha) = -pi - z1(-pi - alpha), z2(alpha) = z2(-pi - alpha) on
    (-pi, 0] and z1(alpha) = pi - z1(pi - alpha), z2(alpha) = z2(pi - alpha)
    on (0, pi]. Requires m divisible by 4 so that 0 and +-pi/2 are nodes.

    Returns
    -------
    (central, even) : pair of floats
    """
    m = curve.m
    if m % 4 != 0:
        raise ValueError("symmetry_errors requires m divisible by 4")
    j = np.arange(m)

    # central: z(alpha_j) + z(-alpha_j) with the one-period z1 convention at j=0
    k = (-j) % m
    c1 = curve.z1 + curve.z1[k] + np.where(j == 0, TWO_PI, 0.0)
    c2 = curve.z2 + curve.z2[k]
    central = float(max(np.max(np.abs(c1)), np.max(np.abs(c2))))

    # even, line alpha in [-pi, 0]: partner index m/2 - j
    ja = np.arange(0, m // 2 + 1)
    ka = m // 2 - ja
    e1a = curve.z1[ja] + np.pi + curve.z1[ka]
    e2a = curve.z2[ja] - curve.z2[ka]
    # even, line alpha in [0, pi): partner index 3m/2 - j (may wrap with winding)
    jb = np.arange(m // 2, m)
    kb = 3 * (m // 2) - jb
    e1b = curve.z1[jb] + _z1_at(curve, kb) - np.pi
    e2b = curve.z2[jb] - curve.z2[kb % m]
    even = float(
        max(
            np.max(np.abs(e1a)),
            np.max(np.abs(e2a)),
            np.max(np.abs(e1b)),
            np.max(np.abs(e2b)),
        )
    )
    return central, even


def odd_projection_curve(z1: np.ndarray, z2: np.ndarray):
    """Project a curve onto central symmetry z(alpha) = -z(-alpha).

    The z1 component at the seam node carries the one-period winding, which
    pins z1(-pi) = -pi.
    """
    m = z1.size
    j = np.arange(m)
    k = (-j) % m
    const = np.where(j == 0, TWO_PI, 0.0)
    return 0.5 * (z1 - z1[k] - const), 0.5 * (z2 - z2[k])


def even_projection_curve(z1: np.ndarray, z2: np.ndarray):
    """Project a curve onto the two-line even symmetry."""
    m = z1.size
    j = np.arange(m)
    k = (m // 2 - j) % m
    c = np.where(j <= m // 2, -np.pi, np.pi)
    return 0.5 * (z1 + c - z1[k]), 0.5 * (z2 + z2[k])


def symmetry_projection(curve: ParamCurve):
    """Projection onto the symmetries ``curve`` carries to machine precision.

    Central and two-line even symmetry are both conserved by the flow; each
    one whose ``symmetry_errors`` value is <= 1e-12 is enforced, so roundoff
    asymmetries cannot be amplified by unstable dynamics. Returns
    ``project(z1, z2) -> (z1, z2)``; the z2 half alone projects the heights
    of a graph, whose lift is z = (alpha, h).
    """
    central, even = symmetry_errors(curve)
    steps = [step for step, err in ((odd_projection_curve, central),
                                    (even_projection_curve, even)) if err <= 1e-12]

    def project(z1, z2):
        for step in steps:
            z1, z2 = step(z1, z2)
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
    unrecognized header or with a row of the wrong length.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = [[float(x) for x in row] for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: snapshot has no data rows")
    if header not in (["alpha", "h"], ["alpha", "z1", "z2"]):
        raise ValueError(f"{path}: unrecognized snapshot header {header!r}")
    if any(len(row) != len(header) for row in rows):
        raise ValueError(f"{path}: every snapshot row needs {len(header)} values")
    data = np.asarray(rows)
    if len(header) == 2:
        return GraphInterface(h=data[:, 1])
    return ParamCurve(z1=data[:, 1], z2=data[:, 2])
