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
every run enforces and ``verify`` checks, and ``exact_symmetries`` which path
every pair sum takes. The table's one projection, ``symmetry_projector``,
makes the carried symmetries exact on the initial state of every run and
finishes every right-hand side, whose output it makes exactly symmetric on
every symmetry its input has exactly, so every later state of a run keeps
them without a projection; no other module maps nodes or signs by a
symmetry.

A ``ParamCurve`` is validated on construction: no two nodes may coincide in
(z1 mod 2pi, z2), checked on the nodes sorted by z1 mod 2pi in O(m log m)
time and O(m) memory, and the discrete tangent may not vanish.
"""

from __future__ import annotations

import numbers
import sys
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


class DegenerateParametrizationError(ValueError):
    """The discrete tangent vector vanishes at some node."""


class SelfIntersectionError(ValueError):
    """Two distinct curve nodes coincide in (z1 mod 2pi, z2), to within 1e-12.

    Only nodes are compared: segments that cross between nodes go undetected.
    """


def uniform_grid(m: int) -> np.ndarray:
    """Nodes alpha_j = -pi + 2*pi*j/m for j = 0..m-1, a new writable array."""
    return -np.pi + TWO_PI * np.arange(m) / m


@lru_cache(maxsize=8)
def _shared_grid(m: int) -> np.ndarray:
    """``uniform_grid(m)`` made read-only and cached: the ``alpha`` of every
    GraphInterface and ParamCurve on m nodes."""
    alpha = uniform_grid(m)
    alpha.flags.writeable = False
    return alpha


def check_grid_size(m: int) -> None:
    """ValueError unless m >= 8 is an integer multiple of 4, so that 0 and +-pi/2 are nodes.

    A float, even an integral one, and a boolean are not grid sizes.
    """
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 8 or m % 4:
        raise ValueError(f"m must be an integer multiple of 4 and >= 8, got {m!r}")


def is_finite_number(value) -> bool:
    """Whether ``value`` is an int or float (NumPy's too) that a float holds finitely.

    JSON configs may spell NaN and Infinity, which no range check rejects,
    and booleans and strings, which NumPy reads as numbers; none of them is
    one.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    # a Python int compares exactly, so one past the float range fails
    return bool(abs(value) <= sys.float_info.max if isinstance(value, int) else np.isfinite(value))


def check_finite_fields(params, *names: str) -> None:
    """ValueError naming the first of the fields ``names`` of ``params`` that
    is not a finite number (``is_finite_number``)."""
    for name in names:
        value = getattr(params, name)
        if not is_finite_number(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


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
    # v[j+1] - v[j-1], the two wrapped ends apart, then one division
    out = np.empty_like(v)
    np.subtract(v[2:], v[:-2], out=out[1:-1])
    out[0] = v[1] - v[-1]
    out[-1] = v[0] - v[-2]
    out /= 2.0 * spacing
    return out


def second_diff(values, spacing: float) -> np.ndarray:
    """Periodic 3-point second difference (v[j+1] - 2 v[j] + v[j-1]) / spacing^2."""
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 3:
        raise ValueError("second_diff needs a 1-d array of length >= 3")
    # (v[j+1] - 2 v[j]) + v[j-1] in that order, the two wrapped ends apart
    out = 2.0 * v
    np.subtract(v[2:], out[1:-1], out=out[1:-1])
    out[0] = v[1] - out[0]
    out[-1] = v[0] - out[-1]
    out[1:-1] += v[:-2]
    out[0] += v[-1]
    out[-1] += v[-2]
    out /= spacing**2
    return out


def open_simpson_weights(nodes: int, spacing: float) -> np.ndarray:
    """Composite Simpson weights on ``nodes`` consecutive nodes of a uniform grid.

    Simpson's rule (1, 4, 2, ..., 4, 1) spacing/3 on an even panel count;
    on an odd count the 3/8 rule (1, 3, 3, 1) 3 spacing/8 on the last three
    panels and Simpson's before them, and the trapezoid rule on one panel
    (one node, no panel, weighs 0). Cubics are integrated exactly on three
    nodes and more. The one composite-Simpson rule of the package.
    """
    if nodes == 2:
        return np.full(2, 0.5 * spacing)
    head = nodes - 1 - 3 * ((nodes - 1) % 2)  # Simpson's panels, the 3/8 rule's after
    w = np.zeros(nodes)
    w[1:head:2], w[2:head:2] = 4.0, 2.0
    w[0] = w[head] = float(head > 0)
    w *= spacing / 3.0
    if head < nodes - 1:
        w[head:] += 3.0 * spacing / 8.0 * np.array([1.0, 3.0, 3.0, 1.0])
    return w


def simpson_weights(m: int, spacing: float) -> np.ndarray:
    """Composite Simpson weights for one full period on an even uniform grid.

    The rule of ``open_simpson_weights`` on the m + 1 nodes of the closed
    period, the last weight folded onto the first by the periodic closure
    f[m] = f[0]: 2*spacing/3 on even nodes and 4*spacing/3 on odd nodes.
    """
    check_grid_size(m)
    w = open_simpson_weights(m + 1, spacing)
    w[0] += w[m]
    return w[:m]


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
        Nodes -pi + 2*pi*j/m, read-only and shared by every interface on m nodes.
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
        object.__setattr__(self, "alpha", _shared_grid(h.size))

    @property
    def spacing(self) -> float:
        return TWO_PI / self.m


@dataclass(frozen=True)
class ParamCurve:
    """Closed-in-T parametrized curve z(alpha) = (z1, z2).

    The closure convention is one horizontal period: z1(alpha + 2*pi) =
    z1(alpha) + 2*pi and z2 periodic. Construction rejects curves whose
    nodes coincide in (z1 mod 2pi, z2) or whose discrete tangent vanishes.
    The node check takes O(m) for a curve that is x-monotone and
    O(m log m) for one that is not; it does not test segment crossings.
    ``alpha`` is read-only and shared by every curve on m nodes.
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
        object.__setattr__(self, "alpha", _shared_grid(z1.size))
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


def _check_no_self_intersection(z1, z2, tol: float = 1e-12) -> None:
    """SelfIntersectionError if two distinct nodes lie within tol in (z1 mod 2pi, z2).

    The distance of nodes i and j is hypot(((z1_i - z1_j) + pi) % 2pi - pi,
    z2_i - z2_j). Sorted on z1 mod 2pi, with the nodes within 2 tol of 0
    repeated 2pi higher to cover the seam, only neighbours in that order less
    than 2 tol apart can come within tol (the margin covers the rounding of
    the reduction), so O(m log m) time and O(m) memory for any curve that is
    not dense in z1.
    """
    # x-monotone with every gap, the wrap gap included, at least tol: every
    # pair is then at least tol apart in z1 mod 2pi and no pair can be close
    if np.min(np.diff(z1)) >= tol and z1[0] + TWO_PI - z1[-1] >= tol:
        return
    x = z1 % TWO_PI
    order = np.argsort(x, kind="stable")
    key = x[order]
    seam = key < 2.0 * tol
    key = np.concatenate([key, key[seam] + TWO_PI])
    order = np.concatenate([order, order[seam]])
    # the candidate pairs (order[k], order[k + s]), s = 1, 2, ... while within
    # 2 tol; ``near`` keeps the k still in reach, so the work is the pair count
    near = np.arange(key.size)
    for step in range(1, key.size):
        near = near[near + step < key.size]
        near = near[key[near + step] - key[near] <= 2.0 * tol]
        if near.size == 0:
            return
        i, j = order[near], order[near + step]
        # both orders: the rounding of the reduction is not odd in z1_i - z1_j
        for a, b in ((i, j), (j, i)):
            dist = np.hypot((z1[a] - z1[b] + np.pi) % TWO_PI - np.pi, z2[a] - z2[b])
            hit = dist < tol
            if hit.any():
                raise SelfIntersectionError(
                    f"nodes coincide near index {int(min(a[hit][0], b[hit][0]))}")


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


@lru_cache(maxsize=8)
def _reflections(m: int):
    """Central and two-line even symmetry as rows (k, sign), for all nodes j:

    p[k[j]] = -p[j] and z2[k[j]] = sign * z2[j] on the remainder p = z1 - alpha,
    which either reflection maps without a constant. Central symmetry
    z(alpha) = -z(-alpha) pairs j with -j; even symmetry pairs j with
    m/2 - j, mirroring the curve about the lines z1 = -pi/2 on [-pi, 0] and
    z1 = pi/2 on (0, pi). Their composition is the half-period symmetry
    p[j + m/2] = p[j], z2[j + m/2] = -z2[j]. A velocity maps as the state:
    u1 like p and u2 like z2. The index rows are read-only, built once per m.
    """
    j = np.arange(m)
    rows = (((-j) % m, -1.0), ((m // 2 - j) % m, 1.0))
    for k, _ in rows:
        k.flags.writeable = False
    return rows


def symmetry_errors(curve: ParamCurve, p=None):
    """Max deviation from central symmetry and from the two-line even symmetry.

    Measured on the remainder p = z1 - alpha and on z2, where each
    reflection is a sign and an index map (``_reflections``). p is the
    stored z1 minus alpha unless given: a curve run passes the p it
    integrates, so an exactly symmetric state reads 0 rather than the
    rounding of z1 = p + alpha. A graph's lift has p = 0 exactly.

    Returns
    -------
    (central, even) : pair of floats
    """
    if p is None:
        p = curve.z1 - curve.alpha
    z2 = curve.z2
    return tuple(
        float(max(np.max(np.abs(p + p[k])), np.max(np.abs(z2 - sign * z2[k]))))
        for k, sign in _reflections(curve.m)
    )


def exact_symmetries(p, z2):
    """(central, even): whether the state has each symmetry exactly on the grid.

    The rows of ``_reflections`` with zero error on the remainder p = z1 -
    alpha, so the test reads the state a curve run integrates; with p None,
    only their z2 halves, for the heights z2 of a graph. Given the central
    symmetry, the even one holds exactly if and only if the half-period one
    does (for a graph, h(alpha + pi) = -h(alpha)): the maps are exact. The
    one test behind the path of every pair sum. O(m), exact.
    """
    return tuple(bool((p is None or np.array_equal(p[k], -p))
                      and np.array_equal(z2[k], sign * z2))
                 for k, sign in _reflections(z2.size))


def carried_symmetries(curve: ParamCurve):
    """(central, even): whether ``curve`` carries each symmetry to CARRIED_TOL."""
    return tuple(err <= CARRIED_TOL for err in symmetry_errors(curve))


def symmetry_projector(m: int, central: bool, even: bool):
    """``project(p, z2) -> (p, z2)``: the projection onto the requested symmetries.

    On the remainder p = z1 - alpha each reflection of ``_reflections`` is a
    sign and index map, and the projection averages over the group they
    generate: each requested one halves the sum of the state and its signed
    reflected copy. The result has each requested symmetry, and with both
    their composition, the half-period symmetry, exactly, and projecting it
    again returns it bit for bit; with none requested the inputs are
    returned as they are. Its z2 half alone projects the heights of a graph,
    and ``project(None, h)`` computes only that half.

    The same average finishes every symmetric pair sum: the sum over all
    pairs is the group order times the projection of the terms of the pairs
    the sum held (``kernels.central_folder`` on offset rows, the node
    totals of ``evolution_curve``'s domain times their orbit sizes on node
    blocks), so each right-hand side projects its output onto the
    symmetries its input has exactly (``exact_symmetries``), which also
    chose its path.
    """
    rows = [row for row, on in zip(_reflections(m), (central, even)) if on]

    def project(p, z2):
        for k, sign in rows:
            if p is not None:
                p = 0.5 * (p - p[k])
            z2 = 0.5 * (z2 + sign * z2[k])
        return p, z2

    return project


def symmetry_group(m: int, central: bool, even: bool):
    """The group the requested symmetries generate: (node map, p sign, z2 sign) each.

    The identity first, then each element composed with each requested row
    of ``_reflections``: with both, the central symmetry j -> -j, the even
    one j -> m/2 - j and their composition, the half-period shift
    j -> j + m/2. An element maps a state (or a velocity) X to its signed
    copy sign * X[node map], p and u1 by the p sign, z2 and u2 by the z2 one.
    """
    group = [(np.arange(m), 1.0, 1.0)]
    for (k, sign), on in zip(_reflections(m), (central, even)):
        if on:
            group += [(k[g], -p_sign, sign * z2_sign) for g, p_sign, z2_sign in group]
    return group


def symmetry_projection(curve: ParamCurve):
    """``symmetry_projector`` onto the symmetries ``curve`` carries (``carried_symmetries``).

    Both are conserved by the flow, so making them exact on the initial
    state of a run, which the right-hand sides then keep, keeps roundoff
    asymmetries from growing under unstable dynamics.
    """
    return symmetry_projector(curve.m, *carried_symmetries(curve))


# ---------------------------------------------------------------------------
# snapshot files: CSV with header "alpha,h" or "alpha,z1,z2", 17 significant
# digits per value, one row per node.


def write_snapshot(path, obj) -> None:
    """Write a GraphInterface or ParamCurve as a snapshot CSV."""
    if isinstance(obj, GraphInterface):
        header, columns = "alpha,h", (obj.alpha, obj.h)
    elif isinstance(obj, ParamCurve):
        header, columns = "alpha,z1,z2", (obj.alpha, obj.z1, obj.z2)
    else:
        raise TypeError(f"cannot snapshot object of type {type(obj)!r}")
    # CRLF row ends, as the csv module writes them, on every platform; all
    # rows in one formatting of the flat values
    row = ",".join(["%.17g"] * len(columns)) + "\r\n"
    values = np.column_stack(columns).ravel().tolist()
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n" + (row * obj.m) % tuple(values))


def read_snapshot(path):
    """Read a snapshot CSV, returning GraphInterface or ParamCurve per header.

    Raises ValueError naming the path for a file without data rows, with an
    unrecognized header, with a row of the wrong length, with a value that is
    not a number or with data the constructor rejects (a grid off the grid
    rule, say). The columns are kept as contiguous copies, not views of the
    parsed table: a curve's z1 and z2 are the rows of one (2, m) copy, one
    allocation a curve, so a program that keeps many read curves fragments
    its heap less.
    """
    with open(path, newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        try:
            with warnings.catch_warnings():
                # a file without data rows warns; it is rejected below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
            if data.size == 0:
                raise ValueError("snapshot has no data rows")
            if header not in (["alpha", "h"], ["alpha", "z1", "z2"]):
                raise ValueError(f"unrecognized snapshot header {header!r}")
            if data.shape[1] != len(header):
                raise ValueError(f"every snapshot row needs {len(header)} values")
            if len(header) == 2:
                return GraphInterface(h=data[:, 1].copy())
            z1, z2 = np.ascontiguousarray(data[:, 1:].T)
            return ParamCurve(z1=z1, z2=z2)
        except ValueError as exc:
            raise type(exc)(f"{path}: {exc}") from exc
