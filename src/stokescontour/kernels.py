"""Periodic Stokeslet and bilaplacian Green-function kernels.

The velocity kernel is the x1-periodic Stokeslet

    S(x) = (1/8pi) [ log(2(cosh x2 - cos x1)) Id
                     - x2/(cosh x2 - cos x1) * [[-sinh x2, sin x1],
                                                [ sin x1, sinh x2]] ],

which is smooth away from x = (0 mod 2pi, 0) where it has a log singularity.
One body, ``stokeslet_terms_into``, evaluates its terms from x2, sin(x1/2)
and sin(x1/2) cos(x1/2) = sin(x1)/2 into arrays the caller gives: both
right-hand sides write into their block workspace, the curve one from sines
it forms on its node blocks from per-node values. ``stokeslet_terms``
(which takes x1) calls it with new arrays, for the turning certificates,
``stokeslet`` and ``dK12``. The mixed second derivative of the
bilaplacian Green function K (with Delta^2 K = delta on T x R) has the
closed form

    d1 d2 K(x) = (1/8pi) x2 sin(x1) / (cosh x2 - cos x1),

while d1 K and the k != 0 part of K itself are only available as series over
the horizontal wavenumbers. The pair kernel used by the dissipation
functional is

    Kpair(x) = (1/4pi) sum_{n>=1} (1 + n|x2|)/n^3 * exp(-n|x2|) cos(n x1),

smooth everywhere (including the origin). Each series is summed one way.
The defining series of the polylogarithms Li2/Li3 of w = exp(-|x2| + i x1),
by Horner in w, gives the truncated sums and the exact kernel (the
n_max -> inf limit) where |x2| >= 2. Below that the exact kernel runs in
real arithmetic from per-x coefficient tables of the expansion of Li2/Li3
around w = 1, built once per grid for the offsets of ``delta``'s pair sum
(``pair_kernel_tables``), so a point costs a log1p and a short real Horner
loop; it agrees with the series to machine precision. The coefficients of
that expansion are rounded from one table of exact zeta values, which also
gives the real series of ``clausen2``. ``clausen2`` is not cached: the pair
sums call it only while they build their per-grid tables (the r = 0
constants of ``evolution_graph._block_constants`` and
``evolution_curve._path_blocks``), as ``delta``'s tables evaluate Kpair(0, 0)
once per grid (``pair_kernel_tables``).

The three pair sums of the package use that their kernels are even, so
each unordered pair of nodes is evaluated once, and run a block at a time,
so their memory is O(rows * width) per block rather than O(m^2). Every
block of every sum is a slice of the rows of the sum (``blocks``), and one
rule sizes them all: ``block_rows(width, m)`` rows of ``width`` columns,
about _BLOCK_ELEMENTS elements up to m = _ROWS_FIXED_FROM and that grid's
rows beyond it.

The graph right-hand side and ``diagnostics.delta_spectral`` run on offset
rows, over half the grid offsets, r = 1..m/2. Their rows are paired, the
offsets 2s + 1 and 2s + 2 side by side in the row pair s = 0..m/4 - 1, and
a block is a slice of the row pairs (``offset_blocks``). On a graph
x1 = r 2pi/m is fixed along an offset row, so each row has its constants:
the graph's sines, spectral log term and quadrature weight, ``delta``'s
kernel tables (``pair_kernel_tables``). Each is built once per grid over
all the offsets, in the row-pair shape (m/4, 2, 1), and a block reads its
slice. ``central_pair_rows`` reads the pairs of every row pair, shape
(m/4, 2, width), as two views for the whole sum that a block slices too,
and the graph right-hand side adds each block into one folder
(``central_folder``), which totals the blocks on the nodes once. The full
sum adds every node's rows in one fixed order, which keeps the graph's sum
bitwise equivariant under a shift of the nodes. The width sets the path:

- m columns, the full sum: column i of row r holds the pair (i, i - r);
- m/4 + 1 pair centres, the quarter sum, on graph heights that are odd
  and antiperiodic, h(alpha + pi) = -h(alpha), as every state of a graph
  run projected onto both symmetries is. The mirror (-i, r - i) of the
  pair (i, i - r) lies in the same offset row, and the shift by m/2 maps
  row onto row, so these centres hold one pair of each orbit of both
  symmetries.

The folder only accumulates: each sum weights its pair terms by their
orbits first (``stabilizer_weights``), so the r = m/2 row, which holds each
of its pairs twice, counts half on both paths, as does a held pair that is
its own image. The quarter sum's folder totals the held pairs' terms on
the nodes times the orbit size, and the sum over all pairs is their average
over the symmetry group: the projection ``geometry.symmetry_projector``
onto both symmetries, which the graph right-hand side applies to its
output. The graph right-hand side and ``delta`` read their path from the
one exact test ``geometry.exact_symmetries``, the quarter sum when both
symmetries hold and the full sum otherwise. The grid rule
(``geometry.check_grid_size``, m a multiple of 4) makes m/2 even, so the
offsets 1..m/2 pair up without a pad row.

The reader, the folder and the workspace (``block_workspace``) read the
blocks from the grid and width alone, so no sum passes a row count. Each
reader and folder is one read-only strided view over a buffer made in the
call of the sum, never kept across calls, so the sums are re-entrant and a
block builds no index array. The graph right-hand side computes the terms
of a block, and ``delta`` its pair kernel, in place in one workspace of
(rows x width) arrays, made once per call and reused by every block, and
the folds overwrite the near and far terms they are given, so a block
allocates no (rows x width) array.

The curve right-hand side runs on node blocks: a slice of the row nodes
of its domain against a run of column nodes of each of the domain's images
under its symmetry group (``evolution_curve``), ``block_rows(columns,
columns)`` rows a block for the ``columns`` of its widest block. A curve's
x1 differs along every row and column, so there are no per-offset
constants to keep; instead the pair sines, the heights and both velocity
sums are small matrix products with per-node vectors, and the Stokeslet
terms are all that remains per pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import TWO_PI

ONE_OVER_8PI = 1.0 / (8.0 * np.pi)
ONE_OVER_4PI = 1.0 / (4.0 * np.pi)

# elements per block of every pair sum (``block_rows``) up to
# m = _ROWS_FIXED_FROM, never m x m; on larger grids the blocks grow with m
# and the rows stay those of that grid
_BLOCK_ELEMENTS = 8192
_ROWS_FIXED_FROM = 1024


@dataclass(frozen=True)
class Stokeslet2x2:
    """Components of the 2x2 periodic Stokeslet matrix (s12 == s21)."""

    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray


def stokeslet_terms(x1, x2):
    """The three scalar terms of the periodic Stokeslet, from x1 and x2.

    Returns (log(2D), x2 sinh(x2)/D, x2 sin(x1)/D), D = cosh x2 - cos x1 in
    the half-angle form 2(sinh^2(x2/2) + sin^2(x1/2)), free of cancellation
    near the singularity; the third term is 8pi d1 d2 K. x1 may be a scalar
    or a column against an array x2; coincident points give non-finite values.
    All three terms are even under x -> -x and 2pi-periodic in x1. The terms
    are new arrays (scalars for scalar arguments).
    """
    shape = np.broadcast_shapes(np.shape(x1), np.shape(x2))
    out = stokeslet_terms_into(np.sin(0.5 * x1), np.multiply(np.sin(x1), 0.5), x2,
                               *(np.empty(shape) for _ in range(3)))
    return tuple(t[()] for t in out)


def stokeslet_terms_into(sn2, sc, x2, lg, a_ss, a_sn):
    """``stokeslet_terms`` of sn2 = sin(x1/2) and sc = sin(x1)/2, into lg, a_ss, a_sn.

    The one body of the Stokeslet terms. The output arrays, of the broadcast
    shape of the arguments, also hold its intermediates, so an evaluation
    allocates nothing; the arguments are only read. Every term takes the
    operations of the plain expression in their order (only the operands of
    + and * swap, and factors of 2 that cancel exactly are left out), so the
    values do not depend on where they are written.
    """
    sh2 = np.sinh(np.multiply(x2, 0.5, out=a_ss), out=a_ss)
    sh2sq = np.multiply(sh2, sh2, out=lg)
    # D/2: the factor 2 of D cancels against those of sinh x2 =
    # 2 sinh(x2/2) cosh(x2/2) and sin x1 = 2 sc, exactly
    den = np.multiply(sn2, sn2, out=a_sn)
    den += sh2sq
    # sinh(x2)/2, with the cosh from the sinh already at hand
    sh2 *= np.sqrt(np.add(sh2sq, 1.0, out=lg), out=lg)
    np.log(np.multiply(den, 4.0, out=lg), out=lg)
    q = np.divide(x2, den, out=a_sn)
    a_ss *= q
    q *= sc
    return lg, a_ss, a_sn


def block_rows(width: int, m: int) -> int:
    """Rows per block of a pair sum of ``width`` columns a row on an m-node grid.

    As many as make about _BLOCK_ELEMENTS elements a block, so that narrow
    rows take more rows a block than wide ones, and a block's fixed cost is
    spread over about the same work at every m up to _ROWS_FIXED_FROM.
    Beyond it the element count grows in proportion to m, so the rows stay
    those of that grid: fewer rows would make more blocks, each paying the
    fixed cost again. Rows are row pairs on the offset-row sums
    (``offset_blocks``: 32 row pairs of the quarter sums and 8 of the full
    sums from m = 1024 on) and nodes on the curve's node blocks (with m
    the width of its widest block: 16 rows at m = 512, 8 from m = 1024 on).
    """
    return round(_BLOCK_ELEMENTS * max(1.0, m / _ROWS_FIXED_FROM) / width)


def blocks(count: int, rows: int):
    """The blocks of a pair sum: slices of 0..count-1 in order, ``rows`` each but the last."""
    return tuple(slice(start, min(start + rows, count)) for start in range(0, count, rows))


def offset_blocks(m: int, width: int):
    """The blocks of the row pairs s = 0..m/4 - 1 of a sum of ``width`` columns a row.

    The pair kernels are even, so a pair sum over all offsets r != 0 folds
    onto the half offsets r = 1..m/2, paired as ``central_pair_rows`` reads
    them, the offsets 2s + 1 and 2s + 2 in the row pair s: m/2 is even by
    the grid rule (``geometry.check_grid_size``). Each block but the last
    holds ``block_rows(width, m)`` row pairs, at least 1 and at most m/4.
    """
    quarter = m // 4
    return blocks(quarter, min(quarter, max(1, block_rows(width, m))))


def read_only(*arrays):
    """The arrays, each (but None) made read-only in place: for constants held in a cache."""
    for a in arrays:
        if a is not None:
            a.flags.writeable = False
    return arrays


def _window(buf, shape, strides, offset=0):
    """A read-only view of the contiguous array ``buf``.

    Its element ``idx`` is ``buf.flat[offset + sum(idx * strides)]``, the
    strides counted in elements; every element lies inside ``buf``.
    """
    size = buf.itemsize
    view = np.ndarray(shape, buf.dtype, buf, offset * size, tuple(s * size for s in strides))
    view.flags.writeable = False
    return view


def block_workspace(count: int, m: int, width: int):
    """``count`` arrays for the terms of one block of a pair sum, reused by every block.

    Each holds the row pairs of a block (``offset_blocks``) in the shape of
    the rows of ``central_pair_rows``, (rows, 2, width). A shorter last
    block takes the leading rows, ``work[:, :n]``, whose arrays are
    contiguous like new ones.
    """
    return np.empty((count, offset_blocks(m, width)[0].stop, 2, width))


def central_pair_rows(*xs, width: int):
    """The paired offset rows of the arrays xs, for the blocks of one pair sum.

    Returns (near, far): each x at the near and the far node of the pairs
    of every row pair s = 0..m/4 - 1, shapes (len(xs), m/4, 1, width) and
    (len(xs), m/4, 2, width), where row (s, p) is the offset 2s + 1 + p; a
    block (``offset_blocks``) reads ``near[:, b]`` and ``far[:, b]``. The
    far node of a pair is its near node minus the offset, and a column has
    the same near node in both rows of a row pair. ``width`` sets the
    columns:

    - m: column i holds the pair (i, i - r), near node i;
    - m/4 + 1: the pair centres k = 0..m/4 of graph heights that are odd
      and antiperiodic. The pair (i, i - r) has its mirror (-i, r - i) in
      the same row, so the centre k, the pair (k + s + 1, k - s) for
      r = 2s + 1 and (k + s + 1, k - s - 1) for r = 2s + 2, holds one pair
      of each mirror orbit on k = 0..m/2; the shift by m/2 maps the pair of
      centre k to that of centre k + m/2, so the centres 0..m/4 hold one
      pair of each orbit of both symmetries.

    Both are read-only strided views over the arrays repeated twice, all
    made here, so no index arrays are built per block and no buffer
    outlives the sum.
    """
    m = xs[0].size
    # each x followed by a copy of itself, shape (len(xs), 2m)
    buf, shape = np.tile(np.stack(xs), 2), (len(xs), m // 4)
    # the rows of s = 0, 1, .. (offsets 2s + 1, 2s + 2): near node
    # c (s + 1) + k, c = 0 on the full layout and 1 on the pair centres,
    # column c (s + 1) + k of the buffer, and far node that less 2s + 1 + p,
    # column m + c (s + 1) + k - 2s - 1 - p
    c = int(width != m)
    return (_window(buf, (*shape, 1, width), (2 * m, c, 0, 1), c),
            _window(buf, (*shape, 2, width), (2 * m, c - 2, -1, 1), m + c - 1))


def stabilizer_weights(t, b, m: int):
    """Weight in place the terms t of the block b of ``central_pair_rows`` by orbit size.

    ``t`` has the rows' shape (n, 2, width) of the row pairs b. Every pair
    of the r = m/2 row counts half, as that row holds each of its pairs
    twice. On the pair centres (``width`` m/4 + 1, ``last`` = m/4) a held
    pair that is its own image also counts half: the centres 0 and
    ``last`` of an even row. The centre ``last`` of an odd row repeats the
    orbit of centre last - 1 and counts zero. Every pair sum weights its
    terms so before it folds or adds them.
    """
    width = t.shape[-1]
    if width < m:
        last = width - 1
        # row (j, 1) is an even offset
        t[:, 1, ::last] *= 0.5
        t[:, 0, last] = 0.0
    # the row m/2 is the even row of the last row pair
    if b.stop == m // 4:
        t[-1, 1] *= 0.5
    return t


def central_folder(m: int, width: int):
    """``(fold, total)``: the per-node totals of the blocks of ``central_pair_rows``.

    ``fold(near, far, b)`` adds the block b (``offset_blocks``). ``near``
    and ``far`` (the rows' shape (n, 2, width)) hold each pair's term for
    its near and its far node, weighted by ``stabilizer_weights``; both are
    overwritten. ``total()`` returns the accumulated totals on all m nodes:

    - m columns, every pair: node i collects the near term of the pair
      (i, i - r) and the far term of (i + r, i). The accumulator is the node
      array itself and every node adds its rows in one fixed order, so
      shifting the data by a node shifts the total by a node, bitwise.
    - m/4 + 1 pair centres, one pair of each orbit of both symmetries: the
      held pairs' terms to each node, times the orbit size 4 (exact). The
      sum over all pairs is the group average of these,
      ``geometry.symmetry_projector`` onto both symmetries, which the
      caller applies to its output.

    The full sum reads its far rows shifted by their offsets through a
    strided view over a buffer holding each row followed by its wrapped
    copy. On the pair centres the rows are shifted onto one unwrapped line
    of the nodes -m/4..m/2 through a strided view over a buffer whose rows
    are laid end to end (row j read j places further right); ``total``
    wraps the line onto the nodes. Each buffer is made here for all the
    blocks of the sum.
    """
    pairs = offset_blocks(m, width)[0].stop
    if width == m:
        acc = np.zeros(m)
        # each far row followed by its wrapped copy; row k of the block from
        # the row pair s holds the offset r_k = 2s + 1 + k, and its term for
        # node i, twice[k, i + r_k], is element 2s + 1 + k (2m + 1) + i
        twice = np.empty((2 * pairs, 2 * m))
        shifted = _window(twice, (m // 4, 2 * pairs, m), (2, 2 * m + 1, 1), 1)

        def fold(near, far, b):
            n = 2 * (b.stop - b.start)
            twice[:n, :m] = twice[:n, m:] = far.reshape(n, m)
            near = near.reshape(n, m)
            near += shifted[b.start, :n]
            acc[...] += near.sum(axis=0)

        return fold, lambda: acc

    quarter = m // 4
    # the last pair centre, and the line of nodes -m/4..m/2
    last = width - 1
    span = width + pairs
    buf = np.zeros((pairs + 1, span))
    # element (j, i) of the view is buf[j, i - j], or a zero of the tail of
    # row j - 1 for i < j: columns last + 1.. are never written
    win = _window(buf, (pairs + 1, span), (span - 1, 1))
    line = np.zeros(2 * quarter + width)

    def fold(near, far, b):
        s0, n = b.start, b.stop - b.start
        # near node s0 + 1 + j + c, the same for both rows of a pair j
        np.add(near[:, 0], near[:, 1], out=buf[:n, :width])
        line[quarter + s0 + 1 : quarter + s0 + last + n + 1] += win[:n].sum(axis=0)[: last + n]
        # far node c - (s0 + n) + u, buffer row u = n - j - p
        buf[:n, :width] = far[::-1, 1]
        buf[n, :width] = 0.0
        buf[1 : n + 1, :width] += far[::-1, 0]
        line[quarter - s0 - n : quarter - s0 + width] += win[: n + 1].sum(axis=0)[: last + n + 1]

    def total():
        # node n is line element n + m/4; each orbit holds 4 pairs
        out = np.zeros(m)
        out[: quarter + width] = line[quarter:]
        out[m - quarter :] += line[:quarter]
        out *= 4.0
        return out

    return fold, total


def _regular_args(x1, x2):
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    # the float multiples of 2pi: the half-angle D there is ~1e-32, not 0
    if np.any((x2 == 0.0) & (x1 == TWO_PI * np.round(x1 / TWO_PI))):
        raise ValueError("stokeslet kernel evaluated at a singular point")
    return x1, x2


def stokeslet(x1, x2) -> Stokeslet2x2:
    """Evaluate the x1-periodic Stokeslet at (x1, x2), scalars or arrays.

    Raises
    ------
    ValueError
        At the singular points (x1, x2) = (0 mod 2pi, 0).
    """
    lg, a_ss, a_sn = stokeslet_terms(*_regular_args(x1, x2))
    s12 = -ONE_OVER_8PI * a_sn
    return Stokeslet2x2(s11=ONE_OVER_8PI * (lg + a_ss), s12=s12, s21=s12,
                        s22=ONE_OVER_8PI * (lg - a_ss))


def dK12(x1, x2):
    """Mixed derivative d1 d2 K of the bilaplacian Green function (closed form)."""
    return ONE_OVER_8PI * stokeslet_terms(*_regular_args(x1, x2))[2]


def _auto_nmax(x2) -> int:
    scale = max(float(np.min(np.abs(x2))), 0.05)
    return max(64, math.ceil(40.0 / scale))


def dK1_series(x1, x2, n_max: int):
    """Partial sum of d1 K(x) = -(1/4pi) sum (n|x2|+1)/n^2 e^{-n|x2|} sin(n x1).

    ``n_max = 0`` picks the truncation from x2 so that the geometric tail is
    below 1e-12 for |x2| >= 0.1 (n_max = ceil(40/|x2|), floored at 64; |x2|
    is floored at 0.05, so n_max <= 800). The sum is -(1/4pi) Im[Li2 + |x2|
    Li1] of w = e^{-|x2| + i x1}, truncated and summed by Horner in w as in
    ``biharm_pair_kernel`` (memory of the size of x, independent of n_max).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if n_max < 0:
        raise ValueError("n_max must be >= 1, or 0 for automatic truncation")
    if n_max == 0:
        n_max = _auto_nmax(x2)
    a = np.abs(x2)
    li1, li2 = _polylog_series(np.exp(-a + 1j * x1), n_max, (1, 2))
    return -ONE_OVER_4PI * (li2.imag + a * li1.imag)


def biharm_pair_kernel(x1, x2, n_max: int):
    """Partial sum of the k != 0 bilaplacian pair kernel.

    Returns (1/4pi) sum_{n=1..n_max} (1 + n|x2|)/n^3 e^{-n|x2|} cos(n x1),
    i.e. the truncated Li3 + |x2| Li2 series of w = e^{-|x2| + i x1}, summed
    by Horner in w (memory of the size of x, independent of n_max). The
    n_max -> inf limit is ``bilaplacian_pair_kernel_exact``.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    x1 = np.asarray(x1, dtype=float)
    a = np.abs(np.asarray(x2, dtype=float))
    li2, li3 = _polylog_series(np.exp(-a + 1j * x1), n_max, (2, 3))
    return ONE_OVER_4PI * (li3.real + a * li2.real)


# ---------------------------------------------------------------------------
# polylogarithms
#
# Kpair = (1/4pi) (Re Li3(w) + |x2| Re Li2(w)),  w = exp(-|x2| + i x1).
# The defining series, summed by Horner in w (``_polylog_series``), is the
# truncated kernel of ``biharm_pair_kernel``, gives ``dK1_series`` and the
# exact kernel at |x2| >= 2. Around mu = 0 (|mu| < 2pi) the expansion
#
#   Li2(e^mu) = mu (1 - log(-mu))      + sum_{k != 1} zeta(2-k) mu^k / k!
#   Li3(e^mu) = mu^2/2 (3/2 - log(-mu)) + sum_{k != 2} zeta(3-k) mu^k / k!
#
# applies. The exact pair kernel re-expands its two sums into real per-row
# tables (below); at mu = i w the imaginary part of the first is the real
# series of ``clausen2``. zeta at non-positive integers comes from exact
# Bernoulli numbers, and every coefficient is rounded once from it.

_EXP_TERMS = 60


def _bernoulli(n: int):
    """Exact Bernoulli numbers B_0..B_n (B_1 = -1/2)."""
    b = [Fraction(1)]
    for k in range(1, n + 1):
        b.append(-sum(math.comb(k + 1, j) * b[j] for j in range(k) if b[j]) / (k + 1))
    return b


_BERNOULLI = _bernoulli(_EXP_TERMS)
# zeta(n) at n = 3 and 2 (pi^2/6 is correctly rounded), 0 in the slot n = 1
# of the log term, and zeta(-j) = (-1)^j B_{j+1}/(j+1) exactly
_ZETA = {3: 1.2020569031595942, 2: math.pi**2 / 6, 1: 0.0}
_ZETA.update({-j: (-1) ** j * _BERNOULLI[j + 1] / (j + 1) for j in range(_EXP_TERMS)})
# (-1)^j zeta(1 - 2j)/(2j + 1)!, the w^(2j + 1) coefficients of Cl2 (0 at j = 0)
_CL2 = np.array([float((-1) ** j * _ZETA[1 - 2 * j] / math.factorial(2 * j + 1))
                 for j in range(_EXP_TERMS // 2)])


def _polylog_series(w, n_terms: int, orders):
    """Li_p(w) for each p in ``orders``, summed over n = 1..n_terms by Horner in w."""
    sums = [np.full_like(w, 1.0 / n_terms**p) for p in orders]
    for n in range(n_terms - 1, 0, -1):
        for s, p in zip(sums, orders):
            s *= w
            s += 1.0 / n**p
    return [w * s for s in sums]


def clausen2(w: float) -> float:
    """Clausen function Cl2(w) = Im Li2(e^{iw}) for 0 < w < 2pi.

    It closes the log-singular panel integral of both evolution schemes,
    int_0^w log(4 sin^2(b/2)) db = -2 Cl2(w). The real series
    Cl2(w) = w (1 - log w) + sum_{j>=1} (-1)^j zeta(1 - 2j) w^(2j+1)/(2j+1)!
    is summed by Horner in w^2 over j < 30: double precision up to w = pi
    (the cells use w <= pi/2), fewer digits towards 2pi.
    """
    w2 = w * w
    s = _CL2[-1]
    for c in _CL2[-2::-1]:
        s = s * w2 + c
    return float(w * (1.0 - math.log(w)) + w * s)


# ---------------------------------------------------------------------------
# the pair kernel on offset rows, in real arithmetic
#
# For x = |x1| reduced to [0, pi] and a = |x2|, mu = -a + i x, the log terms
# of the expansion above have a real part in closed form (the arg(-mu) parts
# cancel),
#
#   Re[mu^2/2 (3/2 - log(-mu)) + a mu (1 - log(-mu))]
#       = rho^2/4 log(rho^2) - (a^2 + 3 x^2)/4,      rho^2 = a^2 + x^2,
#
# and the real part of the two regular sums, Taylor re-expanded around
# mu_c = -1 + i x, is a real polynomial in t = a - 1 whose coefficients depend
# on x alone. It serves a < 2 (|t| <= 1; |mu_c| + 1 < 2pi): a Horner loop over
# per-x tables, built once per set of x values, once per grid for the offset
# rows (``pair_kernel_tables``). An error in a table is shared by every point
# of its row, so the tables are summed in extended precision and the log
# term is split to keep the polynomial small (``_row_tables``). For a >= 2 the defining series
# converges fast (|w| <= e^{-2}) and is summed as is.

_NEAR_DEGREE = 31  # coefficient tail below 5e-19 on every row
_FAR_FROM = 2.0
_FAR_TERMS = 20  # tail below 1e-20 for a >= 2
_LOG1P_FLOOR = np.nextafter(-1.0, 0.0)


def _extended(v) -> np.longdouble:
    """A Fraction or float in extended precision (np.longdouble)."""
    v = Fraction(v)
    return np.longdouble(v.numerator) / np.longdouble(v.denominator)


@lru_cache(maxsize=1)
def _taylor_shifts():
    """S2, S3: Re(mu_c^n)_n @ S is Re of the t^j coefficients of sum_k c[k] (mu_c - t)^k.

    Each term c[k] mu^k holds c[k] binom(k, j) mu_c^(k - j) (-t)^j; c[k] is
    zeta(s - k)/k! of Li2 (s = 2) or Li3 (s = 3), from the exact _ZETA, and
    j runs up to _NEAR_DEGREE. Extended precision throughout.
    """
    n, j = np.ogrid[:_EXP_TERMS, : _NEAR_DEGREE + 1]
    binom = np.array([[_extended(math.comb(k + i, i)) for i in range(_NEAR_DEGREE + 1)]
                      for k in range(_EXP_TERMS)])
    pad = [np.longdouble(0)] * (_NEAR_DEGREE + 1)
    return read_only(*(
        (-1) ** j * binom
        * np.array([_extended(Fraction(_ZETA[s - k]) / math.factorial(k))
                    for k in range(_EXP_TERMS)] + pad)[n + j]
        for s in (2, 3)
    ))


def _row_tables(x: np.ndarray):
    """Per-x tables (x, x^2, scale, shift, near) of Kpair, x in [0, pi].

    The log term rho^2/4 log(rho^2) is rho^2/4 (log1p(a^2 scale + shift) + L):
    for x >= 1, scale = 1/x^2, shift = 0 and L = log(x^2), so the log1p
    argument stays below 4/x^2; below x = 1, scale = 1, shift = x^2 - 1 and
    L = 0. near[j] multiplies t^j in the a < 2 polynomial, which includes
    -(a^2 + 3x^2)/4 + rho^2 L/4; it has one column per x. The a >= 2 branch
    reads x alone.

    A rounding error in near is the same at every point of its row, so it
    does not average out of a pair sum: near is summed in extended precision
    (np.longdouble, 64-bit mantissa on x86-64) and rounded once.
    """
    xe = x.astype(np.longdouble)
    xsq = xe * xe
    wide = xsq >= 1
    lg = np.where(wide, np.log(np.where(wide, xsq, 1)), 0)
    powers = np.vander(-1 + 1j * xe, _EXP_TERMS, increasing=True).real
    p2, p3 = (np.dot(powers, shift).T for shift in _taylor_shifts())
    near = p3 + p2  # regular parts of Re Li3 + (1 + t) Re Li2
    near[1:] += p2[:-1]
    near[0] += (lg - 1) / 4 + xsq * (lg - 3) / 4
    near[1] += (lg - 1) / 2
    near[2] += (lg - 1) / 4
    return (x, x * x, np.where(wide, 1 / np.where(wide, xsq, 1), 1).astype(float),
            np.where(wide, 0, xsq - 1).astype(float), near.astype(float))


def _take(tables, cols):
    """The columns ``cols`` (any shape) of the tables, in the shape of cols."""
    *per_x, near = tables
    return (*(t[cols] for t in per_x), near[:, cols])


def _pair_kernel(tables, a, s, u, v):
    """Kpair at heights a = |x2| from ``tables`` broadcast to a's shape, into s.

    s, u and v have a's shape; u and v hold the intermediates, a is only
    read, so the evaluation allocates no array of a's size but the mask of
    the points at a >= 2.
    """
    x, xsq, scale, shift, near = tables
    # the a < 2 branch runs on every point, a clipped to 2; points at a >= 2
    # are overwritten below
    clipped = np.minimum(a, _FAR_FROM, out=u)
    t = np.subtract(clipped, 1.0, out=v)
    np.multiply(near[-1], t, out=s)
    for c in near[-2:0:-1]:
        s += c
        s *= t
    s += near[0]
    csq = np.multiply(clipped, clipped, out=v)
    # the log1p argument falls to -1 only as rho -> 0, where the term vanishes
    arg = np.multiply(csq, scale, out=u)
    arg += shift
    np.maximum(arg, _LOG1P_FLOOR, out=arg)
    # s += 0.25 (csq + x^2) log1p(arg)
    csq += xsq
    csq *= 0.25
    csq *= np.log1p(arg, out=arg)
    s += csq
    far = a >= _FAR_FROM
    if far.any():
        af = a[far]
        xf = np.broadcast_to(x, a.shape)[far]
        li2, li3 = _polylog_series(np.exp(-af + 1j * xf), _FAR_TERMS, (2, 3))
        s[far] = li3.real + af * li2.real
    s *= ONE_OVER_4PI
    return s


@lru_cache(maxsize=8)
def pair_kernel_tables(m: int):
    """``_row_tables`` of the offsets r = 1..m/2 of an m-node grid, x1 = r 2pi/m, and Kpair(0, 0).

    Each table in the row-pair shape (m/4, 2, 1) of ``central_pair_rows``
    (``near`` with its leading axis of coefficients), read-only: the block
    b of a pair sum reads ``t[..., b, :, :]`` of each. The last entry is
    the r = 0 row's kernel, Kpair(0, 0) by ``bilaplacian_pair_kernel_exact``,
    from the row tables as the other rows' (zeta(3)/(4pi) in closed form
    rounds 3 ulp lower). Built once per grid, not once per block and call.
    """
    r = np.arange(1, m // 2 + 1)
    tables = (t.reshape(*t.shape[:-1], -1, 2, 1) for t in _row_tables(r * (TWO_PI / m)))
    return (*read_only(*tables), bilaplacian_pair_kernel_exact(0.0, 0.0))


def pair_kernel_rows(tables, x2, work=None):
    """Kpair on offset rows of heights x2, with the rows' ``_row_tables``.

    The tables are shaped (*rows, 1) (``near`` with its leading axis of
    coefficients), to broadcast against x2 of shape (*rows, width), as a
    block's slice of ``pair_kernel_tables`` is.

    ``work``, four arrays of x2's shape (new ones by default), holds |x2| in
    the first (which may be x2 itself), the kernel, returned, in the second
    and the intermediates, so that a block of a pair sum allocates no array
    of its size (the full and quarter sums of ``diagnostics.delta_spectral``).
    """
    a, s, u, v = np.empty((4, *np.shape(x2))) if work is None else work
    return _pair_kernel(tables, np.abs(x2, out=a), s, u, v)


def bilaplacian_pair_kernel_exact(x1, x2):
    """Exact k != 0 bilaplacian pair kernel, the n_max -> inf limit.

    Kpair is even and 2pi-periodic in x1, so x1 is reduced to |x1| in [0, pi]
    and the per-x tables are built for the distinct reduced values, then
    taken at every point; the evaluation is the one behind ``delta_spectral``.
    """
    x1, x2 = np.broadcast_arrays(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float))
    x = np.abs(x1 - TWO_PI * np.round(x1 / TWO_PI))
    distinct, cols = np.unique(x.ravel(), return_inverse=True)
    a = np.abs(x2).ravel()
    k = _pair_kernel(_take(_row_tables(distinct), cols), a, *np.empty((3, a.size)))
    return k.reshape(x1.shape)[()]
