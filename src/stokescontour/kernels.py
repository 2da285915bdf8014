"""Periodic Stokeslet and bilaplacian Green-function kernels.

The velocity kernel is the x1-periodic Stokeslet

    S(x) = (1/8pi) [ log(2(cosh x2 - cos x1)) Id
                     - x2/(cosh x2 - cos x1) * [[-sinh x2, sin x1],
                                                [ sin x1, sinh x2]] ],

which is smooth away from x = (0 mod 2pi, 0) where it has a log singularity.
The mixed second derivative of the bilaplacian Green function K (with
Delta^2 K = delta on T x R) has the closed form

    d1 d2 K(x) = (1/8pi) x2 sin(x1) / (cosh x2 - cos x1),

while d1 K and the k != 0 part of K itself are only available as series over
the horizontal wavenumbers. The pair kernel used by the dissipation
functional is

    Kpair(x) = (1/4pi) sum_{n>=1} (1 + n|x2|)/n^3 * exp(-n|x2|) cos(n x1),

smooth everywhere (including the origin). Besides the truncated sums, an
exact evaluation through the polylogarithms Li2/Li3 of w = exp(-|x2| + i x1)
is provided; it agrees with the series to machine precision and costs O(1)
per point. Both run on one Horner-summed polylog path, which ``clausen2``
shares.

All three pair sums of the package (both right-hand sides and
``diagnostics.delta_spectral``) use that their kernels are even: they run
over half the grid offsets, r <= m/2, a fixed block of offset rows at a time
(``offset_blocks``, ``partner_rows``, ``fold_block``), so their memory is
O(block * m) rather than O(m^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .geometry import TWO_PI

ONE_OVER_8PI = 1.0 / (8.0 * np.pi)
ONE_OVER_4PI = 1.0 / (4.0 * np.pi)

_NMAX_CAP = 100_000

# offset rows per block of the pair sums (both right-hand sides and delta):
# their temporaries are (_BLOCK_ROWS x m), never m x m
_BLOCK_ROWS = 32


@dataclass(frozen=True)
class Stokeslet2x2:
    """Components of the 2x2 periodic Stokeslet matrix (s12 == s21)."""

    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray


def stokeslet_terms(x1, x2):
    """The three scalar terms of the periodic Stokeslet, for every caller.

    Returns (log(2D), x2 sinh(x2)/D, x2 sin(x1)/D), D = cosh x2 - cos x1 in
    the half-angle form 2(sinh^2(x2/2) + sin^2(x1/2)), free of cancellation
    near the singularity; the third term is 8pi d1 d2 K. x1 may be a scalar
    or a column against an array x2; coincident points give non-finite values.
    All three terms are even under x -> -x and 2pi-periodic in x1.
    """
    sh2 = np.sinh(0.5 * x2)
    sn2 = np.sin(0.5 * x1)
    sh2sq = sh2 * sh2
    den = 2.0 * (sh2sq + sn2 * sn2)
    q = x2 / den
    # sinh x2 = 2 sinh(x2/2) cosh(x2/2), with the cosh from the sinh already at hand
    return np.log(2.0 * den), q * (2.0 * sh2 * np.sqrt(1.0 + sh2sq)), q * np.sin(x1)


def offset_blocks(m: int, first: int):
    """Consecutive grid offsets r = first..m/2, up to _BLOCK_ROWS at a time.

    The pair kernels are even, so a pair sum over all offsets folds onto
    these half offsets.
    """
    half = m // 2
    for r0 in range(first, half + 1, _BLOCK_ROWS):
        yield np.arange(r0, min(r0 + _BLOCK_ROWS, half + 1))


def partner_rows(x, r):
    """x at the partner node i - r (mod m) of every column i, a row per offset.

    A read-only window view of x repeated twice (r must be consecutive), so
    no index arrays are built.
    """
    m = x.size
    return sliding_window_view(np.concatenate([x, x]), m)[m - r[-1] : m - r[0] + 1][::-1]


def fold_block(near, far, r):
    """Per-node total of one offset block, each unordered pair evaluated once.

    Row r, column i holds the pair (i, i - r): ``near`` is its term for node
    i, ``far`` its term for node i - r. Node i collects near[k, i] and, from
    the pair (i + r, i), far[k, i + r]. At r = m/2 the nodes i + r and i - r
    coincide, so that row's far term is dropped. ``near`` is overwritten. The
    rows are reduced in one fixed order, so shifting the data by a node shifts
    the total by a node, bitwise.
    """
    m = near.shape[1]
    n = int(np.count_nonzero(2 * r < m))
    if n:
        # with r_k = r_0 + k, far[k, (i + r_k) mod m] is element
        # r_0 + k (2m + 1) + i of the rows of far, each repeated twice, laid
        # end to end
        twice = np.concatenate([far[:n], far[:n]], axis=1).ravel()
        near[:n] += sliding_window_view(twice, m)[r[0] :: 2 * m + 1][:n]
    return near.sum(axis=0)


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
    return min(_NMAX_CAP, max(64, math.ceil(40.0 / scale)))


def dK1_series(x1, x2, n_max: int):
    """Partial sum of d1 K(x) = -(1/4pi) sum (n|x2|+1)/n^2 e^{-n|x2|} sin(n x1).

    ``n_max = 0`` picks the truncation from x2 so that the geometric tail is
    below 1e-12 for |x2| >= 0.1 (n_max = ceil(40/|x2|), floored at 64 and
    capped at 1e5).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if n_max < 0:
        raise ValueError("n_max must be >= 1, or 0 for automatic truncation")
    if n_max == 0:
        n_max = _auto_nmax(x2)
    n = np.arange(1, n_max + 1, dtype=float)
    a = np.abs(x2)[..., None]
    terms = (n * a + 1.0) / n**2 * np.exp(-n * a) * np.sin(n * x1[..., None])
    return -ONE_OVER_4PI * terms.sum(axis=-1)


def biharm_pair_kernel(x1, x2, n_max: int):
    """Partial sum of the k != 0 bilaplacian pair kernel.

    Returns (1/4pi) sum_{n=1..n_max} (1 + n|x2|)/n^3 e^{-n|x2|} cos(n x1),
    i.e. the truncated Li3 + |x2| Li2 series of w = e^{-|x2| + i x1}, summed
    by Horner in w (memory of the size of x, independent of n_max).
    ``n_max = 0`` switches to the exact polylogarithm evaluation.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 1, or 0 for the exact evaluation")
    if n_max == 0:
        return bilaplacian_pair_kernel_exact(x1, x2)
    x1 = np.asarray(x1, dtype=float)
    a = np.abs(np.asarray(x2, dtype=float))
    li2, li3 = _polylog23_series(np.exp(-a + 1j * x1), n_max)
    return ONE_OVER_4PI * (li3.real + a * li2.real)


# ---------------------------------------------------------------------------
# exact evaluation via polylogarithms
#
# Kpair = (1/4pi) (Re Li3(w) + |x2| Re Li2(w)),  w = exp(-|x2| + i x1).
# For |w| <= 1/2 (|x2| >= log 2) the defining series converges fast; its
# first n_max terms are also the truncated series of ``biharm_pair_kernel``.
# Otherwise |x2| < log 2 and the expansion of Li_s(e^mu) around mu = 0
# applies, mu = -|x2| + i x1 staying inside its |mu| < 2pi disk of validity:
#
#   Li2(e^mu) = mu (1 - log(-mu))      + sum_{k != 1} zeta(2-k) mu^k / k!
#   Li3(e^mu) = mu^2/2 (3/2 - log(-mu)) + sum_{k != 2} zeta(3-k) mu^k / k!
#
# Both sums run by Horner, and they are the one polylog path of the package:
# the pair kernels, delta and ``clausen2`` all go through them. zeta at
# non-positive integers comes from exact Bernoulli numbers, so both
# coefficient tables are correctly rounded.

_EXP_TERMS = 60
_SERIES_TERMS = 48
_LOG2 = math.log(2.0)


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
_C2 = np.array([float(_ZETA[2 - k] / math.factorial(k)) for k in range(_EXP_TERMS)])
_C3 = np.array([float(_ZETA[3 - k] / math.factorial(k)) for k in range(_EXP_TERMS)])


def _polylog23_series(w, n_terms: int):
    """Li2(w) and Li3(w) summed over n = 1..n_terms, by Horner in w."""
    s2 = np.full_like(w, 1.0 / n_terms**2)
    s3 = np.full_like(w, 1.0 / n_terms**3)
    for n in range(n_terms - 1, 0, -1):
        s2 *= w
        s2 += 1.0 / n**2
        s3 *= w
        s3 += 1.0 / n**3
    return w * s2, w * s3


def _polylog23_near_one(mu: np.ndarray):
    """Li2(e^mu) and Li3(e^mu) by the expansion around mu = 0 (|mu| < 2pi), Horner."""
    # mu = 0 occurs only at w = 1; the log factor is multiplied by mu/mu^2
    safe = np.where(mu == 0, 1.0, mu)
    lg = np.log(-safe)
    s2 = np.full_like(mu, _C2[-1])
    s3 = np.full_like(mu, _C3[-1])
    for k in range(_EXP_TERMS - 2, -1, -1):
        s2 *= mu
        s2 += _C2[k]
        s3 *= mu
        s3 += _C3[k]
    return mu * (1.0 - lg) + s2, 0.5 * mu**2 * (1.5 - lg) + s3


@lru_cache(maxsize=32)
def clausen2(w: float) -> float:
    """Clausen function Cl2(w) = Im Li2(e^{iw}) for |w| < 2pi.

    It closes the log-singular panel integral of both evolution schemes,
    int_0^w log(4 sin^2(b/2)) db = -2 Cl2(w). The expansion is fed
    mu = i w directly; going through log(exp(i w)) would cost about a digit
    at small w.
    """
    li2, _ = _polylog23_near_one(np.array([1j * w]))
    return float(li2[0].imag)


def bilaplacian_pair_kernel_exact(x1, x2):
    """Exact k != 0 bilaplacian pair kernel via Li2/Li3 (the n_max -> inf limit).

    Evaluated at mu = -|x2| + i x1 with x1 reduced to [-pi, pi] (values
    already there are kept bit for bit), so |mu| < 2pi where the expansion
    around mu = 0 is used.
    """
    x1 = np.asarray(x1, dtype=float)
    a = np.abs(np.asarray(x2, dtype=float))
    mu = -a + 1j * (x1 - TWO_PI * np.round(x1 / TWO_PI))
    li2 = np.empty_like(mu)
    li3 = np.empty_like(mu)
    far = np.broadcast_to(a >= _LOG2, mu.shape)  # |w| <= 1/2
    li2[far], li3[far] = _polylog23_series(np.exp(mu[far]), _SERIES_TERMS)
    near = ~far
    li2[near], li3[near] = _polylog23_near_one(mu[near])
    return ONE_OVER_4PI * (li3.real + a * li2.real)
