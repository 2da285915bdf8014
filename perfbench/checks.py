"""Correctness checks on the outputs of one benchmark round.

Every check here is a property the method must have or a quantity computed
apart from the program; none compares against stored output of an earlier
run. Each check returns a list of failure messages, empty when the output
is accepted, so the caller can count the operations it rejects.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

# Central differences keep the certificate second-order accurate, but
# misplacing its split node and differencing the prefactor give error
# constants no tighter than this factor over the estimates below.
CERT_SAFETY = 2.0


def check_verify_report(code: int, report: dict, required) -> list:
    """``cli.verify`` accepted the run and ran every invariant in ``required``.

    A check that ``verify`` skipped (because it did not detect the symmetry
    in the initial data, say) is a failure here: the workloads are built so
    that every listed invariant applies.
    """
    errors = [f"verify rejected {name}: {entry}"
              for name, entry in report.items() if not entry["pass"]]
    errors += [f"verify skipped {name}" for name in required if name not in report]
    if code != 0 and not errors:
        errors.append(f"verify exit code {code}")
    return errors


def check_delta_samples(report: dict, min_samples: int) -> list:
    """``delta`` was compared with the centred dE/dt on enough samples."""
    entry = report.get("delta_vs_dEdt")
    if entry is None:
        return ["verify made no delta comparison"]
    if entry["samples"] < min_samples:
        return [f"delta compared on {entry['samples']} samples, need {min_samples}"]
    return []


def check_bracket(above: float, below: float) -> list:
    """The certificate is positive just below ``b*`` and negative just above."""
    if above > 0.0 > below:
        return []
    return [f"b* does not bracket a sign change: {above:.3e}, {below:.3e}"]


def basic_family_reference(b: float, amplitude: float, negative: float, alpha2: float):
    """(J1, J2) of the basic family by adaptive quadrature of its formulas.

    z1 = beta - sin(beta), z2 = b A sin(pi beta / alpha2) on [0, alpha2] and
    -c sin(pi (beta - alpha2) / (pi - alpha2)) on [alpha2, pi]; the
    certificate is z2'(0)/(4 pi) times the integral of
    z2 sin(z1) z1' / (cosh z2 - cos z1). Also returns the integrand, for
    the error estimate of ``check_certificate``.
    """

    def z2(x):
        if x <= alpha2:
            return b * amplitude * np.sin(np.pi * x / alpha2)
        return -negative * np.sin(np.pi * (x - alpha2) / (np.pi - alpha2))

    def g(x):
        if x == 0.0:
            return 0.0
        z1 = x - np.sin(x)
        zz = z2(x)
        return zz * np.sin(z1) * (1.0 - np.cos(x)) / (np.cosh(zz) - np.cos(z1))

    pref = b * amplitude * np.pi / alpha2 / (4.0 * np.pi)
    opts = dict(epsabs=1e-15, epsrel=1e-12, limit=400)
    j1 = pref * quad(g, 0.0, alpha2, **opts)[0]
    j2 = pref * quad(g, alpha2, np.pi, **opts)[0]
    return j1, j2, g, pref


def certificate_tolerances(m: int, alpha2: float, g, pref, j1, j2):
    """Relative tolerances of (J1, J2) from the certificate's O(d^2) error.

    Two second-order error sources, each estimated from the analytic family:

    * z2'(0) is a central difference of b A sin(pi a / alpha2), whose
      relative error is (pi / alpha2)^2 d^2 / 6;
    * the split sits on the node nearest to alpha2, up to d/2 away, where
      the integrand g vanishes linearly: moving it shifts each part by up
      to |g'(alpha2)| (d/2)^2 / 2, with the one-sided slope of that part.
    """
    d = 2.0 * np.pi / m
    prefactor = (np.pi / alpha2) ** 2 * d * d / 6.0
    step = 1e-7
    slope1 = abs(g(alpha2) - g(alpha2 - step)) / step
    slope2 = abs(g(alpha2 + step) - g(alpha2)) / step
    split1 = pref * slope1 * (0.5 * d) ** 2 / 2.0 / abs(j1)
    split2 = pref * slope2 * (0.5 * d) ** 2 / 2.0 / abs(j2)
    return (
        CERT_SAFETY * (prefactor + split1),
        CERT_SAFETY * (prefactor + split2),
    )


def check_certificate(computed, reference, tolerances) -> list:
    """(J1, J2) agree with the quadrature reference within their tolerances."""
    errors = []
    for name, c, r, tol in zip(("J1", "J2"), computed, reference, tolerances):
        rel = abs(c - r) / abs(r)
        if not rel <= tol:
            errors.append(f"{name} = {c:.6e} vs quadrature {r:.6e}: rel {rel:.2e} > {tol:.2e}")
    return errors


def check_turning_dynamics(min_slopes, certificate_total: float) -> list:
    """The stable curve run turns as its certificate predicts.

    ``min_slopes`` is min d(z1)/d(alpha) at each sample. The family starts
    with a vertical tangent, so the first value is >= 0; a negative
    certificate must make it decrease at once and end negative.
    """
    s = np.asarray(min_slopes, dtype=float)
    errors = []
    if s.size < 2:
        return [f"only {s.size} samples of min slope"]
    if not s[0] >= 0.0:
        errors.append(f"initial min slope {s[0]:.3e} < 0")
    if not s[-1] < 0.0:
        errors.append(f"final min slope {s[-1]:.3e} >= 0: no turning")
    rate = s[1] - s[0]
    if np.sign(rate) != np.sign(certificate_total):
        errors.append(
            f"initial min-slope change {rate:.3e} has not the sign of the "
            f"certificate {certificate_total:.3e}"
        )
    return errors


def check_sample_count(written: int, requested: int, what: str) -> list:
    if written == requested:
        return []
    return [f"{what}: {written} of {requested} samples written"]
