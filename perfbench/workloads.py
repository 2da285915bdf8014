"""The three benchmark workloads, each a repeatable round of operations.

Inputs are deterministic presets with no random part. A round drives the
program through its public entry points (``cli.run`` / ``cli.verify`` on
generated configs, and ``turning``'s bisection and certificates), checks
the outputs with ``checks``, and reports the operations it attempted and
how many failed. An operation is a requested diagnostics sample, a
certificate evaluation the benchmark asks for, or one threshold bisection.
"""

from __future__ import annotations

import csv
import os
import shutil
import warnings

import numpy as np

from stokescontour import cli, config, geometry, turning
from stokescontour.diagnostics import DiagnosticsOptions, dEdt_series, energy_curve
from stokescontour.evolution_curve import CurveState, rhs_curve
from stokescontour.integrators import IntegratorParams

import checks

GRAPH_INVARIANTS = ("energy_monotone", "central_symmetry", "even_symmetry",
                    "perimeter_lower_bound")
MIN_DELTA_SAMPLES = 10

# bisection bracket and grid, and the curve runs at b = B_FACTOR * b*
BISECT_LO, BISECT_HI = 1.0, 64.0
BISECT_M = 512
BRACKET_REL = 1e-5  # > the bisection's relative width 1e-6
B_FACTOR = 2.0
CURVE_M = 1024
CURVE_T_END = 0.015
CURVE_SAMPLES = 4
FAMILIES = (("basic", ("central_symmetry", "perimeter_lower_bound")),
            ("even_symmetric", ("central_symmetry", "even_symmetry",
                                "perimeter_lower_bound")))


class Round:
    """Outcome of one round: operations, failures and the curve runs' samples."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.curve_runs = {}  # variant -> (b*, certificate, sample times, curves)

    def add(self, operations: int, errors: list) -> None:
        self.attempted += operations
        if errors:
            self.failed += operations
            self.errors.extend(errors)


def _integrator(t_end):
    return IntegratorParams(t_end=t_end, rel_tol=1e-6, abs_tol=1e-9, dt_init=1e-3, dt_max=0.01)


def _csv_rows(path) -> int:
    if not os.path.exists(path):
        return 0
    with open(path, newline="") as fh:
        return max(sum(1 for row in csv.reader(fh) if row) - 1, 0)


class GraphWorkload:
    """One graph run through ``cli.run``, verified by ``cli.verify``."""

    def __init__(self, name, preset, m, t_end, samples, quadrature, cell, delta):
        self.name = name
        self.preset, self.m, self.t_end, self.samples = preset, m, t_end, samples
        self.quadrature, self.cell, self.delta = quadrature, cell, delta
        self.config_paths = []

    def prepare(self, workdir):
        csv_path = os.path.join(workdir, f"{self.name}.csv")
        cfg = config.RunConfig(
            initial=config.InitialSpec(kind=self.preset),
            formulation="graph",
            m=self.m,
            viscosity=1e-3,
            sign_factor=-1.0,
            integrator=_integrator(self.t_end),
            outputs=config.OutputSpec(diagnostics_csv=csv_path),
            sample_times=[float(t) for t in np.linspace(0.0, self.t_end, self.samples)],
            diagnostics=DiagnosticsOptions(compute_delta=self.delta),
            quadrature=self.quadrature,
            singular_cell_variant=self.cell,
        )
        path = os.path.join(workdir, f"{self.name}.json")
        config.dump_config(cfg, path)
        self.config_paths = [path]
        self.config = config.load_config(path)

    def round(self) -> Round:
        rnd = Round()
        cfg = self.config
        csv_path = cfg.outputs.diagnostics_csv
        for stale in (csv_path, csv_path + ".failure.json"):
            if os.path.exists(stale):
                os.remove(stale)
        cli.run(cfg)
        written = _csv_rows(csv_path)
        errors = []
        if written:
            code, report = cli.verify(cfg)
            errors = checks.check_verify_report(code, report, GRAPH_INVARIANTS)
            if self.delta:
                errors += checks.check_delta_samples(report, MIN_DELTA_SAMPLES)
        rnd.add(self.samples - written,
                checks.check_sample_count(written, self.samples, self.name))
        rnd.add(written, errors)
        return rnd


def _certificate(variant, b, m):
    curve = turning.build_turning_family(turning.TurningFamilyParams(b=b, variant=variant), m)
    if variant == "basic":
        return turning.turning_integral(curve)
    return turning.turning_integral_even(curve)


def _speed_ratio(curve):
    dz1, dz2 = geometry.curve_derivatives(curve)
    speed = np.hypot(dz1, dz2)
    return float(np.max(speed) / np.min(speed))


def _energy_rate_t0(curve):
    """dE/dt at t = 0 from the curve velocity, E = int z2^2 z1' (Simpson)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # node-clustering warning
        u1, u2 = rhs_curve(CurveState(t=0.0, curve=curve, delta_rho=1.0))
    d = curve.spacing
    dz1, _ = geometry.curve_derivatives(curve)
    w = geometry.simpson_weights(curve.m, d)
    du1 = geometry.central_diff(u1, d)
    return float(np.dot(w, 2.0 * curve.z2 * u2 * dz1 + curve.z2 ** 2 * du1))


def curve_observables(rnd: Round) -> dict:
    """Recorded, not gated (see the README); computed outside the timed round."""
    out = {}
    for variant, (b_star, cert, times, curves) in rnd.curve_runs.items():
        if len(curves) < 3:
            continue
        energies = np.array([energy_curve(c) for c in curves])
        out[variant] = {
            "b_star": b_star,
            "certificate": list(cert),
            "speed_ratio": [_speed_ratio(c) for c in curves],
            "energy": energies.tolist(),
            "energy_rate_samples": dEdt_series(np.array(times), energies).tolist(),
            "energy_rate_t0_velocity": _energy_rate_t0(curves[0]),
        }
    return out


class TurningWorkload:
    """Threshold bisection, certificate checks and a stable curve run per family."""

    name = "curve-turning"

    def __init__(self):
        self.config_paths = []

    def prepare(self, workdir):
        self.workdir = workdir
        self.config_paths = [os.path.join(workdir, f"curve-{v}.json") for v, _ in FAMILIES]

    def _curve_config(self, variant, b, path):
        out = os.path.join(self.workdir, f"curve-{variant}")
        cfg = config.RunConfig(
            initial=config.InitialSpec(
                kind="turning_family",
                turning=turning.TurningFamilyParams(b=b, variant=variant)),
            formulation="curve",
            m=CURVE_M,
            viscosity=0.0,
            # rho^- - rho^+ = 1, the stable normalization of the certificate
            sign_factor=1.0 / (8.0 * np.pi),
            integrator=_integrator(CURVE_T_END),
            outputs=config.OutputSpec(diagnostics_csv=out + ".csv", snapshots_dir=out),
            sample_times=[float(t) for t in np.linspace(0.0, CURVE_T_END, CURVE_SAMPLES)],
            diagnostics=DiagnosticsOptions(compute_delta=False),
        )
        config.dump_config(cfg, path)
        return config.load_config(path)

    def _family(self, rnd, variant, invariants, path):
        try:
            b_star = turning.find_b_threshold(
                turning.TurningFamilyParams(b=1.0, variant=variant),
                BISECT_LO, BISECT_HI, m=BISECT_M)
        except (turning.BracketingError, turning.ConstructionError) as exc:
            rnd.add(1, [f"{variant} bisection: {exc}"])
            rnd.add(3 + CURVE_SAMPLES, ["no b* to run at"])
            return
        rnd.add(1, [])
        above = _certificate(variant, b_star * (1.0 - BRACKET_REL), BISECT_M)[2]
        below = _certificate(variant, b_star * (1.0 + BRACKET_REL), BISECT_M)[2]
        rnd.add(2, checks.check_bracket(above, below))

        # the certificate on the curve run's grid: compared with quadrature
        # (basic family) and with the run's initial turning rate
        b = B_FACTOR * b_star
        cert = _certificate(variant, b, CURVE_M)
        errors = []
        if variant == "basic":
            p = turning.TurningFamilyParams(b=b)
            j1, j2, g, pref = checks.basic_family_reference(
                b, turning.BASIC_AMPLITUDE, turning.BASIC_NEGATIVE, p.alpha2)
            tol = checks.certificate_tolerances(CURVE_M, p.alpha2, g, pref, j1, j2)
            errors = checks.check_certificate(cert[:2], (j1, j2), tol)
        rnd.add(1, errors)

        cfg = self._curve_config(variant, b, path)
        snapdir = cfg.outputs.snapshots_dir
        shutil.rmtree(snapdir, ignore_errors=True)
        cli.run(cfg)
        snaps = sorted(os.listdir(snapdir)) if os.path.isdir(snapdir) else []
        curves = [geometry.read_snapshot(os.path.join(snapdir, s)) for s in snaps]
        written = min(len(curves), _csv_rows(cfg.outputs.diagnostics_csv))
        errors = []
        if written:
            code, report = cli.verify(cfg)
            errors = checks.check_verify_report(code, report, invariants)
            errors += checks.check_turning_dynamics(
                [geometry.min_slope_x1(c) for c in curves], cert[2])
        rnd.add(CURVE_SAMPLES - written,
                checks.check_sample_count(written, CURVE_SAMPLES, variant))
        rnd.add(written, errors)

        rnd.curve_runs[variant] = (b_star, cert, cfg.sample_times[: len(curves)], curves)

    def round(self) -> Round:
        rnd = Round()
        for (variant, invariants), path in zip(FAMILIES, self.config_paths):
            self._family(rnd, variant, invariants, path)
        return rnd


WORKLOADS = {
    # delta on every sample: about half the round is the spectral RHS, half
    # delta, whose m x m temporaries set the peak memory
    "graph-f2-delta": lambda: GraphWorkload(
        "graph-f2-delta", "preset_f2", 512, 0.12, 13, "spectral_log", "halfangle", True),
    # the other quadrature branch and no delta: a delta or spectral-only
    # change must leave it unchanged
    "graph-f1-panel": lambda: GraphWorkload(
        "graph-f1-panel", "preset_f1", 512, 0.12, 13, "taylor_cell", "printed", False),
    "curve-turning": TurningWorkload,
}
