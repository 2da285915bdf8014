"""Experiment orchestration: initial-data presets, runs, and verification.

Verbs (also exposed as the ``stokescontour`` console command):

    run <config.json>          execute the configured evolution, writing the
                               diagnostics CSV incrementally and snapshots
    verify <config.json>       replay the invariant suite on stored outputs
    preset-dump <name>         write a sampled preset as a snapshot CSV

Exit codes: 0 success, 2 partial run (blowup / step failure), 3 config
error, 4 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .diagnostics import (
    DiagnosticsWriter,
    dEdt_series,
    read_diagnostics_csv,
)
from .evolution_curve import CurveState, evolve_curve
from .evolution_graph import GraphState, evolve
from .geometry import (
    GraphInterface,
    ParamCurve,
    carried_symmetries,
    check_grid_size,
    graph_to_curve,
    read_snapshot,
    uniform_grid,
    write_snapshot,
)
from .turning import build_turning_family

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_CONFIG = 3
EXIT_VERIFY = 4

# tolerances of the replayed invariant suite
MONOTONE_SLACK = 1e-8
SYMMETRY_TOL = 1e-8
PERIMETER_LB_SLACK = 1e-8
DELTA_REL_TOL = 0.05
DELTA_FLOOR = 1e-6


def preset_f1(m: int) -> np.ndarray:
    """Polygonal initial heights: rise to 1, plateau, descend, odd extension.

    The descending branch is pi - x, continuous at both junctions (the
    printed -x - pi is a typo that jumps away from the plateau), sampled on
    x = alpha mod 2pi.
    """
    x = np.mod(uniform_grid(m), 2.0 * np.pi)

    def positive_part(xx):
        return np.select(
            [xx <= 1.0, xx <= np.pi - 1.0, xx <= np.pi],
            [xx, np.ones_like(xx), np.pi - xx],
        )

    h = np.where(x <= np.pi, positive_part(x), -positive_part(2.0 * np.pi - x))
    h[x == 0.0] = 0.0
    return h


def preset_f2(m: int) -> np.ndarray:
    """Cubed-sine initial heights sin(alpha)^3 (odd, both symmetries)."""
    return np.sin(uniform_grid(m)) ** 3


# the initial heights by preset name, of preset-dump and the config kinds "preset_<name>"
PRESETS = {"f1": preset_f1, "f2": preset_f2}


def fourier_heights(m: int, coeffs) -> np.ndarray:
    alpha = uniform_grid(m)
    h = np.zeros(m)
    for k, amp in coeffs:
        h += amp * np.sin(int(k) * alpha)
    return h


def build_initial(config: RunConfig):
    """Construct the configured initial state (GraphState or CurveState)."""
    kind = config.initial.kind
    delta_rho = 8.0 * np.pi * config.sign_factor
    if kind == "fourier":
        interface = GraphInterface(h=fourier_heights(config.m, config.initial.fourier_coeffs))
    elif kind == "snapshot_file":
        interface = read_snapshot(config.initial.path)
        if interface.m != config.m:
            raise ConfigError(
                f"snapshot grid m={interface.m} does not match config m={config.m}"
            )
        if isinstance(interface, ParamCurve):
            if config.formulation != "curve":
                raise ConfigError("curve snapshot requires the curve formulation")
            return CurveState(t=0.0, curve=interface, delta_rho=delta_rho)
    elif kind == "turning_family":
        curve = build_turning_family(config.initial.turning, config.m)
        return CurveState(t=0.0, curve=curve, delta_rho=delta_rho)
    else:  # "preset_f1" or "preset_f2": InitialSpec admits no other kind
        interface = GraphInterface(h=PRESETS[kind.removeprefix("preset_")](config.m))

    if config.formulation == "curve":
        return CurveState(t=0.0, curve=graph_to_curve(interface), delta_rho=delta_rho)
    return GraphState(t=0.0, interface=interface)


def run(config: RunConfig) -> int:
    """Execute a configured run. Returns the process exit code.

    The diagnostics CSV is flushed row by row so a failed run still leaves a
    valid file; failures additionally write ``failure.json`` next to it with
    the failure time and message. A failure record left by an earlier run on
    the same path is removed as the run starts.
    """
    try:
        state = build_initial(config)
        sample_times = config.resolved_sample_times()
    except (ConfigError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = config.outputs
    snapdir = out.snapshots_dir
    failure_path = out.diagnostics_csv + ".failure.json"
    try:
        if snapdir:
            os.makedirs(snapdir, exist_ok=True)
        with contextlib.suppress(FileNotFoundError):
            os.remove(failure_path)
        writer = DiagnosticsWriter(out.diagnostics_csv)
    except OSError as exc:
        print(f"config error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    sample_count = 0

    def on_sample(st, rec):
        nonlocal sample_count
        writer.write(rec)
        if snapdir and sample_count % out.snapshot_every == 0:
            obj = st.interface if isinstance(st, GraphState) else st.curve
            write_snapshot(
                os.path.join(snapdir, f"snapshot_{sample_count:05d}.csv"), obj
            )
        sample_count += 1

    with writer:
        if isinstance(state, GraphState):
            traj = evolve(
                state, config.scheme_params(), config.integrator, sample_times,
                options=config.diagnostics, on_sample=on_sample,
            )
        else:
            traj = evolve_curve(state, config.integrator, sample_times, on_sample=on_sample)

    if traj.failed:
        failure = {
            "failure_time": traj.failure_time,
            "message": traj.failure_message,
            "samples_written": sample_count,
        }
        with open(failure_path, "w") as fh:
            json.dump(failure, fh, indent=2)
        print(f"partial run: {traj.failure_message}", file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def verify(config: RunConfig) -> tuple[int, dict]:
    """Replay the invariant suite on a completed run's outputs.

    Checks energy monotonicity (unstable sign only), conservation of the
    symmetries the run enforced (``geometry.carried_symmetries`` of the
    initial data), the height/energy lower bound max(M, m) >= sqrt(E)/(2
    sqrt(pi)), and agreement of the stored delta column with the centered
    dE/dt where the latter is resolvable. Returns (exit_code, report) with
    worst-case margins per check.
    """
    try:
        data = read_diagnostics_csv(config.outputs.diagnostics_csv)
        state = build_initial(config)
    except (OSError, ValueError) as exc:
        print(f"verify: cannot load outputs: {exc}", file=sys.stderr)
        return EXIT_CONFIG, {}
    if data["t"].size < 3:
        print("verify: need at least 3 samples", file=sys.stderr)
        return EXIT_CONFIG, {}

    report = {}

    e = data["E"]
    if config.sign_factor < 0:
        drops = np.diff(e)
        margin = float(np.min(drops)) if drops.size else 0.0
        report["energy_monotone"] = {"pass": bool(margin >= -MONOTONE_SLACK), "worst_drop": margin}

    curve0 = state.curve if isinstance(state, CurveState) else graph_to_curve(state.interface)
    for name, column, carried in zip(("central_symmetry", "even_symmetry"), ("csym", "esym"),
                                     carried_symmetries(curve0)):
        if carried:
            worst = float(np.max(data[column]))
            report[name] = {"pass": bool(worst <= SYMMETRY_TOL), "worst": worst}

    lhs = np.maximum(data["Mheight"], data["mheight"])
    rhs = np.sqrt(np.maximum(e, 0.0)) / (2.0 * np.sqrt(np.pi))
    margin = float(np.min(lhs - rhs))
    report["perimeter_lower_bound"] = {
        "pass": bool(margin >= -PERIMETER_LB_SLACK),
        "worst_margin": margin,
    }

    delta = data["delta"]
    if np.any(np.isfinite(delta)):
        dEdt = dEdt_series(data["t"], e)
        interior = np.zeros(e.size, dtype=bool)
        interior[1:-1] = True
        usable = interior & (np.abs(dEdt) >= DELTA_FLOOR) & np.isfinite(delta)
        if np.any(usable):
            rel = np.abs(delta[usable] - dEdt[usable]) / np.abs(dEdt[usable])
            report["delta_vs_dEdt"] = {
                "pass": bool(np.max(rel) <= DELTA_REL_TOL),
                "worst_rel_err": float(np.max(rel)),
                "samples": int(np.sum(usable)),
            }

    ok = all(entry["pass"] for entry in report.values())
    return (EXIT_OK if ok else EXIT_VERIFY), report


def _print_report(report: dict) -> None:
    for name, entry in report.items():
        status = "PASS" if entry["pass"] else "FAIL"
        details = ", ".join(f"{k}={v:.3e}" if isinstance(v, float) else f"{k}={v}"
                            for k, v in entry.items() if k != "pass")
        print(f"[{status}] {name}: {details}")


def preset_dump(name: str, m: int, path: str) -> int:
    """Write the preset ``name`` on m nodes as a snapshot CSV; an unwritable path is exit 3."""
    try:
        check_grid_size(m)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if name not in PRESETS:
        print(f"unknown preset {name!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        write_snapshot(path, GraphInterface(h=PRESETS[name](m)))
    except OSError as exc:
        print(f"config error: cannot write {path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="stokescontour", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("config")

    p_ver = sub.add_parser("verify", help="replay invariants on stored outputs")
    p_ver.add_argument("config")

    p_dump = sub.add_parser("preset-dump", help="write a sampled preset snapshot")
    p_dump.add_argument("name", choices=sorted(PRESETS))
    p_dump.add_argument("--m", type=int, default=1024)
    p_dump.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.verb in ("run", "verify"):
        try:
            config = load_config(args.config)
        except (ConfigError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if args.verb == "run":
            return run(config)
        code, report = verify(config)
        _print_report(report)
        return code

    out = args.out or f"{args.name}_m{args.m}.csv"
    return preset_dump(args.name, args.m, out)

