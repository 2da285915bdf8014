"""Contour dynamics for a two-phase gravity Stokes interface on T x R.

A simulator and diagnostics library for the sharp interface between two
fluids of different densities driven by gravity in the Stokes regime:
the graph-form boundary-integral scheme with adaptive Runge-Kutta stepping,
the full parametric contour dynamics, closed-form and series kernels, and
the scalar monitors (energy, dissipation, perimeter, curvature, symmetry
errors, finger counts, Wiener norms) used to study fingering growth and the
turning instability.
"""

from .geometry import (
    GraphInterface,
    ParamCurve,
    central_diff,
    curvature,
    graph_to_curve,
    height_extremes,
    min_slope_x1,
    perimeter,
    read_snapshot,
    symmetry_errors,
    uniform_grid,
    write_snapshot,
)
from .kernels import (
    Stokeslet2x2,
    biharm_pair_kernel,
    bilaplacian_pair_kernel_exact,
    dK1_series,
    dK12,
    stokeslet,
)
from .integrators import BlowupError, IntegratorParams, StepFailureError, Trajectory
from .diagnostics import (
    DiagnosticsOptions,
    DiagnosticsRecord,
    dE_dt_fd,
    delta_rate,
    delta_spectral,
    energy,
    energy_curve,
    finger_count,
    wiener_norm,
)
from .evolution_graph import GraphState, SchemeParams, evolve, rhs_graph
from .evolution_curve import CurveState, evolve_curve, rhs_curve
from .turning import (
    BracketingError,
    ConstructionError,
    TurningFamilyParams,
    build_turning_family,
    find_b_threshold,
    turning_integral,
    turning_integral_even,
)
from .config import InitialSpec, OutputSpec, RunConfig, load_config, dump_config
from .cli import build_initial, preset_f1, preset_f2, run, verify

__version__ = "0.1.0"
