"""Run configuration: a versioned JSON schema describing one experiment.

A config fixes the initial data, the formulation (graph scheme or full
contour dynamics), grid size, physical constants, integrator tolerances,
sample times and output paths, plus the diagnostics knobs. Everything lives
in the file; no ambient defaults or environment variables.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import List, Optional

from .diagnostics import WIENER_EXPONENT_MAX, DiagnosticsOptions
from .geometry import check_grid_size
from .integrators import IntegratorParams, _prepare_samples
from .turning import TurningFamilyParams

SCHEMA_VERSION = 1

INITIAL_KINDS = ("preset_f1", "preset_f2", "fourier", "snapshot_file", "turning_family")
FORMULATIONS = ("graph", "curve")
F1_READINGS = ("corrected", "printed")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class InitialSpec:
    """Initial interface: a named preset, sine series, file, or turning family.

    ``fourier_coeffs`` is a list of [k, amplitude] pairs synthesizing
    sum_k amplitude * sin(k * alpha); ``turning`` holds the family
    parameters for kind "turning_family"; ``path`` the snapshot CSV for
    kind "snapshot_file".
    """

    kind: str
    fourier_coeffs: Optional[List[List[float]]] = None
    path: Optional[str] = None
    turning: Optional[TurningFamilyParams] = None

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ConfigError(f"unknown initial kind {self.kind!r}")
        if self.kind == "fourier":
            if not self.fourier_coeffs:
                raise ConfigError("fourier initial data needs a coefficient list")
            for pair in self.fourier_coeffs:
                if len(pair) != 2 or int(pair[0]) < 1:
                    raise ConfigError(f"malformed fourier coefficient {pair!r}")
        if self.kind == "snapshot_file" and not self.path:
            raise ConfigError("snapshot_file initial data needs a path")
        if self.kind == "turning_family" and self.turning is None:
            raise ConfigError("turning_family initial data needs parameters")


@dataclass
class OutputSpec:
    diagnostics_csv: str
    snapshots_dir: Optional[str] = None
    snapshot_every: int = 1

    def __post_init__(self):
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")


@dataclass
class RunConfig:
    """Full experiment description (see module docstring)."""

    initial: InitialSpec
    formulation: str
    m: int
    viscosity: float
    sign_factor: float
    integrator: IntegratorParams
    outputs: OutputSpec
    sample_times: Optional[List[float]] = None
    sample_dt: Optional[float] = None
    diagnostics: DiagnosticsOptions = field(default_factory=DiagnosticsOptions)
    quadrature: str = "spectral_log"
    singular_cell_variant: str = "halfangle"
    f1_reading: str = "corrected"
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}")
        if self.formulation not in FORMULATIONS:
            raise ConfigError(f"unknown formulation {self.formulation!r}")
        if self.initial.kind == "turning_family" and self.formulation != "curve":
            raise ConfigError("turning_family initial data requires the curve formulation")
        if self.f1_reading not in F1_READINGS:
            raise ConfigError(f"unknown f1_reading {self.f1_reading!r}")
        if (self.sample_times is None) == (self.sample_dt is None):
            raise ConfigError("exactly one of sample_times / sample_dt is required")
        try:
            check_grid_size(self.m)
            _prepare_samples(0.0, self.integrator, self.resolved_sample_times())
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        diag = self.diagnostics
        if not diag.mu > 0:
            raise ConfigError(f"diagnostics.mu must be positive, got {diag.mu}")
        if not (diag.wiener_s >= 0 and diag.wiener_nu >= 0):
            raise ConfigError(
                f"diagnostics.wiener_s and wiener_nu must be nonnegative, got "
                f"{diag.wiener_s} and {diag.wiener_nu}"
            )
        if diag.wiener_nu * (self.m / 2) > WIENER_EXPONENT_MAX:
            raise ConfigError(
                f"diagnostics.wiener_nu * m/2 = {diag.wiener_nu * self.m / 2:g} exceeds "
                f"the overflow guard ({WIENER_EXPONENT_MAX:g})"
            )

    def resolved_sample_times(self) -> List[float]:
        if self.sample_times is not None:
            return list(self.sample_times)
        dt = self.sample_dt
        if dt <= 0:
            raise ConfigError("sample_dt must be positive")
        # the last sample may not pass t_end; the slack absorbs roundoff only
        return [i * dt for i in range(math.floor(self.integrator.t_end / dt + 1e-9) + 1)]


def config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)


def config_from_dict(data: dict) -> RunConfig:
    try:
        data = dict(data)
        # v1 configs may still carry the retired "deterministic" (never read)
        # and "delta_n_max" (0, the exact kernel, was the only value used)
        data.pop("deterministic", None)
        initial = dict(data.pop("initial"))
        turning = initial.pop("turning", None)
        if turning is not None:
            turning = TurningFamilyParams(**turning)
        integrator = IntegratorParams(**data.pop("integrator"))
        outputs = OutputSpec(**data.pop("outputs"))
        diagnostics = dict(data.pop("diagnostics", {}))
        if diagnostics.pop("delta_n_max", 0) != 0:
            raise ConfigError("delta_n_max is retired; delta uses the exact kernel")
        diagnostics = DiagnosticsOptions(**diagnostics)
        return RunConfig(
            initial=InitialSpec(turning=turning, **initial),
            integrator=integrator,
            outputs=outputs,
            diagnostics=diagnostics,
            **data,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def dump_config(cfg: RunConfig, path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(data)
