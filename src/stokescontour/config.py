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

from .diagnostics import DiagnosticsOptions, check_wiener_weights
from .evolution_graph import SchemeParams
from .geometry import check_finite_fields, is_finite_number
from .integrators import IntegratorParams, check_sample_times
from .turning import TurningFamilyParams

SCHEMA_VERSION = 1

INITIAL_KINDS = ("preset_f1", "preset_f2", "fourier", "snapshot_file", "turning_family")
FORMULATIONS = ("graph", "curve")


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


def _check_path(name: str, value, nullable: bool = False) -> None:
    """ConfigError naming the field unless ``value`` is a non-empty str (or None if nullable).

    ``open`` and ``os.makedirs`` would take an int as a file descriptor, or
    fail on other types with an error that names no field.
    """
    if not (isinstance(value, str) and value or nullable and value is None):
        raise ConfigError(f"{name} must be a non-empty path string, got {value!r}")


@dataclass
class InitialSpec:
    """Initial interface: a named preset, sine series, file, or turning family.

    ``fourier_coeffs`` is a list of [k, amplitude] pairs synthesizing
    sum_k amplitude * sin(k * alpha); ``turning`` holds the family
    parameters for kind "turning_family"; ``path`` the snapshot CSV for
    kind "snapshot_file", a non-empty string (``_check_path``).
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
                # [k, amplitude] are finite numbers, the wavenumber k an integer
                # in 1..2**53, exact in a float
                if not (len(pair) == 2 and all(map(is_finite_number, pair))
                        and 1 <= pair[0] <= 2**53 and pair[0] % 1 == 0):
                    raise ConfigError(f"malformed fourier coefficient {pair!r}")
        if self.kind == "snapshot_file":
            _check_path("initial.path", self.path)
        if self.kind == "turning_family" and self.turning is None:
            raise ConfigError("turning_family initial data needs parameters")


@dataclass
class OutputSpec:
    """Output paths, each a non-empty string (``_check_path``); snapshots_dir None writes none."""

    diagnostics_csv: str
    snapshots_dir: Optional[str] = None
    snapshot_every: int = 1

    def __post_init__(self):
        _check_path("outputs.diagnostics_csv", self.diagnostics_csv)
        _check_path("outputs.snapshots_dir", self.snapshots_dir, nullable=True)
        every = self.snapshot_every
        if not (is_finite_number(every) and every >= 1 and every % 1 == 0):
            raise ConfigError(f"snapshot_every must be an integer >= 1, got {every!r}")


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
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}")
        if self.formulation not in FORMULATIONS:
            raise ConfigError(f"unknown formulation {self.formulation!r}")
        if self.initial.kind == "turning_family" and self.formulation != "curve":
            raise ConfigError("turning_family initial data requires the curve formulation")
        if (self.sample_times is None) == (self.sample_dt is None):
            raise ConfigError("exactly one of sample_times / sample_dt is required")
        # JSON writes a grid size as 64.0 as readily as 64
        if not (is_finite_number(self.m) and self.m % 1 == 0):
            raise ConfigError(f"m must be an integer, got {self.m!r}")
        self.m = int(self.m)
        diag = self.diagnostics
        try:
            # the grid rule is the scheme's: ``SchemeParams`` applies it first
            self.scheme_params()
            check_finite_fields(diag, "mu", "wiener_s", "wiener_nu")
            check_sample_times(0.0, self.integrator, self.resolved_sample_times())
            check_wiener_weights(diag.wiener_s, diag.wiener_nu, self.m)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not diag.mu > 0:
            raise ConfigError(f"diagnostics.mu must be positive, got {diag.mu}")
        # JSON's "false" is a truthy string
        if not isinstance(diag.compute_delta, bool):
            raise ConfigError(
                f"diagnostics.compute_delta must be true or false, got {diag.compute_delta!r}"
            )

    def scheme_params(self) -> SchemeParams:
        """The graph scheme's constants; ValueError on a bad scheme value."""
        return SchemeParams(
            sign_factor=self.sign_factor,
            viscosity=self.viscosity,
            m=self.m,
            quadrature=self.quadrature,
            singular_cell_variant=self.singular_cell_variant,
        )

    def resolved_sample_times(self) -> List[float]:
        if self.sample_times is not None:
            return list(self.sample_times)
        dt = self.sample_dt
        if not (is_finite_number(dt) and dt > 0):
            raise ConfigError(f"sample_dt must be positive and finite, got {dt}")
        # the last sample may not pass t_end; the slack absorbs roundoff only
        return [i * dt for i in range(math.floor(self.integrator.t_end / dt + 1e-9) + 1)]


def config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)


def config_from_dict(data: dict) -> RunConfig:
    try:
        data = dict(data)
        # v1 configs may still carry the retired "deterministic" (never read),
        # "delta_n_max" (0, the exact kernel, was the only value used) and
        # "f1_reading" ("corrected", the continuous polygon, was the only one run)
        data.pop("deterministic", None)
        if data.pop("f1_reading", "corrected") != "corrected":
            raise ConfigError("f1_reading is retired; preset_f1 is the continuous polygon")
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
