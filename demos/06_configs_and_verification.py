"""End-to-end experiment orchestration through the config pipeline.

A run is described by a JSON config: initial data, formulation, grid,
constants, integrator tolerances, sample times, outputs. Executing it
writes an incrementally flushed diagnostics CSV plus snapshot files, and
``verify`` replays the invariant suite (energy monotonicity, symmetry
conservation, the height/energy lower bound, dissipation vs energy slope)
on the stored outputs. The same verbs are exposed on the command line:

    stokescontour run config.json
    stokescontour verify config.json
    stokescontour preset-dump f2 --m 512 --out f2.csv
"""

import json
import pathlib
import tempfile

import stokescontour as sc
from stokescontour.config import InitialSpec, OutputSpec, RunConfig, dump_config, load_config

tmpdir = tempfile.TemporaryDirectory(prefix="stokescontour_demo_")
workdir = pathlib.Path(tmpdir.name)
config = RunConfig(
    initial=InitialSpec(kind="preset_f2"),
    formulation="graph",
    m=256,
    viscosity=1e-3,
    sign_factor=-1.0,
    integrator=sc.IntegratorParams(t_end=0.1, rel_tol=1e-6, abs_tol=1e-9,
                                   dt_init=1e-3, dt_max=0.01),
    sample_dt=0.02,
    outputs=OutputSpec(
        diagnostics_csv=str(workdir / "diagnostics.csv"),
        snapshots_dir=str(workdir / "snapshots"),
        snapshot_every=2,
    ),
)

config_path = workdir / "run.json"
dump_config(config, config_path)
print(f"wrote {config_path}")
assert load_config(config_path) == config  # round trip

code = sc.run(config)
print(f"run exit code: {code}")

rows = (workdir / "diagnostics.csv").read_text().splitlines()
print(f"\ndiagnostics CSV ({len(rows) - 1} samples):")
print(" ", rows[0])
print(" ", rows[1][:100], "...")
print("snapshots:", sorted(p.name for p in (workdir / "snapshots").iterdir()))

exit_code, report = sc.verify(config)
print(f"\nverification exit code: {exit_code}")
for name, entry in report.items():
    detail = {k: v for k, v in entry.items() if k != "pass"}
    print(f"  [{'PASS' if entry['pass'] else 'FAIL'}] {name}: {json.dumps(detail)}")

tmpdir.cleanup()
