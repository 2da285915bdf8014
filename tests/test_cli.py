import json
import os
import subprocess
import sys

import numpy as np
import pytest

import stokescontour as sc
from stokescontour.cli import EXIT_CONFIG, EXIT_OK, EXIT_PARTIAL, EXIT_VERIFY, main
from stokescontour.config import (
    ConfigError,
    InitialSpec,
    OutputSpec,
    RunConfig,
    config_from_dict,
    config_to_dict,
    dump_config,
    load_config,
)
from stokescontour.diagnostics import read_diagnostics_csv


def base_config(tmp_path, **overrides):
    kwargs = dict(
        initial=InitialSpec(kind="fourier", fourier_coeffs=[[1, 1e-3]]),
        formulation="graph",
        m=64,
        viscosity=1e-3,
        sign_factor=-1.0,
        integrator=sc.IntegratorParams(t_end=0.05, dt_max=0.02),
        outputs=OutputSpec(
            diagnostics_csv=str(tmp_path / "diag.csv"),
            snapshots_dir=str(tmp_path / "snaps"),
            snapshot_every=2,
        ),
        sample_times=[0.0, 0.025, 0.05],
    )
    kwargs.update(overrides)
    return RunConfig(**kwargs)


# --- presets -----------------------------------------------------------------


def test_preset_f1_values():
    m = 1024
    al = sc.uniform_grid(m)
    h = sc.preset_f1(m)
    rising = (al > 0) & (al <= 1.0)
    assert np.array_equal(h[rising], al[rising])  # h = alpha on the first branch
    plateau = (al > 1.0) & (al <= np.pi - 1.0)
    assert np.all(h[plateau] == 1.0)
    descending = (al > np.pi - 1.0) & (al < np.pi)
    assert np.allclose(h[descending], np.pi - al[descending])
    # odd extension
    j = np.arange(m)
    assert np.max(np.abs(h + h[(-j) % m])) <= 1e-15


def test_preset_f2_values():
    m = 2048
    h = sc.preset_f2(m)
    assert h[3 * m // 4] == 1.0    # alpha = +pi/2
    assert h[m // 4] == -1.0       # alpha = -pi/2
    assert np.max(h) == 1.0 and np.min(h) == -1.0


def test_fourier_initial_single_mode():
    cfg_h = sc.cli.fourier_heights(256, [[1, 0.001]])
    assert np.allclose(cfg_h, 0.001 * np.sin(sc.uniform_grid(256)), atol=1e-18)


def test_malformed_fourier_rejected():
    with pytest.raises(ConfigError):
        InitialSpec(kind="fourier", fourier_coeffs=[[0, 1.0]])
    with pytest.raises(ConfigError):
        InitialSpec(kind="fourier", fourier_coeffs=None)


@pytest.mark.parametrize("k", [2.5, float("inf"), float("nan"), 10**400])
def test_non_integral_fourier_wavenumber_rejected(k):
    # sin(k alpha) is periodic on the strip for integral k only; 2.5 once ran as 2,
    # and an integer past the float range (10**400 in JSON) raised OverflowError
    with pytest.raises(ConfigError, match="malformed fourier coefficient"):
        InitialSpec(kind="fourier", fourier_coeffs=[[1, 0.1], [k, 0.1]])


@pytest.mark.parametrize("amplitude", ["0.5", None, [0.5], True, float("inf"),
                                       float("nan"), 10**400],
                         ids=["string", "null", "list", "bool", "inf", "nan", "huge_int"])
def test_non_numeric_fourier_amplitude_rejected(amplitude):
    # a string or null once ran into a traceback, and [0.5] was broadcast
    with pytest.raises(ConfigError, match="malformed fourier coefficient"):
        InitialSpec(kind="fourier", fourier_coeffs=[[1, 0.1], [2, amplitude]])


def test_main_rejects_string_fourier_amplitude(tmp_path):
    data = config_to_dict(base_config(tmp_path))
    data["initial"]["fourier_coeffs"] = [[1, "0.5"]]
    path = tmp_path / "amplitude.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not os.path.exists(data["outputs"]["diagnostics_csv"])


# --- config serialization ------------------------------------------------------


def test_config_roundtrip(tmp_path):
    cfg = base_config(tmp_path)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    path = tmp_path / "config.json"
    dump_config(cfg, path)
    assert load_config(path) == cfg


def test_config_roundtrip_turning(tmp_path):
    cfg = base_config(
        tmp_path,
        initial=InitialSpec(
            kind="turning_family", turning=sc.TurningFamilyParams(b=4.0)
        ),
        formulation="curve",
        m=256,
        sign_factor=1.0 / (8 * np.pi),
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        base_config(tmp_path, formulation="spectral")
    with pytest.raises(ConfigError):
        base_config(tmp_path, sample_times=None)  # neither times nor dt
    with pytest.raises(ConfigError):
        base_config(
            tmp_path,
            initial=InitialSpec(kind="turning_family", turning=sc.TurningFamilyParams(b=2.0)),
        )  # turning family needs the curve formulation
    with pytest.raises(ConfigError):
        config_from_dict({"schema_version": 99})
    data = config_to_dict(base_config(tmp_path))
    data["diagnostics"]["delta_n_max"] = 64  # only the exact kernel (0) remains
    with pytest.raises(ConfigError):
        config_from_dict(data)


# --- run -----------------------------------------------------------------------


def test_run_flat_initial(tmp_path):
    cfg = base_config(tmp_path, initial=InitialSpec(kind="fourier", fourier_coeffs=[[1, 0.0]]))
    assert sc.run(cfg) == EXIT_OK
    data = read_diagnostics_csv(cfg.outputs.diagnostics_csv)
    assert np.all(data["E"] == 0.0)
    assert data["t"].tolist() == [0.0, 0.025, 0.05]
    # snapshots written every other sample
    snaps = sorted(os.listdir(cfg.outputs.snapshots_dir))
    assert snaps == ["snapshot_00000.csv", "snapshot_00002.csv"]


def test_run_wiener_column_off_power_of_two_grid(tmp_path):
    cfg = base_config(tmp_path, m=200, outputs=OutputSpec(
        diagnostics_csv=str(tmp_path / "diag.csv"), snapshots_dir=str(tmp_path / "snaps")))
    assert sc.run(cfg) == EXIT_OK
    wiener = read_diagnostics_csv(cfg.outputs.diagnostics_csv)["wiener"]
    snaps = sorted(os.listdir(cfg.outputs.snapshots_dir))
    assert len(snaps) == wiener.size == 3
    for w, name in zip(wiener, snaps):
        g = sc.read_snapshot(os.path.join(cfg.outputs.snapshots_dir, name))
        assert w == pytest.approx(sc.wiener_norm(g, 0.0, 0.0), rel=1e-12)


@pytest.mark.filterwarnings("ignore:node clustering:RuntimeWarning")
def test_run_deterministic_outputs(tmp_path):
    # a graph run and a curve run (whose pair sums reduce inside BLAS), each
    # twice: byte-identical diagnostics and snapshots
    curve = dict(initial=InitialSpec(kind="turning_family", turning=sc.TurningFamilyParams(b=2.0)),
                 formulation="curve", m=128, sign_factor=1.0 / (8 * np.pi),
                 integrator=sc.IntegratorParams(t_end=0.02, dt_max=0.01),
                 sample_times=[0.0, 0.01, 0.02])
    for kind, overrides in (("graph", {}), ("curve", curve)):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{kind}-{run}"
            cfg = base_config(tmp_path, outputs=OutputSpec(
                diagnostics_csv=str(out) + ".csv", snapshots_dir=str(out)), **overrides)
            assert sc.run(cfg) == EXIT_OK
            snaps = sorted(os.listdir(out))
            outputs.append([(out.with_suffix(".csv")).read_bytes()]
                           + [(out / name).read_bytes() for name in snaps])
        assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


def test_run_partial_writes_valid_csv_and_failure_record(tmp_path):
    cfg = base_config(
        tmp_path,
        initial=InitialSpec(kind="fourier", fourier_coeffs=[[1, 0.5]]),
        integrator=sc.IntegratorParams(
            t_end=1.0, rel_tol=1e-12, abs_tol=1e-12, dt_init=0.5, dt_min=0.5, dt_max=0.5
        ),
        sample_times=[0.0, 0.5, 1.0],
    )
    assert sc.run(cfg) == EXIT_PARTIAL
    data = read_diagnostics_csv(cfg.outputs.diagnostics_csv)  # no torn rows
    assert data["t"].size == 1
    failure = json.load(open(cfg.outputs.diagnostics_csv + ".failure.json"))
    assert "failure_time" in failure and failure["samples_written"] == 1


def test_good_rerun_removes_earlier_failure_record(tmp_path):
    failing = base_config(
        tmp_path,
        initial=InitialSpec(kind="fourier", fourier_coeffs=[[1, 0.5]]),
        integrator=sc.IntegratorParams(
            t_end=1.0, rel_tol=1e-12, abs_tol=1e-12, dt_init=0.5, dt_min=0.5, dt_max=0.5
        ),
        sample_times=[0.0, 0.5, 1.0],
    )
    record = failing.outputs.diagnostics_csv + ".failure.json"
    assert sc.run(failing) == EXIT_PARTIAL
    assert os.path.exists(record)
    good = base_config(tmp_path)  # same diagnostics_csv path
    assert sc.run(good) == EXIT_OK
    assert read_diagnostics_csv(good.outputs.diagnostics_csv)["t"].size == 3
    assert not os.path.exists(record)


def test_run_from_snapshot_file(tmp_path):
    snap = tmp_path / "init.csv"
    sc.write_snapshot(snap, sc.GraphInterface(h=sc.preset_f2(64)))
    cfg = base_config(tmp_path, initial=InitialSpec(kind="snapshot_file", path=str(snap)))
    assert sc.run(cfg) == EXIT_OK


def test_run_snapshot_grid_mismatch_is_config_error(tmp_path):
    snap = tmp_path / "init.csv"
    sc.write_snapshot(snap, sc.GraphInterface(h=sc.preset_f2(128)))
    cfg = base_config(tmp_path, initial=InitialSpec(kind="snapshot_file", path=str(snap)))
    assert sc.run(cfg) == EXIT_CONFIG


@pytest.mark.parametrize("m_snap", [32, 10], ids=["m32", "m10_not_multiple_of_4"])
def test_run_curve_snapshot_grid_mismatch_is_config_error(tmp_path, m_snap):
    # written as text: the API builds no curve on m = 10
    snap = tmp_path / "init.csv"
    al = sc.uniform_grid(m_snap)
    snap.write_text("alpha,z1,z2\n" + "".join(f"{a:.17g},{a:.17g},{np.sin(a) ** 3:.17g}\n"
                                               for a in al))
    cfg = base_config(tmp_path, initial=InitialSpec(kind="snapshot_file", path=str(snap)),
                      formulation="curve")
    assert sc.run(cfg) == EXIT_CONFIG


@pytest.mark.parametrize(
    "content",
    ["", "alpha,h\n", "alpha,h\n" + "0.5\n" * 64, "alpha,h\n" + "0.5,0.5\n" * 10,
     "alpha,h\n" + "0.5,0.5\n" * 63 + "0.5,nan0\n"],
    ids=["empty", "header_only", "short_rows", "m10_not_multiple_of_4", "not_a_number"],
)
def test_run_malformed_snapshot_is_config_error(tmp_path, content, capsys):
    snap = tmp_path / "init.csv"
    snap.write_text(content)
    cfg = base_config(tmp_path, initial=InitialSpec(kind="snapshot_file", path=str(snap)))
    assert sc.run(cfg) == EXIT_CONFIG
    assert str(snap) in capsys.readouterr().err


def test_run_curve_formulation(tmp_path):
    cfg = base_config(
        tmp_path,
        initial=InitialSpec(kind="turning_family", turning=sc.TurningFamilyParams(b=2.0)),
        formulation="curve",
        m=128,
        sign_factor=1.0 / (8 * np.pi),
        integrator=sc.IntegratorParams(t_end=0.02, dt_max=0.01),
        sample_times=[0.0, 0.02],
    )
    assert sc.run(cfg) == EXIT_OK
    data = read_diagnostics_csv(cfg.outputs.diagnostics_csv)
    assert np.all(np.isnan(data["delta"]))  # delta is a graph-only monitor


@pytest.mark.parametrize("key, value", [
    ("diagnostics", {"mu": 0.7, "wiener_s": 2.0, "wiener_nu": 0.5, "compute_delta": False}),
    ("quadrature", "taylor_cell"),
    ("singular_cell_variant", "printed"),
    ("viscosity", 0.3),
])
@pytest.mark.filterwarnings("ignore:node clustering:RuntimeWarning")
def test_curve_runs_ignore_graph_only_fields(tmp_path, key, value):
    # a curve record reads no diagnostics option and the curve velocity no
    # scheme constant but sign_factor: the CSVs are byte-identical
    csvs = []
    for name, changed in (("default", False), ("changed", True)):
        data = turning_config_dict(tmp_path)
        data["outputs"] = {"diagnostics_csv": str(tmp_path / f"{name}.csv")}
        if changed:
            data[key] = value
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert main(["run", str(path)]) == EXIT_OK
        csvs.append((tmp_path / f"{name}.csv").read_bytes())
    assert csvs[0] == csvs[1]


# --- verify ----------------------------------------------------------------------


def test_verify_passes_on_good_run(tmp_path):
    cfg = base_config(tmp_path)
    assert sc.run(cfg) == EXIT_OK
    code, report = sc.verify(cfg)
    assert code == EXIT_OK
    assert report["energy_monotone"]["pass"]
    assert report["central_symmetry"]["pass"]
    assert report["perimeter_lower_bound"]["pass"]


def test_verify_checks_only_the_enforced_symmetries(tmp_path):
    # errors of 5e-11: above the tolerance at which the run enforces a
    # symmetry, so verify may not check either one
    h = sc.preset_f2(64)
    h[5] += 5e-11
    snap = tmp_path / "init.csv"
    sc.write_snapshot(snap, sc.GraphInterface(h=h))
    cfg = base_config(tmp_path, initial=InitialSpec(kind="snapshot_file", path=str(snap)),
                      integrator=sc.IntegratorParams(t_end=0.1, dt_max=0.02),
                      sample_times=[0.0, 0.05, 0.1])
    assert sc.run(cfg) == EXIT_OK
    code, report = sc.verify(cfg)
    assert code == EXIT_OK
    assert "central_symmetry" not in report and "even_symmetry" not in report


def test_verify_detects_corrupted_energy(tmp_path):
    cfg = base_config(tmp_path)
    assert sc.run(cfg) == EXIT_OK
    # negate the E column
    lines = open(cfg.outputs.diagnostics_csv).read().splitlines()
    header = lines[0].split(",")
    iE = header.index("E")
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[iE] = repr(-float(parts[iE]) - 1e-3)
        out.append(",".join(parts))
    open(cfg.outputs.diagnostics_csv, "w").write("\n".join(out) + "\n")
    code, report = sc.verify(cfg)
    assert code == EXIT_VERIFY
    assert not report["energy_monotone"]["pass"]


# --- command line ------------------------------------------------------------------


def test_main_run_and_verify(tmp_path):
    cfg = base_config(tmp_path)
    path = tmp_path / "cfg.json"
    dump_config(cfg, path)
    assert main(["run", str(path)]) == EXIT_OK
    assert main(["verify", str(path)]) == EXIT_OK


def test_main_bad_config_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"schema_version\": 1}")
    assert main(["run", str(path)]) == EXIT_CONFIG


def test_main_rejects_m_not_multiple_of_4(tmp_path):
    # m = 10 is even but has no nodes at +-pi/2 for the symmetry monitors
    data = config_to_dict(base_config(tmp_path))
    data["m"] = 10
    path = tmp_path / "m10.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not os.path.exists(data["outputs"]["diagnostics_csv"])


@pytest.mark.parametrize(
    "option, value",
    [
        ("mu", 0.0),            # the finger count needs a positive threshold
        ("mu", -0.05),
        ("wiener_s", -1.0),     # the Wiener weights need s, nu >= 0
        ("wiener_nu", -0.1),
        ("wiener_nu", 22.0),    # nu * m/2 = 704 is past the overflow guard
        # s ln(m/2) is past it too: these once wrote a nan wiener column
        ("wiener_s", 800.0),
        ("wiener_s", 1e300),
        ("wiener_s", float("inf")),
        ("compute_delta", "no"),  # a truthy string, not a boolean
    ],
    ids=["mu_zero", "mu_negative", "wiener_s_negative", "wiener_nu_negative",
         "wiener_nu_overflow", "wiener_s_800", "wiener_s_1e300", "wiener_s_inf",
         "compute_delta_string"],
)
def test_main_rejects_bad_diagnostics_options(tmp_path, option, value):
    data = config_to_dict(base_config(tmp_path))  # m = 64
    data["diagnostics"][option] = value
    path = tmp_path / "diag_options.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not os.path.exists(data["outputs"]["diagnostics_csv"])


@pytest.mark.parametrize("verb", ["run", "verify"])
@pytest.mark.parametrize(
    "key, value",
    [
        ("quadrature", "exact"),
        ("singular_cell_variant", "x"),
        ("viscosity", -1e-3),
        ("sign_factor", 0.0),
    ],
    ids=["quadrature", "cell_variant", "viscosity_negative", "sign_factor_zero"],
)
def test_main_rejects_bad_scheme_values(tmp_path, key, value, verb):
    data = config_to_dict(base_config(tmp_path))
    data[key] = value
    path = tmp_path / "scheme.json"
    path.write_text(json.dumps(data))
    assert main([verb, str(path)]) == EXIT_CONFIG
    assert not os.path.exists(data["outputs"]["diagnostics_csv"])


def turning_config_dict(tmp_path):
    turning = InitialSpec(kind="turning_family", turning=sc.TurningFamilyParams(b=4.0))
    return config_to_dict(base_config(tmp_path, initial=turning, formulation="curve"))


# every float field of IntegratorParams and SchemeParams, and the turning
# family's b, by the dict that holds it in a config
NON_FINITE_FIELDS = ([("integrator", k) for k in ("t_end", "rel_tol", "abs_tol", "dt_init",
                                                   "dt_min", "dt_max")]
                     + [(None, "sign_factor"), (None, "viscosity"), ("turning", "b")])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")], ids=str)
@pytest.mark.parametrize("where, key", NON_FINITE_FIELDS, ids=lambda x: str(x))
def test_non_finite_config_numbers_are_config_errors(tmp_path, where, key, value):
    # JSON spells NaN and Infinity; no range check rejects NaN, and a run
    # from one ended as a partial run, not as a config error
    data = turning_config_dict(tmp_path) if where == "turning" else config_to_dict(
        base_config(tmp_path))
    section = {None: data, "integrator": data["integrator"],
               "turning": data["initial"].get("turning")}[where]
    section[key] = value
    with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
        config_from_dict(data)
    path = tmp_path / "non_finite.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not os.path.exists(data["outputs"]["diagnostics_csv"])


@pytest.mark.parametrize("key, value, message", [
    ("sample_times", [0.0, float("nan"), 0.05], "sample_times must be nonempty and finite"),
    ("sample_dt", float("nan"), "sample_dt must be positive and finite"),
    ("sample_dt", float("inf"), "sample_dt must be positive and finite"),
], ids=["sample_times_nan", "sample_dt_nan", "sample_dt_inf"])
def test_non_finite_sample_times_are_config_errors(tmp_path, key, value, message):
    # a NaN sample time (sample_dt = Infinity gave 0 * inf) passed every
    # range check, and a run from it never ended
    data = config_to_dict(base_config(tmp_path))
    data["sample_times"] = None
    data[key] = value
    with pytest.raises(ConfigError, match=message):
        config_from_dict(data)
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not os.path.exists(data["outputs"]["diagnostics_csv"])


# booleans and strings, which NumPy reads as numbers, by the dict that holds
# them in a config: each of these once ran, and rel_tol "1e-6" failed with
# NumPy's message, which names no field
NOT_NUMBERS = [
    (None, "sign_factor", True),
    (None, "viscosity", True),
    (None, "viscosity", False),
    ("integrator", "t_end", True),
    ("integrator", "dt_max", True),
    ("integrator", "rel_tol", "1e-6"),
    ("diagnostics", "mu", True),
    ("diagnostics", "wiener_s", True),
    ("diagnostics", "wiener_nu", False),
    ("outputs", "snapshot_every", True),
    (None, "sample_dt", True),
    (None, "sample_times", [False, 0.005, 0.01]),
    (None, "sample_times", ["0", "0.005", "0.01"]),
    ("turning", "b", True),
    ("turning", "alpha2", True),
    ("turning", "alpha3", True),
    ("turning", "eps_flat", True),
]


@pytest.mark.parametrize("where, key, value", NOT_NUMBERS,
                         ids=[f"{key}={value!r}" for _, key, value in NOT_NUMBERS])
def test_main_rejects_non_numbers_naming_the_field(tmp_path, capsys, where, key, value):
    data = turning_config_dict(tmp_path) if where == "turning" else config_to_dict(
        base_config(tmp_path))
    if key == "sample_dt":
        data["sample_times"] = None
    section = (data if where is None else data["initial"]["turning"] if where == "turning"
               else data[where])
    section[key] = value
    path = tmp_path / "not_a_number.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not os.path.exists(data["outputs"]["diagnostics_csv"])


# a grid size as a JSON config may spell it: a string, a boolean, a
# fraction, and a number past the float range, which Python reads as inf;
# each once ended in a traceback or named no field
@pytest.mark.parametrize("text", ['"64"', "true", "64.5", "1e400"])
def test_main_rejects_a_grid_size_that_is_not_an_integer(tmp_path, capsys, text):
    data = config_to_dict(base_config(tmp_path))
    data["m"] = None
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(data).replace('"m": null', f'"m": {text}'))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "m must be an integer, got" in capsys.readouterr().err
    assert not os.path.exists(data["outputs"]["diagnostics_csv"])


@pytest.mark.parametrize("kind", ["preset_f2", "fourier", "turning_family"])
def test_integral_float_grid_size_runs_as_an_integer(tmp_path, kind):
    # "m": 64.0 once ended in a traceback; it runs as 64, byte for byte
    if kind == "turning_family":
        data = turning_config_dict(tmp_path)
    else:
        initial = InitialSpec(kind=kind, fourier_coeffs=[[1, 1e-3]] if kind == "fourier" else None)
        data = config_to_dict(base_config(tmp_path, initial=initial))
    written = []
    for m in (64, 64.0):
        data["m"] = m
        data["outputs"] = {"diagnostics_csv": str(tmp_path / f"{m!r}.csv")}
        path = tmp_path / f"{m!r}.json"
        path.write_text(json.dumps(data))
        assert type(load_config(path).m) is int
        assert main(["run", str(path)]) == EXIT_OK
        written.append(open(data["outputs"]["diagnostics_csv"], "rb").read())
    assert written[0] == written[1]


def test_legacy_deterministic_key_still_loads(tmp_path):
    cfg = base_config(tmp_path)
    data = config_to_dict(cfg)
    data["deterministic"] = True
    data["diagnostics"]["delta_n_max"] = 0  # retired; dumped v1 configs carry it
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(data))
    assert load_config(path) == cfg


def f1_config_dict(tmp_path, name):
    data = config_to_dict(base_config(
        tmp_path, initial=InitialSpec(kind="preset_f1"),
        outputs=OutputSpec(diagnostics_csv=str(tmp_path / f"{name}.csv"))))
    path = tmp_path / f"{name}.json"
    return data, path


def test_retired_f1_reading_corrected_still_runs(tmp_path):
    # every config dump_config wrote before the key was retired carries it
    legacy, legacy_path = f1_config_dict(tmp_path, "legacy")
    legacy["f1_reading"] = "corrected"
    legacy_path.write_text(json.dumps(legacy, indent=2, sort_keys=True) + "\n")
    current, current_path = f1_config_dict(tmp_path, "current")
    current_path.write_text(json.dumps(current))
    assert main(["run", str(legacy_path)]) == EXIT_OK
    assert main(["run", str(current_path)]) == EXIT_OK
    assert (open(tmp_path / "legacy.csv", "rb").read()
            == open(tmp_path / "current.csv", "rb").read())


def test_retired_f1_reading_printed_is_config_error(tmp_path, capsys):
    data, path = f1_config_dict(tmp_path, "printed")
    data["f1_reading"] = "printed"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert "f1_reading is retired" in capsys.readouterr().err
    assert not os.path.exists(data["outputs"]["diagnostics_csv"])


@pytest.mark.parametrize("every", [float("nan"), float("inf"), 1.5, 0, -2], ids=str)
def test_snapshot_every_must_be_positive_integer(tmp_path, every):
    # NaN once wrote no snapshot, 1.5 every third sample and Infinity only the first
    data = config_to_dict(base_config(tmp_path))
    data["outputs"]["snapshot_every"] = every
    with pytest.raises(ConfigError, match="snapshot_every must be an integer >= 1"):
        config_from_dict(data)
    path = tmp_path / "snapshot_every.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not os.path.exists(data["outputs"]["diagnostics_csv"])


@pytest.mark.parametrize(
    "samples",
    [
        {"sample_dt": 0.1, "sample_times": None},    # 0.3 would pass t_end = 0.26
        {"sample_times": [0.0, 0.1, 0.3]},           # past t_end
        {"sample_times": [0.0, 0.2, 0.1]},           # not increasing
    ],
    ids=["dt_rounding", "past_t_end", "not_increasing"],
)
def test_main_sample_times(tmp_path, samples):
    data = config_to_dict(base_config(tmp_path))
    data["integrator"]["t_end"] = 0.26
    data["m"] = 16
    data.update(samples)
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(data))
    if "sample_dt" in samples:
        # the samples stop at the last one not past t_end
        assert main(["run", str(path)]) == EXIT_OK
        t = read_diagnostics_csv(data["outputs"]["diagnostics_csv"])["t"]
        assert t.tolist() == [0.0, 0.1, 0.2]
    else:
        assert main(["run", str(path)]) == EXIT_CONFIG
        assert not os.path.exists(data["outputs"]["diagnostics_csv"])


@pytest.mark.parametrize("name", ["f1", "f2"])
def test_main_preset_dump(tmp_path, name):
    out = tmp_path / f"{name}.csv"
    assert main(["preset-dump", name, "--m", "64", "--out", str(out)]) == EXIT_OK
    obj = sc.read_snapshot(out)
    assert isinstance(obj, sc.GraphInterface)
    assert np.array_equal(obj.h, getattr(sc, f"preset_{name}")(64))


def test_python_dash_m_runs_the_command(tmp_path):
    src = os.path.dirname(os.path.dirname(sc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-m", "stokescontour", "preset-dump", "f2", "--m", "8"],
                          env=env, cwd=tmp_path, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    assert sc.read_snapshot(tmp_path / "f2_m8.csv").m == 8


@pytest.mark.parametrize("m", [7, 10])
def test_main_preset_dump_rejects_bad_m(tmp_path, m):
    # the grid rule of RunConfig: a multiple of 4, >= 8
    out = tmp_path / "f1.csv"
    assert main(["preset-dump", "f1", "--m", str(m), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


def test_run_unwritable_output_is_config_error(tmp_path):
    cfg = base_config(
        tmp_path,
        outputs=OutputSpec(diagnostics_csv=str(tmp_path / "no" / "such" / "dir" / "d.csv")),
    )
    assert sc.run(cfg) == EXIT_CONFIG


# --- paths, unwritable outputs and the branches of build_initial and verify ---


@pytest.mark.parametrize("field, value", [
    ("outputs.diagnostics_csv", 7), ("outputs.diagnostics_csv", ""),
    ("outputs.snapshots_dir", 3), ("outputs.snapshots_dir", ["a"]), ("outputs.snapshots_dir", ""),
    ("initial.path", 9), ("initial.path", True),
], ids=str)
@pytest.mark.parametrize("verb", ["run", "verify"])
def test_main_rejects_a_path_that_is_not_a_string(tmp_path, capsys, monkeypatch, verb, field,
                                                  value):
    # open() takes an int as a file descriptor (True as fd 1, stdout) and
    # os.makedirs fails on it with a TypeError; either is a config error
    # naming the field, before anything is opened
    data = config_to_dict(base_config(tmp_path))
    if field == "initial.path":
        data["initial"] = {"kind": "snapshot_file", "path": value}
    section, key = field.split(".")
    data[section][key] = value
    path = tmp_path / "paths.json"
    path.write_text(json.dumps(data))
    opened = []
    real_open = open

    def spy(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    assert main([verb, str(path)]) == EXIT_CONFIG
    assert f"{field} must be a non-empty path string" in capsys.readouterr().err
    assert opened == [str(path)]


@pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
def test_main_preset_dump_unwritable_output_is_config_error(tmp_path, capsys, where):
    out = tmp_path / "no" / "x.csv" if where == "missing_dir" else tmp_path
    assert main(["preset-dump", "f1", "--m", "16", "--out", str(out)]) == EXIT_CONFIG
    assert f"config error: cannot write {out}" in capsys.readouterr().err


def test_run_curve_snapshot_under_the_graph_formulation_is_config_error(tmp_path, capsys):
    snap = tmp_path / "curve.csv"
    sc.write_snapshot(snap, sc.build_turning_family(sc.TurningFamilyParams(b=2.0), 64))
    cfg = base_config(tmp_path, initial=InitialSpec(kind="snapshot_file", path=str(snap)))
    assert sc.run(cfg) == EXIT_CONFIG
    assert "curve snapshot requires the curve formulation" in capsys.readouterr().err


def test_graph_preset_under_the_curve_formulation_runs_from_the_graph_state(tmp_path):
    # the lift of the preset: its t = 0 record is the graph run's, but for
    # the graph-only columns
    rows = {}
    for formulation in ("graph", "curve"):
        cfg = base_config(
            tmp_path, initial=InitialSpec(kind="preset_f2"), formulation=formulation,
            integrator=sc.IntegratorParams(t_end=0.02, dt_max=0.01),
            sample_times=[0.0, 0.01, 0.02],
            outputs=OutputSpec(diagnostics_csv=str(tmp_path / f"{formulation}.csv")))
        assert sc.run(cfg) == EXIT_OK
        assert sc.verify(cfg)[0] == EXIT_OK
        rows[formulation] = read_diagnostics_csv(cfg.outputs.diagnostics_csv)
    for column in ("t", "E", "L", "Kmax", "Mheight", "mheight", "csym", "esym"):
        assert rows["curve"][column][0] == rows["graph"][column][0], column


@pytest.mark.parametrize("outputs, message", [
    (None, "verify: cannot load outputs"), ([0.0, 0.05], "verify: need at least 3 samples")],
    ids=["missing_csv", "two_samples"])
def test_verify_without_enough_outputs_is_config_error(tmp_path, capsys, outputs, message):
    cfg = base_config(tmp_path, sample_times=outputs or [0.0, 0.025, 0.05])
    if outputs:
        assert sc.run(cfg) == EXIT_OK
    assert sc.verify(cfg) == (EXIT_CONFIG, {})
    assert message in capsys.readouterr().err


def test_main_invalid_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"m": 64,')
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert f"config error: invalid JSON in {path}" in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    (lambda data: data["initial"].update(kind="bogus"), "unknown initial kind 'bogus'"),
    (lambda data: data["initial"].pop("turning"),
     "turning_family initial data needs parameters"),
    (lambda data: data.update(schema_version=2), "unsupported schema_version 2"),
], ids=["unknown_initial_kind", "turning_family_without_parameters", "schema_version_2"])
def test_main_rejects_an_unsupported_config(tmp_path, capsys, change, message):
    data = turning_config_dict(tmp_path)
    change(data)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:node clustering:RuntimeWarning")
def test_curve_run_restarts_from_its_last_snapshot(tmp_path):
    # the snapshot holds 17 significant digits and the run projects the read
    # curve onto the symmetries it carries, so the restart's first record is
    # the source run's last
    times = [0.0, 0.005, 0.01]
    source = base_config(
        tmp_path,
        initial=InitialSpec(kind="turning_family", turning=sc.TurningFamilyParams(b=16.9)),
        formulation="curve", m=256, sign_factor=1.0 / (8 * np.pi),
        integrator=sc.IntegratorParams(t_end=0.01, dt_max=0.005), sample_times=times,
        outputs=OutputSpec(diagnostics_csv=str(tmp_path / "source.csv"),
                           snapshots_dir=str(tmp_path / "snaps"), snapshot_every=1))
    assert sc.run(source) == EXIT_OK
    last = sorted((tmp_path / "snaps").glob("snapshot_*.csv"))[-1]
    restart = base_config(
        tmp_path, initial=InitialSpec(kind="snapshot_file", path=str(last)),
        formulation="curve", m=256, sign_factor=source.sign_factor,
        integrator=source.integrator, sample_times=times,
        outputs=OutputSpec(diagnostics_csv=str(tmp_path / "restart.csv")))
    assert sc.run(restart) == EXIT_OK
    code, report = sc.verify(restart)
    assert code == EXIT_OK and report["central_symmetry"]["pass"]
    before = read_diagnostics_csv(source.outputs.diagnostics_csv)
    after = read_diagnostics_csv(restart.outputs.diagnostics_csv)
    for column in ("E", "L", "Kmax", "Mheight", "mheight", "csym"):
        assert abs(after[column][0] - before[column][-1]) <= 1e-14 * abs(before[column][-1]), column
