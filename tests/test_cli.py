import json
import os

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


def test_preset_f1_values_and_readings():
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
    # the literally printed third branch jumps instead of descending
    hp = sc.preset_f1(m, reading="printed")
    assert np.allclose(hp[descending], -al[descending] - np.pi)
    assert not np.allclose(h, hp)


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


def test_run_deterministic_outputs(tmp_path):
    cfg1 = base_config(tmp_path, outputs=OutputSpec(diagnostics_csv=str(tmp_path / "a.csv")))
    cfg2 = base_config(tmp_path, outputs=OutputSpec(diagnostics_csv=str(tmp_path / "b.csv")))
    assert sc.run(cfg1) == EXIT_OK
    assert sc.run(cfg2) == EXIT_OK
    assert open(tmp_path / "a.csv", "rb").read() == open(tmp_path / "b.csv", "rb").read()


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
    ],
    ids=["mu_zero", "mu_negative", "wiener_s_negative", "wiener_nu_negative",
         "wiener_nu_overflow"],
)
def test_main_rejects_bad_diagnostics_options(tmp_path, option, value):
    data = config_to_dict(base_config(tmp_path))  # m = 64
    data["diagnostics"][option] = value
    path = tmp_path / "diag_options.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == EXIT_CONFIG
    assert not os.path.exists(data["outputs"]["diagnostics_csv"])


def test_legacy_deterministic_key_still_loads(tmp_path):
    cfg = base_config(tmp_path)
    data = config_to_dict(cfg)
    data["deterministic"] = True
    data["diagnostics"]["delta_n_max"] = 0  # retired; dumped v1 configs carry it
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(data))
    assert load_config(path) == cfg


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


def test_main_preset_dump(tmp_path):
    out = tmp_path / "f2.csv"
    assert main(["preset-dump", "f2", "--m", "64", "--out", str(out)]) == EXIT_OK
    obj = sc.read_snapshot(out)
    assert isinstance(obj, sc.GraphInterface)
    assert obj.m == 64


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
