"""Each benchmark check accepts the program's output and rejects a corrupted copy.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import csv
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from stokescontour import cli, geometry, turning  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _rewrite_csv(path, columns, change):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    for column in columns.split(","):
        j = rows[0].index(column)
        for i, row in enumerate(rows[1:], start=1):
            row[j] = repr(change(i, float(row[j])))
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@pytest.fixture()
def f2_run(tmp_path):
    """A small graph-f2-delta round: f2 at m = 64 with delta on 13 samples."""
    w = workloads.GraphWorkload(
        "small-f2", "preset_f2", 64, 0.12, 13, "spectral_log", "halfangle", True)
    w.prepare(str(tmp_path))
    return w


def _graph_errors(w):
    rnd = w.round()
    return rnd.failed, rnd.errors


def _verify_errors(w):
    code, report = cli.verify(w.config)
    return (checks.check_verify_report(code, report, workloads.GRAPH_INVARIANTS)
            + checks.check_delta_samples(report, workloads.MIN_DELTA_SAMPLES))


def test_graph_round_accepts_program_output(f2_run):
    failed, errors = _graph_errors(f2_run)
    assert failed == 0 and errors == []


@pytest.mark.parametrize(
    "columns, change, rejected_by",
    [
        ("E", lambda i, v: 0.5 * v if i == 7 else v, "energy_monotone"),
        ("csym", lambda i, v: 1e-6 if i == 5 else v, "central_symmetry"),
        ("esym", lambda i, v: 1e-6 if i == 5 else v, "even_symmetry"),
        ("delta", lambda i, v: 1.1 * v, "delta_vs_dEdt"),
        ("delta", lambda i, v: float("nan") if i > 2 else v, "samples, need"),
        ("Mheight,mheight", lambda i, v: 0.0 if i == 3 else v, "perimeter_lower_bound"),
    ],
)
def test_graph_checks_reject_corrupted_csv(f2_run, columns, change, rejected_by):
    f2_run.round()
    _rewrite_csv(f2_run.config.outputs.diagnostics_csv, columns, change)
    assert any(rejected_by in e for e in _verify_errors(f2_run))


def test_graph_check_rejects_skipped_invariant():
    report = {"energy_monotone": {"pass": True}, "central_symmetry": {"pass": True}}
    assert checks.check_verify_report(0, report, workloads.GRAPH_INVARIANTS)
    assert checks.check_verify_report(4, {}, ())


def test_sample_count_rejects_missing_samples():
    assert checks.check_sample_count(13, 13, "x") == []
    assert checks.check_sample_count(12, 13, "x")


def test_bracket_rejects_no_sign_change():
    assert checks.check_bracket(1e-4, -1e-4) == []
    assert checks.check_bracket(1e-4, 1e-5)
    assert checks.check_bracket(-1e-5, -1e-4)


@pytest.fixture(scope="module")
def basic_certificate():
    b, m = 16.46, workloads.CURVE_M
    p = turning.TurningFamilyParams(b=b)
    computed = turning.turning_integral(turning.build_turning_family(p, m))[:2]
    j1, j2, g, pref = checks.basic_family_reference(
        b, turning.BASIC_AMPLITUDE, turning.BASIC_NEGATIVE, p.alpha2)
    tol = checks.certificate_tolerances(m, p.alpha2, g, pref, j1, j2)
    return computed, (j1, j2), tol


def test_certificate_accepts_program_output(basic_certificate):
    assert checks.check_certificate(*basic_certificate) == []


@pytest.mark.parametrize("scale", [(1.1, 1.0), (1.0, 1.01), (1.0, -1.0)])
def test_certificate_rejects_corrupted_values(basic_certificate, scale):
    computed, reference, tol = basic_certificate
    corrupted = [c * s for c, s in zip(computed, scale)]
    assert checks.check_certificate(corrupted, reference, tol)


@pytest.fixture(scope="module")
def turning_run(tmp_path_factory):
    """Stable run of the basic family at 2 b* on a 512 grid, as in a round."""
    tmp = str(tmp_path_factory.mktemp("turning"))
    w = workloads.TurningWorkload()
    w.prepare(tmp)
    b = 2.0 * turning.find_b_threshold(turning.TurningFamilyParams(b=1.0), 1.0, 64.0, m=512)
    cfg = w._curve_config("basic", b, os.path.join(tmp, "basic.json"))
    cfg.m = 512
    assert cli.run(cfg) == 0
    snapdir = cfg.outputs.snapshots_dir
    curves = [geometry.read_snapshot(os.path.join(snapdir, s))
              for s in sorted(os.listdir(snapdir))]
    slopes = np.array([geometry.min_slope_x1(c) for c in curves])
    total = turning.turning_integral(curves[0])[2]
    return slopes, total


def test_turning_dynamics_accepts_program_output(turning_run):
    slopes, total = turning_run
    assert checks.check_turning_dynamics(slopes, total) == []


def test_turning_dynamics_rejects_corrupted_trajectory(turning_run):
    slopes, total = turning_run
    assert checks.check_turning_dynamics(slopes, -total)  # wrong certificate sign
    assert checks.check_turning_dynamics(np.abs(slopes), total)  # never turns
    assert checks.check_turning_dynamics(slopes - 1.0, total)  # starts turned
    assert checks.check_turning_dynamics(slopes[::-1], total)  # runs backwards
    assert checks.check_turning_dynamics(slopes[:1], total)  # too few samples
