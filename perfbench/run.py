"""stokescontour benchmark: end-to-end metrics, or a traced per-layer run.

    python3 perfbench/run.py --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src`` directory. A run repeats whole rounds of its workload until
``--seconds`` have passed and prints one JSON object as its last line:
``correct``, ``attempted``, ``failed`` and ``metrics``. Untraced runs
report the end-to-end metrics, traced runs the per-layer ones. The inputs
are deterministic presets; ``--seed`` is accepted and recorded but changes
nothing. See README.md in this directory for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_REPEATS = 5

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _cap_blas_threads() -> None:
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = nproc


def _import_package():
    """Import ``stokescontour`` from this checkout's ``src``, or return None."""
    sys.path.insert(0, SRC)
    try:
        import stokescontour
    except ImportError as exc:
        print(f"cannot import stokescontour from {SRC}: {exc}", file=sys.stderr)
        return None
    if not os.path.abspath(stokescontour.__file__).startswith(SRC + os.sep):
        print(f"stokescontour imported from {stokescontour.__file__}, not {SRC}",
              file=sys.stderr)
        return None
    return stokescontour


def _setup_seconds(config_paths) -> float:
    """Median set-up time over fresh interpreters (see setup_probe.py)."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, probe, SRC, *config_paths],
            check=True, capture_output=True, text=True, timeout=120,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def _timed_round(workload):
    t0 = time.perf_counter()
    rnd = workload.round()
    return time.perf_counter() - t0, rnd


def _report_round(i, label, seconds, rnd):
    print(f"round {i} {label}: {seconds:.4f} s, attempted {rnd.attempted}, failed {rnd.failed}")
    for err in rnd.errors:
        print(f"  check failed: {err}")


def _totals(rounds):
    attempted = sum(r.attempted for _, r in rounds)
    failed = sum(r.failed for _, r in rounds)
    correct = not any(r.errors for _, r in rounds)
    return correct, attempted, failed


def run_untraced(workload, seconds):
    from workloads import curve_observables

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(_timed_round(workload))
        _report_round(len(rounds), "untraced", *rounds[-1])
    for variant, obs in curve_observables(rounds[0][1]).items():
        print(f"observables {variant}: {json.dumps(obs)}")
    metrics = {
        "run_s": statistics.median(s for s, _ in rounds),
        "setup_s": _setup_seconds(workload.config_paths),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return _totals(rounds), {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}


def run_traced(workload, seconds):
    """Alternate untraced and traced rounds, then sweep the layer sizes."""
    from layers import Tracer, layer_metrics, sweep

    untraced, traced, per_round = [], [], []
    missing = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if len(untraced) <= len(traced):
            untraced.append(_timed_round(workload))
            _report_round(len(untraced) + len(traced), "untraced", *untraced[-1])
            continue
        with Tracer() as tracer:
            traced.append(_timed_round(workload))
        missing = tracer.missing
        per_round.append(layer_metrics(tracer))
        _report_round(len(untraced) + len(traced), "traced", *traced[-1])
    for name in missing:
        print(f"trace boundary missing: {name}")

    metrics = {}
    for key in per_round[0]:
        values = [r[key] for r in per_round]
        if len(set(values)) > 1 and isinstance(values[0], int):
            print(f"count {key} differs between traced rounds: {values}")
        metrics[key] = statistics.median(values)
    metrics["trace.overhead_s"] = (statistics.median(s for s, _ in traced)
                                   - statistics.median(s for s, _ in untraced))
    metrics["trace.missing_boundaries"] = len(missing)
    metrics.update(sweep())
    return _totals(untraced + traced), {k: (v, _layer_unit(k)) for k, v in metrics.items()}


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_step"):
        return "calls/step"
    if name.endswith("_bytes") or ".delta_complex_temp_bytes." in name:
        return "bytes"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if "_ms" in name or ".ms." in name:
        return "ms"
    return "count"


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(f"{'workload':<16} {'metric':<58} {'value':>16} unit")
    for name, res in results.items():
        print(f"{name:<16} {'attempted / failed':<58} "
              f"{res['attempted']:>9} / {res['failed']:<4} ops")
        for key, m in res["metrics"].items():
            print(f"{name:<16} {key:<58} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _cap_blas_threads()
    if _import_package() is None:
        return 2
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workload.prepare(workdir)
    print(f"workload {args.workload}, seed {args.seed} (inputs do not depend on it), "
          f"{args.seconds:g} s, trace {args.trace}")

    runner = run_traced if args.trace else run_untraced
    (correct, attempted, failed), metrics = runner(workload, args.seconds)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
