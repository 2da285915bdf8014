"""Layer tracing from outside the program, and the layer size sweep.

``Tracer`` replaces module-level functions at the boundaries the drivers
call with wrappers that count calls, accumulate inclusive and self time
(inclusive minus the time of traced calls nested inside) and the work each
call does, then restores the originals. A boundary whose module attribute no
longer exists is listed as missing and skipped, so a refactor that removes
it leaves the run working.
"""

from __future__ import annotations

import importlib
import resource
import statistics
import time
import warnings

import numpy as np

# (layer, module, attribute, work per call as a function of the arguments)
BOUNDARIES = [
    ("graph_rhs", "stokescontour.evolution_graph", "_rhs_arrays",
     lambda a, k: a[0].size * (a[0].size - 1)),
    ("curve_rhs", "stokescontour.evolution_curve", "_rhs_curve_arrays",
     lambda a, k: a[0].size * (a[0].size - 1)),
    ("delta", "stokescontour.diagnostics", "delta_spectral", None),
    ("pair_kernel", "stokescontour.diagnostics", "bilaplacian_pair_kernel_exact",
     lambda a, k: np.size(a[0])),
    ("record", "stokescontour.evolution_graph", "record_for_graph", None),
    ("record", "stokescontour.evolution_curve", "record_for_curve", None),
    ("curve_check", "stokescontour.geometry", "_check_no_self_intersection", None),
    ("advance", "stokescontour.evolution_graph", "advance", None),
    ("advance", "stokescontour.evolution_curve", "advance", None),
    ("trial_step", "stokescontour.integrators", "dopri_step", None),
    ("certificate", "stokescontour.turning", "turning_integral", None),
    ("certificate", "stokescontour.turning", "turning_integral_even", None),
    ("output", "stokescontour.cli", "write_snapshot", None),
    ("output", "stokescontour.cli", "DiagnosticsWriter.write", None),
    ("verify", "stokescontour.cli", "verify", None),
]


class _Layer:
    __slots__ = ("calls", "total", "self_s", "work")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.work = 0


class Tracer:
    """Install with ``with tracer:``; read ``tracer.layers`` afterwards."""

    def __init__(self):
        self.layers = {}
        self.missing = []
        self._saved = []
        self._stack = []  # child time accumulated by each open span

    def _wrap(self, layer_name, fn, work):
        layer = self.layers.setdefault(layer_name, _Layer())
        stack = self._stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                layer.calls += 1
                layer.total += dt
                layer.self_s += dt - child
                if work is not None:
                    layer.work += work(args, kwargs)

        return traced

    def __enter__(self):
        for layer_name, modname, attr, work in BOUNDARIES:
            try:
                owner = importlib.import_module(modname)
            except ImportError:
                owner = None
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
                continue
            self._saved.append((owner, name, fn))
            setattr(owner, name, self._wrap(layer_name, fn, work))
        return self

    def __exit__(self, *exc):
        for owner, name, fn in reversed(self._saved):
            setattr(owner, name, fn)
        self._saved.clear()
        return False


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced round (see the README's table)."""
    L = tracer.layers
    get = lambda name: L.get(name, _Layer())

    def per_call_ms(layer):
        return 1e3 * layer.total / layer.calls if layer.calls else 0.0

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    out = {}
    for prefix, name in (("evolution_graph", "graph_rhs"), ("evolution_curve", "curve_rhs")):
        layer = get(name)
        out[f"{prefix}.rhs_calls"] = layer.calls
        out[f"{prefix}.rhs_s"] = layer.total
        out[f"{prefix}.rhs_ms_per_call"] = per_call_ms(layer)
        out[f"{prefix}.pairs_per_s"] = rate(layer.work, layer.total)
    delta, kernel = get("delta"), get("pair_kernel")
    out["diagnostics.delta_calls"] = delta.calls
    out["diagnostics.delta_s"] = delta.total
    out["diagnostics.delta_ms_per_call"] = per_call_ms(delta)
    out["kernels.pair_kernel_s"] = kernel.total
    out["kernels.pair_kernel_points_per_s"] = rate(kernel.work, kernel.total)
    out["diagnostics.record_self_s"] = get("record").self_s
    out["geometry.curve_checks"] = get("curve_check").calls
    out["geometry.curve_check_s"] = get("curve_check").total
    advance, trial = get("advance"), get("trial_step")
    rhs_calls = get("graph_rhs").calls + get("curve_rhs").calls
    out["integrators.accepted_steps"] = advance.calls
    out["integrators.rejected_steps"] = trial.calls - advance.calls
    out["integrators.rhs_per_step"] = rhs_calls / advance.calls if advance.calls else 0.0
    out["integrators.self_s"] = advance.self_s + trial.self_s
    out["turning.certificate_evals"] = get("certificate").calls
    out["turning.certificate_s"] = get("certificate").total
    out["cli.output_s"] = get("output").total
    out["cli.verify_s"] = get("verify").total
    return out


# ---------------------------------------------------------------------------
# layer size sweep

SWEEP_SIZES = (256, 512, 1024, 2048)
SWEEP_REPEATS = 3
SWEEP_TURNING_B = 16.0  # about 2 b*, as in the curve runs of curve-turning


def _median_ms(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def sweep() -> dict:
    """Time each layer's function standalone on the workloads' initial data.

    Graph RHS on f2 (spectral) and f1 (panel), ``delta_spectral`` on f2,
    and the curve RHS and ``ParamCurve`` construction on the basic turning
    family at b = ``SWEEP_TURNING_B``. ``delta`` runs once at the largest size,
    where a single call takes seconds and most of the memory.
    """
    import stokescontour as sc
    from stokescontour.evolution_curve import CurveState, rhs_curve
    from stokescontour.evolution_graph import rhs_graph

    out = {}
    for m in SWEEP_SIZES:
        f1 = sc.GraphState(0.0, sc.GraphInterface(h=sc.preset_f1(m)))
        f2 = sc.GraphState(0.0, sc.GraphInterface(h=sc.preset_f2(m)))
        spectral = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m)
        panel = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m,
                                quadrature="taylor_cell", singular_cell_variant="printed")
        family = sc.build_turning_family(sc.TurningFamilyParams(b=SWEEP_TURNING_B), m)
        curve_state = CurveState(t=0.0, curve=family, delta_rho=1.0)
        rhs_graph(f2, spectral), rhs_graph(f1, panel)  # fill the lazy caches
        key = f"m{m}"
        out[f"sweep.evolution_graph.spectral_log.ms.{key}"] = _median_ms(
            lambda: rhs_graph(f2, spectral), SWEEP_REPEATS)
        out[f"sweep.evolution_graph.taylor_cell.ms.{key}"] = _median_ms(
            lambda: rhs_graph(f1, panel), SWEEP_REPEATS)
        with warnings.catch_warnings():
            # the family clusters nodes beyond rhs_curve's warning ratio
            warnings.simplefilter("ignore", RuntimeWarning)
            out[f"sweep.evolution_curve.rhs.ms.{key}"] = _median_ms(
                lambda: rhs_curve(curve_state), SWEEP_REPEATS)
        out[f"sweep.geometry.param_curve.ms.{key}"] = _median_ms(
            lambda: sc.ParamCurve(z1=family.z1, z2=family.z2), SWEEP_REPEATS)
        out[f"sweep.diagnostics.delta_spectral.ms.{key}"] = _median_ms(
            lambda: sc.delta_spectral(f2.interface),
            1 if m == SWEEP_SIZES[-1] else SWEEP_REPEATS)
        # computed from m, not measured
        out[f"computed.rhs_pairs_per_call.{key}"] = m * (m - 1)
        out[f"computed.delta_kernel_points_per_call.{key}"] = m * m
        out[f"computed.delta_complex_temp_bytes.{key}"] = 16 * m * m
    out["sweep.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out
