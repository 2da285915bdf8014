"""Dump the outputs of the three pair sums on fixed inputs, and compare two dumps.

Usage:
    python tools/compare_outputs.py dump <file.npz> [--src <dir>]
    python tools/compare_outputs.py compare <a.npz> <b.npz>

``dump`` imports stokescontour from ``--src`` (default: the src directory
of the checkout holding this tool), so that two checkouts can be dumped by
one copy of the tool, and evaluates deterministic inputs:

- the graph right-hand side for the three quadrature/cell pairs, on f1 and
  f2 projected onto their symmetries (the quarter sum) and on them rolled
  by one node (the full sum), at m in GRAPH_GRIDS;
- delta on the same heights;
- the curve right-hand side on the basic turning family (b = 16.9) and the
  even one (b = 10.4), raw (the full path) and projected (the central and
  quarter paths), at m in CURVE_GRIDS.

``compare`` prints, for each output, "bitwise" or max |a - b| / max |a|,
and exits 1 if an output passes BOUND (1e-12) or the two dumps hold
different outputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

GRAPH_GRIDS = (8, 12, 200, 204, 512)
CURVE_GRIDS = (256, 1024)
QUADRATURES = (("spectral_log", "halfangle"), ("taylor_cell", "halfangle"),
               ("taylor_cell", "printed"))
FAMILIES = (("basic", 16.9), ("even_symmetric", 10.4))
BOUND = 1e-12


def outputs():
    """The outputs by name, from the stokescontour on sys.path."""
    import stokescontour as sc
    from stokescontour.evolution_curve import _rhs_curve_arrays
    from stokescontour.geometry import symmetry_projection

    out = {}
    for m in GRAPH_GRIDS:
        for name, preset in (("f1", sc.preset_f1), ("f2", sc.preset_f2)):
            h = preset(m)
            h = symmetry_projection(sc.graph_to_curve(sc.GraphInterface(h=h)))(None, h)[1]
            for path, heights in (("quarter", h), ("full", np.roll(h, 1))):
                interface = sc.GraphInterface(h=heights)
                key = f"{name}-{path}-m{m}"
                for quadrature, cell in QUADRATURES:
                    params = sc.SchemeParams(sign_factor=-1.0, viscosity=1e-3, m=m,
                                             quadrature=quadrature, singular_cell_variant=cell)
                    out[f"graph-{quadrature}-{cell}-{key}"] = sc.rhs_graph(
                        sc.GraphState(0.0, interface), params)
                out[f"delta-{key}"] = np.array(sc.delta_spectral(interface))
    for m in CURVE_GRIDS:
        for variant, b in FAMILIES:
            c = sc.build_turning_family(sc.TurningFamilyParams(b=b, variant=variant), m)
            raw = (c.z1 - c.alpha, c.z2)
            for path, (p, z2) in (("raw", raw), ("projected", symmetry_projection(c)(*raw))):
                out[f"curve-{variant}-{path}-m{m}"] = np.array(
                    _rhs_curve_arrays(p, z2, c.alpha, 1.0))
    return out


def compare(a: dict, b: dict) -> int:
    """Print each output's difference; 1 if one passes BOUND or the names differ."""
    failed = False
    for key in sorted(a.keys() ^ b.keys()):
        print(f"{key}  only in {'the first' if key in a else 'the second'} dump")
        failed = True
    for key in sorted(a.keys() & b.keys()):
        x, y = a[key], b[key]
        if x.shape != y.shape:
            print(f"{key}  shapes {x.shape} and {y.shape}  FAIL")
            failed = True
        elif np.array_equal(x.view(np.uint64), y.view(np.uint64)):
            print(f"{key}  bitwise")
        else:
            rel = np.max(np.abs(x - y)) / np.max(np.abs(x))
            bad = not rel <= BOUND
            failed |= bad
            print(f"{key}  {rel:.2e}" + ("  FAIL" if bad else ""))
    return int(failed)


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    verbs = parser.add_subparsers(dest="verb", required=True)
    dump = verbs.add_parser("dump")
    dump.add_argument("file")
    dump.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"))
    both = verbs.add_parser("compare")
    both.add_argument("a")
    both.add_argument("b")
    args = parser.parse_args(argv)
    if args.verb == "dump":
        sys.path.insert(0, args.src)
        np.savez(args.file, **outputs())
        return 0
    with np.load(args.a) as a, np.load(args.b) as b:
        return compare(dict(a), dict(b))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
