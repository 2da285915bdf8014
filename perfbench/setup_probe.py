"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 setup_probe.py <src dir> <config.json> [<config.json> ...]

Times importing the package (NumPy and SciPy with it), loading each config,
building its initial state and filling the lazy per-grid caches the first
right-hand side evaluation would otherwise fill, and prints the seconds.
"""

import sys
import time


def main(argv):
    t0 = time.perf_counter()
    sys.path.insert(0, argv[1])
    from stokescontour import cli, config, evolution_curve, evolution_graph

    for path in argv[2:]:
        cfg = config.load_config(path)
        cli.build_initial(cfg)
        d = 2.0 * 3.141592653589793 / cfg.m
        # the lazy caches by name; one a later version renamed is skipped
        if cfg.formulation == "curve":
            warm = [("_half_cell_log_integral", evolution_curve, (0.5 * d,))]
        elif cfg.quadrature == "spectral_log":
            warm = [("_log_circulant", evolution_graph, (cfg.m,))]
        else:
            warm = [("_taylor_cell_weights", evolution_graph, (cfg.m,)),
                    ("_log_cell_integral", evolution_graph, (d, cfg.singular_cell_variant))]
        for name, module, args in warm:
            fn = getattr(module, name, None)
            if fn is not None:
                fn(*args)
    print(f"{time.perf_counter() - t0:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
