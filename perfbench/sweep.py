"""One benchmark sample: a fresh process that runs one CLI sweep.

    python3 perfbench/sweep.py --config CFG --command convergence --out DIR
        [--spans FILE --run-id ID]
    python3 perfbench/sweep.py --env

The package is imported from the ``src`` directory of the checkout this
file sits in, never from an installed copy.  The last line of standard
output is a JSON object: ``setup_s`` (import, ``parse_config`` and
``build_context``), ``run_s`` (the ``cli.main`` call), ``rc`` and
``peak_rss_mb``; with ``--spans`` the sweep runs under the tracer and the
object also holds the per-layer metrics.  ``--env`` instead reports the
numerical environment the sweeps run in.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import superkrylov
    from superkrylov import cli, experiments

    if Path(superkrylov.__file__).resolve().parent != SRC / "superkrylov":
        raise SystemExit(f"imported {superkrylov.__file__}, not the checkout's src")
    return cli, experiments


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, read from the library itself."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return path, int(fn())
    return (libs[0] if libs else None), None


def environment() -> dict:
    _import_package()
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lib, threads = _blas_threads()
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_library": lib,
        "blas_threads": threads,
    }


def sweep(args) -> dict:
    t0 = time.perf_counter()
    cli, experiments = _import_package()
    config = experiments.parse_config(args.config)
    experiments.build_context(config)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer(args.run_id).install()
    argv = [args.command, "--config", args.config, "--out", args.out]
    t1 = time.perf_counter()
    try:
        rc = cli.main(argv)
    finally:
        run_s = time.perf_counter() - t1
        if tracer is not None:
            tracer.restore()
    result = {
        "rc": rc,
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.metrics()
        tracer.write(args.spans)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--env", action="store_true")
    parser.add_argument("--config")
    parser.add_argument("--command")
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="")
    args = parser.parse_args()
    if args.env:
        print(json.dumps(environment()))
        return 0
    result = sweep(args)
    print(json.dumps(result))
    return result["rc"]


if __name__ == "__main__":
    sys.exit(main())
