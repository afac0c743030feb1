"""One workload run in a fresh interpreter; ``run.py`` starts it and reads its stdout.

Prints two JSON lines: ``{"expected_checks": n}`` once the inputs are built,
then the run record.  ``setup_s`` is measured from ``--spawned-at``, the
parent's ``time.monotonic()`` just before it started this process, so it
includes interpreter start and imports.  With ``--trace`` the tracer is
installed before the inputs are built and the spans go to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def machine(seed: int) -> dict:
    """Versions and thread settings this run used."""
    import numpy
    import scipy

    def blas(module):
        deps = getattr(module, "__config__").CONFIG.get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "library_threads": 1,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import opgrowth

    if not os.path.abspath(opgrowth.__file__).startswith(src + os.sep):
        raise RuntimeError(f"imported opgrowth from {opgrowth.__file__}, not {src}")
    from tracer import Tracer
    from workloads import WORKLOADS, Checks

    cls = WORKLOADS[args.workload]
    tracer = Tracer(cls.item_markers) if args.trace else None
    record: dict = {"workload": args.workload, "seed": args.seed, "size": args.size,
                    "traced": args.trace, "error": None}
    workload = cls(args.seed, args.size, args.work_dir)
    with tracer.installed() if tracer else contextlib.nullcontext():
        workload.setup()
        print(json.dumps({"expected_checks": workload.expected_checks}), flush=True)
        start = time.monotonic()
        record["setup_s"] = start - args.spawned_at
        if not args.setup_only:
            try:
                workload.run(tracer)
            except Exception as exc:    # a crash fails every check still left
                traceback.print_exc()
                record["error"] = repr(exc)
            record["wall_s"] = time.monotonic() - start
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.setup_only:
        checks = Checks()
        try:
            workload.check(checks)
        except Exception as exc:
            traceback.print_exc()
            record["error"] = record["error"] or repr(exc)
        attempted = max(checks.attempted, workload.expected_checks)
        record["attempted"] = attempted
        record["failed"] = checks.failed + (attempted - checks.attempted)
        record["failures"] = checks.failures
    record["machine"] = machine(args.seed)
    if tracer is not None:
        record["metrics"] = tracer.metrics()
        record["absent"] = tracer.absent
        record["hook_errors"] = tracer.hook_errors
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.spans_json(), fh)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
