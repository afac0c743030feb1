"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sim_2d_tgrid --seed 1 --seconds 20 --trace 0

Run from the repository root.  Every workload run is a fresh interpreter
(``child.py``) with library threads at 1 and BLAS threads at min(2, usable
CPUs).  With ``--trace 0`` it repeats untraced runs while another fits in
``--seconds`` and adds set-up-only runs until it has ``SETUP_SAMPLES``
set-up times; it reports medians of ``wall_s``, ``setup_s`` and
``peak_rss_mb``.  With ``--trace 1`` it makes one untraced and one traced
run and reports the per-layer metrics of the traced one, plus
``trace.overhead_s`` (traced minus untraced ``wall_s``).

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
``failed / attempted`` is the run's fail fraction.  The full record, with the
machine description, goes to ``.perfbench_out/``.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("dominance_sweep", "sim_2d_tgrid", "oracle_1d_L18", "ssb_diagnostics")
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0
MAX_BLAS_THREADS = 2


def child_env() -> dict:
    env = dict(os.environ)
    blas = str(min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = blas
    env["OPGROWTH_THREADS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts child runs one at a time, within the run's overall time limit."""

    def __init__(self, args, started: float):
        self.args = args
        self.started = started
        self.env = child_env()
        self.work_dir = os.path.join(OUT_DIR, "work", args.workload)

    def child(self, setup_only: bool = False, trace: bool = False) -> dict:
        spans_out = os.path.join(
            OUT_DIR, f"{self.args.workload}-seed{self.args.seed}-spans.json")
        spawned = time.monotonic()
        cmd = [sys.executable, os.path.join(HERE, "child.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, "--work-dir", self.work_dir,
               "--spawned-at", repr(spawned)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", "--spans-out", spans_out]
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                  timeout=timeout, text=True)
            stdout, code = proc.stdout, proc.returncode
        except subprocess.TimeoutExpired as exc:
            stdout, code = exc.stdout or "", None
            if isinstance(stdout, bytes):
                stdout = stdout.decode(errors="replace")
        return parse_child(stdout, code, setup_only)


def parse_child(stdout: str, code, setup_only: bool) -> dict:
    """The child's record; a child that died counts every expected check as failed."""
    expected, record = 1, None
    for line in stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if isinstance(obj, dict) and "expected_checks" in obj:
            expected = max(1, int(obj["expected_checks"]))
        elif isinstance(obj, dict) and "setup_s" in obj:
            record = obj
    if code == 0 and record is not None:
        return record
    return {"error": f"child exited with code {code}", "setup_s": None,
            "attempted": 0 if setup_only else expected,
            "failed": 0 if setup_only else expected, "crashed": True}


def main(argv=None) -> int:
    started = time.monotonic()
    # SIGTERM unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs each workload at a toy size, for self-tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "opgrowth", "__init__.py")):
        print(f"error: no opgrowth sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    runner = Runner(args, started)

    runs: list[dict] = []
    if args.trace:
        plain = runner.child()
        traced = runner.child(trace=True)
        runs = [plain, traced]
    else:
        while True:
            runs.append(runner.child())
            elapsed = time.monotonic() - started
            if runs[-1].get("crashed") or elapsed * (1 + 1 / len(runs)) > args.seconds:
                break
    setup_runs = []
    if not args.trace:
        while len(runs) + len(setup_runs) < SETUP_SAMPLES:
            setup_runs.append(runner.child(setup_only=True))

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    crashed = any(r.get("crashed") for r in runs + setup_runs)
    metrics: dict = {}
    if not crashed:
        if args.trace:
            values = dict(traced["metrics"])
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            from tracer import metric_names

            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in metric_names()}
        else:
            samples = {
                "wall_s": [r["wall_s"] for r in runs],
                "setup_s": [r["setup_s"] for r in runs + setup_runs],
                "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
            }
            metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                       for name, unit in END_TO_END}
    correct = failed == 0 and not crashed
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "correct": correct,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "machine": next((r["machine"] for r in runs if "machine" in r), None),
        "metrics": metrics, "runs": runs, "setup_runs": setup_runs,
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    for r in runs:
        for failure in r.get("failures") or []:
            print(f"check failed: {failure}", file=sys.stderr)
        if r.get("error"):
            print(f"error: {r['error']}", file=sys.stderr)
        if r.get("absent") or r.get("hook_errors"):
            print(f"trace: absent {r.get('absent')}, count errors {r.get('hook_errors')}",
                  file=sys.stderr)
    if crashed:
        print("error: a workload run did not finish; no result", file=sys.stderr)
        return 1
    print(json.dumps({"machine": record["machine"], "fail_frac": record["fail_frac"]}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
