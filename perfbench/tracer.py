"""Timing spans around the public functions of each opgrowth layer, from outside.

The tracer replaces every attribute of an ``opgrowth`` module that binds one
of the ``TARGETS`` functions with a wrapper that records a span (name, start,
end, parent span, item id) and, for a few functions, counts taken from the
arguments and return value.  Nothing under ``src/`` is changed: the wrappers
are installed only inside ``Tracer.installed()`` and every original
attribute is put back on exit, also after an exception.  A target that the
package no longer defines is skipped and reported as absent.

Spans stay in memory; ``metrics()`` turns them into per-layer counts and self
times and ``spans_json()`` gives them in a form the run writes to disk.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "simulate", "lattice", "operators", "states", "bounds", "causal", "ssb")

# (layer, metric name, defining module, attribute path on that module).
# ``expm_multiply`` is scipy's; it is wrapped where opgrowth modules bind it.
TARGETS = (
    ("cli", "main", "opgrowth.cli", "main"),
    ("simulate", "plan", "opgrowth.simulate", "plan"),
    ("simulate", "simulate_expectation", "opgrowth.simulate", "simulate_expectation"),
    ("simulate", "raw_cluster_expectation", "opgrowth.simulate", "raw_cluster_expectation"),
    ("simulate", "cluster_correction", "opgrowth.simulate", "cluster_correction"),
    ("lattice", "enumerate_connected_subsets", "opgrowth.lattice", "enumerate_connected_subsets"),
    ("lattice", "factor_distance", "opgrowth.lattice", "factor_distance"),
    ("lattice", "ball_and_boundary", "opgrowth.lattice", "ball_and_boundary"),
    ("lattice", "boundary_size", "opgrowth.lattice", "boundary_size"),
    ("lattice", "tile_boxes", "opgrowth.lattice", "tile_boxes"),
    ("lattice", "build_square_lattice", "opgrowth.lattice", "build_square_lattice"),
    ("lattice", "build_rectangular_lattice", "opgrowth.lattice", "build_rectangular_lattice"),
    ("operators", "hamiltonian_matrix", "opgrowth.operators", "hamiltonian_matrix"),
    ("operators", "expm_multiply", "opgrowth.operators", "expm_multiply"),
    ("operators", "evolution_unitary", "opgrowth.operators", "evolution_unitary"),
    ("operators", "heisenberg_evolve", "opgrowth.operators", "heisenberg_evolve"),
    ("operators", "nested_commutator_norm", "opgrowth.operators", "nested_commutator_norm"),
    ("operators", "operator_norm", "opgrowth.operators", "operator_norm"),
    ("operators", "embed", "opgrowth.operators", "embed"),
    ("operators", "exact_expectation", "opgrowth.operators", "exact_expectation"),
    ("operators", "build_named_hamiltonian", "opgrowth.operators", "build_named_hamiltonian"),
    ("operators", "pauli_operator", "opgrowth.operators", "pauli_operator"),
    ("states", "state_vector", "opgrowth.states", "ProductState.state_vector"),
    ("bounds", "path_sum_bound", "opgrowth.bounds", "path_sum_bound"),
    ("bounds", "combinatorial_bound", "opgrowth.bounds", "combinatorial_bound"),
    ("causal", "enumerate_irreducible_paths", "opgrowth.causal", "enumerate_irreducible_paths"),
    ("ssb", "symmetric_unitary", "opgrowth.ssb", "symmetric_unitary"),
    ("ssb", "nested_identity_check", "opgrowth.ssb", "nested_identity_check"),
    ("ssb", "ghz_splitting", "opgrowth.ssb", "ghz_splitting"),
    ("ssb", "parity_sectors", "opgrowth.ssb", "parity_sectors"),
    ("ssb", "rk_disorder_parameter", "opgrowth.ssb", "rk_disorder_parameter"),
)

# Counters read at a function boundary, with their units.
COUNTERS = {
    "cli.bytes_written": "bytes",
    "simulate.assemblies_per_cluster": "ratio",
    "simulate.max_cluster_qubits": "qubits",
    "lattice.clusters_enumerated": "count",
    "operators.hamiltonian_matrix.nnz": "count",
    "operators.hamiltonian_matrix.max_qubits": "qubits",
    "operators.eigh_max_dim": "dim",
    "operators.operator_norm.power_calls": "count",
    "causal.paths": "count",
}

# Counters that repeat exactly between runs of the same workload and seed.
# Not ``cli.bytes_written``: manifest.json records the wall time, so its
# length can differ by a byte or two.
DETERMINISTIC_SUFFIXES = (".calls", ".nnz", ".max_qubits", ".paths", ".assemblies_per_cluster",
                          ".clusters_enumerated", ".max_cluster_qubits", ".eigh_max_dim",
                          ".power_calls", "trace.spans", "trace.absent")

DENSE_NORM_DIM_FALLBACK = 1 << 10


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit, in a fixed order."""
    out = []
    for layer, name, _, _ in TARGETS:
        out.append((f"{layer}.{name}.calls", "count"))
        out.append((f"{layer}.{name}.self_s", "s"))
    out.extend(COUNTERS.items())
    out.extend((f"{layer}.self_s", "s") for layer in LAYERS)
    out.extend([("trace.overhead_s", "s"), ("trace.spans", "count"), ("trace.absent", "count")])
    return out


def opgrowth_modules() -> list:
    """The loaded ``opgrowth`` package and its submodules."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "opgrowth" or name.startswith("opgrowth."))]


class Tracer:
    """Span recorder installed on opgrowth's module attributes for one run.

    ``item_markers`` maps a metric name such as ``"simulate.plan"`` to the
    argument whose value starts a new workload item (one t-point) when that
    function is called; workloads that drive items themselves use ``item()``.
    """

    def __init__(self, item_markers: dict[str, str] | None = None):
        self.item_markers = dict(item_markers or {})
        self.spans: list[list] = []      # [key, start, end, parent index, item, failed]
        self.counters: dict[str, float] = {}
        self.absent: list[str] = []
        self.hook_errors: dict[str, int] = {}
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------ install

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    def _install(self):
        importlib.import_module("opgrowth")
        importlib.import_module("opgrowth.cli")
        modules = opgrowth_modules()
        for layer, name, home, path in TARGETS:
            key = f"{layer}.{name}"
            owner, attr, original = _lookup(home, path)
            if original is None:
                self.absent.append(key)
                continue
            wrapper = self._wrap(key, original)
            if owner is not None:       # a method on a class
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for mod_attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, mod_attr, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------ spans

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def item(self, label: str):
        """Attribute the spans opened inside the block to one workload item."""
        previous = getattr(self._local, "item", None)
        self._local.item = label
        try:
            yield
        finally:
            self._local.item = previous

    def inside(self, key: str) -> bool:
        """Whether a span named ``key`` is open on this thread."""
        return any(self.spans[i][0] == key for i in self._stack())

    def _wrap(self, key: str, fn):
        hook = _HOOKS.get(key)
        marker = self.item_markers.get(key)
        signature = inspect.signature(fn) if (hook or marker) else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if marker is not None:
                    tracer._local.item = f"{marker}={bound.arguments[marker]}"
            stack = tracer._stack()
            span = [key, time.perf_counter(), None, stack[-1] if stack else -1,
                    getattr(tracer._local, "item", None), False]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    hook(tracer, bound.arguments, result)
                except (AttributeError, KeyError, TypeError, IndexError):
                    tracer.hook_errors[key] = tracer.hook_errors.get(key, 0) + 1
            return result

        return wrapper

    def add(self, name: str, value: float):
        self.counters[name] = self.counters.get(name, 0) + value

    def max(self, name: str, value: float):
        self.counters[name] = max(self.counters.get(name, 0), value)

    # ------------------------------------------------------------ results

    def metrics(self) -> dict[str, float]:
        """Per-function calls and self time, counters and per-layer roll-ups.

        Every name of ``metric_names()`` except ``trace.overhead_s``, which
        needs an untraced run to compare with.
        """
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for (key, start, end, _, _, _), covered in zip(self.spans, child_s):
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + (end - start - covered)
        values: dict[str, float] = {}
        for layer, name, _, _ in TARGETS:
            key = f"{layer}.{name}"
            values[f"{key}.calls"] = calls.get(key, 0)
            values[f"{key}.self_s"] = self_s.get(key, 0.0)
        for name in COUNTERS:
            values[name] = self.counters.get(name, 0)
        raw_calls = calls.get("simulate.raw_cluster_expectation", 0)
        values["simulate.assemblies_per_cluster"] = (
            self.counters.get("_sim_sparse_assemblies", 0) / raw_calls if raw_calls else 0.0)
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                s for key, s in self_s.items() if key.split(".")[0] == layer)
        values["trace.spans"] = len(self.spans)
        values["trace.absent"] = len(self.absent)
        return values

    def spans_json(self) -> dict:
        return {
            "fields": ["name", "start_s", "end_s", "parent", "item", "failed"],
            "spans": self.spans,
            "absent": self.absent,
            "hook_errors": self.hook_errors,
        }


def _lookup(home: str, path: str):
    """(owning class or None, attribute, original object or None) for a target."""
    try:
        obj = importlib.import_module(home)
    except ImportError:
        return None, None, None
    parts = path.split(".")
    owner = None
    for part in parts[:-1]:
        owner = getattr(obj, part, None)
        if owner is None:
            return None, None, None
        obj = owner
    original = vars(obj).get(parts[-1]) if owner is not None else getattr(obj, parts[-1], None)
    if original is None or not callable(original):
        return None, None, None
    return owner, parts[-1], original


# ---------------------------------------------------------------- count hooks

def _hamiltonian_matrix(tracer: Tracer, args: dict, result):
    sparse = bool(args.get("sparse"))
    nnz = result.nnz if sparse else int(np.count_nonzero(result))
    tracer.add("operators.hamiltonian_matrix.nnz", nnz)
    tracer.max("operators.hamiltonian_matrix.max_qubits", len(args["region"]))
    if sparse and tracer.inside("simulate.simulate_expectation"):
        tracer.add("_sim_sparse_assemblies", 1)


def _raw_cluster_expectation(tracer: Tracer, args: dict, result):
    tiling = args["tiling"]
    qubits = sum(len(tiling.box_vertices[b]) for b in args["cluster"])
    tracer.max("simulate.max_cluster_qubits", qubits)


def _enumerate_connected_subsets(tracer: Tracer, args: dict, result):
    tracer.add("lattice.clusters_enumerated", len(result))


def _evolution_unitary(tracer: Tracer, args: dict, result):
    tracer.max("operators.eigh_max_dim", result.shape[0])


def _operator_norm(tracer: Tracer, args: dict, result):
    op = args["op"]
    mat = getattr(op, "matrix", op)
    limit = getattr(sys.modules.get("opgrowth.operators"), "DENSE_NORM_DIM",
                    DENSE_NORM_DIM_FALLBACK)
    if np.shape(mat)[0] > limit:
        tracer.add("operators.operator_norm.power_calls", 1)


def _enumerate_irreducible_paths(tracer: Tracer, args: dict, result):
    tracer.add("causal.paths", len(result))


def _cli_main(tracer: Tracer, args: dict, result):
    argv = list(args["argv"] or [])
    out_dir = argv[argv.index("--out") + 1] if "--out" in argv else "."
    total = 0
    for root, _, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    tracer.add("cli.bytes_written", total)


_HOOKS = {
    "cli.main": _cli_main,
    "operators.hamiltonian_matrix": _hamiltonian_matrix,
    "simulate.raw_cluster_expectation": _raw_cluster_expectation,
    "lattice.enumerate_connected_subsets": _enumerate_connected_subsets,
    "operators.evolution_unitary": _evolution_unitary,
    "operators.operator_norm": _operator_norm,
    "causal.enumerate_irreducible_paths": _enumerate_irreducible_paths,
}
