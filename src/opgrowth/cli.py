"""Batch driver: JSON config in, CSV/JSON artifacts out.

Exit codes: 0 success, 2 for configuration or validity-window problems
(science errors) and for a run that trips a resource cap, 1 for anything
unexpected (engineering errors).  Each command's runner only computes: it
fills a table of result files as it goes, and ``_run`` alone writes them
and the manifest, so a cap trip keeps the finished rows of every command
and marks its manifest truncated.  Result files are deterministic for a
fixed config and seed; wall-clock timings go to the manifest only, so
repeated runs stay byte-identical.  The thread count (``--threads`` or the
config) is validated and recorded in the manifest; it does not change the
computation.  Each fact of a run has one source: the dimension d is the
lattice's, h and the degree are the model's, the anchor box is the box that
holds the observable, and the mode is the plan's.  Each setting has a reader:
``params`` takes only the constants the run's bounds read.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import logging
import math
import os
import sys
import tempfile
import time
import traceback
from collections import Counter

import numpy as np

from . import __version__
from .bounds import (
    BoundParams,
    combinatorial_bound,
    matrix_exp_bound,
    path_sum_bound,
    quasilocal_nested_bound,
    quasilocal_pair_bound,
    truncation_error_bound,
    volume_bound,
)
from .causal import term_vanishing_check
from .errors import CapExceededError, ConfigError, ValidityWindowError
from .lattice import (
    boundary_size,
    build_rectangular_lattice,
    build_square_lattice,
    enumerate_connected_subsets,
    factor_distance,
    is_connected,
    tile_boxes,
)
from .operators import (
    build_named_hamiltonian,
    exact_expectation,
    heisenberg_evolve,
    nested_commutator_norm,
    operator_norm,
    pauli_operator,
    embed,
)
from .simulate import (
    cluster_correction,
    inclusion_exclusion,
    operator_piece,
    plan,
    simulate_expectation,
)
from .ssb import (
    DisorderRegion,
    RKState,
    disorder_bound_compare,
    ghz_splitting,
    nested_identity_check,
    rk_disorder_parameter,
    square_region,
    symmetric_unitary,
)
from .states import ProductState

log = logging.getLogger(__name__)

_MODE_SOURCE = ("is not a setting: the plan's keys set the mode (plan.r and plan.m_star for"
                " desk, plan.epsilon for paper-formula)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="opgrowth", description=__doc__)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--threads", type=int, default=None, help="thread count, recorded only")
    parser.add_argument("--mode", help=argparse.SUPPRESS)  # refused: the plan sets the mode
    args = parser.parse_args(argv)
    try:
        if args.mode is not None:
            raise ConfigError(f"--mode {_MODE_SOURCE}")
        config = _load_config(args.config)
        if args.seed is not None:
            config["seed"] = args.seed
        if args.threads is not None:
            config["threads"] = args.threads
        config["threads"] = _integer(config["threads"], "thread count")
        config["seed"] = _integer(config["seed"], "seed")
        return _run(config, args.out)
    except (ConfigError, ValidityWindowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception:
        traceback.print_exc()
        return 1


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {tuple(COMMANDS)}, got {command!r}")
    if "mode" in config:
        raise ConfigError(f"mode {_MODE_SOURCE}")
    unknown = set(config) - _COMMON_KEYS - COMMANDS[command][1]
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)} for command {command!r}")
    config.setdefault("seed", 0)
    config.setdefault("threads", 1)
    return config


def _integer(value, what: str) -> int:
    """An integer from the config or a flag; a string must spell one."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def _number(value, what: str) -> float:
    """A finite float from the config: an int, a float or a string that spells one.

    JSON's NaN and Infinity, and strings such as "inf", are refused.
    """
    try:
        if isinstance(value, (int, float, str)) and not isinstance(value, bool):
            number = float(value)
            if math.isfinite(number):
                return number
    except (ValueError, OverflowError):
        pass
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def _flag(value, what: str) -> bool:
    """A JSON true or false from the config; a string such as "false" is not one."""
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{what} must be true or false, got {value!r}")


def _run(config: dict, out_dir: str) -> int:
    """Run the config's command; write its result files and the manifest, and return the exit code.

    The runner fills ``files`` as it goes, each name mapped to a CSV's
    (header, rows) or to a text, and returns only its exit code.  When it
    raises ``CapExceededError`` the message goes to stderr, what ``files``
    holds is written, the manifest is marked truncated and the exit code is
    2.  Any other error writes nothing.
    """
    os.makedirs(out_dir, exist_ok=True)
    start = time.time()
    files: dict = {}
    truncated = False
    try:
        exit_code = COMMANDS[config["command"]][0](config, files)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        truncated, exit_code = True, 2
    for name, content in files.items():
        if isinstance(content, tuple):  # a CSV: (header, rows)
            header, rows = content
            content = "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])
        _write_atomic(os.path.join(out_dir, name), content)
    manifest = {
        "command": config["command"],
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": config["seed"],
        "threads": config["threads"],
        "version": __version__,
        "outputs": list(files),
        "truncated": truncated,
        "wall_time_s": round(time.time() - start, 3),
    }
    _write_atomic(os.path.join(out_dir, "manifest.json"),
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return exit_code


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(float(x))  # numpy 2 reprs an np.float64 as "np.float64(...)"
    return str(x)


def _object(value, where: str) -> dict:
    """A copy of the config section ``where``, which must be a JSON object.

    Every section is read through here; callers pass {} for an absent one.
    """
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return dict(value)


def _build_lattice(spec, where: str = "lattice"):
    spec = _object(spec, where)
    _check_keys(spec, {"d", "L", "range", "periodic"}, where)
    return build_square_lattice(
        d=_integer(spec.get("d", 1), "lattice.d"),
        L=_integer(spec.get("L"), "lattice.L"),
        interaction_range=_integer(spec.get("range", 1), "lattice.range"),
        periodic=_flag(spec.get("periodic", False), "lattice.periodic"),
    )


def _check_keys(spec: dict, allowed: set, where: str, required: set = frozenset()) -> None:
    unknown = set(spec) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where!r} section")
    missing = required - set(spec)
    if missing:
        raise ConfigError(f"missing keys {sorted(missing)} in {where!r} section")


def _entries(config: dict, key: str, tag: str, table: dict, what: str):
    """(entry[tag], entry) per object under ``key``, its keys checked against ``table``."""
    entries = config.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ConfigError(f"{key} must be a list of objects")
    for entry in map(dict, entries):
        name = entry.pop(tag, None)
        if name not in table:
            raise ConfigError(f"unknown {what} {name!r}")
        required, optional = table[name][:2]
        _check_keys(entry, required | optional, f"{name} {what}", required)
        yield name, entry


def _build_model(spec, graph, seed: int):
    spec = _object(spec, "model")
    name = spec.pop("name", None)
    if name is None:
        raise ConfigError("model section needs a 'name'")
    if name == "random2local":
        spec.setdefault("seed", seed)
    spec = {key: _integer(value, f"model.{key}") if key in ("seed", "s_max")
            else _number(value, f"model.{key}") for key, value in spec.items()}
    return build_named_hamiltonian(name, graph, spec)


def _build_state(spec, graph):
    spec = _object(spec, "state")
    _check_keys(spec, {"kind"}, "state")
    kind = spec.get("kind", "zero")
    if kind == "zero":
        return ProductState.all_zero()
    if kind == "plus":
        return ProductState.all_plus(graph.vertices)
    raise ConfigError(f"unknown state kind {kind!r}")


def _build_observable(spec, graph, where: str = "observable"):
    """The Pauli string ``spec`` names; an empty object is Z on site 0."""
    spec = _object(spec, where) or {"pauli": "Z", "sites": [0]}
    _check_keys(spec, {"pauli", "sites"}, where)
    label, sites = str(spec.get("pauli", "")), spec.get("sites", [])
    if not isinstance(sites, list):
        raise ConfigError(f"observable sites must be a list, got {sites!r}")
    sites = tuple(_integer(v, "observable site") for v in sites)
    on_lattice = set(sites) <= set(graph.vertex_adjacency()) and len(set(sites)) == len(sites)
    if not label or len(label) != len(sites) or not set(label) <= set("IXYZ") or not on_lattice:
        raise ConfigError(f"observable {label!r} on {list(sites)}: need one Pauli letter"
                          " I, X, Y or Z per distinct lattice site")
    return pauli_operator(label, sites)


def _grid(spec) -> list[float]:
    if isinstance(spec, list):
        return [_number(x, "grid entry") for x in spec]
    if isinstance(spec, dict):
        if set(spec) != {"start", "stop", "num"}:
            raise ConfigError(f"grid needs exactly start, stop and num, got {sorted(spec)}")
        start, stop = (_number(spec[key], f"grid {key}") for key in ("start", "stop"))
        num = _integer(spec["num"], "grid num")
        if num < 0:
            raise ConfigError(f"grid num must be >= 0, got {num}")
        return list(np.linspace(start, stop, num))
    raise ConfigError("grid must be a list or {start, stop, num}")


def _bound_params(spec, reads: set, derived: dict) -> BoundParams:
    """The ``params`` object ``spec``, with the constants the run derives filled in.

    ``derived`` maps each such constant to its (value, source), and ``reads`` holds the
    constants the run's readers read.  A derived constant set in ``params`` too is a
    ConfigError naming its source, checked first; so is any other constant outside
    ``reads``, which nothing would read.
    """
    spec = _object(spec, "params")
    for key, (_, source) in derived.items():
        if key in spec:
            raise ConfigError(f"params.{key} is {source} here; drop it from params")
    unread = sorted(set(spec) - reads)
    if unread:
        raise ConfigError(f"params {unread} are read by nothing in this run; it reads"
                          f" {sorted(reads - set(derived)) or 'no params'}")
    spec.update((key, value) for key, (value, _) in derived.items())
    try:
        return BoundParams(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"params: {exc}") from None


def _derived(graph=None, model=None) -> dict:
    """(value, source) of d off ``graph``, and of h and the degree off ``model``.

    h is the largest term norm and the degree ``model.factor_graph().degree_bound``;
    a model whose terms join no factor graph (all of them vanish) is a ConfigError.
    """
    derived = {}
    if graph is not None:
        derived["dimension"] = (graph.dimension, "lattice.d")
    if model is not None:
        try:
            degree = model.factor_graph().degree_bound
        except ValueError as exc:
            raise ConfigError(f"the model gives no h or degree: {exc}") from None
        derived["term_norm_max"] = (max(term.norm for term in model.terms),
                                    "the model's largest term norm")
        derived["degree"] = (degree, "the model's factor-graph degree")
    return derived


# ---------------------------------------------------------------- commands

def _cmd_lattice(config: dict, files: dict) -> int:
    files["lattice.json"] = _build_lattice(config.get("lattice", {})).to_json() + "\n"
    return 0


def _cmd_bound(config: dict, files: dict) -> int:
    graph = _build_lattice(config["lattice"]) if "lattice" in config else None
    if "model" in config and graph is None:
        raise ConfigError("a model section needs a lattice section")
    model = _build_model(config["model"], graph, config["seed"]) if "model" in config else None
    sweeps = list(_entries(config, "sweeps", "bound", _SWEEP_KEYS, "sweep"))
    reads = set().union(*(_SWEEP_KEYS[name][2] for name, _ in sweeps))
    params = _bound_params(config.get("params", {}), reads, _derived(graph, model))
    rows: list[list] = []
    files["bounds.csv"] = (["R", "t", "bound_name", "value", "valid_flag", "exact"], rows)
    for index, (name, sweep) in enumerate(sweeps):
        if name in ("path_sum", "matrix_exp", "dominance") and model is None:
            raise ConfigError(f"{name} sweep needs lattice and model sections")
        misses: list[str] = []
        sweep_rows = _run_sweep(name, sweep, params, graph, model, misses)
        if sweep_rows and not any(row[4] for row in sweep_rows):
            log.warning("every row of bound sweep %d (%s) lies outside the bound's validity"
                        " window (%s), so no row has a value",
                        index, name, "; ".join(dict.fromkeys(misses)))
        rows.extend(sweep_rows)
    return 0


# the params constants simulate's paper-formula plan and its bound_value read, d aside
_SIMULATE_READS = {"lr_velocity", "box_offset", "decay_rate", "sim_prefactor", "sim_decay"}
_SWEEP_KEYS = {  # the (required, optional) keys each bound sweep reads, and its params constants
    "volume": (set(), {"t", "R"}, {"lr_velocity", "prefactor", "volume_decay", "dimension"}),
    "combinatorial": ({"regions"}, {"t"}, {"term_norm_max", "degree"}),
    "truncation": (set(), {"t", "M"}, _SIMULATE_READS | {"dimension"}),
    "quasilocal_pair": (set(), {"dB", "dS", "t", "dist"},
                        {"lr_velocity", "prefactor", "decay_rate"}),
    "quasilocal_nested": ({"regions"}, {"t"}, {"lr_velocity", "decay_rate", "box_margin", "kappa",
                                               "tail_norm", "term_norm_max", "dimension"}),
    "path_sum": ({"S", "B"}, {"t"}, set()),
    "matrix_exp": ({"B", "S"}, {"t"}, set()),
    # h and the degree of its combinatorial rows are the model's
    "dominance": ({"S", "B"}, {"observable", "probes", "t"}, set()),
}


def _run_sweep(name, sweep, params, graph, model, misses=None):
    """The sweep's ``bounds.csv`` rows.

    A row outside its bound's window (volume, combinatorial and
    quasilocal_nested have one) adds the reason to ``misses``.
    """
    rows = []
    if name == "volume":
        for t in _grid(sweep.get("t", [1.0])):
            for R in _grid(sweep.get("R", [2.0])):
                rows.append(_bound_row("volume", t, R, lambda: volume_bound(params, R, t),
                                       misses=misses))
    elif name in ("combinatorial", "quasilocal_nested"):
        regions = sweep["regions"]
        if not isinstance(regions, list) or not regions or not all(
                isinstance(r, list) and len(r) == 3 for r in regions):
            raise ConfigError(f"{name} regions must be a nonempty list of [dB, dS, r] triples")
        regions = [tuple(_number(x, f"{name} region entry") for x in r) for r in regions]
        r_min = min(r for (_, _, r) in regions)
        if name == "combinatorial" and r_min < 1:
            raise ConfigError(f"combinatorial distances must be >= 1, got {r_min}")
        evaluate = combinatorial_bound if name == "combinatorial" else quasilocal_nested_bound
        for t in _grid(sweep.get("t", [0.1] if name == "combinatorial" else [1.0])):
            rows.append(_bound_row(name, t, r_min, lambda: evaluate(params, regions, t),
                                   misses=misses))
    elif name == "quasilocal_pair":
        dB, dS = _number(sweep.get("dB", 1), "dB"), _number(sweep.get("dS", 1), "dS")
        for t in _grid(sweep.get("t", [1.0])):
            for dist in _grid(sweep.get("dist", [1.0])):
                rows.append(_bound_row(
                    "quasilocal_pair", t, dist,
                    lambda: quasilocal_pair_bound(params, dB, dS, dist, t)))
    elif name == "truncation":
        for t in _grid(sweep.get("t", [1.0])):
            for M in _grid(sweep.get("M", [8])):
                rows.append(_bound_row(
                    "truncation", t, M,
                    lambda: truncation_error_bound(params, t, M)))
    elif name in ("path_sum", "matrix_exp"):
        R, S_list, B_list = _path_regions(sweep, graph, model)
        dist = min(factor_distance(graph, R, S) for S in S_list)
        pairs = list(zip(B_list, S_list))
        for t in _grid(sweep.get("t", [0.5])):
            rows.append(_bound_row(name, t, dist, lambda: (
                path_sum_bound(graph, model, R, S_list, B_list, t) if name == "path_sum"
                else matrix_exp_bound(graph, model, pairs, t))))
    elif name == "dominance":
        rows.extend(_dominance_sweep(sweep, params, graph, model))
    return rows


def _path_regions(sweep, graph, model):
    """(R, S_i, B_i) of a region sweep; R is every vertex outside the B_i, never fewer.

    The regions must meet ``path_sum_bound``'s preconditions, or ConfigError: one B_i
    per S_i with S_i inside it, the B_i disjoint with no term of ``model``
    touching two of them, and R nonempty.
    """
    vertices = set(graph.vertices)
    S_list, B_list = (_site_sets(sweep[key], key, vertices) for key in ("S", "B"))
    if len(S_list) != len(B_list):
        raise ConfigError(f"{len(S_list)} S regions but {len(B_list)} B regions")
    for i, (S, B) in enumerate(zip(S_list, B_list)):
        if not S <= B:
            raise ConfigError(f"S_{i} = {sorted(S)} is not inside B_{i} = {sorted(B)}")
    for (i, B_i), (j, B_j) in itertools.combinations(enumerate(B_list), 2):
        if B_i & B_j or any(term.support & B_i and term.support & B_j for term in model.terms):
            raise ConfigError(f"B_{i} and B_{j} overlap or share a Hamiltonian term")
    R = vertices - set().union(*B_list)
    if not R:
        raise ConfigError("the B regions cover the lattice, so R = V minus their union is empty")
    return R, S_list, B_list


def _site_sets(value, key: str, vertices: set) -> list[set]:
    """A nonempty list of nonempty lattice site sets from the config."""
    if not isinstance(value, list) or not value or not all(
            isinstance(sites, list) and sites for sites in value):
        raise ConfigError(f"{key} must be a nonempty list of nonempty site lists")
    sets = [{_integer(v, f"{key} site") for v in sites} for sites in value]
    off = set().union(*sets) - vertices
    if off:
        raise ConfigError(f"{key} sites {sorted(off)} are not on the lattice")
    return sets


def _dominance_sweep(sweep, params, graph, model):
    """Paired oracle run: bound values next to the exact nested commutator."""
    R, S_list, B_list = _path_regions(sweep, graph, model)
    observable = _build_observable(sweep.get("observable", {}), graph, "dominance observable")
    probes = sweep.get("probes", [{"sites": sorted(S)} for S in S_list])
    if not isinstance(probes, list):
        raise ConfigError(f"dominance probes must be a list of objects, got {probes!r}")
    probes = [_build_observable({"pauli": "X", **_object(p, "dominance probe")}, graph,
                                "dominance probe") for p in probes]
    r_list = [factor_distance(graph, R, S) for S in S_list]
    regions = [
        (boundary_size(graph, B), boundary_size(graph, S), r)
        for B, S, r in zip(B_list, S_list, r_list)
    ]
    rows = []
    for t in _grid(sweep.get("t", [0.2])):
        exact = nested_commutator_norm(
            model, observable, probes, t, tuple(graph.vertices))
        rows.append(_bound_row(
            "path_sum", t, min(r_list),
            lambda: path_sum_bound(graph, model, R, S_list, B_list, t), exact))
        rows.append(_bound_row(
            "combinatorial", t, min(r_list),
            lambda: combinatorial_bound(params, regions, t), exact))
    return rows


def _bound_row(name, t, r, thunk, exact=None, misses=None):
    value = _windowed(thunk, misses)
    return [float(r), float(t), name, value, value is not None, exact]


def _windowed(thunk, misses=None) -> float | None:
    """The bound ``thunk()`` evaluates, or None outside its validity window: an empty cell.

    The reason for an empty cell is appended to ``misses`` when one is given.
    """
    try:
        return float(thunk())
    except ValidityWindowError as err:
        if misses is not None:
            misses.append(str(err))
        return None


def _cmd_simulate(config: dict, files: dict) -> int:
    graph, model, state, observable = _region_inputs(config)
    plan_spec = _object(config.get("plan", {}), "plan")
    if "anchor_vertex" in plan_spec:
        raise ConfigError("plan.anchor_vertex is not a setting: the anchor box is the box"
                          " that holds observable.sites")
    # the plan's keys set the mode: r and m_star (desk) or epsilon (paper-formula)
    mode = {("m_star", "r"): "desk", ("epsilon",): "paper-formula"}.get(tuple(sorted(plan_spec)))
    if mode is None:
        raise ConfigError(f"plan sets {sorted(plan_spec)}: a plan holds r and m_star (desk"
                          " mode) or epsilon (paper-formula mode), and nothing else")
    sizes = {key: _integer(plan_spec[key], f"plan.{key}") for key in ("r", "m_star")
             if key in plan_spec}
    epsilon = _number(plan_spec.get("epsilon", 1e-6), "plan.epsilon")
    params = (_bound_params(config["params"], _SIMULATE_READS, _derived(graph))
              if "params" in config else None)
    if mode == "paper-formula" and params is None:
        raise ConfigError("a paper-formula plan (plan.epsilon) needs a params section")
    want_oracle = _flag(config.get("oracle", True), "oracle")
    grid = _grid(config.get("t_grid", [0.5]))
    plans = [
        plan(params, t, epsilon, mode=mode, graph=graph, anchor_vertex=observable.support[0],
             r=sizes.get("r"), m_star=sizes.get("m_star"))
        for t in grid
    ]
    if any(not set(observable.support) <= set(p.tiling.box_vertices[p.tiling.anchor_box])
           for p in plans):
        raise ConfigError(f"observable sites {list(observable.support)} are not in one box")
    rows: list[list] = []
    files["results.csv"] = (["t", "m_star", "estimate", "exact", "error", "bound_value",
                             "clusters_evaluated", "classes_evaluated", "wall_time"], rows)
    # The oracle goes first: no cluster region outgrows the lattice, so when the
    # oracle passes its caps every cluster does, and only the grid prefix the oracle
    # reached is evaluated.
    exact_values, trip = (_exact_prefix(model, observable, state, grid) if want_oracle
                          else ([None] * len(grid), None))
    # one simulate call per run of consecutive grid points that share a plan, so a
    # cap trip keeps the rows of the grid prefix before it
    points = zip(grid, plans, exact_values)
    for (r, _), run in itertools.groupby(points, key=lambda point: (point[1].r, point[1].m_star)):
        run = list(run)
        tripped = None
        try:
            results = simulate_expectation(model, observable, state, [t for t, _, _ in run],
                                           run[0][1])
        except CapExceededError as exc:  # write the rows of the levels it finished, then stop
            results, tripped = exc.finished or [], exc
        for (t, _, exact), (_, diag) in zip(run, results):
            for m, running, clusters, classes in zip(
                    itertools.count(1), diag["running_estimates"], diag["running_clusters"],
                    diag["running_classes"]):
                error = abs(running - exact) if exact is not None else None
                # the truncation bound at the level's volume m r^d
                bound_value = None if params is None else _windowed(
                    lambda: truncation_error_bound(params, float(t), m * r**graph.dimension))
                rows.append([float(t), m, running, exact, error, bound_value, clusters, classes,
                             None])
        if tripped is not None:
            raise tripped
    if trip is not None:
        raise trip
    return 0


def _region_inputs(config: dict):
    """The lattice, model, state and observable of a ``simulate`` or ``oracle`` config."""
    graph = _build_lattice(config.get("lattice", {}))
    return (graph, _build_model(config.get("model", {}), graph, config["seed"]),
            _build_state(config.get("state", {}), graph),
            _build_observable(config.get("observable", {}), graph))


def _exact_prefix(model, observable, state, grid: list[float]):
    """(values, trip): the oracle's values on the longest prefix of ``grid`` its caps allow.

    The whole grid is one ``exact_expectation`` call: one assembly and one
    recurrence.  Only when that trips a cap is each time evaluated alone,
    in grid order, up to the first that trips; its ``CapExceededError`` is
    ``trip``, None when every time passes alone.
    """
    try:
        return exact_expectation(model, observable, state, grid), None
    except CapExceededError:
        values = []
        for t in grid:
            try:
                values.append(exact_expectation(model, observable, state, t))
            except CapExceededError as exc:
                return values, exc
        return values, None


def _cmd_oracle(config: dict, files: dict) -> int:
    _, model, state, observable = _region_inputs(config)
    grid = _grid(config.get("t_grid", [0.5]))
    rows: list[list] = []
    files["oracle.csv"] = (["t", "exact"], rows)
    exact_values, trip = _exact_prefix(model, observable, state, grid)
    rows.extend([float(t), exact] for t, exact in zip(grid, exact_values))
    if trip is not None:
        raise trip
    return 0


_EXPERIMENT_KEYS = {  # the (required, optional) keys each ssb experiment reads, and its params
    "rk": ({"lattice"}, {"beta", "sizes", "region"}, set()),
    "ghz": (set(), {"g", "L"}, set()),
    # d is the rk lattices'
    "compare": (set(), {"params", "t"}, {"lr_velocity", "prefactor", "volume_decay"}),
}


def _cmd_ssb(config: dict, files: dict) -> int:
    rk_rows, ghz_rows, compare_reports = [], [], []
    rk_dimensions = set()  # the d of each rk lattice so far
    for kind, experiment in _entries(config, "experiments", "kind", _EXPERIMENT_KEYS, "experiment"):
        if kind == "rk":
            graph = _build_lattice(experiment["lattice"], "rk lattice")
            rk_dimensions.add(graph.dimension)
            regions = [(size, _ssb_region(graph, experiment.get("region", "interval"), size))
                       for size in (_integer(s, "rk size") for s in experiment.get("sizes", [1]))]
            betas = _grid(experiment.get("beta", [0.5]))
            if any(beta < 0 for beta in betas):
                raise ConfigError(f"rk beta must be >= 0, got {min(betas)}")
            files.setdefault("rk.csv", (["beta", "R", "boundary_bonds", "disorder_value"], rk_rows))
            for beta in betas:
                state = RKState(beta=beta, graph=graph)
                for size, region in regions:
                    value = rk_disorder_parameter(state, region)
                    rk_rows.append([beta, size, region.boundary_bonds, value])
        elif kind == "ghz":
            g_val = _number(experiment.get("g", 0.1), "ghz g")
            chains = [_integer(x, "ghz L") for x in experiment.get("L", [4, 6, 8])]
            if any(L < 1 for L in chains):
                raise ConfigError(f"ghz L must be >= 1, got {chains}")
            files.setdefault("ghz.csv", (["L", "g", "delta"], ghz_rows))
            for L in chains:
                ghz_rows.append([L, g_val, ghz_splitting("tfim", L, g_val)])
        else:  # compare: the volume law in the d of the rk lattices it tables
            if len(rk_dimensions) != 1:
                raise ConfigError("compare needs rk experiments before it, all on lattices of"
                                  f" one d; they have d in {sorted(rk_dimensions)}")
            (d,) = rk_dimensions
            params = _bound_params(experiment.get("params", {}), _EXPERIMENT_KEYS["compare"][2],
                                   {"dimension": (d, "the rk lattice's d")})
            results = [
                {"R": float(row[1]), "value": float(row[3]), "beta": float(row[0])}
                for row in rk_rows
            ]
            t = _number(experiment.get("t", 1.0), "compare t")
            report = disorder_bound_compare(results, params, t)
            if not any(row["valid"] for row in report["rows"]):
                log.warning("every compare row lies outside the volume bound's window"
                            " lr_velocity * t > 1 and R > lr_velocity * t (here lr_velocity * t"
                            " = %g and R in %s), so no row has a bound",
                            params.lr_velocity * t, sorted({row["R"] for row in results}))
            compare_reports.append(report)
    fits = _ssb_fits(rk_rows, ghz_rows)
    if fits:
        files["fits.json"] = json.dumps(fits, indent=2, sort_keys=True) + "\n"
    if compare_reports:
        files["compare.json"] = json.dumps(compare_reports, indent=2, sort_keys=True) + "\n"
    return 0


def _ssb_fits(rk_rows, ghz_rows) -> dict:
    """Log-linear fit summaries for the experiment CSVs."""
    fits = {}
    if len(ghz_rows) >= 3 and all(row[2] > 0 for row in ghz_rows):
        xs = np.array([row[0] for row in ghz_rows], dtype=float)
        ys = np.log([row[2] for row in ghz_rows])
        fits["ghz_log_delta_vs_L"] = fit_summary(xs, ys)
    by_beta: dict[float, list] = {}
    for beta, _, bonds, value in rk_rows:
        if value > 0:
            by_beta.setdefault(beta, []).append((bonds, value))
    for beta, pts in sorted(by_beta.items()):
        xs = np.array([p[0] for p in pts], dtype=float)
        ys = np.log([p[1] for p in pts])
        key = f"rk_log_disorder_vs_boundary_bonds_beta_{beta}"
        if len(pts) >= 3 and len(set(xs.tolist())) >= 2:
            fits[key] = fit_summary(xs, ys)
        elif len(pts) >= 2 and len(set(xs.tolist())) == 1:
            # constant boundary: report the plateau instead of a bogus fit
            fits[key] = {"plateau_value": float(np.exp(ys).mean()),
                         "relative_spread": float(np.exp(ys).std() / np.exp(ys).mean()),
                         "points": len(pts)}
    return fits


def _ssb_region(graph, kind: str, size: int) -> DisorderRegion:
    """The region of ``size`` sites (interval) or side (square) at the origin; it must fit."""
    if kind not in ("interval", "square"):
        raise ConfigError(f"unknown region kind {kind!r}")
    room = len(graph.vertices) if kind == "interval" else graph.side
    if not 1 <= size <= room:
        raise ConfigError(f"rk {kind} size {size} must be in 1..{room} on this lattice")
    if kind == "interval":
        return DisorderRegion.from_graph(graph, range(size))
    return square_region(graph, (0,) * graph.dimension, size)


def _cmd_verify(config: dict, files: dict) -> int:
    suites = config.get("suites") or ["vanishing", "lemma73", "cluster_counts", "completeness"]
    if not isinstance(suites, list) or not all(isinstance(suite, str) for suite in suites):
        raise ConfigError(f"suites must be a list of suite names, got {suites!r}")
    mutate = config.get("mutate")
    if mutate not in (None, "cluster_correction_sign"):
        raise ConfigError(f"unknown mutation {mutate!r}")
    if mutate is not None and "completeness" not in suites:
        raise ConfigError("mutation corrupts only the 'completeness' suite; list it in suites")
    seed = config["seed"]
    correction = _sign_flipped_correction if mutate else cluster_correction
    checks = {
        "vanishing": lambda: check_vanishing(seed),
        "lemma73": lambda: check_flip_identity(seed),
        "cluster_counts": check_cluster_counts,
        "completeness": lambda: check_completeness(correction),
    }
    unknown = [suite for suite in suites if suite not in checks]
    if unknown:
        raise ConfigError(f"unknown suites {unknown}")
    report = {suite: checks[suite]() for suite in suites}
    files["report.json"] = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return 0 if all(r["passed"] for r in report.values()) else 1


_COMMON_KEYS = {"command", "seed", "threads"}
COMMANDS = {  # each command's runner and the top-level keys it reads besides _COMMON_KEYS
    "lattice": (_cmd_lattice, {"lattice"}),
    "bound": (_cmd_bound, {"lattice", "model", "params", "sweeps"}),
    "simulate": (_cmd_simulate, {"lattice", "model", "state", "observable", "plan", "t_grid",
                                 "params", "oracle"}),
    "oracle": (_cmd_oracle, {"lattice", "model", "state", "observable", "t_grid"}),
    "ssb": (_cmd_ssb, {"experiments"}),
    "verify": (_cmd_verify, {"suites", "mutate"}),
}


# The self-checks below are acceptance criteria 2, 4, 5 and 8 at their own
# sizes and tolerances; the acceptance gate calls them with its seeds.

def check_vanishing(seed: int) -> dict:
    """Criterion 2: every factor sequence of length <= 4 without a causal forest vanishes."""
    graph = build_square_lattice(1, 5)
    model = build_named_hamiltonian("random2local", graph, {"seed": seed})
    gH = model.factor_graph()
    A = pauli_operator("Z", (0,))
    O1 = pauli_operator("X", (4,))
    worst = 0.0
    checked = 0
    for length in range(1, 5):
        for ids in itertools.product(range(len(gH.factors)), repeat=length):
            forest, norm = term_vanishing_check(gH, model, ids, {0}, [{4}], A, [O1])
            if forest is None or not forest.causal:
                worst = max(worst, norm)
                checked += 1
    return {"passed": worst <= 1e-12, "worst_gap": worst, "sequences_checked": checked}


def check_completeness(correction=cluster_correction) -> dict:
    """Criterion 4: the cluster expansion re-sums to the exact A(t) and <A(t)>.

    The operator pieces of a six-site chain in two boxes re-sum to A(t) at
    t = 0.25, 0.6 and 1.0.  At t = 0.7 the scalar estimate of
    ``simulate_expectation`` is compared with the oracle, and so is the
    re-sum of its raw cluster values through ``correction``, level by level.
    """
    graph = build_square_lattice(1, 6)
    model = build_named_hamiltonian("tfim", graph, {"J": 1.0, "g": 0.8})
    tiling = tile_boxes(graph, 3, 0)
    A = pauli_operator("Z", (0,))
    region = tuple(range(6))
    worst = 0.0
    for t in (0.25, 0.6, 1.0):
        full = heisenberg_evolve(model, A, t, region).matrix
        total = np.zeros_like(full)
        for cluster in enumerate_connected_subsets(tiling.adjacency, tiling.anchor_box, 2):
            piece = operator_piece(model, A, cluster, tiling, t)
            total += embed(piece.matrix, piece.support, region)
        worst = max(worst, operator_norm(total - full))
    state = ProductState.all_zero()
    sim_plan = plan(None, 0.7, 1e-6, mode="desk", graph=graph, r=2, m_star=3)
    estimate, diag = simulate_expectation(model, A, state, 0.7, sim_plan)
    resummed = float(sum(inclusion_exclusion(diag["raw"], correction).values())[0])
    exact = exact_expectation(model, A, state, 0.7)
    worst = max(worst, abs(estimate - exact), abs(resummed - exact))
    return {"passed": worst <= 1e-10, "worst_gap": worst}


def _sign_flipped_correction(raw, corrected, cluster, subclusters) -> float:
    """``cluster_correction`` with the sub-cluster sign flipped: the verify mutation."""
    return raw[cluster] + sum(corrected[sub] for sub in subclusters)


def check_flip_identity(seed: int) -> dict:
    """Criterion 5: the flip/commutator identity across 50 random symmetric evolutions."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 9))
        graph = build_square_lattice(1, n)
        model = build_named_hamiltonian("tfim", graph, {
            "J": float(rng.uniform(0.4, 1.5)), "g": float(rng.uniform(0.2, 1.2))})
        U = symmetric_unitary(model, float(rng.uniform(0.1, 1.5)), tuple(range(n)))
        m = int(rng.integers(1, 4))
        O = pauli_operator(str(rng.choice(["X", "Y", "Z"])), (int(rng.integers(0, n)),))
        v_list = [int(v) for v in rng.choice(n, size=min(m, n), replace=False)]
        _, _, gap = nested_identity_check(U, O, v_list, tuple(range(n)))
        worst = max(worst, gap)
    return {"passed": worst <= 1e-10, "worst_gap": worst}


def check_cluster_counts() -> dict:
    """Criterion 8: anchored cluster counts match brute force and stay under (e*deg)^m."""
    ok = True
    largest = 0
    for graph in (build_square_lattice(1, 10), build_rectangular_lattice((3, 4)),
                  build_square_lattice(2, 4)):
        adj = graph.vertex_adjacency()
        degree = max(len(v) for v in adj.values())
        for root in (graph.vertices[0], graph.vertices[len(graph.vertices) // 2]):
            found = enumerate_connected_subsets(adj, root, 5)
            ok = ok and found == brute_connected_subsets(adj, root, 5)
            counts = Counter(map(len, found))
            ok = ok and all(n <= (degree * math.e) ** m for m, n in counts.items())
            largest = max(largest, *counts.values())
    return {"passed": ok, "largest_count": largest}


def brute_connected_subsets(adj: dict, root, m: int) -> list[tuple]:
    """Reference for ``enumerate_connected_subsets``: every subset of 1 to m nodes, if connected.

    Smallest first, and sorted within a size, as the enumeration returns them.
    """
    return [sub for size in range(1, m + 1) for sub in itertools.combinations(sorted(adj), size)
            if root in sub and is_connected(adj, sub)]


def fit_summary(xs, ys) -> dict:
    """Least-squares line through (xs, ys) with its R^2."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1 - float(np.sum((ys - pred) ** 2)) / ss_tot
    return {"slope": float(slope), "intercept": float(intercept),
            "r_squared": r2, "points": len(xs)}


if __name__ == "__main__":
    sys.exit(main())
