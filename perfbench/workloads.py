"""The four benchmark workloads: inputs from a seed, the timed calls, the checks.

Each workload is a class with three steps, run by ``child.py`` in a fresh
interpreter:

* ``setup()`` builds lattices, models, instances and configs from the seed
  (counted in ``setup_s``);
* ``run()`` makes the timed calls into opgrowth and appends one output per
  item to ``self.outputs``, so a crash leaves the outputs made so far;
* ``check(checks)`` compares the outputs with references.  It runs after
  the timed part and counts in no reported time.

Calls go through module attributes (``ops.nested_commutator_norm``) so that
the tracer's wrappers are the ones called in a traced run.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import shutil

import numpy as np

import opgrowth.bounds as bounds
import opgrowth.cli as cli
import opgrowth.lattice as lattice
import opgrowth.operators as ops
import opgrowth.ssb as ssb
from references import ORACLE_TOL, free_fermion_z0, recorded

SIZES = ("full", "tiny")


class Checks:
    """Correctness checks attempted and failed, with the first failures kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Workload:
    """Base: ``expected_checks`` is fixed by setup, before anything is timed."""

    item_markers: dict[str, str] = {}

    def __init__(self, seed: int, size: str, work_dir: str):
        if size not in SIZES:
            raise ValueError(f"size must be one of {SIZES}")
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        self.outputs: list = []
        self.expected_checks = 0

    def item(self, tracer, label: str):
        """The tracer's item scope, or a no-op when untraced."""
        return tracer.item(label) if tracer is not None else contextlib.nullcontext()


# ---------------------------------------------------------------- dominance

# (lattice kind, chain length or grid shape, instances), drawn with the run's seed.
DOMINANCE_STRATA = {
    "full": (("chain", 10, 2), ("chain", 9, 4),
             ("chain", 8, 6), ("chain", 7, 6), ("chain", 6, 6), ("chain", 5, 6),
             ("grid", (2, 3), 6), ("grid", (2, 4), 6), ("grid", (3, 3), 6)),
    "tiny": (("chain", 5, 2), ("grid", (2, 3), 1)),
}
# The 11-qubit chain is the only instance above DENSE_NORM_DIM, so the only
# one that takes the power-iteration branch of operator_norm; it must stay.
# Its iteration count depends on the instance (0 to about 1000 over the
# seeds tried, 10000 allowed), which made wall_s range from 20 to 51 s over
# five seeds and could pass the run's time limit.  So it is drawn from this
# constant generator seed, not the run's.  On it the power iteration returns
# 4.18856e-06 where the SVD gives 4.19514e-06: the low estimate still shows.
POWER_INSTANCE = {"full": ("chain", 11, 0), "tiny": None}
DOMINANCE_TOL = 1e-12


def _random_unit_site_op(site: int, rng) -> ops.LocalOperator:
    G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    M = G + G.conj().T
    M /= np.linalg.norm(M, 2)
    return ops.LocalOperator((site,), M)


def dominance_instance(rng, kind: str, shape) -> dict:
    """One acceptance-criterion-1 instance on a fixed lattice.

    The seed picks the model (tfim or random2local) and its couplings, the
    probe sites with their containing balls, the observable site and t
    inside every bound's validity window.
    """
    g = (lattice.build_square_lattice(1, shape) if kind == "chain"
         else lattice.build_rectangular_lattice(shape))
    if rng.random() < 0.5:
        H = ops.build_named_hamiltonian("tfim", g, {
            "J": float(rng.uniform(0.5, 1.5)), "g": float(rng.uniform(0.2, 1.2))})
    else:
        H = ops.build_named_hamiltonian("random2local", g, {
            "seed": int(rng.integers(0, 2**31)), "scale": float(rng.uniform(0.5, 1.5))})
    gH = H.factor_graph()
    n = len(g.vertices)
    for _ in range(100):
        m = int(rng.integers(1, 3))
        S_sites, B_list = [], []
        for cand in rng.permutation(n):
            ball, _ = lattice.ball_and_boundary(g, int(cand), 1)
            if any(any(X & ball and X & B for X in gH.factors) for B in B_list):
                continue
            S_sites.append(int(cand))
            B_list.append(ball)
            if len(S_sites) == m:
                break
        if len(S_sites) < m:
            continue
        R = set(g.vertices) - set().union(*B_list)
        if not R:
            continue
        a_site = int(rng.choice(sorted(R)))
        degree = gH.degree_bound
        h = max(term.norm for term in H.terms if any(term.support & B for B in B_list))
        r_list = [lattice.factor_distance(g, R, {s}) for s in S_sites]
        t = float(rng.uniform(0.2, 0.9)) * min(r_list) / (2 * h * degree)
        return {
            "g": g, "H": H, "R": R, "S": [{s} for s in S_sites], "B": B_list, "t": t,
            "A": _random_unit_site_op(a_site, rng),
            "O": [_random_unit_site_op(s, rng) for s in S_sites],
            "params": bounds.BoundParams(term_norm_max=h, degree=degree, dimension=g.dimension),
            "regions": [(lattice.boundary_size(g, B), 1, r) for B, r in zip(B_list, r_list)],
        }
    raise RuntimeError("instance generation failed")


class DominanceSweep(Workload):
    """Exact nested commutators against the path-sum and counting bounds."""

    def setup(self):
        self.instances = []
        if POWER_INSTANCE[self.size] is not None:
            kind, shape, seed = POWER_INSTANCE[self.size]
            self.instances.append(dominance_instance(np.random.default_rng(seed), kind, shape))
        rng = np.random.default_rng(self.seed)
        self.instances += [
            dominance_instance(rng, kind, shape)
            for kind, shape, count in DOMINANCE_STRATA[self.size] for _ in range(count)]
        self.expected_checks = 3 * len(self.instances)

    def run(self, tracer=None):
        for i, inst in enumerate(self.instances):
            with self.item(tracer, f"instance={i}"):
                exact = ops.nested_commutator_norm(
                    inst["H"], inst["A"], inst["O"], inst["t"], tuple(inst["g"].vertices))
                path_sum = bounds.path_sum_bound(
                    inst["g"], inst["H"], inst["R"], inst["S"], inst["B"], inst["t"])
                counting = bounds.combinatorial_bound(inst["params"], inst["regions"], inst["t"])
            self.outputs.append((exact, path_sum, counting))

    def check(self, checks: Checks):
        for i, (exact, path_sum, counting) in enumerate(self.outputs):
            checks.expect(math.isfinite(exact) and exact >= 0, f"instance {i}: exact {exact}")
            checks.expect(exact <= path_sum + DOMINANCE_TOL,
                          f"instance {i}: exact {exact} > path-sum {path_sum}")
            checks.expect(exact <= counting + DOMINANCE_TOL,
                          f"instance {i}: exact {exact} > counting {counting}")


# ---------------------------------------------------------------- CLI runs

class CliWorkload(Workload):
    """A workload whose user path is ``opgrowth.cli.main`` on one JSON config."""

    result_file = ""

    def setup(self):
        self.out_dir = os.path.join(self.work_dir, "out")
        shutil.rmtree(self.out_dir, ignore_errors=True)
        os.makedirs(self.work_dir, exist_ok=True)
        self.config_path = os.path.join(self.work_dir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(self.config(), fh)

    def run(self, tracer=None):
        code = cli.main(["--config", self.config_path, "--out", self.out_dir,
                         "--seed", str(self.seed), "--threads", "1"])
        if code != 0:
            raise RuntimeError(f"opgrowth exited with code {code}")
        self.outputs.append(os.path.join(self.out_dir, self.result_file))

    def rows(self) -> list[dict]:
        """The result file's rows, read after the timed part; none after a crash."""
        if not self.outputs:
            return []
        with open(self.outputs[0]) as fh:
            rows = list(csv.DictReader(fh))
        shutil.rmtree(self.out_dir, ignore_errors=True)
        return rows


SIM_2D = {
    "full": {"L": 6, "m_star": 3, "t_grid": {"start": 0.25, "stop": 1.0, "num": 8}},
    "tiny": {"L": 4, "m_star": 2, "t_grid": {"start": 0.25, "stop": 1.0, "num": 2}},
}


class Sim2dTgrid(CliWorkload):
    """Cluster expansion on the 2D lattice over an 8-point t grid, no oracle."""

    result_file = "results.csv"
    item_markers = {"simulate.plan": "t"}

    def config(self) -> dict:
        spec = SIM_2D[self.size]
        return {
            "command": "simulate", "seed": self.seed, "threads": 1,
            "lattice": {"d": 2, "L": spec["L"]},
            "model": {"name": "tfim", "J": 1.0, "g": 1.05},
            "state": {"kind": "zero"},
            "observable": {"pauli": "Z", "sites": [0]},
            "plan": {"r": 2, "m_star": spec["m_star"]},
            "t_grid": spec["t_grid"],
            "oracle": False,
        }

    def setup(self):
        super().setup()
        self.reference = recorded(f"sim_2d_tgrid/{self.size}")
        self.expected_checks = 1 + 2 * len(self.reference["values"])

    def check(self, checks: Checks):
        want = self.reference["values"]
        tol = self.reference["tolerance"]
        rows = self.rows()
        checks.expect(len(rows) == len(want), f"{len(rows)} rows, want {len(want)}")
        got = {(float(r["t"]), int(r["m_star"])): float(r["estimate"]) for r in rows}
        for t, m_star, value in want:
            estimate = got.get((t, m_star), math.nan)
            checks.expect(abs(estimate - value) <= tol,
                          f"t={t} m*={m_star}: estimate {estimate}, reference {value}")
            checks.expect(abs(estimate) <= 1.0, f"t={t} m*={m_star}: |{estimate}| > 1")


ORACLE_1D = {"full": 18, "tiny": 8}
ORACLE_T = (0.25, 0.5, 1.0)
TFIM_J, TFIM_G = 1.0, 1.05


class Oracle1d(CliWorkload):
    """The exact oracle on one 18-qubit open chain, checked against free fermions."""

    result_file = "oracle.csv"
    item_markers = {"operators.exact_expectation": "t"}

    def config(self) -> dict:
        return {
            "command": "oracle", "seed": self.seed, "threads": 1,
            "lattice": {"d": 1, "L": ORACLE_1D[self.size]},
            "model": {"name": "tfim", "J": TFIM_J, "g": TFIM_G},
            "state": {"kind": "zero"},
            "observable": {"pauli": "Z", "sites": [0]},
            "t_grid": list(ORACLE_T),
        }

    def setup(self):
        super().setup()
        L = ORACLE_1D[self.size]
        self.reference = {t: free_fermion_z0(L, TFIM_J, TFIM_G, t) for t in ORACLE_T}
        self.expected_checks = 1 + len(ORACLE_T)

    def check(self, checks: Checks):
        rows = self.rows()
        checks.expect(len(rows) == len(ORACLE_T), f"{len(rows)} rows, want {len(ORACLE_T)}")
        got = {float(r["t"]): float(r["exact"]) for r in rows}
        for t, value in self.reference.items():
            exact = got.get(t, math.nan)
            checks.expect(abs(exact - value) <= ORACLE_TOL,
                          f"t={t}: oracle {exact}, free fermions {value}")


# ---------------------------------------------------------------- ssb

SSB = {
    "full": {"identities": 50, "identity_sites": (3, 9), "ghz_L": range(4, 12),
             "ring_ell": range(2, 10), "torus_sides": (1, 2, 3)},
    "tiny": {"identities": 5, "identity_sites": (3, 6), "ghz_L": range(4, 7),
             "ring_ell": range(2, 5), "torus_sides": (1, 2)},
}
IDENTITY_TOL = 1e-10
RK_AGREE_TOL = 1e-12
GHZ_DEGENERATE_TOL = 1e-12


class SsbDiagnostics(Workload):
    """Flip identity, GHZ splitting and RK disorder parameter."""

    def setup(self):
        spec = SSB[self.size]
        rng = np.random.default_rng(self.seed)
        self.identities = []
        for _ in range(spec["identities"]):
            n = int(rng.integers(*spec["identity_sites"]))
            g = lattice.build_square_lattice(1, n)
            H = ops.build_named_hamiltonian("tfim", g, {
                "J": float(rng.uniform(0.4, 1.5)), "g": float(rng.uniform(0.2, 1.2))})
            t = float(rng.uniform(0.1, 1.5))
            m = int(rng.integers(1, 4))
            O = ops.pauli_operator(str(rng.choice(["X", "Y", "Z"])), (int(rng.integers(0, n)),))
            v_list = [int(v) for v in rng.choice(n, size=min(m, n), replace=False)]
            self.identities.append((H, t, O, v_list, tuple(range(n))))
        self.ghz_L = list(spec["ghz_L"])
        ring = lattice.build_square_lattice(1, 12, periodic=True)
        self.ring_state = ssb.RKState(0.5, ring)
        self.ring_regions = [ssb.DisorderRegion.from_graph(ring, range(ell))
                             for ell in spec["ring_ell"]]
        torus = lattice.build_square_lattice(2, 4, periodic=True)
        self.torus_state = ssb.RKState(0.3, torus)
        self.torus_regions = [ssb.square_region(torus, (0, 0), side)
                              for side in spec["torus_sides"]]
        self.expected_checks = len(self.identities) + len(self.ring_regions) + 3

    def run(self, tracer=None):
        for i, (H, t, O, v_list, region) in enumerate(self.identities):
            with self.item(tracer, f"identity={i}"):
                U = ssb.symmetric_unitary(H, t, region)
                _, _, gap = ssb.nested_identity_check(U, O, v_list, region)
            self.outputs.append(("identity", i, gap))
        for L in self.ghz_L:
            with self.item(tracer, f"ghz={L}"):
                delta = ssb.ghz_splitting("tfim", L, 0.1)
            self.outputs.append(("ghz", L, delta))
        with self.item(tracer, "ghz=6,g=0"):
            self.outputs.append(("ghz0", 6, ssb.ghz_splitting("tfim", 6, 0.0)))
        for region in self.ring_regions:
            with self.item(tracer, f"ring={len(region.vertices)}"):
                a = ssb.rk_disorder_parameter(self.ring_state, region, method="enumerate")
                b = ssb.rk_disorder_parameter(self.ring_state, region, method="transfer")
            self.outputs.append(("ring", len(region.vertices), abs(a - b)))
        for region in self.torus_regions:
            with self.item(tracer, f"torus={len(region.vertices)}"):
                value = ssb.rk_disorder_parameter(self.torus_state, region)
            self.outputs.append(("torus", region.boundary_bonds, value))

    def check(self, checks: Checks):
        by_kind: dict[str, list] = {}
        for kind, key, value in self.outputs:
            by_kind.setdefault(kind, []).append((key, value))
        for i, gap in by_kind.get("identity", []):
            checks.expect(gap <= IDENTITY_TOL, f"identity {i}: gap {gap}")
        for ell, gap in by_kind.get("ring", []):
            checks.expect(gap <= RK_AGREE_TOL, f"ring ell={ell}: enumerate/transfer gap {gap}")
        for _, delta in by_kind.get("ghz0", []):
            checks.expect(delta <= GHZ_DEGENERATE_TOL, f"ghz g=0: delta {delta}")
        for kind, what in (("ghz", "log-delta vs L"), ("torus", "log-disorder vs bonds")):
            pts = by_kind.get(kind, [])
            if len(pts) >= 2 and all(v > 0 for _, v in pts):
                slope = float(np.polyfit([x for x, _ in pts], np.log([v for _, v in pts]), 1)[0])
                checks.expect(slope < 0, f"{what}: slope {slope} not negative")


WORKLOADS = {
    "dominance_sweep": DominanceSweep,
    "sim_2d_tgrid": Sim2dTgrid,
    "oracle_1d_L18": Oracle1d,
    "ssb_diagnostics": SsbDiagnostics,
}
