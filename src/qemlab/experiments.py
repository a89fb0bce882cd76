"""Config-driven experiment scenarios with CSV output.

Each scenario function consumes a parsed config dict and returns a mapping of
output name to (header, rows).  Everything is deterministic under the config
seed; float formatting is fixed so identical configs produce byte-identical
files.  Plotting is left to external tools.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Callable

import numpy as np

from . import models
from .channels import NoiseModel, noiseless
from .circuits import (
    apply_state,
    attach_noise,
    build_ansatz,
    dual_state,
    expected_errors,
    run,
    trace_distance,
    zero_vector,
)
from .cost import cost_metric, dc_overhead, postselect_bound
from .errors import ConfigError, SelectionFailureError, EmptySubspaceError
from .gevp import energy_window, solve_pencil
from .pauli import PauliTerm, build_ising, expect_pauli
from .purification import DspEvaluator, EsdEvaluator
from .shotnoise import ShotConfig, sample_distribution
from .subspace import SubspaceSpec, build, plan_queries
from .vqe import check_count, check_sizes, exact_ground, optimize

FMT = "%.12g"


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return FMT % x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def write_outputs(outputs: dict, cfg: dict, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, (header, rows) in outputs.items():
        path = os.path.join(out_dir, f"{name}.csv")
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for row in rows:
                w.writerow([_fmt(x) for x in row])
        written.append(path)
    manifest = {
        "scenario": cfg.get("scenario"),
        "seed": cfg.get("seed", 0),
        "config_hash": config_hash(cfg),
        "config": cfg,
        "outputs": sorted(os.path.basename(p) for p in written),
    }
    mpath = os.path.join(out_dir, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    written.append(mpath)
    return written


# ---------------------------------------------------------------------------
# shared preparation


def _noise_model(cfg: dict, p1: float) -> NoiseModel:
    noise = cfg.get("noise", {})
    kind = noise.get("kind", "stochastic_pauli")
    if kind == "none" or p1 == 0.0:
        return noiseless()
    return NoiseModel(
        kind=kind,
        p1=p1,
        ratio=noise.get("ratio", 10.0),
        thermal_with_pauli=noise.get("thermal_with_pauli", kind == "thermal_relaxation"),
    )


def _vqe_params(cfg: dict, n: int, layers: int, h, edges, block: str | None = None):
    vqe_cfg = cfg.get("vqe", {})
    key = "params_file" if block is None else f"params_file_{block}"
    path = vqe_cfg.get(key)
    if path:
        with open(path) as fh:
            params = np.array(json.load(fh), dtype=float)
        if len(params) != 2 * n * (layers + 1):
            raise ConfigError(f"parameter file {path} has the wrong length")
        return params
    res = optimize(n, layers, h, iters=vqe_cfg.get("iters", 500),
                   seed=vqe_cfg.get("seed", 7), edges=edges)
    return res.params


def subspace_spec(kind: str, m: int, h, partition: str, sub_cfg: dict) -> SubspaceSpec:
    """Basis spec for (kind, M); the partition is read for the divided basis only."""
    kwargs = {}
    if kind == "dc":
        kwargs["partition"] = models.partition(partition)
        kwargs["boundary_state_only"] = sub_cfg.get("boundary_state_only", False)
    if kind == "fault" and "lambdas" in sub_cfg:
        kwargs["lambdas"] = tuple(sub_cfg["lambdas"])
    return SubspaceSpec(kind, m, h, **kwargs)


def query_table(h, kinds, m_values, partition: str, sub_cfg: dict) -> dict:
    """Query counts Q without and with reuse, one row per (kind, M, reuse)."""
    rows = []
    for kind in kinds:
        for m in m_values:
            spec = subspace_spec(kind, m, h, partition, sub_cfg)
            for reuse in (False, True):
                rows.append((kind, m, int(reuse), plan_queries(spec, reuse).q))
    return {"queries": (("kind", "m", "reuse", "q"), rows)}


class Problem:
    """Everything derived from the graph/ansatz part of a config."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        gname = cfg.get("graph", "path-8")
        self.n, self.edges = models.graph(gname)
        self.h = build_ising(self.edges, self.n)
        vqe_cfg = cfg.get("vqe", {})
        self.layers = vqe_cfg.get("layers", 8)
        check_sizes(self.layers, vqe_cfg.get("iters", 500), vqe_cfg.get("seed", 7))
        self.e_true, _ = exact_ground(self.h)
        self.window = energy_window(self.e_true, cfg.get("window_frac", 0.1))
        self.params = _vqe_params(cfg, self.n, self.layers, self.h, self.edges)
        self.ansatz = build_ansatz(self.n, self.layers, self.params, self.edges)
        psi = apply_state(self.ansatz, zero_vector(self.n))
        self.vqe_energy = float(np.real(np.vdot(psi, self.h.matrix() @ psi)))
        self.vqe_bias = self.vqe_energy - self.e_true
        self._blocks = None

    def partition(self):
        pname = self.cfg.get("partition", "half-4-4")
        return models.partition(pname)

    def block_ansatzes(self):
        if self._blocks is None:
            part = self.partition()
            subs = []
            states = []
            for bi, block in enumerate(part.blocks):
                h_b, sub_edges = models.block_subproblem(self.edges, block)
                params = _vqe_params(self.cfg, len(block), self.layers, h_b,
                                     sub_edges, block=str(bi))
                circ = build_ansatz(len(block), self.layers, params, sub_edges)
                subs.append(circ)
                psi = apply_state(circ, zero_vector(circ.n))
                states.append(np.outer(psi, psi.conj()))
            full = states[-1]
            for st in states[-2::-1]:
                full = np.kron(full, st)
            sep_energy = float(np.real(np.trace(full @ self.h.matrix())))
            self._blocks = (subs, sep_energy)
        return self._blocks

    def separable_bias(self) -> float:
        _, sep_energy = self.block_ansatzes()
        return sep_energy - self.e_true

    def spec(self, kind: str, m: int) -> SubspaceSpec:
        return subspace_spec(kind, m, self.h, self.cfg.get("partition", "half-4-4"),
                             self.cfg.get("subspace", {}))

    def build(self, kind: str, m_values, noise: NoiseModel, with_variances=True) -> list:
        """(M, pencil) for each M, sliced from one build at the largest."""
        if not m_values:
            return []
        spec = self.spec(kind, max(m_values))
        arg = self.block_ansatzes()[0] if kind == "dc" else self.ansatz
        mats = build(spec, arg, noise, seed=self.cfg.get("seed", 0),
                     with_variances=with_variances)
        return [(m, mats.leading(m)) for m in m_values]

    def raw_noisy_energy(self, noise: NoiseModel) -> float:
        if self.cfg.get("subspace", {}).get("kind") == "dc":
            subs, _ = self.block_ansatzes()
            part = self.partition()
            rhos = [run(attach_noise(c, noise, seed=self.cfg.get("seed", 0)))
                    for c in subs]
            full = rhos[-1]
            for r in rhos[-2::-1]:
                full = np.kron(full, r)
            return float(np.real(np.trace(full @ self.h.matrix())))
        rho = run(attach_noise(self.ansatz, noise, seed=self.cfg.get("seed", 0)))
        return float(sum(np.real(t.coeff * expect_pauli(rho, t.axes)) for t in self.h))


# ---------------------------------------------------------------------------
# scenarios


def scenario_bias_vs_m(cfg: dict) -> dict:
    prob = Problem(cfg)
    kind = cfg.get("subspace", {}).get("kind", "power")
    m_values = cfg.get("subspace", {}).get("m_values", [1, 2, 3, 4, 5])
    p1_values = cfg.get("noise", {}).get("p1_values", [2e-6, 2e-5, 2e-4])
    threshold = cfg.get("threshold", 1e-10)
    dump = bool(cfg.get("dump_matrices", False))
    baseline = prob.separable_bias() if kind == "dc" else prob.vqe_bias
    rows = []
    mat_rows = []
    ledger_rows = []
    for p1 in p1_values:
        noise = _noise_model(cfg, p1)
        raw = prob.raw_noisy_energy(noise) if kind != "dc" else (
            prob.separable_bias() + prob.e_true if p1 == 0 else prob.raw_noisy_energy(noise))
        for m, mats in prob.build(kind, m_values, noise, with_variances=dump):
            try:
                sol = solve_pencil(mats.s, mats.h, prob.window, threshold)
                rows.append((kind, p1, m, sol.energy, sol.energy - prob.e_true,
                             abs(sol.energy - prob.e_true), sol.retained_dim, ""))
            except (SelectionFailureError, EmptySubspaceError) as ex:
                rows.append((kind, p1, m, "", "", "", 0, type(ex).__name__))
            if dump:
                for r in mats.matrix_rows():
                    mat_rows.append((p1, m) + r)
                for r in mats.ledger_rows():
                    ledger_rows.append((p1, m) + r)
        rows.append((kind, p1, 0, raw, raw - prob.e_true, abs(raw - prob.e_true),
                     0, "unmitigated"))
    header = ("kind", "p1", "m", "energy", "delta_e", "abs_delta_e", "retained_dim", "note")
    summary = [("e_true", prob.e_true), ("vqe_energy", prob.vqe_energy),
               ("baseline_bias", baseline)]
    out = {"bias_vs_m": (header, rows),
           "reference": (("name", "value"), summary)}
    if dump:
        out["matrices"] = (("p1", "m", "which", "i", "j", "re", "im", "var"), mat_rows)
        out["ledger"] = (("p1", "m", "state_id", "axes", "value", "var", "shots"),
                         ledger_rows)
    return out


def scenario_shots(cfg: dict) -> dict:
    """Energy distribution moments over a shot-budget grid."""
    kind = cfg.get("subspace", {}).get("kind", "power")
    m_values = cfg.get("subspace", {}).get("m_values", [2, 3])
    ns_values = cfg.get("shots", {}).get("ns_values",
                                         [1e6, 1e7, 1e8, 1e9, 1e10, 1e11])
    n_samples = cfg.get("shots", {}).get("n_samples", 1000)
    shot_cfgs = [ShotConfig(ns=ns, n_samples=n_samples, seed=cfg.get("seed", 0))
                 for ns in ns_values]
    prob = Problem(cfg)
    p1 = cfg.get("noise", {}).get("p1", 2e-6)
    noise = _noise_model(cfg, p1)
    rows = []
    for m, mats in prob.build(kind, m_values, noise):
        q = len(mats.queries)
        exact_sol = solve_pencil(mats.s, mats.h, prob.window, 1e-10)
        bound = postselect_bound(mats.s, prob.h.weight(), m)
        for ns, shot_cfg in zip(ns_values, shot_cfgs):
            dist = sample_distribution(mats, shot_cfg, prob.window)
            ub = 4.0 * prob.h.weight() * q / max(bound.lambda_min, 1e-300) / np.sqrt(ns)
            rows.append((kind, m, ns, dist.mean, dist.stddev,
                         dist.mean - prob.e_true, dist.rejections, q,
                         exact_sol.energy, ub))
    header = ("kind", "m", "ns", "mean", "stddev", "mean_delta_e", "rejections",
              "q", "exact_energy", "stddev_upper_bound")
    return {"shots": (header, rows)}


def scenario_histogram(cfg: dict) -> dict:
    kind = cfg.get("subspace", {}).get("kind", "power")
    m_values = cfg.get("subspace", {}).get("m_values", [2, 3])
    shots = cfg.get("shots", {})
    shot_cfg = ShotConfig(ns=shots.get("ns", 1e8), n_samples=shots.get("n_samples", 1000),
                          seed=cfg.get("seed", 0))
    prob = Problem(cfg)
    p1 = cfg.get("noise", {}).get("p1", 2e-6)
    noise = _noise_model(cfg, p1)
    rows = []
    for m, mats in prob.build(kind, m_values, noise):
        dist = sample_distribution(mats, shot_cfg, prob.window)
        for idx, e in enumerate(dist.samples):
            rows.append((kind, m, idx, e))
    header = ("kind", "m", "sample_idx", "energy")
    return {"histogram": (header, rows)}


def scenario_queries(cfg: dict) -> dict:
    """Query counts; needs only the Hamiltonian and the partition, so no VQE."""
    n, edges = models.graph(cfg.get("graph", "path-8"))
    return query_table(build_ising(edges, n), cfg.get("kinds", ["power", "fault", "dc"]),
                       cfg.get("m_values", [2, 3, 4, 5]), cfg.get("partition", "half-4-4"),
                       cfg.get("subspace", {}))


def scenario_cost_metric(cfg: dict) -> dict:
    """Noise-free bias against the sampling-cost comparator."""
    prob = Problem(cfg)
    threshold = cfg.get("threshold", 1e-10)
    rows = []
    for kind, m_values in (("power", cfg.get("power_m", [2, 3, 4, 5])),
                           ("dc", cfg.get("dc_m", list(range(2, 10))))):
        for m, mats in prob.build(kind, m_values, noiseless(), with_variances=False):
            try:
                sol = solve_pencil(mats.s, mats.h, prob.window, threshold)
            except (SelectionFailureError, EmptySubspaceError):
                continue
            q = plan_queries(prob.spec(kind, m), reuse=True).q
            rows.append((kind, m, abs(sol.energy - prob.e_true), q,
                         dc_overhead(sol.alpha_prime),
                         cost_metric(m, q, sol.alpha_prime)))
    header = ("kind", "m", "abs_delta_e", "q", "alpha_prime_norm4", "metric")
    return {"cost_metric": (header, rows)}


def scenario_esd_vs_dsp(cfg: dict) -> dict:
    prob = Problem(cfg)
    p1_values = cfg.get("noise", {}).get("p1_values",
                                         [1e-4, 3e-4, 1e-3, 3e-3, 1e-2])
    noise_kinds = cfg.get("noise_kinds", ["stochastic_pauli", "thermal_relaxation"])
    seed = cfg.get("seed", 0)
    rows = []
    for nk in noise_kinds:
        for p1 in p1_values:
            nm = NoiseModel(kind=nk, p1=p1,
                            thermal_with_pauli=(nk == "thermal_relaxation"))
            circ = attach_noise(prob.ansatz, nm, seed=seed)
            dsp = DspEvaluator(circ, gadget_noise=nm, gadget_seed=seed)
            num = 0.0
            for t in prob.h:
                num += float(np.real(t.coeff)) * dsp.numerator(PauliTerm(t.axes, 1.0))
            p0 = dsp.result(PauliTerm("I" * prob.n, 1.0)).p0  # raises on a vanishing p0
            e_dsp = num / p0
            ev = EsdEvaluator(circ, 2, gadget_noise=nm, gadget_seed=seed)
            e_esd = sum(float(np.real(t.coeff)) * ev.expectation(PauliTerm(t.axes, 1.0))
                        for t in prob.h)
            pur_esd = ev.numerator(None)
            rows.append((nk, p1, abs(e_esd - prob.e_true), abs(e_dsp - prob.e_true),
                         pur_esd, p0))
    header = ("noise_kind", "p1", "abs_delta_e_esd", "abs_delta_e_dsp",
              "purity_esd", "purity_dsp")
    return {"esd_vs_dsp": (header, rows)}


def scenario_trace_distance(cfg: dict) -> dict:
    """Dual-state gap against circuit depth at fixed whole-circuit error."""
    gname = cfg.get("graph", "path-4")
    n, edges = models.graph(gname)
    depths = cfg.get("depths", [10, 100, 1000])
    budgets = cfg.get("error_budgets", [0.5, 1.0, 1.5])
    n_seeds = cfg.get("n_seeds", 20)
    rows = []
    for budget in budgets:
        for layers in depths:
            weight = 2 * n * (layers + 1) + 2 * 10.0 * len(edges) * layers
            p1 = budget / weight
            d_dual, d_prod = [], []
            for seed in range(n_seeds):
                rng = np.random.default_rng([cfg.get("seed", 0), seed, layers])
                params = rng.uniform(-np.pi, np.pi, 2 * n * (layers + 1))
                base = build_ansatz(n, layers, params, edges)
                noise = NoiseModel(kind="stochastic_pauli", p1=p1)
                circ = attach_noise(base, noise)
                rho, bar = run(circ), dual_state(circ)
                d_dual.append(trace_distance(rho, bar))
                d_prod.append(trace_distance(rho @ rho, 0.5 * (bar @ rho + rho @ bar)))
            rows.append((budget, layers, p1, float(np.mean(d_dual)),
                         float(np.mean(d_prod)), expected_errors(circ)))
    header = ("error_budget", "layers", "p1", "mean_dist_dual", "mean_dist_product",
              "expected_errors")
    return {"trace_distance": (header, rows)}


SCENARIOS: dict[str, Callable[[dict], dict]] = {
    "bias-vs-m": scenario_bias_vs_m,
    "stddev-vs-shots": scenario_shots,
    "histogram": scenario_histogram,
    "queries": scenario_queries,
    "cost-metric": scenario_cost_metric,
    "esd-vs-dsp": scenario_esd_vs_dsp,
    "trace-distance": scenario_trace_distance,
}


def run_experiment(cfg: dict, out_dir: str) -> list[str]:
    """Execute the named scenario and write CSVs plus a manifest."""
    name = cfg.get("scenario")
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")
    check_count("seed", cfg.get("seed", 0))
    outputs = SCENARIOS[name](cfg)
    return write_outputs(outputs, cfg, out_dir)
