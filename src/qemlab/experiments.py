"""Config-driven experiment scenarios with CSV output.

Each scenario declares the config keys it reads, with their defaults, in one
table (``SCENARIOS``).  ``check_config`` checks a parsed config against that
table and then builds, before any work, every value object the config names
(graph, partition, noise models, subspace specs, shot configs, parameters),
each by its own constructor; so what is valid is defined once, by those
constructors.  The scenario function reads the read-only result and its
built objects and returns a mapping of output name to (header, rows).
Everything is deterministic under the config seed; float formatting is fixed
so identical configs produce byte-identical files.  Plotting is left to
external tools.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
from collections import namedtuple
from typing import Callable

import numpy as np

from . import models
from .channels import TWO_QUBIT_RATIO, NoiseModel, noiseless
from .circuits import (
    attach_noise,
    build_ansatz,
    dual_state,
    expected_errors,
    run,
    trace_distance,
)
from .cost import cost_metric, dc_overhead
from .errors import ConfigError, EmptySubspaceError, NoiseRateError, SelectionFailureError
from .gevp import energy_window, solve_pencil
from .pauli import PauliTerm, build_ising, expect_pauli
from .purification import DspEvaluator, EsdEvaluator
from .shotnoise import ShotConfig, sample_distribution
from .subspace import KINDS, SubspaceSpec, build, plan_queries
from .vqe import ansatz_state, check_count, exact_ground, optimize

FMT = "%.12g"
THRESHOLD = 1e-10  # regularization threshold of every exact pencil solve


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return FMT % x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return str(x)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]


def write_outputs(outputs: dict, cfg, raw: dict, out_dir: str) -> list[str]:
    """CSV files plus a manifest; the manifest holds raw, the config as given."""
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
        "scenario": cfg.scenario,
        "seed": cfg.seed,
        "config_hash": config_hash(raw),
        "config": raw,
        "outputs": sorted(os.path.basename(p) for p in written),
    }
    mpath = os.path.join(out_dir, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    written.append(mpath)
    return written


# ---------------------------------------------------------------------------
# config schema: the pieces the scenario tables in ``SCENARIOS`` share

VQE_DEFAULTS = {"layers": 8, "iters": 500, "seed": 7, "params_file": None}
_BASE = {"seed": 0, "graph": "path-8"}
_PARTITIONED = {**_BASE, "partition": "half-4-4"}
_PENCIL = {**_PARTITIONED, "vqe": VQE_DEFAULTS}
_BOUNDARY = {"boundary_state_only": False}
_SUBSPACE = {"kind": "power", **_BOUNDARY}
_SHOT_SUBSPACE = {**_SUBSPACE, "m_values": [2, 3]}
_NOISE = {"kind": "stochastic_pauli"}
_ONE_P1 = {**_NOISE, "p1": 2e-6}
_SAMPLES = {"n_samples": 1000}

_TYPES = {float: ((int, float), "a number"), str: (str, "a string"),
          bool: (bool, "true or false"), type(None): ((str, type(None)), "a path or null")}


def check_config(raw):
    """raw checked against its scenario's table, defaults filled in, and the
    value objects it names built before any work (``values``).

    Returns read-only attribute objects (a nested mapping is one more), with
    lists as tuples, plus the field ``values``.  A default's type is the type
    its key takes: an int is a non-negative integer, a float any number, None
    a path or null, and a list default types its entries.  Raises ConfigError
    naming the dotted path of a key the scenario does not read, a value of
    another type, an empty list (power_m and dc_m only when both are), an
    n_seeds below 1, a value that a value object's constructor rejects, or a
    shot plan that fails whatever the state (``_check_shot_plan``).
    """
    name = raw.get("scenario") if isinstance(raw, dict) else None
    if not isinstance(name, str) or name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; have {sorted(SCENARIOS)}")
    empty = []  # the dotted path of each empty list, in table order
    cfg = _section(raw, {"scenario": name, **SCENARIOS[name][1]}, "", empty)
    if len(empty) > hasattr(cfg, "dc_m"):  # either cost list alone still yields rows
        both = "both " if hasattr(cfg, "dc_m") else ""
        raise ConfigError(f"{' and '.join(empty)} must not {both}be empty")
    if getattr(cfg, "n_seeds", 1) < 1:
        raise ConfigError(f"n_seeds must be at least 1, got {cfg.n_seeds!r}")
    return namedtuple("Config", (*cfg._fields, "values"))(*cfg, values(cfg))


def _section(raw, table: dict, prefix: str, empty: list):
    if not isinstance(raw, dict):
        raise ConfigError(f"{prefix[:-1]} must be a mapping, got {raw!r}")
    for key in raw:
        if key not in table:
            raise ConfigError(f"unknown key {prefix}{key}; expected one of {sorted(table)}")
    fields = {}
    for key, default in table.items():
        path, v = prefix + key, raw.get(key, default)
        if isinstance(default, dict):
            v = _section(v, default, path + ".", empty)
        else:
            _check_value(path, v, default)
        if v == []:
            empty.append(path)
        fields[key] = tuple(v) if isinstance(v, list) else v
    return namedtuple("Section", fields)(**fields)


def _check_value(path: str, v, default) -> None:
    many = isinstance(default, list)
    if many and not isinstance(v, list):
        raise ConfigError(f"{path} must be a list, got {v!r}")
    proto = default[0] if many else default
    for x in v if many else (v,):
        if type(proto) is int:
            check_count(path, x)
        else:
            types, what = _TYPES[type(proto)]
            if not isinstance(x, types) or isinstance(x, bool) != isinstance(proto, bool):
                raise ConfigError(f"{path} must be {what}, got {x!r}")


# ---------------------------------------------------------------------------
# the value objects a checked config names

Values = namedtuple("Values", "n edges h partition params noise specs shots")


def checked(key: str, make: Callable, *args, **kw):
    """make(*args, **kw), a ValueError it raises turned into a ConfigError naming key."""
    try:
        return make(*args, **kw)
    except ValueError as ex:
        raise ConfigError(f"{key}: {ex}") from ex


def checked_noise_model(key: str, kind: str, p1: float, lam: float = 1.0) -> NoiseModel:
    """The (kind, p1) model amplified by lam, noiseless where kind is none or p1
    is 0; ConfigError naming key for an unknown kind or a rate outside [0, 1]."""
    model = checked(key, lambda: NoiseModel(kind, p1).amplified(lam))
    return noiseless() if kind == "none" or p1 == 0.0 else model


def values(cfg) -> Values:
    """Every value object the checked table cfg names, each built by its own constructor.

    The graph (n, edges), its Hamiltonian h, the partition, the params read
    from vqe.params_file (or None), the noise model of each p1, (kind, p1) or
    (budget, depth), the SubspaceSpec of each (kind, M) and the ShotConfig of
    each ns; a fault basis's noise model is checked amplified to its largest M.
    """
    n, edges = checked("graph", models.graph, cfg.graph)
    h = build_ising(edges, n)
    part = checked("partition", models.partition, cfg.partition) \
        if hasattr(cfg, "partition") else None
    vqe = getattr(cfg, "vqe", None)
    params = checked("vqe.params_file", read_params, vqe.params_file, n, vqe.layers) \
        if vqe and vqe.params_file else None
    sub, specs = getattr(cfg, "subspace", None), {}
    bases = [(f"subspace.kind {sub.kind!r} at subspace.m_values {m}", sub.kind, m)
             for m in getattr(sub, "m_values", ())]
    bases += [(f"kinds {k!r} at m_values {m}", k, m)
              for k in getattr(cfg, "kinds", ()) for m in cfg.m_values]
    bases += [(f"{k}_m {m}", k, m) for k in ("power", "dc") for m in getattr(cfg, f"{k}_m", ())]
    for key, kind, m in bases:
        dc = kind == "dc"  # only the divided basis reads the partition and the boundary flag
        specs[kind, m] = checked(key, SubspaceSpec, kind, m, h, partition=part if dc else None,
                                 boundary_state_only=dc and sub.boundary_state_only)
    noise = {}
    if hasattr(cfg, "noise_kinds"):  # each model as given, relaxation at p1 = 0 included
        for kind in cfg.noise_kinds:
            for p1 in cfg.noise.p1_values:
                noise[kind, p1] = checked(f"noise_kinds {kind!r} at noise.p1_values {p1!r}",
                                          NoiseModel, kind, p1)
    elif hasattr(cfg, "noise"):
        lam = max(sub.m_values) if sub.kind == "fault" else 1
        rates = "noise.p1_values" if hasattr(cfg.noise, "p1_values") else "noise.p1"
        for p1 in getattr(cfg.noise, "p1_values", None) or (cfg.noise.p1,):
            key = f"noise.kind {cfg.noise.kind!r} at {rates} {p1!r}"
            noise[p1] = checked_noise_model(key, cfg.noise.kind, p1)
            if lam > 1:  # the fault basis amplifies it up to its largest M
                checked_noise_model(f"{key} amplified to M {lam}", cfg.noise.kind, p1, lam)
    for budget in getattr(cfg, "error_budgets", ()):
        for layers in cfg.depths:
            noise[budget, layers] = checked(
                f"error_budgets {budget!r} at depths {layers}", NoiseModel,
                "stochastic_pauli", budget_p1(budget, layers, n, len(edges)))
    shots = {}
    if hasattr(cfg, "shots"):
        budgets = "shots.ns_values" if hasattr(cfg.shots, "ns_values") else "shots.ns"
        for ns in getattr(cfg.shots, "ns_values", None) or (cfg.shots.ns,):
            shots[ns] = checked(f"{budgets} {ns!r} with shots.n_samples {cfg.shots.n_samples}",
                                ShotConfig, ns, cfg.shots.n_samples, cfg.seed)
        _check_shot_plan(sub, h, specs[sub.kind, max(sub.m_values)], budgets, shots)
    return Values(n, edges, h, part, params, noise, specs, shots)


def _check_shot_plan(sub, h, largest: SubspaceSpec, budgets: str, shots: dict) -> None:
    """Reject a shot plan that fails after the build whatever the state.

    The size-1 power or divided pencil is S = [[d]], H = [[c d]], c being H's
    identity coefficient, so its one energy c lies outside the energy window,
    a band of negative energies, wherever c >= 0.  A built pencil's Q is at
    least the Q ``plan_queries`` counts with reuse (a build merges only
    bit-identical blocks), and Q grows with M, so a budget below the planned
    Q of the largest M leaves a query without a shot.
    """
    c = h.identity_coefficient.real
    if sub.kind != "fault" and 1 in sub.m_values and c >= 0:
        raise ConfigError(f"subspace.m_values holds 1: the size-1 {sub.kind} pencil's one energy "
                          f"is H's identity coefficient {c:g}, never inside the negative "
                          f"energy window")
    q = plan_queries(largest, reuse=True).q
    if low := sorted(ns for ns in shots if ns < q):
        raise ConfigError(f"{budgets} {low[0]!r} gives less than one shot per query: "
                          f"subspace.kind {sub.kind!r} at M {largest.m} plans Q = {q}")


def read_params(params_file: str, n: int, layers: int) -> np.ndarray:
    """The n-qubit, layers-deep ansatz parameters stored in params_file.

    Raises ConfigError unless the file holds a JSON list of 2 n (layers + 1)
    finite numbers; a file that cannot be opened raises OSError.
    """
    want = 2 * n * (layers + 1)
    with open(params_file) as fh:
        try:
            params = np.array(json.load(fh), dtype=float)
        except (ValueError, TypeError) as ex:
            raise ConfigError(f"parameter file {params_file} is not a list of numbers: "
                              f"{ex}") from ex
    if params.shape != (want,):
        raise ConfigError(f"parameter file {params_file} holds shape {params.shape}; "
                          f"{n} qubits at {layers} layers need a flat list of {want}")
    if not np.all(np.isfinite(params)):
        raise ConfigError(f"parameter file {params_file} holds a NaN or infinite entry")
    return params


def _trained(vqe, n: int, h, edges) -> np.ndarray:
    """Ansatz parameters trained by VQE."""
    return optimize(n, vqe.layers, h, iters=vqe.iters, seed=vqe.seed, edges=edges).params


class Problem:
    """Everything derived from the graph/ansatz part of a checked config."""

    def __init__(self, cfg):
        self.cfg, v = cfg, cfg.values
        self.n, self.edges, self.h = v.n, v.edges, v.h
        self.layers = cfg.vqe.layers
        self.e_true, _ = exact_ground(self.h)
        self.window = energy_window(self.e_true)
        self.params = _trained(cfg.vqe, v.n, v.h, v.edges) if v.params is None else v.params
        self.ansatz = build_ansatz(self.n, self.layers, self.params, self.edges)
        psi = ansatz_state(self.n, self.layers, self.edges, self.params)
        self.vqe_energy = float(np.real(np.vdot(psi, self.h.matrix() @ psi)))
        self.vqe_bias = self.vqe_energy - self.e_true

    @functools.cached_property
    def _block_parts(self) -> tuple[list, list]:
        """Each block's ansatz and noiseless state, trained once."""
        subs = []
        states = []
        for block in self.cfg.values.partition.blocks:
            h_b, sub_edges = models.block_subproblem(self.edges, block)
            params = _trained(self.cfg.vqe, len(block), h_b, sub_edges)
            subs.append(build_ansatz(len(block), self.layers, params, sub_edges))
            psi = ansatz_state(len(block), self.layers, sub_edges, params)
            states.append(np.outer(psi, psi.conj()))
        return subs, states

    def block_ansatzes(self) -> list:
        return self._block_parts[0]

    def _product_energy(self, states) -> float:
        """Tr[(states[-1] (x) ... (x) states[0]) H], block 0 on the low qubits."""
        full = states[-1]
        for st in states[-2::-1]:
            full = np.kron(full, st)
        return float(np.real(np.trace(full @ self.h.matrix())))

    @functools.cached_property
    def _separable_energy(self) -> float:
        """The product state's energy, formed on the first ``separable_bias`` call."""
        return self._product_energy(self._block_parts[1])

    def separable_bias(self) -> float:
        return self._separable_energy - self.e_true

    def build(self, kind: str, m_values, noise: NoiseModel, with_variances=True) -> list:
        """(M, pencil) for each M, sliced from one build at the largest."""
        if not m_values:
            return []
        spec = self.cfg.values.specs[kind, max(m_values)]
        arg = self.block_ansatzes() if kind == "dc" else self.ansatz
        mats = build(spec, arg, noise, seed=self.cfg.seed, with_variances=with_variances)
        return [(m, mats.leading(m)) for m in m_values]

    def raw_noisy_energy(self, kind: str, noise: NoiseModel) -> float:
        if kind == "dc":
            return self._product_energy([run(attach_noise(c, noise, seed=self.cfg.seed))
                                         for c in self.block_ansatzes()])
        rho = run(attach_noise(self.ansatz, noise, seed=self.cfg.seed))
        return float(sum(np.real(t.coeff * expect_pauli(rho, t.axes)) for t in self.h))


# ---------------------------------------------------------------------------
# scenarios


def scenario_bias_vs_m(cfg) -> dict:
    prob = Problem(cfg)
    kind, m_values = cfg.subspace.kind, cfg.subspace.m_values
    dump = cfg.dump_matrices
    baseline = prob.separable_bias() if kind == "dc" else prob.vqe_bias
    rows = []
    mat_rows = []
    ledger_rows = []
    for p1 in cfg.noise.p1_values:
        noise = cfg.values.noise[p1]
        raw = (prob.separable_bias() + prob.e_true if kind == "dc" and p1 == 0
               else prob.raw_noisy_energy(kind, noise))
        for m, mats in prob.build(kind, m_values, noise, with_variances=dump):
            try:
                sol = solve_pencil(mats.s, mats.h, prob.window, THRESHOLD)
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
        out["ledger"] = (("p1", "m", "state_id", "axes", "value", "var"),
                         ledger_rows)
    return out


def scenario_shots(cfg) -> dict:
    """Energy distribution moments over a shot-budget grid."""
    prob = Problem(cfg)
    kind = cfg.subspace.kind
    rows = []
    for m, mats in prob.build(kind, cfg.subspace.m_values, cfg.values.noise[cfg.noise.p1]):
        q = len(mats.queries)
        exact_sol = solve_pencil(mats.s, mats.h, prob.window, THRESHOLD)
        lambda_min = max(exact_sol.lambda_min_raw, 1e-300)
        for ns in cfg.shots.ns_values:
            dist = sample_distribution(mats, cfg.values.shots[ns], prob.window)
            ub = 4.0 * prob.h.weight() * q / lambda_min / np.sqrt(ns)
            rows.append((kind, m, ns, dist.mean, dist.stddev,
                         dist.mean - prob.e_true, dist.rejections, q,
                         exact_sol.energy, ub))
    header = ("kind", "m", "ns", "mean", "stddev", "mean_delta_e", "rejections",
              "q", "exact_energy", "stddev_upper_bound")
    return {"shots": (header, rows)}


def scenario_histogram(cfg) -> dict:
    prob = Problem(cfg)
    kind = cfg.subspace.kind
    rows = []
    for m, mats in prob.build(kind, cfg.subspace.m_values, cfg.values.noise[cfg.noise.p1]):
        dist = sample_distribution(mats, cfg.values.shots[cfg.shots.ns], prob.window)
        for idx, e in enumerate(dist.samples):
            rows.append((kind, m, idx, e))
    header = ("kind", "m", "sample_idx", "energy")
    return {"histogram": (header, rows)}


def scenario_queries(cfg) -> dict:
    """Query counts Q without and with reuse, one row per (kind, M, reuse).

    Needs only the Hamiltonian and the partition, so no VQE and no pencil:
    ``plan_queries`` counts from the term lists alone.
    """
    rows = []
    for kind in cfg.kinds:
        for m in cfg.m_values:
            for reuse in (False, True):
                rows.append((kind, m, int(reuse), plan_queries(cfg.values.specs[kind, m], reuse).q))
    return {"queries": (("kind", "m", "reuse", "q"), rows)}


def scenario_cost_metric(cfg) -> dict:
    """Noise-free bias against the sampling-cost comparator, Q read from
    each pencil's ledger."""
    prob = Problem(cfg)
    rows = []
    for kind, m_values in (("power", cfg.power_m), ("dc", cfg.dc_m)):
        for m, mats in prob.build(kind, m_values, noiseless(), with_variances=False):
            try:
                sol = solve_pencil(mats.s, mats.h, prob.window, THRESHOLD)
            except (SelectionFailureError, EmptySubspaceError):
                continue
            q = len(mats.queries)
            rows.append((kind, m, abs(sol.energy - prob.e_true), q,
                         dc_overhead(sol.alpha_prime),
                         cost_metric(m, q, sol.alpha_prime)))
    header = ("kind", "m", "abs_delta_e", "q", "alpha_prime_norm4", "metric")
    return {"cost_metric": (header, rows)}


def scenario_esd_vs_dsp(cfg) -> dict:
    prob = Problem(cfg)
    rows = []
    for nk in cfg.noise_kinds:
        for p1 in cfg.noise.p1_values:
            nm = cfg.values.noise[nk, p1]
            circ = attach_noise(prob.ansatz, nm, seed=cfg.seed)
            dsp = DspEvaluator(circ, gadget_noise=nm, gadget_seed=cfg.seed)
            num = 0.0
            for t in prob.h:
                num += float(np.real(t.coeff)) * dsp.numerator(PauliTerm(t.axes, 1.0))
            p0 = dsp.result(PauliTerm("I" * prob.n, 1.0)).p0  # raises on a vanishing p0
            e_dsp = num / p0
            ev = EsdEvaluator(circ, 2, gadget_noise=nm, gadget_seed=cfg.seed)
            e_esd = sum(float(np.real(t.coeff)) * ev.expectation(PauliTerm(t.axes, 1.0))
                        for t in prob.h)
            pur_esd = ev.numerator(None)
            rows.append((nk, p1, abs(e_esd - prob.e_true), abs(e_dsp - prob.e_true),
                         pur_esd, p0))
    header = ("noise_kind", "p1", "abs_delta_e_esd", "abs_delta_e_dsp",
              "purity_esd", "purity_dsp")
    return {"esd_vs_dsp": (header, rows)}


def budget_p1(budget: float, layers: int, n: int, n_edges: int) -> float:
    """The p1 at which a layers-deep ansatz under stochastic Pauli noise expects budget errors.

    Every rotation adds p1, and every cz TWO_QUBIT_RATIO p1 on each of its two qubits.
    """
    return budget / (2 * n * (layers + 1) + 2 * TWO_QUBIT_RATIO * n_edges * layers)


def scenario_trace_distance(cfg) -> dict:
    """Dual-state gap against circuit depth at fixed whole-circuit error."""
    n, edges = cfg.values.n, cfg.values.edges
    rows = []
    for budget in cfg.error_budgets:
        for layers in cfg.depths:
            noise = cfg.values.noise[budget, layers]
            d_dual, d_prod = [], []
            for seed in range(cfg.n_seeds):
                rng = np.random.default_rng([cfg.seed, seed, layers])
                params = rng.uniform(-np.pi, np.pi, 2 * n * (layers + 1))
                base = build_ansatz(n, layers, params, edges)
                circ = attach_noise(base, noise)
                rho, bar = run(circ), dual_state(circ)
                d_dual.append(trace_distance(rho, bar))
                d_prod.append(trace_distance(rho @ rho, 0.5 * (bar @ rho + rho @ bar)))
            rows.append((budget, layers, noise.p1, float(np.mean(d_dual)),
                         float(np.mean(d_prod)), expected_errors(circ)))
    header = ("error_budget", "layers", "p1", "mean_dist_dual", "mean_dist_product",
              "expected_errors")
    return {"trace_distance": (header, rows)}


# Each scenario with its table: every key it reads, with its default.
SCENARIOS: dict[str, tuple[Callable, dict]] = {
    "bias-vs-m": (scenario_bias_vs_m, {
        **_PENCIL, "dump_matrices": False,
        "noise": {**_NOISE, "p1_values": [2e-6, 2e-5, 2e-4]},
        "subspace": {**_SUBSPACE, "m_values": [1, 2, 3, 4, 5]}}),
    "stddev-vs-shots": (scenario_shots, {
        **_PENCIL, "noise": _ONE_P1, "subspace": _SHOT_SUBSPACE,
        "shots": {**_SAMPLES, "ns_values": [1e6, 1e7, 1e8, 1e9, 1e10, 1e11]}}),
    "histogram": (scenario_histogram, {
        **_PENCIL, "noise": _ONE_P1, "subspace": _SHOT_SUBSPACE,
        "shots": {**_SAMPLES, "ns": 1e8}}),
    "queries": (scenario_queries, {
        **_PARTITIONED, "kinds": list(KINDS), "m_values": [2, 3, 4, 5],
        "subspace": _BOUNDARY}),
    "cost-metric": (scenario_cost_metric, {
        **_PENCIL, "power_m": [2, 3, 4, 5], "dc_m": list(range(2, 10)),
        "subspace": _BOUNDARY}),
    "esd-vs-dsp": (scenario_esd_vs_dsp, {
        **_BASE, "vqe": VQE_DEFAULTS, "noise": {"p1_values": [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]},
        "noise_kinds": ["stochastic_pauli", "thermal_relaxation"]}),
    "trace-distance": (scenario_trace_distance, {
        **_BASE, "graph": "path-4", "depths": [10, 100, 1000],
        "error_budgets": [0.5, 1.0, 1.5], "n_seeds": 20}),
}


def run_experiment(cfg, raw: dict, out_dir: str) -> list[str]:
    """Run cfg, which is ``check_config(raw)``, and write CSVs plus a manifest of raw."""
    outputs = SCENARIOS[cfg.scenario][0](cfg)
    return write_outputs(outputs, cfg, raw, out_dir)
