"""The four scenario workloads: configs, operations, output checks, bite tests.

An operation is one result row the scenario is asked for.  ``check`` maps
each operation to the reasons it failed (an empty list when it passed); the
reasons come from dense references computed in ``reference.py`` and from
properties generalized subspace expansion must have.  ``bites`` returns
perturbed copies of a passing output, each of which ``check`` must reject.
"""

from __future__ import annotations

import copy
import math

import numpy as np

import reference as ref

FMT = "%.12g"
PATH8 = ref.path_edges(8)
E_TRUE_TOL = 1e-9


def _f(row: dict, col: str) -> float:
    try:
        return float(row[col])
    except (KeyError, TypeError, ValueError):
        return math.nan


def _set(outputs: dict, csv: str, match: dict, col: str, fn) -> dict:
    """Copy of outputs with fn applied to one value of the matching row."""
    out = copy.deepcopy(outputs)
    for row in out[csv]:
        if all(row.get(k) == v for k, v in match.items()):
            row[col] = FMT % fn(float(row[col]))
            return out
    raise KeyError(f"no row {match} in {csv}")


def _e_true_failures(values) -> list[str]:
    """Every value must be the self-built path-8 ground energy."""
    want = ref.ground_energy(8, PATH8)
    bad = [v for v in values if not abs(v - want) <= E_TRUE_TOL]
    return [f"e_true {v!r} differs from dense {want!r}" for v in bad]


class Workload:
    name = ""
    why = ""

    def config(self, seed: int) -> dict:
        raise NotImplementedError

    def operations(self, cfg: dict) -> list[tuple]:
        raise NotImplementedError

    def check(self, cfg: dict, outputs: dict, captured: dict) -> dict[tuple, list[str]]:
        raise NotImplementedError

    def bites(self, cfg: dict, outputs: dict) -> list[tuple[str, dict]]:
        raise NotImplementedError


class FaultBias(Workload):
    name = "fault-bias-path8"
    why = "dense 8-qubit noisy runs and duals under Pauli noise, rebuilt for every M; no sampling"
    p1_values = [2e-5, 2e-4]
    m_values = [1, 2, 3]

    def config(self, seed):
        return {"scenario": "bias-vs-m", "seed": seed, "graph": "path-8",
                "noise": {"kind": "stochastic_pauli", "p1_values": self.p1_values},
                "subspace": {"kind": "fault", "m_values": self.m_values},
                "vqe": {"layers": 2, "iters": 60, "seed": seed}}

    def operations(self, cfg):
        return [(p1, m) for p1 in self.p1_values for m in self.m_values]

    def check(self, cfg, outputs, captured):
        refs = {r["name"]: _f(r, "value") for r in outputs.get("reference", [])}
        common = _e_true_failures([refs.get("e_true", math.nan)]
                                  + captured.get("exact_ground", [])[:1])
        e_true = ref.ground_energy(8, PATH8)
        opt = captured.get("optimize", [])
        if opt:
            psi = ref.ansatz_state(8, cfg["vqe"]["layers"], opt[0]["params"], PATH8)
            e_vqe = float(np.real(np.vdot(psi, ref.tfim(8, PATH8) @ psi)))
        else:
            e_vqe = math.nan
            common.append("no VQE parameters captured")
        if not abs(refs.get("vqe_energy", math.nan) - e_vqe) <= 1e-9:
            common.append(f"vqe_energy differs from the dense ansatz energy {e_vqe!r}")
        baseline = e_vqe - e_true
        rows = outputs.get("bias_vs_m", [])
        raw = {_f(r, "p1"): _f(r, "delta_e") for r in rows if r.get("note") == "unmitigated"}
        result = {}
        for r in rows:
            if r.get("note") == "unmitigated":
                continue
            p1, m = _f(r, "p1"), int(_f(r, "m"))
            bad = list(common)
            bias = _f(r, "energy") - e_true
            if r.get("note"):
                bad.append(f"note {r['note']}")
            if not abs(bias - _f(r, "delta_e")) <= 1e-9:
                bad.append("delta_e is not energy - e_true")
            if not bias < raw.get(p1, math.nan):
                bad.append(f"bias {bias:.6g} not below the unmitigated {raw.get(p1)}")
            if m >= 2 and not abs(bias - baseline) <= 0.3 * baseline:
                bad.append(f"bias {bias:.6g} outside 0.3x band of baseline {baseline:.6g}")
            if m == 1 and not bias >= 0.7 * baseline:
                bad.append(f"M=1 bias {bias:.6g} below the band's lower edge")
            result[(p1, m)] = bad
        return result

    def bites(self, cfg, outputs):
        p1 = FMT % self.p1_values[-1]
        return [
            ("M=3 bias pushed out of the band",
             _set(outputs, "bias_vs_m", {"p1": p1, "m": "3"}, "energy", lambda v: v + 0.05)),
            ("e_true moved by 1e-6",
             _set(outputs, "reference", {"name": "e_true"}, "value", lambda v: v + 1e-6)),
        ]


class ShotStats(Workload):
    name = "shot-stats-path8"
    why = "1200 perturb-regularize-solve cycles on four circuit simulations: shotnoise and gevp"
    m_values = [2, 3]
    ns_values = [1e6, 1e8, 1e10]
    n_samples = 200

    def config(self, seed):
        return {"scenario": "stddev-vs-shots", "seed": seed, "graph": "path-8",
                "noise": {"kind": "stochastic_pauli", "p1": 2e-6},
                "shots": {"n_samples": self.n_samples, "ns_values": self.ns_values},
                "subspace": {"kind": "power", "m_values": self.m_values},
                "vqe": {"layers": 2, "iters": 60, "seed": seed}}

    def operations(self, cfg):
        return [(m, ns) for m in self.m_values for ns in self.ns_values]

    def check(self, cfg, outputs, captured):
        rows = outputs.get("shots", [])
        e_true = ref.ground_energy(8, PATH8)
        common = _e_true_failures(captured.get("exact_ground", [])[:1])
        lo, hi = ref.window(e_true)
        # M = 2 keeps both directions at every budget here: the scaled overlap's
        # off-diagonal is about 1/sqrt(2^8), far from the 10/sqrt(ns) cut.
        scaled = [_f(r, "stddev") * math.sqrt(_f(r, "ns")) for r in rows if r.get("m") == "2"]
        centre = float(np.median(scaled)) if scaled else math.nan
        result = {}
        for r in rows:
            m, ns = int(_f(r, "m")), _f(r, "ns")
            bad = list(common)
            bad += _e_true_failures([_f(r, "mean") - _f(r, "mean_delta_e")])
            if not lo <= _f(r, "mean") <= hi:
                bad.append("mean outside the energy window")
            if not 0.0 < _f(r, "stddev") <= _f(r, "stddev_upper_bound"):
                bad.append("stddev not in (0, stddev_upper_bound]")
            if m == 2 and not abs(_f(r, "stddev") * math.sqrt(ns) - centre) <= 0.01 * centre:
                bad.append(f"stddev*sqrt(ns) {_f(r, 'stddev') * math.sqrt(ns):.6g} "
                           f"leaves the M=2 constant {centre:.6g}")
            result[(m, ns)] = bad
        return result

    def bites(self, cfg, outputs):
        mid = FMT % self.ns_values[1]
        last = FMT % self.ns_values[-1]
        return [
            ("one M=2 stddev scaled by 1.05",
             _set(outputs, "shots", {"m": "2", "ns": mid}, "stddev", lambda v: 1.05 * v)),
            ("one M=3 stddev above its upper bound",
             _set(outputs, "shots", {"m": "3", "ns": last}, "stddev",
                  lambda v: 2.0 * float(next(r["stddev_upper_bound"] for r in outputs["shots"]
                                             if r["m"] == "3" and r["ns"] == last)))),
            ("one mean moved by 1e-6",
             _set(outputs, "shots", {"m": "3", "ns": mid}, "mean", lambda v: v + 1e-6)),
        ]


class DcCost(Workload):
    name = "dc-cost-path8"
    why = "noiseless power and divided bases: Hamiltonian powers, factorize and query planning"
    power_m = [2, 3, 4]
    dc_m = [2, 3, 4, 5, 6]
    dense_m = 3

    def config(self, seed):
        return {"scenario": "cost-metric", "seed": seed, "graph": "path-8",
                "partition": "half-4-4", "power_m": self.power_m, "dc_m": self.dc_m,
                "subspace": {"boundary_state_only": True},
                "vqe": {"layers": 2, "iters": 60, "seed": seed}}

    def operations(self, cfg):
        return [("power", m) for m in self.power_m] + [("dc", m) for m in self.dc_m]

    def _dense_energies(self, cfg, captured) -> dict[str, float]:
        """Energies at dense_m from dense pencils of the captured VQE states."""
        opt = captured.get("optimize", [])  # the full problem, then block 0, block 1
        if len(opt) != 3:
            return {}
        layers = cfg["vqe"]["layers"]
        h = ref.tfim(8, PATH8)
        full = ref.ansatz_state(8, layers, opt[0]["params"], PATH8)
        # half-4-4 cuts path-8 into two path-4 blocks; block 1 holds qubits 4..7
        blocks = [ref.ansatz_state(4, layers, o["params"], ref.path_edges(4)) for o in opt[1:]]
        product = np.kron(blocks[1], blocks[0])
        win = ref.window(ref.ground_energy(8, PATH8))
        return {kind: ref.pencil_energy(*ref.krylov_pencil(psi, h, self.dense_m), win)
                for kind, psi in (("power", full), ("dc", product))}

    def check(self, cfg, outputs, captured):
        rows = outputs.get("cost_metric", [])
        e_true = ref.ground_energy(8, PATH8)
        common = _e_true_failures(captured.get("exact_ground", [])[:1])
        dense = self._dense_energies(cfg, captured)
        if not dense:
            common.append("VQE parameters not captured")
        by = {(r["kind"], int(_f(r, "m"))): r for r in rows}
        result = {}
        for (kind, m), r in by.items():
            bad = list(common)
            err = _f(r, "abs_delta_e")
            prev = by.get((kind, m - 1))
            if prev is not None and not err <= _f(prev, "abs_delta_e") + 1e-10:
                bad.append(f"abs_delta_e rose from M={m - 1} to M={m}")
            if kind == "dc" and ("power", m) in by:
                if not _f(r, "q") < _f(by[("power", m)], "q"):
                    bad.append("divided-basis Q not below power-basis Q")
            if m == self.dense_m and kind in dense:
                want = abs(dense[kind] - e_true)
                if not abs(err - want) <= 1e-9:
                    bad.append(f"abs_delta_e {err!r} differs from dense pencil {want!r}")
            if not _f(r, "q") >= 1:
                bad.append("no queries")
            result[(kind, m)] = bad
        return result

    def bites(self, cfg, outputs):
        return [
            ("dc M=3 energy moved by 1e-8",
             _set(outputs, "cost_metric", {"kind": "dc", "m": "3"}, "abs_delta_e",
                  lambda v: v + 1e-8)),
            ("dc M=2 Q raised to the power-basis Q",
             _set(outputs, "cost_metric", {"kind": "dc", "m": "2"}, "q",
                  lambda v: float(next(r["q"] for r in outputs["cost_metric"]
                                       if r["kind"] == "power" and r["m"] == "2")))),
            ("power M=4 error raised above M=3",
             _set(outputs, "cost_metric", {"kind": "power", "m": "4"}, "abs_delta_e",
                  lambda v: 1.0)),
        ]


class EsdDsp(Workload):
    name = "esd-dsp-path4"
    why = "9-qubit copy circuits and 5-qubit uncompute circuits under Pauli and Kraus noise"
    p1_values = [1e-5, 1e-3]
    kinds = ["stochastic_pauli", "thermal_relaxation"]

    def config(self, seed):
        return {"scenario": "esd-vs-dsp", "seed": seed, "graph": "path-4",
                "noise": {"p1_values": self.p1_values}, "noise_kinds": self.kinds,
                "vqe": {"layers": 1, "iters": 60, "seed": seed}}

    def operations(self, cfg):
        return [(k, p1) for k in self.kinds for p1 in self.p1_values]

    def check(self, cfg, outputs, captured):
        rows = outputs.get("esd_vs_dsp", [])
        common = []
        opt = captured.get("optimize", [])
        p1_dense = self.p1_values[0]
        dense = None
        if opt:
            rho, bar = ref.noisy_ansatz_states(4, cfg["vqe"]["layers"], opt[0]["params"],
                                               ref.path_edges(4), p1_dense)
            dense = (float(np.real(np.trace(rho @ rho))), float(np.real(np.trace(bar @ rho))))
        else:
            common.append("VQE parameters not captured")
        by = {(r["noise_kind"], _f(r, "p1")): r for r in rows}
        result = {}
        for (kind, p1), r in by.items():
            bad = list(common)
            for col in ("purity_esd", "purity_dsp"):
                if not 0.0 < _f(r, col) <= 1.0 + 1e-12:
                    bad.append(f"{col} outside (0, 1]")
            for col in ("abs_delta_e_esd", "abs_delta_e_dsp"):
                if not _f(r, col) >= 0.0:
                    bad.append(f"{col} not a non-negative number")
            lower = [q for (k, q) in by if k == kind and q < p1]
            if lower:
                prev = by[(kind, max(lower))]
                for col in ("purity_esd", "purity_dsp"):
                    if not _f(r, col) < _f(prev, col):
                        bad.append(f"{col} does not fall with p1")
            if kind == "stochastic_pauli" and p1 == p1_dense and dense is not None:
                tol = 2.0 * ref.esd_gadget_error_budget(p1, 4)
                if not abs(_f(r, "purity_esd") - dense[0]) <= tol:
                    bad.append(f"purity_esd {_f(r, 'purity_esd')!r} is farther than {tol:.3g} "
                               f"from dense Tr[rho^2] {dense[0]!r}")
                if not abs(_f(r, "purity_dsp") - dense[1]) <= 1e-9:
                    bad.append(f"purity_dsp differs from dense Tr[dual rho] {dense[1]!r}")
            result[(kind, p1)] = bad
        return result

    def bites(self, cfg, outputs):
        lo, hi = FMT % self.p1_values[0], FMT % self.p1_values[-1]
        tol = 2.0 * ref.esd_gadget_error_budget(self.p1_values[0], 4)
        return [
            ("purity_esd moved past the gadget tolerance",
             _set(outputs, "esd_vs_dsp", {"noise_kind": "stochastic_pauli", "p1": lo},
                  "purity_esd", lambda v: v - 1.5 * tol)),
            ("purity_dsp moved by 1e-6",
             _set(outputs, "esd_vs_dsp", {"noise_kind": "stochastic_pauli", "p1": lo},
                  "purity_dsp", lambda v: v - 1e-6)),
            ("thermal purity rising with p1",
             _set(outputs, "esd_vs_dsp", {"noise_kind": "thermal_relaxation", "p1": hi},
                  "purity_esd", lambda v: 1.0)),
        ]


WORKLOADS = {w.name: w for w in (FaultBias(), ShotStats(), DcCost(), EsdDsp())}
