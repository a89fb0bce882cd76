import builtins
import contextlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qemlab import errors, experiments, models
from qemlab.channels import NOISE_KINDS
from qemlab.cli import main
from qemlab.experiments import check_config, run_experiment
from qemlab.pauli import build_ising
from qemlab.subspace import KINDS, plan_queries
from qemlab.vqe import optimize

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def small_cfg(**over):
    cfg = {
        "scenario": "bias-vs-m",
        "seed": 0,
        "graph": "path-4",
        "vqe": {"layers": 3, "iters": 50, "seed": 5},
        "noise": {"kind": "stochastic_pauli", "p1_values": [2e-4]},
        "subspace": {"kind": "power", "m_values": [1, 2, 3]},
    }
    cfg.update(over)
    return cfg


class TestRunScenarios:
    def test_bias_vs_m_writes_csv_and_manifest(self, tmp_path):
        cfg = small_cfg()
        written = run_experiment(check_config(cfg), cfg, str(tmp_path))
        names = {os.path.basename(p) for p in written}
        assert {"bias_vs_m.csv", "reference.csv", "manifest.json"} <= names
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["scenario"] == "bias-vs-m"
        assert len(manifest["config_hash"]) == 16
        lines = (tmp_path / "bias_vs_m.csv").read_text().splitlines()
        assert lines[0].startswith("kind,p1,m")
        # M=1 has no window-compatible eigenvalue and is recorded, not dropped
        assert any("SelectionFailureError" in ln for ln in lines)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = small_cfg()
        run_experiment(check_config(cfg), cfg, str(tmp_path / "a"))
        run_experiment(check_config(cfg), cfg, str(tmp_path / "b"))
        for name in ("bias_vs_m.csv", "reference.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_queries_scenario(self, tmp_path):
        cfg = {
            "scenario": "queries", "seed": 0, "graph": "path-4",
            "kinds": ["power", "fault"], "m_values": [2, 3],
        }
        run_experiment(check_config(cfg), cfg, str(tmp_path))
        rows = (tmp_path / "queries.csv").read_text().splitlines()[1:]
        assert len(rows) == 8
        got = {tuple(r.split(",")[:3]): int(r.split(",")[3]) for r in rows}
        assert got[("fault", "2", "0")] == got[("fault", "2", "1")]

    def test_queries_scenario_matches_command_without_vqe(self, tmp_path, monkeypatch):
        def no_baseline(*a, **k):
            raise AssertionError("query counting needs no VQE or exact ground state")

        monkeypatch.setattr("qemlab.experiments.optimize", no_baseline)
        monkeypatch.setattr("qemlab.experiments.exact_ground", no_baseline)
        cfg = {"scenario": "queries", "seed": 0, "graph": "path-8", "partition": "half-4-4",
               "kinds": ["power", "dc"], "m_values": [2, 3],
               "subspace": {"boundary_state_only": True}}
        run_experiment(check_config(cfg), cfg, str(tmp_path / "scenario"))
        rc = main(["queries", "--graph", "path-8", "--kinds", "power", "dc", "--m-min", "2",
                   "--m-max", "3", "--state-only-boundary", "--out-dir", str(tmp_path / "cmd")])
        assert rc == 0
        assert (tmp_path / "scenario" / "queries.csv").read_bytes() == \
               (tmp_path / "cmd" / "queries.csv").read_bytes()

    def test_shots_scenario_small(self, tmp_path):
        cfg = small_cfg(scenario="stddev-vs-shots")
        cfg["subspace"] = {"kind": "power", "m_values": [2]}
        cfg["shots"] = {"ns_values": [1e6, 1e8], "n_samples": 40}
        cfg["noise"] = {"kind": "stochastic_pauli", "p1": 2e-4}
        run_experiment(check_config(cfg), cfg, str(tmp_path))
        rows = (tmp_path / "shots.csv").read_text().splitlines()
        assert len(rows) == 3
        std6 = float(rows[1].split(",")[4])
        std8 = float(rows[2].split(",")[4])
        assert std8 < std6

    def test_trace_distance_scenario_small(self, tmp_path):
        cfg = {
            "scenario": "trace-distance", "seed": 0, "graph": "path-4",
            "depths": [5, 50], "error_budgets": [1.0], "n_seeds": 3,
        }
        run_experiment(check_config(cfg), cfg, str(tmp_path))
        rows = (tmp_path / "trace_distance.csv").read_text().splitlines()[1:]
        d5 = float(rows[0].split(",")[3])
        d50 = float(rows[1].split(",")[3])
        assert d50 < d5

    def test_unknown_scenario(self, tmp_path):
        with pytest.raises(Exception):
            check_config({"scenario": "nope"})

    def test_matrix_and_ledger_dump(self, tmp_path):
        cfg = small_cfg(dump_matrices=True)
        cfg["subspace"] = {"kind": "power", "m_values": [2]}
        run_experiment(check_config(cfg), cfg, str(tmp_path))
        mat_lines = (tmp_path / "matrices.csv").read_text().splitlines()
        assert mat_lines[0] == "p1,m,which,i,j,re,im,var"
        assert len(mat_lines) == 1 + 2 * 4  # S and H, 2x2 each
        ledger_lines = (tmp_path / "ledger.csv").read_text().splitlines()
        assert ledger_lines[0] == "p1,m,state_id,axes,value,var"
        assert len(ledger_lines) > 5

    def test_histogram_scenario_small(self, tmp_path):
        cfg = small_cfg(scenario="histogram")
        cfg["subspace"] = {"kind": "power", "m_values": [2]}
        cfg["shots"] = {"ns": 1e8, "n_samples": 25}
        cfg["noise"] = {"kind": "stochastic_pauli", "p1": 2e-4}
        run_experiment(check_config(cfg), cfg, str(tmp_path))
        rows = (tmp_path / "histogram.csv").read_text().splitlines()[1:]
        assert len(rows) == 25

    def test_cost_metric_scenario_small(self, tmp_path):
        cfg = {
            "scenario": "cost-metric", "seed": 0, "graph": "path-4",
            "partition": "half-2-2",
            "vqe": {"layers": 3, "iters": 50, "seed": 5},
            "power_m": [2, 3], "dc_m": [2, 3],
        }
        run_experiment(check_config(cfg), cfg, str(tmp_path))
        rows = (tmp_path / "cost_metric.csv").read_text().splitlines()[1:]
        kinds = {r.split(",")[0] for r in rows}
        assert kinds == {"power", "dc"}
        for r in rows:
            assert float(r.split(",")[5]) > 0  # metric column

    def test_product_energy_formed_only_where_read(self, tmp_path, monkeypatch):
        # cost-metric never reads the separable baseline; bias-vs-m over dc
        # reads it twice at p1 = 0 and forms it once, plus once for the
        # noisy product state at p1 = 2e-4
        calls = []
        form = experiments.Problem._product_energy
        monkeypatch.setattr(experiments.Problem, "_product_energy",
                            lambda prob, states: calls.append(len(states)) or form(prob, states))
        cfg = {"scenario": "cost-metric", "seed": 0, "graph": "path-4",
               "partition": "half-2-2", "vqe": {"layers": 3, "iters": 50, "seed": 5},
               "power_m": [2], "dc_m": [2, 3]}
        run_experiment(check_config(cfg), cfg, str(tmp_path / "cost"))
        assert calls == []
        cfg = small_cfg(partition="half-2-2", noise={"p1_values": [0.0, 2e-4]},
                        subspace={"kind": "dc", "m_values": [2]})
        run_experiment(check_config(cfg), cfg, str(tmp_path / "bias"))
        assert calls == [2, 2]

    def test_esd_vs_dsp_scenario_small(self, tmp_path):
        cfg = {
            "scenario": "esd-vs-dsp", "seed": 0, "graph": "path-3",
            "vqe": {"layers": 2, "iters": 40, "seed": 5},
            "noise": {"p1_values": [1e-3]},
            "noise_kinds": ["stochastic_pauli"],
        }
        run_experiment(check_config(cfg), cfg, str(tmp_path))
        rows = (tmp_path / "esd_vs_dsp.csv").read_text().splitlines()[1:]
        assert len(rows) == 1
        _, _, d_esd, d_dsp, pur, p0 = rows[0].split(",")
        assert float(d_dsp) <= float(d_esd)
        assert float(p0) >= float(pur)


class TestCliEntry:
    def test_vqe_then_run_with_params_file(self, tmp_path):
        params_path = str(tmp_path / "params.json")
        rc = main(["vqe", "--graph", "path-4", "--layers", "3", "--iters", "40",
                   "--seed", "5", "--out", params_path])
        assert rc == 0
        params = json.load(open(params_path))
        assert len(params) == 2 * 4 * 4

        cfg = small_cfg()
        cfg["vqe"]["params_file"] = params_path
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out-dir",
                   str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "bias_vs_m.csv").exists()

    def test_vqe_trains_the_ansatz_of_its_graph(self, tmp_path):
        # the saved parameters are those of the cluster-edge ansatz, not the path one
        params_path = str(tmp_path / "params.json")
        rc = main(["vqe", "--graph", "cluster-2d-8", "--layers", "1", "--iters", "30",
                   "--seed", "3", "--out", params_path])
        assert rc == 0
        n, edges = models.graph("cluster-2d-8")
        want = optimize(n, 1, build_ising(edges, n), iters=30, seed=3, edges=edges)
        assert json.load(open(params_path)) == list(map(float, want.params))

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"scenario": "definitely-not-real"}))
        rc = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("key, value", [
        ("layers", -1), ("layers", 1.5), ("layers", True), ("layers", "2"),
        ("iters", 2.5), ("iters", -3), ("iters", False), ("iters", None),
    ])
    def test_malformed_vqe_size_exit_code(self, tmp_path, capsys, key, value):
        cfg = small_cfg()
        cfg["vqe"][key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert f"vqe.{key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["seed", "vqe.seed"])
    @pytest.mark.parametrize("value", [1.5, -1, "3", True])
    def test_malformed_seed_exit_code(self, tmp_path, capsys, key, value):
        cfg = small_cfg()
        if key == "seed":
            cfg["seed"] = value
        else:
            cfg["vqe"]["seed"] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert f"config error: {key} must be a non-negative integer" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exit_code(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_cfg()))
        rc = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out"),
                   "--seed", "-2"])
        assert rc == 1
        rc = main(["vqe", "--graph", "path-4", "--seed", "-2", "--out", str(tmp_path / "p.json")])
        assert rc == 1
        assert "vqe.seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--layers", "--iters"])
    def test_negative_vqe_size_flag_exit_code(self, tmp_path, flag):
        rc = main(["vqe", "--graph", "path-4", flag, "-2", "--out", str(tmp_path / "p.json")])
        assert rc == 1

    def test_zero_vqe_sizes_are_valid(self, tmp_path):
        params_path = str(tmp_path / "params.json")
        rc = main(["vqe", "--graph", "path-4", "--layers", "0", "--iters", "0",
                   "--out", params_path])
        assert rc == 0
        assert len(json.load(open(params_path))) == 2 * 4
        cfg = small_cfg()
        cfg["vqe"].update(layers=0, iters=0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 0

    def test_runtime_error_exit_code(self, tmp_path):
        cfg = small_cfg()
        cfg["vqe"]["params_file"] = str(tmp_path / "missing.json")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path)])
        assert rc == 2

    def test_queries_command(self, tmp_path, capsys):
        rc = main(["queries", "--graph", "path-4", "--kinds", "fault",
                   "--m-min", "2", "--m-max", "2", "--out-dir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fault" in out and "Q=32" in out

    def test_oracle_command(self, capsys):
        rc = main(["oracle", "--graph", "path-4", "--layers", "2",
                   "--obs", "ZZII", "--p1", "0.001"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Tr[sym-product P]" in out

    @pytest.mark.parametrize("flags, params, what", [
        (["--obs", "ZZII"], [0.1, 0.2], "shape (2,)"),
        (["--obs", "ZZII"], [[0.1] * 24], "flat list of 24"),
        (["--obs", "ZZII"], {"params": [0.1] * 24}, "not a list of numbers"),
        (["--obs", "ZZ"], None, "--obs"),
        (["--obs", "ZZIQ"], None, "--obs"),
        (["--obs", "ZZII", "--noise-kind", "bogus", "--p1", "1e-3"], None, "--noise-kind"),
        (["--obs", "ZZII", "--layers", "-1"], None, "--layers"),
        (["--obs", "ZZII", "--seed", "-1", "--p1", "1e-3"], None, "--seed"),
        (["--obs", "ZZII", "--p1", "2"], None, "--p1"),
        (["--obs", "ZZII", "--p1", "-0.1"], None, "--p1"),
        (["--obs", "ZZII", "--p1", "0.5"], None, "--p1"),  # two-qubit rate 5
        # json writes these as NaN and Infinity, tokens its reader accepts
        (["--obs", "ZZII"], [0.1] * 23 + [float("nan")], "NaN or infinite"),
        (["--obs", "ZZII"], [float("inf")] + [0.1] * 23, "NaN or infinite"),
    ])
    def test_malformed_oracle_input_exits_one(self, tmp_path, capsys, monkeypatch,
                                              flags, params, what):
        def no_work(*a, **k):
            raise AssertionError("malformed oracle input is rejected before any simulation")

        monkeypatch.setattr("qemlab.cli.attach_noise", no_work)
        monkeypatch.setattr("qemlab.cli.run_circuit", no_work)
        argv = ["oracle", "--graph", "path-4", "--layers", "2", *flags]
        if params is not None:
            path = tmp_path / "params.json"
            path.write_text(json.dumps(params))
            argv += ["--params-file", str(path)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and what in err

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_params_file_exits_one(self, tmp_path, capsys, monkeypatch, bad):
        # json writes these as NaN and Infinity, tokens its reader accepts
        def no_work(*a, **k):
            raise AssertionError("a non-finite parameter is rejected before any simulation")

        monkeypatch.setattr("qemlab.experiments.optimize", no_work)
        monkeypatch.setattr("qemlab.experiments.attach_noise", no_work)
        params = tmp_path / "params.json"
        params.write_text(json.dumps([bad] + [0.1] * 31))  # path-4 at 3 layers
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_cfg(vqe={"layers": 3, "params_file": str(params)})))
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
        assert "NaN or infinite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("params, what", [
        ([0.1] * 31, "shape (31,)"),  # path-4 at 3 layers needs 32
        ([[0.1] * 32], "shape (1, 32)"),
    ])
    def test_wrong_shape_params_file_exits_one_before_any_work(self, tmp_path, capsys,
                                                              monkeypatch, params, what):
        def no_work(*a, **k):
            raise AssertionError("a params file of the wrong shape is rejected before any work")

        monkeypatch.setattr("qemlab.experiments.optimize", no_work)
        monkeypatch.setattr("qemlab.experiments.exact_ground", no_work)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(small_cfg(vqe={"layers": 3, "params_file": str(path)})))
        assert main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "vqe.params_file" in err and what in err
        assert not (tmp_path / "out").exists()

    def test_oracle_missing_params_file_exit_code(self, tmp_path):
        rc = main(["oracle", "--obs", "ZZII", "--params-file", str(tmp_path / "missing.json")])
        assert rc == 2

    @pytest.mark.parametrize("command, cfg, path", [
        ("run", small_cfg(subspace={"kind": "power", "m_value": [1, 2]}), "subspace.m_value"),
        ("run", small_cfg(scenario="stddev-vs-shots", subspace={"m_values": [2]},
                          noise={"p1": 2e-4, "p1_values": [2e-4]}), "noise.p1_values"),
        ("run", small_cfg(noise={"kind": "stochastic_paul"}), "noise.kind"),
        ("run", small_cfg(noise={"p1_values": "2e-4"}), "noise.p1_values"),
        ("run", small_cfg(subspace={"m_values": [0, 2]}), "subspace.m_values"),
        ("run", small_cfg(noise_kinds=["stochastic_pauli"]), "noise_kinds"),
        ("run", small_cfg(partition="half-3-3"), "partition"),
        ("run", small_cfg(window_frac=0.2), "window_frac"),
        ("run", small_cfg(vqe={"params_file_0": "p.json"}), "vqe.params_file_0"),
        ("run", {"scenario": "queries", "graph": "path-4", "m_value": [2]}, "m_value"),
        ("run", {"scenario": "queries", "kinds": ["power", "dcc"]}, "kinds"),
        ("run", {"scenario": "esd-vs-dsp", "noise_kinds": ["thermal"]}, "noise_kinds"),
        ("run", {"scenario": "trace-distance", "graph": "path-4", "n_seeds": 0}, "n_seeds"),
        ("run", small_cfg(grid={"noise": [{"p1_values": [1e-4]}, {"p1_value": [1e-4]}]}),
         "noise.p1_value"),
        ("run", small_cfg(grid={"subspace.m_values": [[2], [0]]}), "subspace.m_values"),
        ("run", {"scenario": "cost-metric", "graph": "path-4", "partition": "half-4-4"},
         "partition"),
        ("run", small_cfg(graph="cluster-2d-8", partition="half-2-2",
                          subspace={"kind": "dc", "m_values": [1, 2]}), "partition"),
        # an empty list leaves the scenario without result rows
        ("run", small_cfg(subspace={"m_values": []}), "subspace.m_values"),
        ("run", small_cfg(noise={"p1_values": []}), "noise.p1_values"),
        ("run", small_cfg(scenario="stddev-vs-shots", noise={"p1": 2e-4},
                          subspace={"m_values": [2]}, shots={"ns_values": []}),
         "shots.ns_values"),
        ("run", {"scenario": "queries", "graph": "path-4", "partition": "half-2-2",
                 "m_values": []}, "m_values"),
        ("run", {"scenario": "queries", "graph": "path-4", "partition": "half-2-2",
                 "kinds": []}, "kinds"),
        ("run", {"scenario": "esd-vs-dsp", "graph": "path-4", "noise_kinds": []}, "noise_kinds"),
        ("run", {"scenario": "trace-distance", "graph": "path-4", "depths": []}, "depths"),
        ("run", {"scenario": "trace-distance", "graph": "path-4", "error_budgets": []},
         "error_budgets"),
        ("run", {"scenario": "cost-metric", "graph": "path-4", "partition": "half-2-2",
                 "power_m": [], "dc_m": []}, "power_m and dc_m"),
        # a shot budget or sample count that ShotConfig rejects
        ("run", small_cfg(scenario="stddev-vs-shots", noise={"p1": 2e-4},
                          subspace={"m_values": [2]}, shots={"ns_values": [0]}),
         "shots.ns_values"),
        ("run", small_cfg(scenario="stddev-vs-shots", noise={"p1": 2e-4},
                          subspace={"m_values": [2]}, shots={"ns_values": [-1e6]}),
         "shots.ns_values"),
        ("run", small_cfg(scenario="stddev-vs-shots", noise={"p1": 2e-4},
                          subspace={"m_values": [2]}, shots={"n_samples": 0}),
         "shots.n_samples"),
        ("run", small_cfg(scenario="histogram", noise={"p1": 2e-4},
                          subspace={"m_values": [2]}, shots={"ns": 0}), "shots.ns"),
        # a sampled size-1 power or dc pencil, whose one energy is H's identity
        # coefficient 0, outside the negative energy window
        ("run", small_cfg(scenario="stddev-vs-shots", noise={"p1": 2e-4},
                          subspace={"m_values": [1, 2]}), "subspace.m_values"),
        ("run", small_cfg(scenario="histogram", noise={"p1": 2e-4}, partition="half-2-2",
                          subspace={"kind": "dc", "m_values": [1]}), "subspace.m_values"),
        # a budget below one shot per query of the planned ledger (path-4 fault at M 2: Q 32)
        ("run", small_cfg(scenario="stddev-vs-shots", noise={"p1": 2e-4},
                          subspace={"kind": "fault", "m_values": [1, 2]},
                          shots={"ns_values": [1e6, 31]}), "shots.ns_values"),
        ("run", small_cfg(scenario="histogram", noise={"p1": 2e-4},
                          subspace={"kind": "fault", "m_values": [2]}, shots={"ns": 31}),
         "shots.ns"),
        # a grid that is not a mapping of dotted keys to non-empty value lists
        ("run", small_cfg(grid={"noise.p1_values": []}), "grid"),
        ("run", small_cfg(grid=[{"seed": 1}]), "grid"),
        ("run", small_cfg(grid={"noise.kind.p1": ["x"]}), "grid key noise.kind.p1"),
    ])
    def test_malformed_config_exits_one_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                        command, cfg, path):
        def no_work(*a, **k):
            raise AssertionError("a malformed config is rejected before any work")

        monkeypatch.setattr("qemlab.experiments.optimize", no_work)
        monkeypatch.setattr("qemlab.experiments.exact_ground", no_work)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main([command, "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, cfg, path", [
        ("run", small_cfg(noise={"p1_values": [2e-4, 2.0]}), "noise.p1_values"),
        ("run", small_cfg(noise={"p1_values": [-0.1]}), "noise.p1_values"),
        ("run", small_cfg(noise={"p1_values": [0.5]}), "noise.p1_values"),  # two-qubit rate 5
        # two-qubit rate 0.5, amplified to 2.5 by the fault basis at M = 5
        ("run", small_cfg(noise={"p1_values": [0.05]},
                          subspace={"kind": "fault", "m_values": [1, 5]}), "noise.p1_values"),
        ("run", small_cfg(scenario="histogram", noise={"kind": "amplitude_damping", "p1": 2.0},
                          subspace={"m_values": [2]}), "noise.p1"),
        ("run", {"scenario": "esd-vs-dsp", "graph": "path-3", "noise": {"p1_values": [0.2]},
                 "noise_kinds": ["none", "thermal_relaxation"]}, "noise.p1_values"),
        ("run", small_cfg(grid={"noise.p1_values": [[1e-4], [2.0]]}), "noise.p1_values"),
        # a drift angle is drawn from [0, p1], so a negative bound has no range to draw from
        ("run", {"scenario": "esd-vs-dsp", "graph": "path-3", "noise": {"p1_values": [-1.0]},
                 "noise_kinds": ["coherent_drift"]}, "noise.p1_values"),
    ])
    def test_out_of_range_noise_rate_exits_one_before_any_work(self, tmp_path, capsys,
                                                               monkeypatch, command, cfg, path):
        def no_work(*a, **k):
            raise AssertionError("an out-of-range noise rate is rejected before any work")

        monkeypatch.setattr("qemlab.experiments.optimize", no_work)
        monkeypatch.setattr("qemlab.experiments.exact_ground", no_work)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main([command, "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and path in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("budgets", [[1000.0], [0.5, 1000.0], [-1.0]])
    def test_out_of_range_error_budget_exits_one_before_any_work(self, tmp_path, capsys,
                                                                 monkeypatch, budgets):
        # p1 = budget / 76 at depth 1 on path-4: 1000.0 gives 13.2, and only the
        # last budget of the second list is out of range
        def no_work(*a, **k):
            raise AssertionError("an out-of-range error budget is rejected before any work")

        monkeypatch.setattr("qemlab.experiments.run", no_work)
        monkeypatch.setattr("qemlab.experiments.dual_state", no_work)
        cfg = {"scenario": "trace-distance", "graph": "path-4", "depths": [1],
               "error_budgets": budgets, "n_seeds": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and f"error_budgets {budgets[-1]!r}" in err
        assert not (tmp_path / "out").exists()

    def test_empty_m_range_exits_one(self, tmp_path, capsys, monkeypatch):
        def no_work(*a, **k):
            raise AssertionError("an empty list is rejected before any work")

        monkeypatch.setattr("qemlab.experiments.plan_queries", no_work)
        out = tmp_path / "out"
        assert main(["queries", "--graph", "path-4", "--partition", "half-2-2",
                     "--m-min", "5", "--m-max", "2", "--out-dir", str(out)]) == 1
        assert "m_values must not be empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("empty", ["power_m", "dc_m"])
    def test_one_empty_cost_list_still_yields_rows(self, empty):
        cfg = check_config({"scenario": "cost-metric", "graph": "path-4",
                            "partition": "half-2-2", empty: []})
        assert getattr(cfg, empty) == ()

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_config_passes_its_checks(self, tmp_path, monkeypatch, path):
        # the checks alone, no simulation; run checks every grid point first
        raw = json.loads(path.read_text())
        outs = []
        monkeypatch.setattr("qemlab.cli.run_experiment",
                            lambda cfg, raw, out: outs.append(out) or [])
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        assert len(outs) == len(list(itertools.product(*raw.get("grid", {"": [0]}).values())))

    def test_shipped_configs_pass_their_checks_in_one_run(self, tmp_path, monkeypatch):
        # every shipped config and grid point through one run call, each under its stem
        paths = sorted(CONFIGS.glob("*.json"))
        assert len(paths) == 12
        outs = []
        monkeypatch.setattr("qemlab.cli.run_experiment",
                            lambda cfg, raw, out: outs.append(out) or [])
        assert main(["run", "--config", *map(str, paths), "--out-dir", str(tmp_path)]) == 0
        want = []
        for path in paths:
            grid = json.loads(path.read_text()).get("grid")
            points = [""] if grid is None else \
                [f"point-{i:03d}" for i in range(len(list(itertools.product(*grid.values()))))]
            want += [os.path.join(str(tmp_path), path.stem, point) for point in points]
        assert list(map(os.path.normpath, outs)) == list(map(os.path.normpath, want))

    def test_run_takes_no_scenario_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--config", "c.json", "--out-dir", str(tmp_path), "--scenario", "queries"])

    def test_run_takes_no_threads_flag(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["run", "--config", "c.json", "--out-dir", str(tmp_path), "--threads", "2"])

    def test_run_expands_a_grid(self, tmp_path):
        cfg = small_cfg()
        cfg["grid"] = {"noise.p1_values": [[1e-4], [2e-4]]}
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = main(["run", "--config", str(cfg_path), "--out-dir",
                   str(tmp_path / "grid")])
        assert rc == 0
        assert (tmp_path / "grid" / "point-000" / "bias_vs_m.csv").exists()
        assert (tmp_path / "grid" / "point-001" / "bias_vs_m.csv").exists()

    def test_cli_and_solves_load_no_scipy(self):
        # numpy alone is the runtime: importing scipy.linalg would cost more
        # than the rest of the import of qemlab.cli
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import qemlab.cli",
            "from qemlab.gevp import solve_pencil, stack_energies",
            "s, h = np.eye(2), np.diag([-2.0, -1.0])",
            "assert solve_pencil(s, h, (-10.0, 0.0), 1e-8).energy == -2.0",
            "assert list(stack_energies(np.array([s, s]), np.array([h, h]),"
            " (-10.0, 0.0), 1e-8)) == [-2.0, -2.0]",
            "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
            "assert 'scipy' not in sys.modules, loaded",
        ])
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


class TestShotPlanChecks:
    @pytest.mark.parametrize("kind, partition", [("power", None), ("fault", None),
                                                 ("dc", "half-2-2")])
    def test_budget_at_planned_q_passes_and_one_below_fails(self, kind, partition):
        # the planned Q of the largest M sampled is the least budget check_config takes
        cfg = small_cfg(scenario="stddev-vs-shots", noise={"p1": 2e-4},
                        subspace={"kind": kind, "m_values": [2, 3]})
        if partition:
            cfg["partition"] = partition
        q = plan_queries(check_config(cfg).values.specs[kind, 3], reuse=True).q
        assert q > plan_queries(check_config(cfg).values.specs[kind, 2], reuse=True).q
        cfg["shots"] = {"ns_values": [1e9, q], "n_samples": 5}
        assert check_config(cfg).values.shots.keys() == {1e9, q}
        cfg["shots"]["ns_values"] = [1e9, q - 1]
        with pytest.raises(errors.ConfigError, match=f"shots.ns_values {q - 1} .* Q = {q}"):
            check_config(cfg)

    def test_size_one_pencil_is_rejected_only_where_sampled(self):
        # bias-vs-m records M = 1 as a row; the fault basis at M = 1 is the noisy state
        check_config(small_cfg(subspace={"kind": "power", "m_values": [1, 2]}))
        check_config(small_cfg(scenario="histogram", noise={"p1": 2e-4},
                               subspace={"kind": "fault", "m_values": [1]}))
        for kind in ("power", "dc"):
            with pytest.raises(errors.ConfigError, match="subspace.m_values holds 1"):
                check_config(small_cfg(scenario="histogram", noise={"p1": 2e-4},
                                       partition="half-2-2",
                                       subspace={"kind": kind, "m_values": [2, 1]}))


def reduced_config(stem: str, **over) -> dict:
    """The shipped config stem on path-4 (half-2-2 where it reads a partition) at one layer."""
    cfg = json.loads((CONFIGS / f"{stem}.json").read_text())
    cfg["graph"] = "path-4"
    if "partition" in cfg:
        cfg["partition"] = "half-2-2"
    if "vqe" in cfg:
        cfg["vqe"].update(layers=1, iters=20)
    for key, value in over.items():  # a mapping updates the section of its key
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


# reduced copies of shipped configs, one with a grid: every scenario that reads
# a process-wide memo (VQE solves, sweep plans, superoperators, term expansions)
REDUCED = {
    "sweep-noise-levels": {"subspace": {"m_values": [2, 3]}},
    "fig-bias-vs-m-dc": {"subspace": {"m_values": [2, 3, 4]}},
    "fig-histogram": {"shots": {"n_samples": 30}},
    "appendix-esd-vs-dsp": {"noise": {"p1_values": [1e-4, 1e-2]}},
    "fig-cost-metric": {"power_m": [2, 3], "dc_m": [2, 3, 4]},
    "fig-bias-vs-m-fault": {"subspace": {"m_values": [1, 2, 3]}},
}


def _tree(root: pathlib.Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def _no_work(monkeypatch, why: str) -> None:
    def no_work(*a, **k):
        raise AssertionError(why)

    for name in ("optimize", "exact_ground", "run", "dual_state"):
        monkeypatch.setattr(f"qemlab.experiments.{name}", no_work)


class TestOneRunLoop:
    def test_one_call_writes_what_separate_processes_write(self, tmp_path):
        paths = []
        for stem, over in REDUCED.items():
            path = tmp_path / "cfg" / f"{stem}.json"
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(reduced_config(stem, **over)))
            paths.append(path)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        for path in paths:  # a fresh process per config
            proc = subprocess.run([sys.executable, "-m", "qemlab.cli", "run", "--config",
                                   str(path), "--out-dir", str(tmp_path / "apart" / path.stem)],
                                  env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                                  text=True)
            assert proc.returncode == 0, proc.stderr
        want = _tree(tmp_path / "apart")
        assert "sweep-noise-levels/point-002/bias_vs_m.csv" in want
        assert sum(name.endswith("manifest.json") for name in want) == len(paths) + 2
        for order, name in ((paths, "forward"), (paths[::-1], "reverse")):
            assert main(["run", "--config", *map(str, order),
                         "--out-dir", str(tmp_path / name)]) == 0
            got = _tree(tmp_path / name)
            assert got.keys() == want.keys()
            assert [k for k in want if got[k] != want[k]] == [], name

    def test_output_layout_and_seed_follow_the_inputs(self, tmp_path, monkeypatch, capsys):
        # one config writes to --out-dir, a grid to point-NNN, several configs
        # each under their stem; --seed overrides every point's seed, grid's too
        runs = []
        monkeypatch.setattr("qemlab.cli.run_experiment",
                            lambda cfg, raw, out:
                            runs.append((os.path.normpath(out), raw["seed"], cfg.seed))
                            or [os.path.join(out, "manifest.json")])
        plain, grid = tmp_path / "plain.json", tmp_path / "grid.json"
        plain.write_text(json.dumps(small_cfg(seed=3)))
        grid.write_text(json.dumps(small_cfg(grid={"seed": [1, 2]})))
        out = str(tmp_path / "out")
        cases = [
            ([plain], [], [(out, 3)]),
            ([plain], ["--seed", "5"], [(out, 5)]),
            ([grid], [], [(f"{out}/point-000", 1), (f"{out}/point-001", 2)]),
            ([grid], ["--seed", "5"], [(f"{out}/point-000", 5), (f"{out}/point-001", 5)]),
            ([grid, plain], [], [(f"{out}/grid/point-000", 1), (f"{out}/grid/point-001", 2),
                                 (f"{out}/plain", 3)]),
        ]
        for paths, flags, want in cases:
            runs.clear()
            assert main(["run", "--config", *map(str, paths), "--out-dir", out, *flags]) == 0
            # the seed of the raw point, which the manifest records, and of the
            # checked config, which runs
            assert runs == [(d, s, s) for d, s in want], (paths, flags)
            printed = capsys.readouterr().out.split()
            assert printed == [os.path.join(d, "manifest.json") for d, _ in want]

    def test_each_point_is_checked_once(self, tmp_path, monkeypatch):
        # run hands each point's checked config to run_experiment, which then
        # does not check it again
        checked, ran = [], []

        def counting(raw):
            checked.append(raw["seed"])
            return check_config(raw)

        monkeypatch.setattr("qemlab.cli.check_config", counting)
        monkeypatch.setattr("qemlab.experiments.check_config", counting)
        monkeypatch.setitem(experiments.SCENARIOS, "stddev-vs-shots",
                            (lambda cfg: ran.append(cfg) or {},
                             experiments.SCENARIOS["stddev-vs-shots"][1]))
        path = tmp_path / "shots.json"
        path.write_text(json.dumps(small_cfg(scenario="stddev-vs-shots", noise={"p1": 2e-4},
                                             subspace={"kind": "power", "m_values": [2, 3]},
                                             grid={"seed": [1, 2]})))
        assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 0
        assert checked == [1, 2] and [cfg.seed for cfg in ran] == [1, 2]

    def test_duplicate_stem_exits_one_with_nothing_written(self, tmp_path, capsys, monkeypatch):
        _no_work(monkeypatch, "a duplicate stem is rejected before any work")
        paths = [tmp_path / "a" / "cfg.json", tmp_path / "b" / "cfg.json"]
        for path in paths:
            path.parent.mkdir()
            path.write_text(json.dumps(small_cfg()))
        out = tmp_path / "out"
        assert main(["run", "--config", *map(str, paths), "--out-dir", str(out)]) == 1
        assert "stem 'cfg'" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_point_in_last_config_exits_one_with_nothing_written(self, tmp_path, capsys,
                                                                      monkeypatch):
        _no_work(monkeypatch, "every point of every config is checked before any work")
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text(json.dumps(small_cfg()))
        bad.write_text(json.dumps(small_cfg(grid={"noise.p1_values": [[1e-4], [2e-4], [2.0]]})))
        out = tmp_path / "out"
        assert main(["run", "--config", str(good), str(bad), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "noise.p1_values 2.0" in err
        assert not out.exists()


# ---------------------------------------------------------------------------
# property: a config mutated at one dotted key fails before any work or runs

CHOICES = {"scenario", "graph", "partition", "noise.kind", "subspace.kind", "kinds", "noise_kinds"}
RATES = {"noise.p1", "noise.p1_values"}
COUNTED = ("optimize", "exact_ground", "run", "dual_state")


@st.composite
def tiny_configs(draw):
    """One scenario and a small valid config from its table (vqe.params_file left out)."""
    def some(values):
        return draw(st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True))

    scenario = draw(st.sampled_from(sorted(experiments.SCENARIOS)))
    cfg = {"scenario": scenario, "seed": draw(st.integers(0, 9)),
           "graph": draw(st.sampled_from(["path-3", "path-4"]))}
    table = experiments.SCENARIOS[scenario][1]
    if "vqe" in table:
        cfg["vqe"] = {"layers": 1, "iters": draw(st.integers(0, 5)),
                      "seed": draw(st.integers(0, 9))}
    if "partition" in table:
        cfg["partition"] = "half-2-2"
        cfg["subspace"] = {"boundary_state_only": draw(st.booleans())}
    if scenario in ("bias-vs-m", "stddev-vs-shots", "histogram"):
        kind = draw(st.sampled_from(KINDS))
        # a sampled size-1 power or dc pencil never solves, which check_config rejects
        sized = [1, 2, 3] if scenario == "bias-vs-m" or kind == "fault" else [2, 3]
        cfg["subspace"].update(kind=kind, m_values=some(sized))
        cfg["noise"] = {"kind": draw(st.sampled_from(NOISE_KINDS))}
        if scenario == "bias-vs-m":
            cfg["noise"]["p1_values"] = some([0.0, 1e-4, 2e-3])
            cfg["dump_matrices"] = draw(st.booleans())
        else:
            cfg["noise"]["p1"] = draw(st.sampled_from([0.0, 1e-4, 2e-3]))
            cfg["shots"] = {"n_samples": draw(st.integers(1, 20))}
            # every budget clears one shot per query; _edge_mutants draws budgets near Q
            if scenario == "histogram":
                cfg["shots"]["ns"] = draw(st.sampled_from([1e6, 1e8]))
            else:
                cfg["shots"]["ns_values"] = some([1e6, 1e8])
    elif scenario == "queries":
        cfg.update(kinds=some(KINDS), m_values=some([1, 2, 3]))
    elif scenario == "cost-metric":
        cfg.update(power_m=some([1, 2, 3]), dc_m=some([1, 2]))
    elif scenario == "esd-vs-dsp":
        cfg["graph"] = "path-3"
        cfg.update(noise={"p1_values": some([0.0, 1e-3])}, noise_kinds=some(NOISE_KINDS))
    else:
        cfg.update(depths=some([1, 2]), error_budgets=some([0.5, 1.0]),
                   n_seeds=draw(st.integers(1, 2)))
    if cfg.get("subspace", {}).get("kind") == "dc" or "dc" in cfg.get("kinds", ()) or "dc_m" in cfg:
        cfg["graph"] = "path-4"  # a divided basis needs a partition that covers the graph
    return cfg


def _paths(cfg: dict, prefix: str = ""):
    """(dotted path, value) of every key in cfg, nested mappings and their keys."""
    for key, v in cfg.items():
        yield prefix + key, v
        if isinstance(v, dict):
            yield from _paths(v, f"{prefix}{key}.")


def _mutants(path: str, v) -> list:
    """(name the error must carry, new value or None for a sibling key) of each mutation."""
    wrong = {dict: 1, list: "x", str: 1, bool: 1, int: 1.5, float: "x"}
    parent = path.rpartition(".")[0]
    out = [(f"{parent}.bogus_key" if parent else "bogus_key", None), (path, wrong[type(v)])]
    many = isinstance(v, list)
    entry = v[0] if many else v
    if many:
        out += [(path, []), (path, [wrong[type(entry)]])]
    values = [0, -1] if isinstance(entry, (int, float)) and not isinstance(entry, bool) else []
    values += [2.0] if path in RATES else []
    values += ["bogus"] if path in CHOICES else []
    return out + [(path, [x] if many else x) for x in values]


def _edge_mutants(cfg: dict, path: str, v) -> list:
    """Mutations at the edges of the shot-plan checks, each with whether it is a
    config error by construction: an M list led by 1, which is one where a power
    or dc pencil is sampled, and budgets one below (one), at and one above the
    planned Q of the largest M sampled."""
    if path.endswith("m_values") or path in ("power_m", "dc_m"):
        sampled = cfg["scenario"] in ("stddev-vs-shots", "histogram")
        return [(path, sorted({1, *v}), sampled and cfg["subspace"]["kind"] != "fault")]
    if path not in ("shots.ns", "shots.ns_values"):
        return []
    checked = check_config(json.loads(json.dumps(cfg)))
    sub = checked.subspace
    q = plan_queries(checked.values.specs[sub.kind, max(sub.m_values)], reuse=True).q
    if path == "shots.ns":
        return [(path, x, x < q) for x in (q - 1, q, q + 1)]
    return [(path, [x], x < q) for x in (q - 1, q, q + 1)] + [(path, sorted({*v, q - 1}), True)]


@st.composite
def mutated_configs(draw):
    """(valid config, its mutant, the name the error must carry, whether the
    mutant must exit 1)."""
    cfg = draw(tiny_configs())
    paths = sorted(_paths(cfg), key=lambda p: p[0])
    edges = [(path, mutant) for path, v in paths for mutant in _edge_mutants(cfg, path, v)]
    if edges and draw(st.booleans()):  # half the configs with an edge mutant take one
        path, (named, new, must_fail) = draw(st.sampled_from(edges))
    else:
        path, v = draw(st.sampled_from(paths))
        (named, new), must_fail = draw(st.sampled_from(_mutants(path, v))), False
    bad = json.loads(json.dumps(cfg))
    *parents, key = path.split(".")
    node = bad
    for p in parents:
        node = node[p]
    if new is None:
        node["bogus_key"] = 1
    else:
        node[key] = new
    return cfg, bad, named, must_fail


@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutated_configs())
def test_mutated_config_fails_before_any_work_or_runs(case):
    cfg, bad, named, must_fail = case
    check_config(json.loads(json.dumps(cfg)))  # the unmutated draw is valid
    calls = []

    def counted(name, fn):
        def wrapper(*a, **k):
            calls.append(name)
            return fn(*a, **k)
        return wrapper

    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        for name in COUNTED:  # counted, not blocked, since a valid mutant runs
            stack.enter_context(mock.patch.object(
                experiments, name, counted(name, getattr(experiments, name))))
        cfg_path, out = os.path.join(tmp, "cfg.json"), os.path.join(tmp, "out")
        with open(cfg_path, "w") as fh:
            json.dump(bad, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main(["run", "--config", cfg_path, "--out-dir", out])
        err = err.getvalue()
        assert rc == 1 or not must_fail, (rc, err, named)
        if rc == 1:
            assert err.startswith("config error:") and named in err, (err, named)
            assert not calls, calls
            assert not os.path.exists(out)
        elif rc == 2:
            kind = err.split(": ")[1]
            found = getattr(errors, kind, None) or getattr(builtins, kind, None)
            assert isinstance(found, type) and issubclass(found, ArithmeticError), err
        else:
            assert rc == 0
