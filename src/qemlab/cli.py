"""Command-line front end for the experiment harness.

Subcommands: vqe (train and save parameters), run (one or more scenario
configs, a config's grid of overrides expanded into points), queries
(measurement-count tables), oracle (ad-hoc trace evaluation for debugging).
Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys

import numpy as np

from . import models
from .circuits import attach_noise, build_ansatz, dual_state, run as run_circuit
from .errors import ConfigError
from .experiments import SCENARIOS, VQE_DEFAULTS, check_config, checked_noise_model, \
    read_params, run_experiment
from .pauli import build_ising, expect_pauli
from .vqe import check_count, exact_ground, optimize


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise ConfigError(f"cannot read config {path}: {ex}") from ex
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


def _cmd_vqe(args) -> int:
    n, edges = models.graph(args.graph)
    h = build_ising(edges, n)
    res = optimize(n, args.layers, h, iters=args.iters, seed=args.seed, edges=edges)
    e_true, _ = exact_ground(h)
    payload = list(map(float, res.params))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(payload, fh)
    print(f"graph={args.graph} layers={args.layers} iters={res.iterations} "
          f"energy={res.energy:.10f} bias={res.energy - e_true:.3e} -> {args.out}")
    return 0


def _cmd_run(args) -> int:
    stems = [os.path.splitext(os.path.basename(path))[0] for path in args.config]
    if dup := sorted({stem for stem in stems if stems.count(stem) > 1}):
        raise ConfigError(f"two configs share the stem {dup[0]!r}, which names their outputs")
    names = stems if len(stems) > 1 else [""]  # one config writes to --out-dir itself
    configs = [(name, _load_config(path)) for name, path in zip(names, args.config)]
    for path in _run(configs, args.out_dir, args.seed):
        print(path)
    return 0


def _run(configs: list[tuple[str, dict]], out_dir: str, seed: int | None = None) -> list[str]:
    """Check every point of every (subdirectory, config), then run them in order."""
    runs = []
    for name, cfg in configs:
        for point_dir, point in _points(cfg):
            if seed is not None:  # after the grid's overrides
                point["seed"] = seed
            runs.append((check_config(point), point, os.path.join(out_dir, name, point_dir)))
    return [path for run in runs for path in run_experiment(*run)]


def _points(cfg: dict) -> list[tuple[str, dict]]:
    """(subdirectory, config) of cfg itself, or of point-NNN per combination of its grid."""
    if "grid" not in cfg:
        return [("", cfg)]
    grid = cfg.pop("grid")
    if not (isinstance(grid, dict) and grid
            and all(isinstance(v, list) and v for v in grid.values())):
        raise ConfigError("grid must map dotted keys to non-empty lists of values")
    keys, points = sorted(grid), []
    for combo in itertools.product(*(grid[k] for k in keys)):
        points.append((f"point-{len(points):03d}", json.loads(json.dumps(cfg))))
        for key, val in zip(keys, combo):
            _apply_override(points[-1][1], key, val)
    return points


def _apply_override(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"grid key {dotted}: {p} is not a mapping")
    node[parts[-1]] = value


def _cmd_queries(args) -> int:
    cfg = {"scenario": "queries", "graph": args.graph, "partition": args.partition,
           "kinds": args.kinds, "m_values": list(range(args.m_min, args.m_max + 1)),
           "subspace": {"boundary_state_only": args.state_only_boundary}}
    _run([("", cfg)], args.out_dir)
    with open(os.path.join(args.out_dir, "queries.csv"), newline="") as fh:
        for kind, m, reuse, q in list(csv.reader(fh))[1:]:
            print(f"{kind:6s} M={m} reuse={reuse}: Q={q}")
    return 0


def _cmd_oracle(args) -> int:
    n, edges = models.graph(args.graph)
    if len(args.obs) != n or not set(args.obs) <= set("IXYZ"):
        raise ConfigError(f"--obs {args.obs!r} must be {n} letters from IXYZ, "
                          f"one per qubit of {args.graph!r}")
    check_count("--layers", args.layers)
    check_count("--seed", args.seed)
    noise = checked_noise_model(f"--noise-kind {args.noise_kind!r} at --p1 {args.p1!r}",
                                args.noise_kind, args.p1)
    if args.params_file:
        params = read_params(args.params_file, n, args.layers)
    else:
        params = np.zeros(2 * n * (args.layers + 1))
    ansatz = build_ansatz(n, args.layers, params, edges)
    circ = attach_noise(ansatz, noise, seed=args.seed)
    rho = run_circuit(circ)
    bar = dual_state(circ)
    sym = 0.5 * (bar @ rho + rho @ bar)
    print(f"Tr[state P]        = {np.real(expect_pauli(rho, args.obs)): .12f}")
    print(f"Tr[dual P]         = {np.real(expect_pauli(bar, args.obs)): .12f}")
    print(f"Tr[sym-product P]  = {np.real(expect_pauli(sym, args.obs)): .12f}")
    print(f"Tr[dual state]     = {np.real(np.trace(bar @ rho)): .12f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qemlab",
                                 description="mitigation-pipeline experiment harness")
    sub = ap.add_subparsers(dest="command", required=True)
    queries = SCENARIOS["queries"][1]

    p = sub.add_parser("vqe", help="train ansatz parameters and save them as JSON")
    p.add_argument("--graph", default=queries["graph"])
    p.add_argument("--layers", type=int, default=VQE_DEFAULTS["layers"])
    p.add_argument("--iters", type=int, default=VQE_DEFAULTS["iters"])
    p.add_argument("--seed", type=int, default=VQE_DEFAULTS["seed"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_vqe)

    p = sub.add_parser("run", help="run scenario configs, each grid point by point")
    p.add_argument("--config", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("queries", help="emit measurement-count tables")
    p.add_argument("--graph", default=queries["graph"])
    p.add_argument("--kinds", nargs="+", default=queries["kinds"])
    p.add_argument("--m-min", type=int, default=min(queries["m_values"]))
    p.add_argument("--m-max", type=int, default=max(queries["m_values"]))
    p.add_argument("--partition", default=queries["partition"])
    p.add_argument("--state-only-boundary", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_queries)

    p = sub.add_parser("oracle", help="ad-hoc trace evaluation for debugging")
    p.add_argument("--graph", default="path-4")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--obs", required=True)
    p.add_argument("--noise-kind", default="stochastic_pauli")
    p.add_argument("--p1", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--params-file", default=None)
    p.set_defaults(func=_cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as ex:
        print(f"config error: {ex}", file=sys.stderr)
        return 1
    except Exception as ex:  # noqa: BLE001 - surface as runtime failure
        print(f"runtime error: {type(ex).__name__}: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
