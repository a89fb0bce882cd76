"""Benchmark of qemlab's scenario paths, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-hashes

Run from the root of a qemlab checkout.  Each iteration runs one scenario
config in a fresh interpreter (``child.py``), checks its CSVs against dense
references (``workloads.py``) and hashes them.  Iterations repeat while the
next one would end less than half an iteration after S seconds (at least two
run).  The last line of
standard output is one JSON object: with --trace 0 the end-to-end metrics
(medians over iterations), with --trace 1 the per-layer metrics of the traced
iterations, which alternate with untraced ones so the tracing overhead shows.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

README = os.path.join(HERE, "README.md")
OUT = os.path.join(HERE, "out")
RUN_LIMIT_S = 170.0
BLAS_THREADS = "1"
HASH_BEGIN, HASH_END = "<!-- hashes:begin -->", "<!-- hashes:end -->"
HASH_SEEDS = range(0, 11)

CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
    "PYTHONHASHSEED": "0",
    # every iteration compiles qemlab afresh, whatever caches the checkout holds
    "PYTHONDONTWRITEBYTECODE": "1",
}


def run_scenario(workload, cfg: dict, trace: bool, deadline: float) -> dict:
    """One fresh-process scenario run: its timings, parsed CSVs and their hashes."""
    it_dir = os.path.join(OUT, workload.name, "trace" if trace else "plain")
    shutil.rmtree(it_dir, ignore_errors=True)
    csv_dir = os.path.join(it_dir, "csv")
    os.makedirs(it_dir)
    cfg_path = os.path.join(it_dir, "config.json")
    sidecar = os.path.join(it_dir, "sidecar.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    env = dict(os.environ, **CHILD_ENV)
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, cfg_path, csv_dir,
           sidecar, "1" if trace else "0"]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        proc.kill()
        _, err = proc.communicate()
        err = f"killed after the run's time limit\n{err}"
    t_exit = time.monotonic()
    res = {"ok": False, "trace": trace, "elapsed": t_exit - t_spawn, "err": err.strip()}
    if proc.returncode != 0 or not os.path.exists(sidecar):
        res["err"] = f"exit code {proc.returncode}: {res['err']}"
        return res
    with open(sidecar) as fh:
        side = json.load(fh)
    outputs, hashes, csv_bytes = {}, {}, 0
    for name in sorted(os.listdir(csv_dir)):
        if not name.endswith(".csv"):
            continue
        path = os.path.join(csv_dir, name)
        with open(path, "rb") as fh:
            data = fh.read()
        hashes[name] = hashlib.sha256(data).hexdigest()
        csv_bytes += len(data)
        with open(path, newline="") as fh:
            outputs[name[:-4]] = list(csv.DictReader(fh))
    wall = side["t_done"] - t_spawn
    setup = (side["t_import"] - t_spawn) + sum(
        side["stats"].get(k, [0, 0.0])[1] for k in ("vqe.exact_ground", "vqe.optimize"))
    res.update(ok=True, side=side, outputs=outputs, hashes=hashes, csv_bytes=csv_bytes,
               wall_s=wall, setup_s=setup, mitigate_s=wall - setup,
               peak_rss_mib=side["maxrss_kib"] / 1024.0,
               import_s=side["t_import"] - t_spawn)
    return res


def failed_operations(workload, cfg: dict, res: dict) -> dict[tuple, list[str]]:
    """Reasons per operation; a missing row or a failed process fails it."""
    ops = workload.operations(cfg)
    if not res["ok"]:
        return {op: [res["err"] or "scenario failed"] for op in ops}
    checked = workload.check(cfg, res["outputs"], res["side"]["captured"])
    return {op: checked.get(op, ["row missing"]) for op in ops}


def bite_failures(workload, cfg: dict, res: dict) -> list[str]:
    """Labels of perturbed outputs that the checks failed to reject."""
    missed = []
    for label, outputs in workload.bites(cfg, res["outputs"]):
        checked = workload.check(cfg, outputs, res["side"]["captured"])
        if not any(checked.values()):
            missed.append(label)
    return missed


def layer_metrics(res: dict) -> dict[str, tuple[float, str]]:
    """Per-layer figures of one traced iteration."""
    side = res["side"]
    stats, counts = side["stats"], side["counts"]

    def total(prefix: str, i: int) -> float:
        return sum(v[i] for k, v in stats.items() if k == prefix or k.startswith(prefix + ".n"))

    def calls(prefix):
        return float(total(prefix, 0))

    circuit_self = {}
    for k, v in stats.items():
        m = re.fullmatch(r"circuits\.(apply|run|dual_state)\.n(\d+)", k)
        if m:
            circuit_self[m.group(2)] = circuit_self.get(m.group(2), 0.0) + v[2]
    run_calls = calls("circuits.run")
    out = {
        "cli.import_s": (res["import_s"], "s"),
        "vqe.optimize_s": (total("vqe.optimize", 1), "s"),
        "vqe.optimize_calls": (calls("vqe.optimize"), "count"),
        "vqe.bfgs_iterations": (float(counts.get("vqe.bfgs_iterations", 0)), "count"),
        "vqe.exact_ground_s": (total("vqe.exact_ground", 1), "s"),
        "circuits.apply_s": (sum(circuit_self.values()), "s"),
    }
    for n in ("4", "5", "8", "9"):
        out[f"circuits.apply_s.n{n}"] = (circuit_self.get(n, 0.0), "s")
    out.update({
        "circuits.channel_s": (total("circuits.apply_channel", 1), "s"),
        "circuits.run_calls": (run_calls, "count"),
        "circuits.dual_state_calls": (calls("circuits.dual_state"), "count"),
        "circuits.ops_applied": (float(counts.get("circuits.ops_applied", 0)), "count"),
        "circuits.distinct_ratio": (side["distinct_circuits"] / run_calls if run_calls else 0.0,
                                    "ratio"),
        "circuits.attach_noise_s": (total("circuits.attach_noise", 1), "s"),
        "pauli.factorize_s": (total("pauli.factorize", 1), "s"),
        "pauli.factorize_calls": (calls("pauli.factorize"), "count"),
        "pauli.sum_mul_s": (total("pauli.sum_mul", 1), "s"),
        "pauli.expect_pauli_s": (total("pauli.expect_pauli", 1), "s"),
        "pauli.expect_pauli_calls": (calls("pauli.expect_pauli"), "count"),
        "subspace.build_s": (total("subspace.build", 2), "s"),
        "subspace.build_calls": (calls("subspace.build"), "count"),
        "subspace.ledger_queries": (float(counts.get("subspace.ledger_queries", 0)), "count"),
        "subspace.plan_queries_s": (total("subspace.plan_queries", 2), "s"),
        "subspace.plan_queries_calls": (calls("subspace.plan_queries"), "count"),
        "gevp.solve_s": (total("gevp.solve_pencil", 1), "s"),
        "gevp.solves": (calls("gevp.solve_pencil"), "count"),
        "gevp.window_rejections": (float(counts.get("gevp.window_rejections", 0)), "count"),
        "shotnoise.perturb_s": (total("shotnoise.perturb", 1), "s"),
        "shotnoise.sample_distribution_s": (total("shotnoise.sample_distribution", 2), "s"),
        "shotnoise.samples": (calls("shotnoise.perturb"), "count"),
        "shotnoise.rejections": (float(counts.get("shotnoise.rejections", 0)), "count"),
        "shotnoise.var_dsp_s": (total("shotnoise.var_dsp", 1), "s"),
        "shotnoise.var_dsp_calls": (calls("shotnoise.var_dsp"), "count"),
        "purification.esd_s": (total("purification.esd_init", 1)
                               + total("purification.esd_numerator", 1), "s"),
        "purification.esd_calls": (calls("purification.esd_init"), "count"),
        "purification.dsp_s": (total("purification.dsp_expectation", 2), "s"),
        "purification.dsp_calls": (calls("purification.dsp_expectation"), "count"),
        "experiments.write_outputs_s": (total("experiments.write_outputs", 1), "s"),
        "experiments.csv_bytes": (float(res["csv_bytes"]), "count"),
    })
    return out


def recorded_hashes() -> dict[tuple[str, int, str], str]:
    table = {}
    try:
        with open(README) as fh:
            text = fh.read()
    except OSError:
        return table
    block = text.partition(HASH_BEGIN)[2].partition(HASH_END)[0]
    for m in re.finditer(r"^\| (\S+) \| (\d+) \| (\S+) \| `([0-9a-f]{64})` \|$", block, re.M):
        table[(m.group(1), int(m.group(2)), m.group(3))] = m.group(4)
    return table


def median(values):
    return float(statistics.median(values))


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    cfg = workload.config(seed)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    # untraced runs only without tracing; with tracing, untraced and traced alternate
    kinds = [False, True] if trace else [False]
    runs: list[dict] = []
    attempted = failed = 0
    while True:
        kind = kinds[len(runs) % len(kinds)]
        res = run_scenario(workload, cfg, kind, deadline)
        runs.append(res)
        per_op = failed_operations(workload, cfg, res)
        attempted += len(per_op)
        failed += sum(1 for reasons in per_op.values() if reasons)
        figures = " ".join(f"{k}={res[k]:.4f}" for k in ("wall_s", "setup_s", "mitigate_s",
                                                          "peak_rss_mib") if k in res)
        print(f"iteration {len(runs)} trace={int(kind)} elapsed={res['elapsed']:.3f}s "
              f"{figures} failed={sum(1 for r in per_op.values() if r)}/{len(per_op)}")
        for op, reasons in per_op.items():
            for reason in reasons:
                print(f"  FAIL {op}: {reason}")
        now = time.monotonic()
        nxt = kinds[len(runs) % len(kinds)]
        same = [r["elapsed"] for r in runs if r["trace"] == nxt]
        estimate = median(same) if same else runs[-1]["elapsed"]
        # stop once the next iteration would end more than half of one past S
        enough = len(runs) >= 2 and now - start + estimate / 2 > seconds
        if enough or now + estimate > deadline:
            break
    good = [r for r in runs if r["ok"]]
    plain = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]
    correct = bool(good) and len(plain) >= 1 and (not trace or len(traced) >= 1)
    if good:
        last = good[-1]
        missed = bite_failures(workload, cfg, last)
        for label in missed:
            print(f"  CHECK DOES NOT BITE: {label}")
        correct = correct and not missed
        known = recorded_hashes()
        for name, digest in last["hashes"].items():
            want = known.get((workload.name, seed, name))
            status = "no recorded hash" if want is None else (
                "matches README" if want == digest else "DIFFERS from README")
            print(f"  sha256 {name} {digest} {status}")
    if trace:
        metrics = {}
        per_run = [layer_metrics(r) for r in traced]
        for key in (per_run[0] if per_run else {}):
            metrics[key] = {"value": median([m[key][0] for m in per_run]),
                            "unit": per_run[0][key][1]}
        if plain and traced:
            t_wall = median([r["wall_s"] for r in traced])
            u_wall = median([r["wall_s"] for r in plain])
            metrics["trace.wall_s"] = {"value": t_wall, "unit": "s"}
            metrics["trace.untraced_wall_s"] = {"value": u_wall, "unit": "s"}
            metrics["trace.overhead"] = {"value": t_wall / u_wall, "unit": "ratio"}
    else:
        metrics = {key: {"value": median([r[key] for r in plain]), "unit": unit}
                   for key, unit in (("wall_s", "s"), ("setup_s", "s"),
                                     ("mitigate_s", "s"), ("peak_rss_mib", "MiB"))} \
            if plain else {}
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_hashes() -> int:
    """Run each workload once per seed and rewrite the README's hash table."""
    lines = ["| workload | seed | file | sha256 |", "| --- | --- | --- | --- |"]
    for workload in WORKLOADS.values():
        for seed in HASH_SEEDS:
            res = run_scenario(workload, workload.config(seed), False,
                               time.monotonic() + RUN_LIMIT_S)
            if not res["ok"]:
                print(f"{workload.name} seed {seed}: {res['err']}", file=sys.stderr)
                return 1
            for name, digest in sorted(res["hashes"].items()):
                lines.append(f"| {workload.name} | {seed} | {name} | `{digest}` |")
            print(f"{workload.name} seed {seed} recorded", flush=True)
    with open(README) as fh:
        text = fh.read()
    head, _, rest = text.partition(HASH_BEGIN)
    _, _, tail = rest.partition(HASH_END)
    with open(README, "w") as fh:
        fh.write(head + HASH_BEGIN + "\n" + "\n".join(lines) + "\n" + HASH_END + tail)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-hashes", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qemlab", "__init__.py")):
        print(f"no qemlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.record_hashes:
        return record_hashes()
    if args.workload is None:
        ap.error("--workload is required")
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
