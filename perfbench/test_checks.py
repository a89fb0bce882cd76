"""The benchmark's own tests: its output checks pass and they bite.

Each workload runs once (seed 1, untraced).  Its real output must pass every
check, and every perturbed copy from ``Workload.bites`` must fail at least one
operation.  Run with ``python -m pytest perfbench/test_checks.py``.
"""

import os
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def scenario(request):
    workload = WORKLOADS[request.param]
    cfg = workload.config(1)
    res = run.run_scenario(workload, cfg, False, time.monotonic() + run.RUN_LIMIT_S)
    assert res["ok"], res["err"]
    return workload, cfg, res


def test_real_output_passes(scenario):
    workload, cfg, res = scenario
    failures = {op: r for op, r in run.failed_operations(workload, cfg, res).items() if r}
    assert not failures


def test_every_check_bites(scenario):
    workload, cfg, res = scenario
    labels = [label for label, _ in workload.bites(cfg, res["outputs"])]
    assert len(labels) >= 2
    assert run.bite_failures(workload, cfg, res) == []


def test_missing_row_fails(scenario):
    workload, cfg, res = scenario
    name = next(iter(res["outputs"]))
    res = dict(res, outputs=dict(res["outputs"], **{name: res["outputs"][name][1:]}))
    assert any(run.failed_operations(workload, cfg, res).values())
