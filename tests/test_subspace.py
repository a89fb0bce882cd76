import json
import os
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qemlab import models, pauli, subspace
from qemlab.channels import NoiseModel, noiseless
from qemlab.circuits import (
    Circuit,
    Gate,
    attach_noise,
    build_ansatz,
    dual_state,
    reversed_circuit,
    run,
)
from qemlab.errors import ConfigError
from qemlab.pauli import (
    PauliTerm,
    PowerTable,
    SystemPartition,
    build_ising,
    term_matrix,
)
from qemlab.purification import DspEvaluator, dsp_expectation
from qemlab.experiments import check_config, scenario_cost_metric
from qemlab.subspace import SubspaceSpec, build, plan_queries, term_expansion
from qemlab.vqe import optimize

from oracles import from_masks, two_builders

PAULI = NoiseModel(kind="stochastic_pauli", p1=1e-3)


def path(n):
    return [(i, i + 1) for i in range(n - 1)]


def trained_ansatz(n, layers, h, seed=3, iters=60):
    res = optimize(n, layers, h, iters=iters, seed=seed)
    return build_ansatz(n, layers, res.params, path(n)), res


def assert_dsp_queries_match_circuits(mats, evaluators):
    """Every DSP query of the ledger against the numerator of the uncompute
    circuit for its state; evaluators maps a ledger state id to a DspEvaluator."""
    dsp = [(key[:-1], key[-1], mats.value[k]) for key, k in mats.queries.items()
           if key[0] == "fault" or key[1] == "dsp"]
    assert dsp and {state for state, _, _ in dsp} == set(evaluators)
    for state, axes, value in dsp:
        want = evaluators[state].numerator(PauliTerm(axes, 1.0))
        assert abs(value - want) <= 1e-8, (state, axes)


class TestPowerBuild:
    def test_m2_noiseless_pure(self):
        h = build_ising(path(3), 3)
        ansatz, res = trained_ansatz(3, 2, h)
        mats = build(SubspaceSpec("power", 2, h), ansatz, noiseless())
        assert mats.s[1, 1] == pytest.approx(1.0, abs=1e-10)
        assert mats.h[1, 1] == pytest.approx(res.energy, abs=1e-10)
        assert mats.s[0, 0] == pytest.approx(8.0)

    def test_bulk_matches_direct_trace(self):
        h = build_ising(path(3), 3)
        ansatz, _ = trained_ansatz(3, 2, h)
        circ = attach_noise(ansatz, PAULI)
        rho, bar = run(circ), dual_state(circ)
        sym = 0.5 * (bar @ rho + rho @ bar)
        table = PowerTable(h)
        mats = build(SubspaceSpec("power", 3, h), ansatz, PAULI)
        for i in range(1, 3):
            for j in range(1, 3):
                want_s = np.trace(sym @ table.power(i + j - 2).matrix())
                want_h = np.trace(sym @ table.power(i + j - 1).matrix())
                assert mats.s[i, j] == pytest.approx(complex(want_s), abs=1e-10)
                assert mats.h[i, j] == pytest.approx(complex(want_h), abs=1e-10)

    def test_boundary_matches_direct_trace(self):
        h = build_ising(path(3), 3)
        ansatz, _ = trained_ansatz(3, 2, h)
        circ = attach_noise(ansatz, PAULI)
        avg = 0.5 * (run(circ) + dual_state(circ))
        table = PowerTable(h)
        mats = build(SubspaceSpec("power", 3, h), ansatz, PAULI)
        for j in range(1, 3):
            want_s = np.trace(avg @ table.power(j - 1).matrix())
            want_h = np.trace(avg @ table.power(j).matrix())
            assert mats.s[0, j] == pytest.approx(complex(want_s), abs=1e-10)
            assert mats.h[0, j] == pytest.approx(complex(want_h), abs=1e-10)

    def test_hermitian_and_psd(self):
        h = build_ising(path(4), 4)
        ansatz, _ = trained_ansatz(4, 3, h)
        mats = build(SubspaceSpec("power", 4, h), ansatz, PAULI)
        assert np.max(np.abs(mats.s - mats.s.conj().T)) < 1e-10
        assert np.max(np.abs(mats.h - mats.h.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(mats.s).min() > -1e-9

    def test_backend_agreement(self):
        # the dense DSP readings of the ledger against the uncompute circuit
        h = build_ising(path(3), 3)
        ansatz, _ = trained_ansatz(3, 2, h)
        mats = build(SubspaceSpec("power", 3, h), ansatz, PAULI)
        ev = DspEvaluator(attach_noise(ansatz, PAULI))
        assert_dsp_queries_match_circuits(mats, {("power", "dsp"): ev})


class TestFaultBuild:
    def test_m1_is_plain_purified_energy(self):
        h = build_ising(path(3), 3)
        ansatz, _ = trained_ansatz(3, 2, h)
        mats = build(SubspaceSpec("fault", 1, h), ansatz, PAULI)
        circ = attach_noise(ansatz, PAULI)
        num = sum(float(np.real(t.coeff)) * dsp_expectation(circ, PauliTerm(t.axes)).numerator
                  for t in h)
        p0 = dsp_expectation(circ, PauliTerm("III")).p0
        assert mats.h[0, 0] == pytest.approx(num, abs=1e-10)
        assert mats.s[0, 0] == pytest.approx(p0, abs=1e-10)

    def test_amplification_changes_states(self):
        h = build_ising(path(3), 3)
        ansatz, _ = trained_ansatz(3, 2, h)
        mats = build(SubspaceSpec("fault", 3, h), ansatz, PAULI)
        diag = np.real(np.diag(mats.s))
        assert diag[0] > diag[1] > diag[2]  # purity drops as noise amplifies

    def test_backend_agreement(self):
        # pair (i, j) computes with state i and uncomputes with state j,
        # the state k amplified by k + 1
        h = build_ising(path(2), 2)
        ansatz, _ = trained_ansatz(2, 2, h)
        mats = build(SubspaceSpec("fault", 2, h), ansatz, PAULI)
        circs = [attach_noise(ansatz, PAULI.amplified(k)) for k in (1.0, 2.0)]
        evs = {("fault", i, j): DspEvaluator(circs[i], out_circuit=reversed_circuit(circs[j]))
               for i in range(2) for j in range(2)}
        assert_dsp_queries_match_circuits(mats, evs)


class TestDcBuild:
    def _setup(self):
        h = build_ising(path(4), 4)
        part = SystemPartition(((0, 1), (2, 3)))
        h2 = build_ising(path(2), 2)
        res = optimize(2, 2, h2, iters=50, seed=5)
        sub = build_ansatz(2, 2, res.params, path(2))
        return h, part, sub

    def test_bulk_matches_kron_oracle(self):
        h, part, sub = self._setup()
        spec = SubspaceSpec("dc", 3, h, partition=part)
        mats = build(spec, [sub, sub], PAULI)
        circ = attach_noise(sub, PAULI)
        rho, bar = run(circ), dual_state(circ)
        sym = 0.5 * (bar @ rho + rho @ bar)
        full = np.kron(sym, sym)  # qubit 0 is the LSB: block A is the inner factor
        table = PowerTable(h)
        for i in range(1, 3):
            for j in range(1, 3):
                want = np.trace(full @ table.power(i + j - 2).matrix())
                assert mats.s[i, j] == pytest.approx(complex(want), abs=1e-10)

    def test_boundary_matches_kron_oracle(self):
        h, part, sub = self._setup()
        spec = SubspaceSpec("dc", 3, h, partition=part)
        mats = build(spec, [sub, sub], PAULI)
        circ = attach_noise(sub, PAULI)
        rho, bar = run(circ), dual_state(circ)
        avg = 0.5 * (np.kron(rho, rho) + np.kron(bar, bar))
        table = PowerTable(h)
        for j in range(1, 3):
            want = np.trace(avg @ table.power(j - 1).matrix())
            assert mats.s[0, j] == pytest.approx(complex(want), abs=1e-10)

    def test_uncorrelated_product_identity(self):
        h, part, sub = self._setup()
        circ = attach_noise(sub, PAULI)
        rho = run(circ)
        full = np.kron(rho, rho)
        for axes in ("ZIXI", "XYIZ", "ZZZZ"):
            pa, pb = axes[:2], axes[2:]
            lhs = np.trace(full @ term_matrix(axes))
            rhs = np.trace(rho @ term_matrix(pa)) * np.trace(rho @ term_matrix(pb))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_backend_agreement(self):
        h, part, sub = self._setup()
        mats = build(SubspaceSpec("dc", 2, h, partition=part), [sub, sub], PAULI)
        circ = attach_noise(sub, PAULI)
        (state,) = {key[:-1] for key in mats.queries if key[1] == "dsp"}
        assert_dsp_queries_match_circuits(mats, {state: DspEvaluator(circ)})

    def test_identical_blocks_share_queries(self):
        # bit-identical block circuits are one prepared state in the ledger;
        # blocks with other parameters are two, however close the parameters
        h, part, sub = self._setup()
        other = build_ansatz(2, 2, np.random.default_rng(6).uniform(-np.pi, np.pi, 12),
                             path(2))
        last = sub.ops[-1]
        near = Circuit(2, sub.ops[:-1] + [replace(last, angle=last.angle + 1e-9)])
        twin = Circuit(2, [op if op.angle is None else replace(op, angle=float(op.angle))
                           for op in sub.ops])
        u_one, u_near = (Circuit(2, sub.ops + [Gate("u", (0,), payload=np.diag([1.0, phase]))])
                         for phase in (1.0, np.exp(1e-9j)))
        spec = SubspaceSpec("dc", 3, h, partition=part)
        same = build(spec, [sub, sub], PAULI)

        def states(mats):
            return {key[:-1] for key in mats.queries}

        assert len(states(same)) == 3
        assert len(states(build(spec, [sub, twin], PAULI))) == 3
        for pair in ([sub, other], [sub, near], [u_one, u_near]):
            distinct = build(spec, pair, PAULI)
            assert len(states(distinct)) == 6
            assert len(same.queries) < len(distinct.queries)
        assert len(same.queries) == plan_queries(spec, reuse=True).q

    @pytest.mark.parametrize("noise", [noiseless(), PAULI],
                             ids=["noiseless", "pauli-1e-3"])
    def test_path8_m9_matches_dense_oracle(self, noise):
        # the pencil shape of acceptance criterion 09; its raw entries span
        # about 16 decades (S_ii ~ ||H||^(2i-2)), so the comparison is made in
        # the unit-diagonal frame the solver works in
        n, edges = models.graph("path-8")
        h = build_ising(edges, n)
        part = models.partition("half-4-4")
        _, edges4 = models.block_subproblem(edges, part.blocks[0])
        params = np.random.default_rng(9).uniform(-np.pi, np.pi, 2 * 4 * 9)
        sub = build_ansatz(4, 8, params, edges4)
        m = 9
        spec = SubspaceSpec("dc", m, h, partition=part, boundary_state_only=True)
        mats = build(spec, [sub, sub], noise, with_variances=False)

        circ = attach_noise(sub, noise)
        rho, bar = run(circ), dual_state(circ)
        sym = 0.5 * (bar @ rho + rho @ bar)
        corner, boundary, bulk = np.eye(1 << n), np.kron(rho, rho), np.kron(sym, sym)
        hm = h.matrix()
        powers = [corner]
        for _ in range(2 * m - 1):
            powers.append(powers[-1] @ hm)
        want_s = np.zeros((m, m), dtype=complex)
        want_h = np.zeros((m, m), dtype=complex)
        for i in range(m):
            for j in range(m):
                if i == 0 and j == 0:
                    state, k = corner, 0
                elif i == 0 or j == 0:
                    state, k = boundary, i + j - 1
                else:
                    state, k = bulk, i + j - 2
                want_s[i, j] = np.trace(state @ powers[k])
                want_h[i, j] = np.trace(state @ powers[k + 1])

        scale = 1.0 / np.sqrt(np.real(np.diag(want_s)))
        frame = np.outer(scale, scale)
        assert np.max(np.abs((mats.s - want_s) * frame)) <= 1e-12
        assert np.max(np.abs((mats.h - want_h) * frame)) <= 1e-12

    def test_partition_validation(self):
        h, part, sub = self._setup()
        with pytest.raises(ConfigError):
            SubspaceSpec("dc", 2, h)
        bad = SystemPartition(((0, 1), (2,)))
        with pytest.raises(ConfigError):
            SubspaceSpec("dc", 2, h, partition=bad)


class TestQueryPlans:
    def test_fault_closed_form(self):
        h = build_ising(path(8), 8)
        for m in (2, 3, 5):
            spec = SubspaceSpec("fault", m, h)
            plan = plan_queries(spec, reuse=True)
            assert plan.q == m * m * (len(h) + 1)
            assert plan_queries(spec, reuse=False).q == plan.q

    def test_reuse_dominance(self):
        h = build_ising(path(4), 4)
        part = SystemPartition(((0, 1), (2, 3)))
        for spec in (SubspaceSpec("power", 3, h),
                     SubspaceSpec("fault", 3, h),
                     SubspaceSpec("dc", 3, h, partition=part)):
            q_re = plan_queries(spec, reuse=True).q
            q_acc = plan_queries(spec, reuse=False).q
            assert q_re <= q_acc

    def test_dc_block_observable_bound(self):
        h = build_ising(path(4), 4)
        part = SystemPartition(((0, 1), (2, 3)))
        spec = SubspaceSpec("dc", 4, h, partition=part)
        plan = plan_queries(spec, reuse=True)
        per_block: dict[str, set] = {}
        for key in plan.queries:
            per_block.setdefault(key[2], set()).add(key[3])
        for axes_set in per_block.values():
            assert len(axes_set) <= 4 ** 2

    def test_plan_matches_builder_ledger(self):
        h = build_ising(path(4), 4)
        part = SystemPartition(((0, 1), (2, 3)))
        h2 = build_ising(path(2), 2)
        res = optimize(2, 2, h2, iters=40, seed=5)
        sub = build_ansatz(2, 2, res.params, path(2))
        ansatz, _ = trained_ansatz(4, 2, h)
        cases = [
            (SubspaceSpec("power", 3, h), ansatz),
            (SubspaceSpec("fault", 2, h), ansatz),
        ]
        for spec, arg in cases:
            mats = build(spec, arg, PAULI)
            plan = plan_queries(spec, reuse=True)
            assert set(plan.queries) == set(mats.queries)
        # dc: plan uses a synthetic shared block key, so compare per-block sets
        spec = SubspaceSpec("dc", 3, h, partition=part)
        mats = build(spec, [sub, sub], PAULI)
        plan = plan_queries(spec, reuse=True)
        assert plan.q == len(mats.queries)

    def test_cost_metric_q_is_plan_q(self):
        # the cost scenario reads Q from each pencil's ledger and the queries
        # scenario from plan_queries; the two counts must not drift apart
        cfg = check_config({"scenario": "cost-metric", "graph": "path-4",
                            "partition": "half-2-2", "power_m": [2, 3], "dc_m": [2, 3],
                            "vqe": {"layers": 1, "iters": 20, "seed": 1}})
        _, rows = scenario_cost_metric(cfg)["cost_metric"]
        assert [(kind, m) for kind, m, *_ in rows] == [("power", 2), ("power", 3),
                                                        ("dc", 2), ("dc", 3)]
        for kind, m, _, q, _, _ in rows:
            spec = cfg.values.specs[kind, m]
            assert q == plan_queries(spec, reuse=True).q, (kind, m)


def _random_ansatz(n, seed, layers=1):
    params = np.random.default_rng(seed).uniform(-np.pi, np.pi, 2 * n * (layers + 1))
    return build_ansatz(n, layers, params, path(n))


# (kind, blocks, block ansatz seeds: equal seeds give bit-identical block circuits)
PLAN_CASES = [
    ("power", None, (1,)),
    ("fault", None, (1,)),
    ("dc", ((0, 1), (2, 3)), (1, 1)),
    ("dc", ((0, 1), (2, 3)), (1, 2)),
    ("dc", ((0,), (1, 2, 3)), (1, 1)),
    ("dc", ((0,), (1,), (2, 3)), (1, 1, 1)),
    ("dc", ((0,), (1,), (2, 3)), (1, 2, 1)),
]


@pytest.mark.parametrize("bso", [False, True])
@pytest.mark.parametrize("noise", [noiseless(), PAULI, NoiseModel("coherent_drift", 1e-2)],
                         ids=["noiseless", "pauli", "drift"])
@pytest.mark.parametrize("kind, blocks, seeds", PLAN_CASES)
def test_planned_q_never_exceeds_built_q(kind, blocks, seeds, noise, bso):
    # check_config rejects a shot budget below the planned Q before any work,
    # which holds only if no build, nor any leading block of one, reads fewer
    # queries; they are equal unless equal-size blocks differ
    h = build_ising(path(4), 4)
    part = SystemPartition(blocks) if blocks else None
    spec = SubspaceSpec(kind, 4, h, partition=part, boundary_state_only=bso)
    if kind == "dc":
        arg = [_random_ansatz(len(b), seed) for b, seed in zip(blocks, seeds)]
    else:
        arg = _random_ansatz(4, seeds[0])
    mats = build(spec, arg, noise, seed=3, with_variances=False)
    merged = len({(len(b), seed) for b, seed in zip(blocks, seeds)}) if blocks else 1
    sizes = len({len(b) for b in blocks}) if blocks else 1
    for m in range(1, spec.m + 1):
        planned = plan_queries(replace(spec, m=m), reuse=True).q
        built = len(mats.leading(m).queries)
        assert planned <= built, (m, planned, built)
        if merged == sizes:  # every equal-size group is one bit-identical circuit
            assert planned == built, (m, planned, built)


# no noise, four channel kinds, and drift, which adds rotation gates and no channel
BUILD_NOISE = [noiseless(), NoiseModel("stochastic_pauli", 1e-2),
               NoiseModel("global_depolarizing", 1e-2), NoiseModel("thermal_relaxation", 1e-2),
               NoiseModel("amplitude_damping", 1e-2), NoiseModel("coherent_drift", 5e-2)]
# (partition, block ansatz seeds): equal seeds give bit-identical block circuits
BUILD_BLOCKS = [("half-2-2", (1, 2)), (((0,), (1,), (2, 3)), (1, 2, 3)), ("half-2-2", (1, 1))]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(subspace.KINDS),
       noise=st.sampled_from(BUILD_NOISE),
       m=st.integers(1, 4),
       with_variances=st.booleans(),
       bso=st.booleans(),
       blocks=st.sampled_from(BUILD_BLOCKS),
       seed=st.integers(0, 2**16))
def test_build_equals_the_two_builders(kind, noise, m, with_variances, bso, blocks, seed):
    # the one builder makes, bit for bit, the pencil and ledger that the
    # separate fault and divided builders made
    h = build_ising(path(4), 4)
    name, seeds = blocks
    part = models.partition(name) if isinstance(name, str) else SystemPartition(name)
    if kind == "dc":
        arg = [_random_ansatz(len(b), seed + s) for b, s in zip(part.blocks, seeds)]
    else:
        arg, part = _random_ansatz(4, seed), None
    spec = SubspaceSpec(kind, m, h, partition=part, boundary_state_only=bso)
    got = build(spec, arg, noise, seed=seed % 5, with_variances=with_variances)
    want = two_builders(spec, arg, noise, seed=seed % 5, with_variances=with_variances)
    assert got.queries == want.queries
    assert got.elements == want.elements
    for attr in ("s", "h", "value"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr
    assert np.array_equal(got.var, want.var, equal_nan=True)


class TestLeadingBlock:
    """One build at M_max, sliced, against a fresh build at each M."""

    M_MAX = 5

    @staticmethod
    def _case(kind, seed, bso):
        h = build_ising(path(4), 4)
        rng = np.random.default_rng(seed)
        if kind == "dc":
            part = SystemPartition(((0, 1), (2, 3)))
            subs = [build_ansatz(2, 2, rng.uniform(-np.pi, np.pi, 12), path(2))
                    for _ in range(2)]
            return (lambda m: SubspaceSpec("dc", m, h, partition=part,
                                           boundary_state_only=bso)), subs
        ansatz = build_ansatz(4, 2, rng.uniform(-np.pi, np.pi, 24), path(4))
        kwargs = {"boundary_state_only": bso} if kind == "power" else {}
        return (lambda m: SubspaceSpec(kind, m, h, **kwargs)), ansatz

    @settings(max_examples=40, deadline=None)
    @given(kind=st.sampled_from(["power", "fault", "dc"]),
           noisy=st.booleans(),
           bso=st.booleans(),
           seed=st.integers(0, 2**16),
           m=st.integers(1, M_MAX))
    def test_slice_equals_fresh_build(self, kind, noisy, bso, seed, m):
        spec_at, arg = self._case(kind, seed, bso)
        noise = PAULI if noisy else noiseless()
        got = build(spec_at(self.M_MAX), arg, noise).leading(m)
        want = build(spec_at(m), arg, noise)
        assert got.m == want.m == m
        for name in ("s", "h"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.matrix_rows() == want.matrix_rows()
        assert list(got.queries) == list(want.queries)
        for key in list(want.queries):
            assert got.value[got.queries[key]] == want.value[want.queries[key]]
            assert got.var[got.queries[key]] == want.var[want.queries[key]]
        assert got.ledger_rows() == want.ledger_rows()

    def test_slice_bounds(self):
        spec_at, arg = self._case("power", 0, False)
        mats = build(spec_at(3), arg, noiseless())
        assert mats.leading(3).m == 3
        for m in (0, 4):
            with pytest.raises(ConfigError):
                mats.leading(m)


class TestElements:
    """The builders' elements are the pencil's only form."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["power", "fault", "dc"]),
           bso=st.booleans(),
           big=st.integers(1, 6),
           data=st.data())
    def test_each_element_stored_once_and_shared_by_leading(self, kind, bso, big, data):
        h = build_ising(path(4), 4)
        rng = np.random.default_rng(big)
        if kind == "dc":
            spec = SubspaceSpec("dc", big, h, partition=SystemPartition(((0, 1), (2, 3))),
                                boundary_state_only=bso)
            arg = [build_ansatz(2, 1, rng.uniform(-np.pi, np.pi, 8), path(2)) for _ in range(2)]
        else:
            spec = SubspaceSpec(kind, big, h, **({"boundary_state_only": bso}
                                                 if kind == "power" else {}))
            arg = build_ansatz(4, 1, rng.uniform(-np.pi, np.pi, 16), path(4))
        mats = build(spec, arg, PAULI, with_variances=False)
        keys = list(mats.queries)
        assert keys == sorted(keys, key=repr)
        assert list(mats.queries.values()) == list(range(len(keys)))
        targets = [t for _, _, ts in mats.elements for t in ts]
        assert sorted(targets) == [(w, i, j) for w in (0, 1)
                                   for i in range(big) for j in range(i, big)]
        assert all(ts for _, _, ts in mats.elements)

        m = data.draw(st.integers(1, big), label="m")
        part = mats.leading(m)
        terms_of = {id(terms): (terms, ts) for _, terms, ts in mats.elements}
        for _, terms, ts in part.elements:
            parent_terms, parent_ts = terms_of[id(terms)]
            assert terms is parent_terms
            assert ts == [t for t in parent_ts if t[2] < m] and ts
        assert sorted(t for _, _, ts in part.elements for t in ts) == [
            (w, i, j) for w in (0, 1) for i in range(m) for j in range(i, m)]
        for name in ("value", "var"):
            got, parent = getattr(part, name), getattr(mats, name)
            assert got is parent and (parent.size == 0 or np.shares_memory(got, parent))
        read = {k for _, terms, _ in part.elements for _, slots in terms for k in slots}
        assert list(part.queries.items()) == [(key, k) for key, k in mats.queries.items()
                                              if k in read]


# (Q without reuse, Q with reuse) per (kind, M): the counts that
# configs/fig-queries.json writes to queries.csv, pinned
FIG_QUERIES_Q = {
    ("power", 2): (76, 46), ("power", 3): (1120, 618),
    ("power", 4): (7619, 2811), ("power", 5): (28675, 6530),
    ("fault", 2): (64, 64), ("fault", 3): (144, 144),
    ("fault", 4): (256, 256), ("fault", 5): (400, 400),
    ("dc", 2): (64, 19), ("dc", 3): (1640, 106),
    ("dc", 4): (12870, 202), ("dc", 5): (50654, 292),
}


def test_fig_queries_counts_unchanged():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "fig-queries.json")) as fh:
        cfg = json.load(fh)
    specs = check_config(cfg).values.specs
    got = {}
    for kind in cfg["kinds"]:
        for m in cfg["m_values"]:
            spec = specs[kind, m]
            got[(kind, m)] = (plan_queries(spec, reuse=False).q,
                              plan_queries(spec, reuse=True).q)
    assert got == FIG_QUERIES_Q


@pytest.mark.parametrize("n, blocks, scale, powers", [
    *(pytest.param(5, ((0, 1), (2, 3, 4)), s, 8, id=str(s))
      for s in (1.25, 1.5, 1.75, 2.25, 2.5, 2.75)),
    pytest.param(8, ((0, 1, 2, 3), (4, 5, 6, 7)), 1.25, 10, id="path8-half-4-4"),
])
def test_shared_expansion_matches_direct_powers(n, blocks, scale, powers):
    # the memoized expansion, extended one power at a time, matches the
    # powers expanded and spelled block by block directly.  Each case is a
    # Hamiltonian no other test expands, so the cache is cold.
    ising = build_ising(path(n), n)
    h = from_masks(n, {k: scale * c for k, c in ising._terms.items()})  # Ising's string order
    want = [[(t.coeff, tuple("".join(t.axes[q] for q in b) for b in blocks))
             for t in PowerTable(h).power(k)] for k in range(powers)]
    exp = term_expansion(h, blocks)
    got = []
    for k in range(powers):
        coeffs, splits = exp.power(k)
        got.append([(c, tuple(sp.spelled[sp.ids[t]] for sp in splits))
                    for t, c in enumerate(coeffs)])
        for sp, b in zip(splits, blocks):
            ident = "I" * len(b)
            assert sp.identity == (sp.spelled.index(ident) if ident in sp.spelled else -1)
    assert want == got


def test_one_power_table_per_hamiltonian(monkeypatch):
    # power M = 4 reads H^0..H^5 and dc M = 6 reads H^0..H^9: nine products
    # in all, since both expansions of path-8 read one table
    monkeypatch.setattr(subspace, "_TABLES", OrderedDict())
    monkeypatch.setattr(subspace, "_EXPANSIONS", OrderedDict())
    calls = []
    sum_mul = pauli.sum_mul
    monkeypatch.setattr(pauli, "sum_mul", lambda a, b: calls.append(1) or sum_mul(a, b))
    h = build_ising(path(8), 8)
    rng = np.random.default_rng(4)
    full = build_ansatz(8, 1, rng.uniform(-np.pi, np.pi, 32), path(8))
    subs = [build_ansatz(4, 1, rng.uniform(-np.pi, np.pi, 16), path(4)) for _ in range(2)]
    build(SubspaceSpec("power", 4, h), full, noiseless(), with_variances=False)
    build(SubspaceSpec("dc", 6, h, partition=models.partition("half-4-4"),
                       boundary_state_only=True), subs, noiseless(), with_variances=False)
    assert len(calls) == 9


@pytest.mark.parametrize("kind, noise", [
    ("power", noiseless()),
    ("fault", NoiseModel(kind="coherent_drift", p1=0.02)),
])
def test_channel_free_dual_is_the_state(monkeypatch, kind, noise):
    # a circuit with no channel is its own dual circuit, so the builders reuse
    # its state; the pencil and ledger equal those read with dual_state run
    h = build_ising(path(4), 4)
    ansatz = build_ansatz(4, 2, np.random.default_rng(9).uniform(-np.pi, np.pi, 24), path(4))
    spec = SubspaceSpec(kind, 3, h)
    duals = []
    monkeypatch.setattr(subspace, "dual_state", lambda c: duals.append(c) or dual_state(c))
    reused = build(spec, ansatz, noise, seed=2)
    assert duals == []
    monkeypatch.setattr(subspace, "_dual", lambda circ, rho: subspace.dual_state(circ))
    forced = build(spec, ansatz, noise, seed=2)
    assert len(duals) == (1 if kind == "power" else 3)
    for name in ("s", "h"):
        assert np.array_equal(getattr(reused, name), getattr(forced, name)), name
    assert reused.matrix_rows() == forced.matrix_rows()
    assert list(reused.queries) == list(forced.queries)
    assert np.array_equal(reused.value, forced.value)
    assert np.array_equal(reused.var, forced.var, equal_nan=True)
    assert reused.queries == forced.queries


def test_channel_free_dsp_state_reuses_rho_bar():
    # with no channel the dual is the state itself, and the symmetrized
    # product b @ r + r @ b takes r @ r once; the bytes equal those of the
    # two products formed on a distinct copy of the state
    h = build_ising(path(4), 4)
    ansatz = build_ansatz(4, 2, np.random.default_rng(11).uniform(-np.pi, np.pi, 24), path(4))
    spec = SubspaceSpec("power", 3, h)
    reused = build(spec, ansatz, noiseless(), seed=1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(subspace, "_dual", lambda circ, rho: rho.copy())
        two_products = build(spec, ansatz, noiseless(), seed=1)
    for name in ("s", "h", "value", "var"):
        assert getattr(reused, name).tobytes() == getattr(two_products, name).tobytes(), name
    assert reused.queries == two_products.queries
    assert reused.ledger_rows() == two_products.ledger_rows()
    assert sum(key[1] == "dsp" for key in reused.queries) > 0
