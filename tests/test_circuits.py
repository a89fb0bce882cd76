import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qemlab import channels as ch
from qemlab import purification as pur
from qemlab.circuits import (
    Circuit,
    Gate,
    _compile,
    _contract,
    _evolve,
    _gate_superop,
    _partial_trace,
    _rho_axes,
    _unitary_superop,
    apply,
    apply_channel,
    attach_noise,
    build_ansatz,
    dual_circuit,
    dual_state,
    expected_errors,
    gate_matrix,
    gate_noise,
    reversed_circuit,
    run,
    trace_distance,
    zero_state,
    zero_vector,
)
from qemlab.errors import NoiseRateError, RegisterCapError, SizeMismatchError

from oracles import (
    apply_state,
    apply_unitary_state,
    copying_apply,
    copying_partial_trace,
    drift_channel_attach_noise,
    drift_channel_compile,
    drift_channel_gadget,
    random_circuit,
    replace_with_mixed,
    unmerged_compile,
)


def embed(u, qubits, n):
    """Reference embedding: first listed qubit is the local MSB."""
    d = 1 << n
    m = np.zeros((d, d), dtype=complex)
    k = len(qubits)
    for i in range(d):
        loc_in = 0
        for pos, q in enumerate(qubits):
            loc_in |= ((i >> q) & 1) << (k - 1 - pos)
        rest = i
        for q in qubits:
            rest &= ~(1 << q)
        for loc_out in range(1 << k):
            j = rest
            for pos, q in enumerate(qubits):
                j |= ((loc_out >> (k - 1 - pos)) & 1) << q
            m[j, i] += u[loc_out, loc_in]
    return m


def oracle_apply_superop(t, s, qubits, n):
    """The tensordot kernel that ``_contract`` replaced, for rho as a 2n-axis tensor."""
    k = len(qubits)
    axes = [n - 1 - q for q in qubits] + [2 * n - 1 - q for q in qubits]
    t = np.tensordot(s.reshape((2,) * (4 * k)), t, axes=(list(range(2 * k, 4 * k)), axes))
    return np.moveaxis(t, list(range(2 * k)), axes)


def oracle_apply_unitary_state(psi, u, qubits, n):
    """The tensordot kernel that ``_contract`` replaced, for a flat statevector."""
    k = len(qubits)
    t = psi.reshape((2,) * n)
    u_t = u.reshape((2,) * (2 * k))
    axes = [n - 1 - q for q in qubits]
    t = np.tensordot(u_t, t, axes=(list(range(k, 2 * k)), axes))
    t = np.moveaxis(t, list(range(k)), axes)
    return t.reshape(psi.shape)


def check_density(rho, atol_herm=1e-10, atol_tr=1e-10, atol_psd=1e-9):
    """Raise if rho is not a valid density matrix to tolerance."""
    herm = np.max(np.abs(rho - rho.conj().T))
    if herm > atol_herm:
        raise AssertionError(f"hermiticity violated by {herm:.3e}")
    tr = abs(np.trace(rho) - 1.0)
    if tr > atol_tr:
        raise AssertionError(f"trace deviates by {tr:.3e}")
    lam = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    if lam.min() < -atol_psd:
        raise AssertionError(f"negative eigenvalue {lam.min():.3e}")


def gate_counts(circuit):
    """Gates per arity: "1q", "2q", "3q"."""
    out = {}
    for g in circuit.gates():
        key = f"{len(g.qubits)}q"
        out[key] = out.get(key, 0) + 1
    return out


def random_density(rng, n):
    d = 1 << n
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


_PAULIS = [np.eye(2, dtype=complex), np.array([[0, 1], [1, 0]], dtype=complex),
           np.array([[0, -1j], [1j, 0]], dtype=complex), np.diag([1.0, -1.0]).astype(complex)]


def dense_kraus(op, n):
    """Kraus set of one circuit op as full-register matrices, built with ``embed``."""
    if isinstance(op, Gate):
        return [embed(gate_matrix(op), op.qubits, n)]
    if op.kind == "local_depolarizing":
        # (1 - p) rho + p I/4^k on its k = 1 or 2 qubits, as a uniform Pauli mixture
        p, d2 = op.params[0], 4 ** len(op.qubits)
        paulis = _PAULIS if len(op.qubits) == 1 else [np.kron(a, b) for a in _PAULIS
                                                      for b in _PAULIS]
        weights = [1.0 - p + p / d2] + [p / d2] * (d2 - 1)
        return [math.sqrt(w) * embed(m, op.qubits, n) for w, m in zip(weights, paulis)]
    kraus = [np.eye(1 << n, dtype=complex)]
    for q in op.qubits:
        local = [embed(k, (q,), n) for k in ch.single_qubit_kraus(op)]
        kraus = [a @ b for a in local for b in kraus]
    return kraus


def dense_apply(circuit, rho):
    """Reference evolution: full-register Kraus sums, one op at a time."""
    n = circuit.n
    for op in circuit.ops:
        if isinstance(op, ch.Channel) and op.kind == "global_depolarizing":
            mixed = rho
            for q in op.qubits or range(n):  # full depolarization, qubit by qubit
                mixed = sum(embed(pm, (q,), n) @ mixed @ embed(pm, (q,), n).conj().T
                            for pm in _PAULIS) / 4.0
            rho = (1.0 - op.params[0]) * rho + op.params[0] * mixed
        else:
            rho = sum(k @ rho @ k.conj().T for k in dense_kraus(op, n))
    return rho


_GATE_ARITY = {"rx": 1, "rz": 1, "h": 1, "cx": 2, "cz": 2, "cv": 2, "swap": 2,
               "cswap": 3, "cpauli": 2}
_CHANNEL_KINDS = ["stochastic_pauli", "amplitude_damping", "thermal_relaxation",
                  "local_depolarizing", "global_depolarizing"]


def _noisy_gate(draw, c, gate):
    """The gate added to c, followed by 0-2 channels of any kind on its qubits
    (a global-depolarizing fence on any scope); some channels dualized.
    Coherent drift is rotation gates, which ``_drawn_gate`` draws."""
    n, qs, rate = c.n, gate.qubits, st.floats(0.0, 0.3)
    c.add(gate)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(_CHANNEL_KINDS))
        where = qs[:2] if draw(st.booleans()) else qs[:1]
        if kind == "stochastic_pauli":
            chan = ch.stochastic_pauli(draw(rate), where, (0.1, 0.3, 0.6))
        elif kind == "amplitude_damping":
            chan = ch.amplitude_damping(draw(rate), where)
        elif kind == "thermal_relaxation":
            t1 = draw(st.floats(10e-6, 100e-6))
            chan = ch.thermal_relaxation(t1, draw(st.floats(0.1, 2.0)) * t1, 2e-6, qs[0])
        elif kind == "local_depolarizing":
            chan = ch.local_depolarizing(draw(rate), where)
        else:
            scope = tuple(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
            chan = ch.Channel("global_depolarizing", draw(st.sampled_from([(), scope])),
                              (draw(rate),))
        c.add(chan.dual() if draw(st.booleans()) else chan)


def _drawn_gate(draw, name, qs):
    angle = draw(st.floats(-math.pi, math.pi)) if name in ("rx", "rz") else None
    payload = draw(st.sampled_from("XYZ")) if name == "cpauli" else None
    return Gate(name, qs, angle, payload)


@st.composite
def noisy_circuits(draw, max_n=5):
    """Gates, each followed by 0-2 channels of any kind; some channels dualized."""
    n = draw(st.integers(1, max_n))
    c = Circuit(n)
    for _ in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from([g for g, k in _GATE_ARITY.items() if k <= n]))
        qs = tuple(draw(st.permutations(range(n)))[:_GATE_ARITY[name]])
        _noisy_gate(draw, c, _drawn_gate(draw, name, qs))
    return c


def cswap_gates(anc, a, b):
    """The seven two-qubit gates of ``purification._Builder.cswap``."""
    builder = pur._Builder(max(anc, a, b) + 1, None)
    builder.cswap(anc, a, b)
    return builder.circ.ops


@st.composite
def three_qubit_runs(draw):
    """Runs of noisy gates inside three qubits of 7 or 8, each a controlled-swap
    decomposition or 4-9 random gates (mostly two-qubit), with a gate on other
    qubits or a fence between runs."""
    n = draw(st.integers(7, 8))
    c = Circuit(n)
    for _ in range(draw(st.integers(1, 3))):
        trio = tuple(draw(st.permutations(range(n)))[:3])
        if draw(st.booleans()):
            gates = cswap_gates(*trio)
        else:
            gates = []
            for _ in range(draw(st.integers(4, 9))):
                name = draw(st.sampled_from(["cx", "cz", "cv", "cvdg", "swap", "cpauli",
                                             "cx", "cz", "rx", "h"]))
                qs = tuple(draw(st.permutations(trio)))[:1 if name in ("rx", "h") else 2]
                gates.append(_drawn_gate(draw, name, qs))
        for g in gates:
            _noisy_gate(draw, c, g)
        if draw(st.booleans()):
            qs = tuple(draw(st.permutations(range(n)))[:2])
            if draw(st.booleans()):
                c.add(Gate("cz", qs))
            else:
                c.add(ch.Channel("global_depolarizing", tuple(sorted(qs)), (0.1,)))
    return c


class TestGateApplication:
    def test_unitary_embedding_matches_reference(self):
        rng = np.random.default_rng(0)
        for n in (2, 3, 4):
            rho = random_density(rng, n)
            cases = [
                Gate("rx", (0,), 0.7), Gate("rz", (n - 1,), -1.1), Gate("h", (1,)),
                Gate("cx", (0, n - 1)), Gate("cx", (n - 1, 0)), Gate("cz", (1, 0)),
                Gate("cv", (0, 1)), Gate("swap", (0, n - 1)),
            ]
            if n >= 3:
                cases.append(Gate("cswap", (2, 0, 1)))
            for g in cases:
                u = embed(gate_matrix(g), g.qubits, n)
                want = u @ rho @ u.conj().T
                got = apply(Circuit(n, [g]), rho)
                np.testing.assert_allclose(got, want, atol=1e-12)

    def test_statevector_matches_density(self):
        rng = np.random.default_rng(1)
        c = random_circuit(rng, 3, 12)
        psi = apply_state(c, zero_vector(3))
        rho = run(c)
        np.testing.assert_allclose(np.outer(psi, psi.conj()), rho, atol=1e-12)

    def test_x_flips_zero(self):
        c = Circuit(1, [Gate("x", (0,))])
        rho = run(c)
        np.testing.assert_allclose(rho, np.array([[0, 0], [0, 1]], dtype=complex), atol=1e-14)

    def test_empty_circuit_identity(self):
        rng = np.random.default_rng(2)
        rho = random_density(rng, 2)
        np.testing.assert_allclose(apply(Circuit(2), rho), rho, atol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(SizeMismatchError):
            apply(Circuit(2), zero_state(3))

    def test_register_cap(self):
        with pytest.raises(RegisterCapError):
            Circuit(11)

    def test_forced_x_error(self):
        c = Circuit(1, [Gate("rz", (0,), 0.0), ch.stochastic_pauli(1.0, (0,), (1.0, 0.0, 0.0))])
        rho = run(c)
        np.testing.assert_allclose(rho, np.array([[0, 0], [0, 1]], dtype=complex), atol=1e-14)

    def test_cswap_truth_table(self):
        g = Gate("cswap", (2, 1, 0))
        u = embed(gate_matrix(g), g.qubits, 3)
        # control off: nothing happens; control on: qubits 0 and 1 swap
        for i in range(8):
            v = np.zeros(8)
            v[i] = 1.0
            out = u @ v
            if (i >> 2) & 1:
                j = (i & 4) | (((i >> 1) & 1)) | ((i & 1) << 1)
            else:
                j = i
            assert abs(out[j] - 1.0) < 1e-12


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@st.composite
def qubit_tuples(draw, n):
    """1q, 2q or 3q tuples in any qubit order."""
    k = draw(st.integers(1, min(3, n)))
    return tuple(draw(st.permutations(range(n)))[:k])


class TestContract:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_rho_equals_tensordot_oracle(self, data, n, seed):
        rng = np.random.default_rng(seed)
        got = want = _complex(rng, 1 << n, 1 << n).reshape((2,) * (2 * n))
        for _ in range(2):  # the second step reads the transposed view the first hands on
            qubits = data.draw(qubit_tuples(n))
            s = _complex(rng, 4 ** len(qubits), 4 ** len(qubits))
            got = _contract(got, s, _rho_axes(qubits, n))
            want = oracle_apply_superop(want, s, qubits, n)
            assert np.array_equal(got, want)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_state_equals_tensordot_oracle(self, data, n, seed):
        rng = np.random.default_rng(seed)
        psi = _complex(rng, 1 << n)
        qubits = data.draw(qubit_tuples(n))
        u = _complex(rng, 2 ** len(qubits), 2 ** len(qubits))
        for m in (u, u.conj().T):  # the adjoint sweep passes a transposed view
            assert np.array_equal(apply_unitary_state(psi, m, qubits, n),
                                  oracle_apply_unitary_state(psi, m, qubits, n))


class TestFusedKernel:
    @settings(max_examples=60, deadline=None)
    @given(noisy_circuits(), st.integers(0, 2**32 - 1))
    # the second cx must not join the first: rx(1) sits between them on qubit 1
    @example(Circuit(2, [Gate("cx", (0, 1)), Gate("rx", (1,), 0.7),
                         ch.stochastic_pauli(0.1, (1,)), Gate("cx", (0, 1))]), 0)
    # a 3-qubit scope inside 5 qubits: ops on either side of it must not fuse
    @example(Circuit(5, [Gate("cx", (0, 1)), Gate("rx", (2,), 0.4),
                         ch.Channel("global_depolarizing", (1, 2, 4), (0.3,)),
                         Gate("rz", (2,), -0.9), Gate("cz", (2, 3)), Gate("cx", (0, 1))]), 12)
    # a 1q block after the cx, with cx(1, 2) on the cx's other qubit in between:
    # h(1) folds into cx(1, 2), the trailing rx(0) back into the first cx
    @example(Circuit(3, [Gate("cx", (0, 1)), Gate("h", (1,)), ch.amplitude_damping(0.2, (1,)),
                         Gate("cx", (1, 2)), Gate("rx", (0,), 0.7),
                         ch.amplitude_damping(0.3, (0,))]), 1)
    # 1q blocks on both qubits fold into cv, which then fuses into the cx block
    @example(Circuit(2, [Gate("cx", (0, 1)), ch.thermal_relaxation(30e-6, 20e-6, 2e-6, 0),
                         Gate("h", (1,)), ch.amplitude_damping(0.2, (1,)), Gate("cv", (0, 1)),
                         ch.stochastic_pauli(0.1, (0, 1))]), 2)
    # a scoped fence between a 1q block and a 2q op: the block must not pass it
    @example(Circuit(3, [Gate("rx", (1,), 0.4), ch.amplitude_damping(0.3, (1,)),
                         ch.Channel("global_depolarizing", (1, 2), (0.3,)),
                         Gate("cx", (1, 0))]), 3)
    # a trailing 1q block on qubit 2, after its last 2q op cx(0, 2) and cz(0, 1)
    @example(Circuit(3, [Gate("cx", (0, 2)), ch.stochastic_pauli(0.1, (0, 2)),
                         Gate("cz", (0, 1)), Gate("h", (2,)),
                         ch.thermal_relaxation(30e-6, 20e-6, 2e-6, 2),
                         Gate("rz", (2,), -0.5)]), 4)
    def test_matches_dense_kraus_oracle(self, circuit, seed):
        rho = random_density(np.random.default_rng(seed), circuit.n)
        for c in (circuit, dual_circuit(circuit)):
            np.testing.assert_allclose(apply(c, rho), dense_apply(c, rho), rtol=0, atol=1e-12)

    def test_cached_gate_superops_equal_fresh_ones(self):
        def same_bits(a, b):
            return (np.array_equal(a, b)
                    and np.array_equal(np.signbit(a.real), np.signbit(b.real))
                    and np.array_equal(np.signbit(a.imag), np.signbit(b.imag)))

        gates = [Gate(name, (0,), angle) for name in ("rx", "rz", "phase")
                 for angle in (0.0, -0.0, 0.7, -0.7, math.pi)]
        gates += [Gate(name, (0,)) for name in ("h", "x", "y", "z", "s", "sdg", "v", "vdg")]
        gates += [Gate(name, (0, 1)) for name in ("cx", "cy", "cz", "cv", "cvdg", "swap")]
        gates += [Gate("cpauli", (0, 1), payload=p) for p in "XYZ"]
        gates += [Gate("cswap", (0, 1, 2))]
        for _ in range(2):  # the second pass reads the cache
            for g in gates:
                got = _gate_superop(g)
                assert same_bits(got, _unitary_superop(gate_matrix(g))), (g.name, g.angle)
                assert not got.flags.writeable
        # rx(0.0) and rx(-0.0) compare equal but differ in the signs of zeros
        pos, neg = _gate_superop(Gate("rx", (0,), 0.0)), _gate_superop(Gate("rx", (0,), -0.0))
        assert np.array_equal(pos, neg) and not same_bits(pos, neg)
        u = Gate("u", (0,), payload=gate_matrix(Gate("h", (0,))))
        assert _gate_superop(u).flags.writeable  # an explicit matrix is never cached

    def test_step_counts(self, monkeypatch):
        nm = ch.NoiseModel(kind="thermal_relaxation", p1=1e-3)
        noisy_cx = attach_noise(Circuit(2, [Gate("cx", (0, 1))]), nm)
        assert len(noisy_cx.ops) == 4  # cx, thermal on each qubit, then 2q Pauli
        assert len(_compile(noisy_cx)) == 1
        # both rx/rz ranks ride in the cz blocks: the first folds forward, the last back
        ansatz = build_ansatz(4, 1, np.full(16, 0.3), [(0, 1), (1, 2), (2, 3)])
        assert len(_compile(ansatz)) == 3
        # a two-copy ESD estimator of a noisy 1-layer path-4 ansatz runs the
        # copy once on its 4 qubits; only the gadget (114 ops) sees more, on
        # a register that loses a copy-1 qubit after each controlled swap
        seen, gadget = [], []
        monkeypatch.setattr(pur, "run", lambda c: seen.append(c) or run(c))
        monkeypatch.setattr(pur, "_evolve", lambda c, *a: gadget.append(c) or _evolve(c, *a))
        params = np.random.default_rng(1).uniform(-1.0, 1.0, 16)
        circ = attach_noise(build_ansatz(4, 1, params, [(0, 1), (1, 2), (2, 3)]), nm, seed=3)
        pur.EsdEvaluator(circ, 2, gadget_noise=nm, gadget_seed=5)
        assert seen == [circ]
        assert [c.n for c in gadget] == [9, 8, 7, 6]
        assert sum(len(c.ops) for c in gadget) == 114
        # one controlled swap per segment: one merged step down to 7 qubits
        assert [len(_compile(c)) for c in gadget] == [1, 1, 1, len(unmerged_compile(gadget[3]))]
        assert all(len(unmerged_compile(c)) <= 7 for c in gadget)


class TestThreeQubitMerge:
    """``_compile`` merges runs of steps on three qubits where that pays;
    ``unmerged_compile`` is its fuse and fold passes alone."""

    @settings(max_examples=40, deadline=None)
    @given(three_qubit_runs(), st.integers(0, 2**32 - 1))
    @example(Circuit(8, [op for g in cswap_gates(7, 0, 4)
                         for op in (g, ch.thermal_relaxation(50e-6, 70e-6, 2e-7, g.qubits[0]),
                                    ch.stochastic_pauli(1e-3, g.qubits))]), 5)
    def test_matches_unmerged_oracle(self, circuit, seed):
        rho = random_density(np.random.default_rng(seed), circuit.n)
        for c in (circuit, dual_circuit(circuit)):
            assert len(_compile(c)) <= len(unmerged_compile(c))
            np.testing.assert_allclose(apply(c, rho), copying_apply(c, rho, unmerged_compile),
                                       rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_a_controlled_swap_merges_from_seven_qubits(self, n):
        # seven 2q steps on three qubits cost 7 * 16 * 4^n products, one merged
        # step 64 * 4^n, and composing it 7 * 16 * 4^6
        c = Circuit(n, cswap_gates(n - 1, 0, 1))
        steps = _compile(c)
        assert len(unmerged_compile(c)) == 7
        assert len(steps) == (1 if n >= 7 else 7)
        want = copying_apply(c, zero_state(n), unmerged_compile)
        np.testing.assert_allclose(run(c), want, rtol=0, atol=1e-14)
        if n >= 7:
            assert steps[0][0] == _rho_axes((1, 0, n - 1), n)  # qubits by first appearance

    def test_fence_ends_a_run(self):
        gates = cswap_gates(7, 0, 4)
        fence = ch.Channel("global_depolarizing", (0, 4), (0.1,))
        assert len(_compile(Circuit(8, gates + gates))) == 1
        steps = _compile(Circuit(8, gates + [fence] + gates))
        assert [axes is None for axes, _ in steps] == [False, True, False]
        # runs of 4 and 3 steps do not pay at 8 qubits, so nothing merges
        split = Circuit(8, gates[:4] + [fence] + gates[4:])
        assert len(_compile(split)) == len(unmerged_compile(split)) == 8

    @pytest.mark.parametrize("kind", ["stochastic_pauli", "amplitude_damping",
                                      "thermal_relaxation"])
    def test_path8_ansatz_steps_are_unmerged(self, kind):
        # the brickwork never keeps three qubits for two steps running, so a
        # noisy path-8 run or dual compiles bit for bit as before
        nm = ch.NoiseModel(kind=kind, p1=1e-3)
        params = np.random.default_rng(11).uniform(-1.0, 1.0, 2 * 8 * 9)
        circ = attach_noise(build_ansatz(8, 8, params, [(i, i + 1) for i in range(7)]), nm,
                            seed=2)
        for c in (circ, dual_circuit(circ)):
            got, want = _compile(c), unmerged_compile(c)
            assert [axes for axes, _ in got] == [axes for axes, _ in want]
            assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))


def same_bits(a, b):
    """Equal shape, dtype and bytes: signed zeros must match too."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def transposed_tensor(t, perm):
    """The tensor t as a view of a row-major buffer that holds its axes in perm order."""
    return np.ascontiguousarray(t.transpose(perm)).transpose(np.argsort(perm))


def _fenced(n, steps):
    """h on the top qubit, a register-wide fence, then steps (gates and channels).

    Its dual circuit starts with the fence, which then reads the input itself.
    """
    c = Circuit(n, [Gate("h", (n - 1,)), ch.Channel("global_depolarizing", (), (0.2,))])
    for op in steps:
        c.add(op)
    return c


class TestTwoBufferApply:
    """``apply`` in two buffers against ``copying_apply``, which allocates per step."""

    @settings(max_examples=80, deadline=None)
    @given(noisy_circuits(max_n=6), st.integers(0, 2**32 - 1))
    # the 2q step leaves the fence's four traced axes mergeable into one of the
    # smallest stride, where a reduction over a view would sum pairwise
    @example(Circuit(6, [Gate("h", (0,)), Gate("rx", (0,), 0.0), Gate("cx", (2, 1)),
                         ch.Channel("global_depolarizing", (0, 3, 4, 5), (0.25,))]), 0)
    @example(_fenced(9, [Gate("cx", (0, 8)), ch.amplitude_damping(0.1, (8,)),
                         ch.Channel("global_depolarizing", (8, 3, 4), (0.3,)),
                         Gate("rx", (4,), 0.3), ch.stochastic_pauli(0.05, (4, 5)),
                         Gate("cswap", (2, 7, 1)), ch.local_depolarizing(0.1, (2, 7)),
                         ch.Channel("global_depolarizing", (), (0.1,)),
                         Gate("h", (6,))]), 9)
    @example(_fenced(10, [Gate("cz", (9, 0)), ch.thermal_relaxation(30e-6, 20e-6, 2e-6, 9),
                          ch.Channel("global_depolarizing", (5,), (0.4,)),
                          Gate("cv", (5, 6)), Gate("rx", (5,), 0.2), Gate("rz", (6,), -0.1),
                          ch.Channel("global_depolarizing", (0, 1, 2, 3, 4, 6, 7, 8, 9), (0.2,)),
                          Gate("rz", (3,), -1.1)]), 10)
    def test_bit_equal_to_copying_oracle(self, circuit, seed):
        rho = random_density(np.random.default_rng(seed), circuit.n)
        for c in (circuit, dual_circuit(circuit)):
            assert same_bits(apply(c, rho), copying_apply(c, rho))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_partial_trace_every_keep(self, n):
        # numpy picks its summation order from the strides, so every layout a
        # fence can meet must sum as np.trace sums the row-major copy
        rng = np.random.default_rng(n)
        rho = _complex(rng, 1 << n, 1 << n)
        t = rho.reshape((2,) * (2 * n))
        layouts = [t, np.asfortranarray(rho).reshape(t.shape)]
        perms = (itertools.permutations(range(2 * n)) if n <= 3
                 else (rng.permutation(2 * n) for _ in range(20)))
        layouts += [transposed_tensor(t, perm) for perm in perms]
        for k in (1, 2):  # what a one- or two-qubit step leaves
            for qubits in itertools.permutations(range(n), k):
                layouts.append(_contract(t, np.eye(4 ** k, dtype=complex), _rho_axes(qubits, n)))
        for v in layouts:
            flat = np.ascontiguousarray(v).reshape(rho.shape)
            for keep in itertools.chain.from_iterable(
                    itertools.combinations(range(n), k) for k in range(n + 1)):
                want = copying_partial_trace(flat, keep, n)
                assert same_bits(_partial_trace(v, keep, n), want), (keep, v.strides)

    def test_fence_acts_in_place_on_a_transposed_tensor(self):
        rng = np.random.default_rng(4)
        for n, scope in ((5, (4, 1)), (6, ()), (6, (0, 2, 3, 5)), (3, (2, 0, 1))):
            rho = random_density(rng, n)
            fence = ch.Channel("global_depolarizing", scope, (0.3,))
            want = apply_channel(rho.copy(), fence, n)
            t = transposed_tensor(rho.reshape((2,) * (2 * n)), rng.permutation(2 * n))
            assert apply_channel(t, fence, n) is t
            assert same_bits(np.ascontiguousarray(t).reshape(want.shape), want)

    def test_input_and_results_stay_apart(self):
        rng = np.random.default_rng(8)
        n, d = 3, 8
        rho = random_density(rng, n)
        frozen = rho.copy()
        frozen.flags.writeable = False
        wide = np.zeros((d, 2 * d), dtype=complex)
        wide[:, ::2] = rho
        circuits = [random_circuit(rng, n, 6, ch.NoiseModel(kind="stochastic_pauli", p1=0.05)),
                    dual_circuit(_fenced(n, [Gate("cx", (1, 0))])), Circuit(n)]
        for c in circuits:
            for x in (frozen, wide[:, ::2], rho.T):
                before = x.copy()
                first, second = apply(c, x), apply(c, x)
                assert same_bits(x, before)
                assert same_bits(first, copying_apply(c, x)) and same_bits(first, second)
                assert first.flags.c_contiguous and first.flags.writeable
                for y in (x, second):
                    assert not np.shares_memory(first, y)


class TestOwnedState:
    """``_evolve`` overwrites the state it is handed; ``run`` and ``dual_state``
    hand it a fresh |0..0>, and must still round as a copying run does."""

    @settings(max_examples=60, deadline=None)
    @given(noisy_circuits(max_n=6), st.sets(st.integers(0, 5)), st.floats(0.0, 0.5))
    @example(_fenced(9, [Gate("cx", (0, 8)), ch.amplitude_damping(0.1, (8,)),
                         ch.Channel("global_depolarizing", (8, 3, 4), (0.3,)),
                         Gate("cswap", (2, 7, 1)), ch.local_depolarizing(0.1, (2, 7))]),
             {1, 4}, 0.2)
    def test_run_and_dual_state_are_the_copying_oracle(self, circuit, scope, p):
        n = circuit.n
        zero = zero_state(n)
        # a leading fence, scoped or register-wide, acts on the handed-in state itself
        fence = ch.Channel("global_depolarizing", tuple(sorted(q for q in scope if q < n)), (p,))
        lead = Circuit(n, [fence] + circuit.ops)
        assert same_bits(run(circuit), copying_apply(circuit, zero))
        assert same_bits(dual_state(circuit), copying_apply(dual_circuit(circuit), zero))
        assert same_bits(run(lead), copying_apply(lead, zero))

    @settings(max_examples=60, deadline=None)
    @given(noisy_circuits(max_n=6), st.sets(st.integers(0, 9)), st.integers(0, 2**32 - 1))
    @example(Circuit(8, [op for g in cswap_gates(7, 0, 4)
                         for op in (g, ch.amplitude_damping(0.1, g.qubits[:1]))]), {0, 7}, 3)
    @example(_fenced(9, [Gate("cswap", (2, 7, 1)), ch.local_depolarizing(0.1, (2, 7)),
                         ch.Channel("global_depolarizing", (8, 3, 4), (0.3,))]), {1, 3, 8}, 9)
    def test_traced_result_is_the_copying_path(self, circuit, keep, seed):
        # with keep, the reduced state is read from the last step's view,
        # not from a row-major copy, and must have the same bits
        n = circuit.n
        keep = sorted(q for q in keep if q < n)
        rho = random_density(np.random.default_rng(seed), n)
        want = copying_partial_trace(copying_apply(circuit, rho), keep, n)
        got = _evolve(circuit, rho.copy(), keep)
        assert np.array_equal(got, want) and same_bits(got, want)

    def test_rejects_a_state_it_cannot_own(self):
        c = Circuit(2, [Gate("h", (0,)), ch.Channel("global_depolarizing", (), (0.1,))])
        rho = random_density(np.random.default_rng(12), 2)
        frozen = rho.copy()
        frozen.flags.writeable = False
        wide = np.zeros((4, 8), dtype=complex)
        wide[:, ::2] = rho
        for bad in (rho.real.copy(), rho.astype(np.complex64), rho.T, wide[:, ::2], frozen):
            before = bad.copy()
            with pytest.raises(ValueError):
                _evolve(c, bad)
            assert same_bits(bad, before)  # rejected before anything is written
        with pytest.raises(SizeMismatchError):
            _evolve(c, zero_state(3))
        got = _evolve(c, rho.copy())
        assert same_bits(got, copying_apply(c, rho)) and got.flags.c_contiguous


@st.composite
def scopes(draw):
    """(n, qubits): any subset in any order, empty meaning the whole register."""
    n = draw(st.integers(1, 6))
    order = draw(st.permutations(range(n)))
    return n, tuple(order[:draw(st.integers(0, n))])


class TestChannels:
    @settings(max_examples=100, deadline=None)
    @given(scopes(), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    @example((5, (4, 1)), 0.3, 0)
    @example((3, (2, 0, 1)), 1.0, 1)
    @example((4, ()), 0.5, 2)
    def test_global_depolarizing_matches_offset_loop(self, scope, p, seed):
        n, qubits = scope
        rho = random_density(np.random.default_rng(seed), n)
        got = apply_channel(rho.copy(), ch.Channel("global_depolarizing", qubits, (p,)), n)
        want = (1.0 - p) * rho + p * replace_with_mixed(rho, qubits or range(n), n)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_apply_channel_takes_only_global_depolarizing(self):
        # every local kind runs through apply's compiled steps
        with pytest.raises(ValueError):
            apply_channel(zero_state(2), ch.local_depolarizing(0.1, (0, 1)), 2)

    def test_kraus_completeness(self):
        rng = np.random.default_rng(3)
        cases = [
            ch.stochastic_pauli(0.3, (0,)),
            ch.amplitude_damping(0.2, (0,)),
        ]
        for _ in range(20):
            t1 = rng.uniform(10e-6, 100e-6)
            t2 = rng.uniform(0.1 * t1, 2.0 * t1)
            cases.append(ch.thermal_relaxation(t1, t2, 200e-9, 0))
        for c in cases:
            ops = ch.single_qubit_kraus(c)
            acc = sum(k.conj().T @ k for k in ops)
            np.testing.assert_allclose(acc, np.eye(2), atol=1e-10)

    def test_cptp_preserved_random_circuits(self):
        rng = np.random.default_rng(4)
        kinds = [
            ch.NoiseModel(kind="stochastic_pauli", p1=0.01),
            ch.NoiseModel(kind="global_depolarizing", p1=0.02),
            ch.NoiseModel(kind="local_depolarizing", p1=0.02),
            ch.NoiseModel(kind="amplitude_damping", p1=0.01),
            ch.NoiseModel(kind="thermal_relaxation", p1=0.01),
        ]
        count = 0
        for trial in range(200):
            n = int(rng.integers(1, 5))
            model = kinds[trial % len(kinds)]
            c = random_circuit(rng, n, 8, noise=model, seed=trial)
            rho = run(c)
            check_density(rho)
            count += 1
        assert count == 200

    def test_rate_validation(self):
        with pytest.raises(NoiseRateError):
            ch.stochastic_pauli(1.5, (0,))
        with pytest.raises(NoiseRateError):
            ch.NoiseModel(kind="stochastic_pauli", p1=0.2).amplified(10.0)

    def test_amplify_scales_rates(self):
        m = ch.NoiseModel(kind="stochastic_pauli", p1=2e-6)
        m2 = m.amplified(2.0)
        assert m2.p1 == pytest.approx(4e-6)
        assert m2.p2 == pytest.approx(4e-5)
        assert m.amplified(1.0).p1 == pytest.approx(m.p1)

    def test_amplify_triples_expected_errors(self):
        m = ch.NoiseModel(kind="stochastic_pauli", p1=1e-4)
        params = np.zeros(2 * 3 * 3)
        base = build_ansatz(3, 2, params, [(0, 1), (1, 2)])
        e1 = expected_errors(attach_noise(base, m))
        e3 = expected_errors(attach_noise(base, m.amplified(3.0)))
        assert e3 == pytest.approx(3.0 * e1, rel=1e-12)

    def test_coherent_drift_keeps_purity(self):
        rng = np.random.default_rng(5)
        model = ch.NoiseModel(kind="coherent_drift", p1=0.05)
        c = random_circuit(rng, 3, 10, noise=model, seed=9)
        rho = run(c)
        assert np.real(np.trace(rho @ rho)) == pytest.approx(1.0, abs=1e-10)


@st.composite
def noise_models(draw):
    """A NoiseModel of any kind, amplified or not, zero rates included."""
    model = ch.NoiseModel(kind=draw(st.sampled_from(ch.NOISE_KINDS)),
                          p1=draw(st.just(0.0) | st.floats(1e-4, 0.03)))
    if draw(st.booleans()):
        model = model.amplified(draw(st.sampled_from([0.0, 2.0]) | st.floats(0.0, 3.0)))
    return model


@st.composite
def gate_lists(draw):
    """(n, gates): 1-8 one-qubit, two-qubit and controlled-Pauli gates on 2-4 qubits."""
    n = draw(st.integers(2, 4))
    gates = []
    for _ in range(draw(st.integers(1, 8))):
        name = draw(st.sampled_from(["rx", "rz", "h", "cz", "cx", "cpauli"]))
        qs = tuple(draw(st.permutations(range(n))))[:_GATE_ARITY[name]]
        gates.append(_drawn_gate(draw, name, qs))
    return n, gates


def _same_steps(got, want):
    """The same compiled steps: equal axes, equal fences, bit-equal superoperators."""
    return [axes for axes, _ in got] == [axes for axes, _ in want] and all(
        a == b if axes is None else np.array_equal(a, b)
        for (axes, a), (_, b) in zip(got, want))


class TestGateNoise:
    """``gate_noise``, the one rule for the ops after a gate, against the
    attachment it replaced, where coherent drift was one channel."""

    @settings(max_examples=120, deadline=None)
    @given(noise_models(), gate_lists(), st.integers(0, 2**32 - 1))
    @example(ch.NoiseModel(kind="coherent_drift", p1=0.05).amplified(2.0),
             (3, [Gate("rx", (0,), 0.3), Gate("cz", (2, 0)), Gate("rz", (1,), -0.2),
                  Gate("cpauli", (1, 2), payload="Y"), Gate("h", (2,))]), 7)
    @example(ch.NoiseModel(kind="coherent_drift", p1=0.02).amplified(0.0),
             (2, [Gate("rx", (0,), 0.1), Gate("cz", (0, 1))]), 1)
    def test_same_steps_and_draws_as_the_drift_channel(self, model, circuit, seed):
        n, gates = circuit
        # attach_noise: the same ops, so the same steps
        want, want_rng = drift_channel_attach_noise(Circuit(n, gates), model, seed)
        got = attach_noise(Circuit(n, gates), model, seed)
        assert got.dump() == want.dump()
        assert _same_steps(_compile(got), drift_channel_compile(want))
        rng = np.random.default_rng(seed)
        for g in gates:
            gate_noise(model, g, rng)
        assert rng.bit_generator.state == want_rng.bit_generator.state
        # the gadget builder: rotation gates where the drift channel was
        b = pur._Builder(n, model, seed)
        for g in gates:
            b.gate(g)
        want, want_rng = drift_channel_gadget(n, model, gates, seed)
        assert _same_steps(_compile(b.circ), drift_channel_compile(want))
        assert b.rng.bit_generator.state == want_rng.bit_generator.state

    def test_drift_is_one_rotation_per_gate_qubit(self):
        model = ch.NoiseModel(kind="coherent_drift", p1=0.05)
        rng = np.random.default_rng(3)
        ops = gate_noise(model, Gate("rx", (2,), 0.1), rng) + gate_noise(
            model, Gate("cz", (1, 0)), rng)
        assert [(g.name, g.qubits) for g in ops] == [("rx", (2,)), ("rz", (1,)), ("rz", (0,))]
        assert 0.0 <= ops[0].angle <= 0.05 and all(0.0 <= g.angle <= 0.5 for g in ops[1:])
        assert gate_noise(model.amplified(0.0), Gate("cz", (1, 0)), rng) == []


class TestAnsatz:
    def test_gate_counts_8q(self):
        n, layers = 8, 8
        edges = [(i, i + 1) for i in range(7)]
        params = np.zeros(2 * n * (layers + 1))
        c = build_ansatz(n, layers, params, edges)
        counts = gate_counts(c)
        assert counts["1q"] == 144
        assert counts["2q"] == 56

    def test_zero_layers(self):
        c = build_ansatz(3, 0, np.zeros(6), [(0, 1), (1, 2)])
        assert gate_counts(c) == {"1q": 6}

    def test_zero_angles_give_zero_state(self):
        c = build_ansatz(3, 2, np.zeros(18), [(0, 1), (1, 2)])
        rho = run(c)
        np.testing.assert_allclose(rho, zero_state(3), atol=1e-12)

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            build_ansatz(3, 2, np.zeros(5), [(0, 1)])

    def test_brickwork_order(self):
        params = np.zeros(2 * 4 * 2)
        c = build_ansatz(4, 1, params, [(0, 1), (1, 2), (2, 3)])
        czs = [g.qubits for g in c.gates() if g.name == "cz"]
        assert czs == [(0, 1), (2, 3), (1, 2)]


class TestReversedAndDual:
    def test_noiseless_reverse_uncomputes(self):
        rng = np.random.default_rng(6)
        c = random_circuit(rng, 3, 15)
        rho = run(c)
        back = apply(reversed_circuit(c), rho)
        np.testing.assert_allclose(back, zero_state(3), atol=1e-10)

    def test_depth_one_rx(self):
        c = Circuit(1, [Gate("rx", (0,), 0.8)])
        r = reversed_circuit(c)
        g = next(r.gates())
        assert g.name == "rx" and g.angle == pytest.approx(-0.8)

    def test_noiseless_dual_equals_state(self):
        rng = np.random.default_rng(7)
        c = random_circuit(rng, 3, 15)
        np.testing.assert_allclose(dual_state(c), run(c), atol=1e-12)

    def test_global_depolarizing_dual_fixed_point(self):
        rng = np.random.default_rng(8)
        model = ch.NoiseModel(kind="global_depolarizing", p1=0.03)
        c = random_circuit(rng, 3, 12, noise=model)
        np.testing.assert_allclose(dual_state(c), run(c), atol=1e-12)

    def test_local_depolarizing_dual_fixed_point(self):
        # 1q depolarizing after 1q gates plus joint 2q depolarizing after cz
        rng = np.random.default_rng(9)
        model = ch.NoiseModel(kind="local_depolarizing", p1=0.02)
        c = random_circuit(rng, 3, 12, noise=model)
        np.testing.assert_allclose(dual_state(c), run(c), atol=1e-12)

    def test_stochastic_pauli_channel_self_dual(self):
        c = ch.stochastic_pauli(0.1, (0, 1))
        assert c.dual() == c

    def test_postselection_identity(self):
        # Tr[rev(U(rho0)) P0] equals Tr[dual_state * state] for noisy circuits
        rng = np.random.default_rng(10)
        for trial in range(6):
            model = ch.NoiseModel(kind=["stochastic_pauli", "amplitude_damping"][trial % 2],
                                  p1=0.02)
            c = random_circuit(rng, 3, 10, noise=model, seed=trial)
            rho = run(c)
            after = apply(reversed_circuit(c), rho)
            lhs = float(np.real(after[0, 0]))
            rhs = float(np.real(np.trace(dual_state(c) @ rho)))
            assert lhs == pytest.approx(rhs, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 3), depth=st.integers(1, 10),
           model=st.sampled_from([
               ch.NoiseModel(kind="stochastic_pauli", p1=0.05),
               ch.NoiseModel(kind="global_depolarizing", p1=0.05),
               ch.NoiseModel(kind="local_depolarizing", p1=0.05),
               ch.NoiseModel(kind="amplitude_damping", p1=0.05),
               ch.NoiseModel(kind="thermal_relaxation", p1=0.01),
               ch.NoiseModel(kind="coherent_drift", p1=0.3),
           ]),
           seed=st.integers(0, 2**31 - 1))
    def test_dual_state_is_adjoint_of_uncompute(self, n, depth, model, seed):
        # Tr[dual_state * rho] = <0|U_rev(rho)|0> for every rho, so the dual
        # is the adjoint of the whole uncomputation, channel order included
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, n, depth, noise=model, seed=seed % 1000)
        rho = random_density(rng, n)
        lhs = apply(reversed_circuit(c), rho)[0, 0]
        assert abs(np.trace(dual_state(c) @ rho) - lhs) <= 1e-12


class TestStateHelpers:
    def test_trace_distance_basics(self):
        rng = np.random.default_rng(11)
        rho = random_density(rng, 2)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
        a = zero_state(1)
        b = np.array([[0, 0], [0, 1]], dtype=complex)
        assert trace_distance(a, b) == pytest.approx(1.0)

    def test_spectral_decompose(self):
        psi = np.array([1.0, 1.0, 0.0, 0.0]) / math.sqrt(2.0)
        pure = np.outer(psi, psi)
        vals, vecs = np.linalg.eigh(pure)
        assert vals[-1] == pytest.approx(1.0)
        assert abs(abs(np.vdot(vecs[:, -1], psi)) - 1.0) < 1e-10
        mixed = np.eye(4, dtype=complex) / 4.0
        np.testing.assert_allclose(np.linalg.eigh(mixed)[0], [0.25] * 4)

    def test_dominant_probability_closed_form(self):
        psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        rho = 0.9 * np.outer(psi, psi.conj()) + 0.1 * np.eye(4) / 4.0
        assert np.linalg.eigh(rho)[0][-1] == pytest.approx(0.925)

    def test_dump_mentions_every_op(self):
        c = Circuit(2, [Gate("rx", (0,), 0.3), ch.stochastic_pauli(0.1, (0,)), Gate("cz", (0, 1))])
        text = c.dump()
        assert text.count("\n") == 2
        assert "stochastic_pauli" in text and "cz" in text
