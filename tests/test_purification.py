import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    FullRegisterEsd,
    dsp_whole_circuit,
    factor_sequence,
    full_register_execute_plan,
    full_register_re_purification,
    kron_copy_register,
    oracle_trace,
    planned_oracle,
    random_circuit,
)
from qemlab import channels as ch
from qemlab import purification as pur
from qemlab.channels import NoiseModel
from qemlab.circuits import (
    Circuit,
    Gate,
    _evolve,
    apply,
    attach_noise,
    build_ansatz,
    dual_state,
    gate_matrix,
    gate_noise,
    run,
    zero_state,
)
from qemlab.errors import DegenerateNormalizationError, RegisterCapError, SizeMismatchError
from qemlab.pauli import PauliTerm, term_matrix
from qemlab.purification import (
    DspEvaluator,
    EsdEvaluator,
    GeneralFactor,
    _Builder,
    dsp_expectation,
    esd_expectation,
    execute_plan,
    plan_general,
    re_purification,
)

PAULI_NOISE = NoiseModel(kind="stochastic_pauli", p1=0.02)
DEPOL = NoiseModel(kind="global_depolarizing", p1=0.05)
GADGET_NOISE = [
    NoiseModel(kind="stochastic_pauli", p1=0.01),
    NoiseModel(kind="thermal_relaxation", p1=0.01),
    NoiseModel(kind="global_depolarizing", p1=0.01),
    NoiseModel(kind="local_depolarizing", p1=0.01),
    NoiseModel(kind="amplitude_damping", p1=0.01),
    NoiseModel(kind="coherent_drift", p1=0.2),
]


def drifted_circuit():
    """A noisy 2-qubit circuit closed by an rx and a cz, each followed by the
    drift ``gate_noise`` draws under a coherent_drift model: an rx on qubit 0
    after the rx, an rz on each qubit after the cz."""
    rng = np.random.default_rng(30)
    c = random_circuit(rng, 2, 6, PAULI_NOISE, seed=30)
    drift = NoiseModel(kind="coherent_drift", p1=0.1)
    for g in (Gate("rx", (0,), 0.4), Gate("cz", (0, 1))):
        c.ops += [g, *gate_noise(drift, g, rng)]
    return c


def random_pauli(rng, n, nontrivial=True):
    while True:
        axes = "".join(rng.choice(list("IXYZ")) for _ in range(n))
        if not nontrivial or set(axes) != {"I"}:
            return PauliTerm(axes, 1.0)


def random_phase_pauli(rng, n):
    """A Pauli string, identity included, with a random unit-modulus coefficient."""
    return PauliTerm(random_pauli(rng, n, nontrivial=False).axes,
                     np.exp(1j * rng.uniform(0, 2 * np.pi)))


def unpinned_circuit(rng, w, seed):
    """A noisy circuit with a register-wide depolarizing channel left unpinned."""
    c = random_circuit(rng, w, 2 * w + 3, PAULI_NOISE, seed=seed)
    c.ops.insert(int(rng.integers(1, len(c.ops) + 1)), ch.global_depolarizing(0.2))
    return c


def random_plan_factors(rng, plan, w, noise, seed):
    """Bra and ket factors with random v and w gadgets."""
    def factor(i):
        circ = random_circuit(rng, w, 2 * w + 2, noise, seed=seed + i) \
            if noise is not None else unpinned_circuit(rng, w, seed + i)
        return GeneralFactor(circ, random_phase_pauli(rng, w), random_phase_pauli(rng, w))
    bra = [factor(i) for i in range(plan.n)]
    ket = [factor(10 + i) for i in range(plan.n_prime)]
    return bra, ket


def sym_product(rho, bar):
    return 0.5 * (bar @ rho + rho @ bar)


class TestOracleTrace:
    def test_trace_of_state(self):
        rng = np.random.default_rng(0)
        c = random_circuit(rng, 2, 6, PAULI_NOISE)
        rho = run(c)
        assert oracle_trace([rho]) == pytest.approx(1.0, abs=1e-12)

    def test_purity_closed_form(self):
        psi = np.zeros(4, dtype=complex)
        psi[0] = 1.0
        rho = 0.9 * np.outer(psi, psi.conj()) + 0.1 * np.eye(4) / 4.0
        got = oracle_trace([rho, rho])
        assert got == pytest.approx(0.8575, abs=1e-12)

    def test_conjugation_flag(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        got = oracle_trace([(a, True), a], PauliTerm("ZI"))
        want = np.trace(a.conj().T @ a @ term_matrix("ZI"))
        assert got == pytest.approx(complex(want), abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            oracle_trace([np.eye(2), np.eye(4)])


class TestGadgetPieces:
    def test_u_obs_conjugates_z_to_pattern(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            n = int(rng.integers(1, 4))
            term = random_pauli(rng, n)
            b = _Builder(n, None)
            root = b.u_obs(term, 0, inverse=False)
            u = np.eye(1 << n, dtype=complex)
            for g in b.circ.gates():
                u = _embed(gate_matrix(g), g.qubits, n) @ u
            z_root = "".join("Z" if q == root else "I" for q in range(n))
            got = u @ term_matrix(z_root) @ u.conj().T
            np.testing.assert_allclose(got, term.matrix(), atol=1e-12)

    def test_u_obs_inverse_really_inverts(self):
        rng = np.random.default_rng(3)
        term = PauliTerm("XYZ", 1.0)
        fwd = _Builder(3, None)
        fwd.u_obs(term, 0, inverse=False)
        inv = _Builder(3, None)
        inv.u_obs(term, 0, inverse=True)
        u = np.eye(8, dtype=complex)
        for g in list(fwd.circ.gates()) + list(inv.circ.gates()):
            u = _embed(gate_matrix(g), g.qubits, 3) @ u
        assert np.allclose(np.abs(np.trace(u)), 8.0, atol=1e-10)

    def test_cswap_decomposition_exact(self):
        b = _Builder(3, None)
        b.cswap(2, 0, 1)
        u = np.eye(8, dtype=complex)
        for g in b.circ.gates():
            u = _embed(gate_matrix(g), g.qubits, 3) @ u
        want = _embed(gate_matrix(Gate("cswap", (2, 0, 1))), (2, 0, 1), 3)
        # compare up to a global phase
        k = np.argmax(np.abs(want))
        phase = u.flat[k] / want.flat[k]
        np.testing.assert_allclose(u, phase * want, atol=1e-10)
        assert abs(abs(phase) - 1.0) < 1e-12

    def test_controlled_pauli_matrix(self):
        rng = np.random.default_rng(4)
        for coeff in (1.0, -1.0, 1j, np.exp(0.3j)):
            term = PauliTerm("XZ", coeff)
            b = _Builder(3, None)
            b.controlled_pauli(2, term, 0, polarity=1)
            u = np.eye(8, dtype=complex)
            for g in b.circ.gates():
                u = _embed(gate_matrix(g), g.qubits, 3) @ u
            want = np.eye(8, dtype=complex)
            want[4:, 4:] = coeff * term_matrix("XZ")
            np.testing.assert_allclose(u, want, atol=1e-12)


def _embed(u, qubits, n):
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


class TestDsp:
    def test_noiseless_equals_pure_expectation(self):
        rng = np.random.default_rng(5)
        for mode in ("ancilla", "direct"):
            c = random_circuit(rng, 3, 8)
            psi = run(c)
            obs = random_pauli(rng, 3)
            res = dsp_expectation(c, obs, mode=mode)
            want = float(np.real(np.trace(psi @ obs.matrix())))
            assert res.value == pytest.approx(want, abs=1e-10)
            assert res.p0 == pytest.approx(1.0, abs=1e-10)

    def test_noisy_matches_oracle(self):
        rng = np.random.default_rng(6)
        for trial in range(6):
            c = random_circuit(rng, 2, 8, PAULI_NOISE, seed=trial)
            rho, bar = run(c), dual_state(c)
            obs = random_pauli(rng, 2)
            res = dsp_expectation(c, obs, mode="ancilla")
            want_num = float(np.real(np.trace(sym_product(rho, bar) @ obs.matrix())))
            want_p0 = float(np.real(np.trace(bar @ rho)))
            assert res.numerator == pytest.approx(want_num, abs=1e-10)
            assert res.p0 == pytest.approx(want_p0, abs=1e-10)
            assert res.value == pytest.approx(want_num / want_p0, abs=1e-9)

    def test_global_depolarizing_purified(self):
        rng = np.random.default_rng(7)
        c = random_circuit(rng, 2, 8, DEPOL)
        rho = run(c)
        obs = PauliTerm("ZI")
        res = dsp_expectation(c, obs)
        want = float(np.real(np.trace(rho @ rho @ obs.matrix())
                             / np.trace(rho @ rho)))
        assert res.value == pytest.approx(want, abs=1e-10)

    def test_direct_ancilla_agreement(self):
        rng = np.random.default_rng(8)
        for trial in range(4):
            c = random_circuit(rng, 2, 8, PAULI_NOISE, seed=10 + trial)
            obs = random_pauli(rng, 2)
            a = dsp_expectation(c, obs, mode="ancilla")
            d = dsp_expectation(c, obs, mode="direct")
            assert a.numerator == pytest.approx(d.numerator, abs=1e-10)
            assert a.value == pytest.approx(d.value, abs=1e-10)

    def test_identity_observable(self):
        rng = np.random.default_rng(9)
        c = random_circuit(rng, 2, 6, PAULI_NOISE)
        res = dsp_expectation(c, PauliTerm("II", 1.0))
        assert res.numerator == pytest.approx(res.p0)
        assert res.value == pytest.approx(1.0)

    def test_degenerate_normalization(self):
        c = Circuit(1, [Gate("x", (0,))])
        empty_out = Circuit(1)
        with pytest.raises(DegenerateNormalizationError):
            dsp_expectation(c, PauliTerm("Z"), out_circuit=empty_out)

    def test_fault_style_mixed_in_out(self):
        # different noise levels on the compute and uncompute blocks
        rng = np.random.default_rng(10)
        base = random_circuit(rng, 2, 6)
        from qemlab.circuits import attach_noise, reversed_circuit
        m_in = NoiseModel(kind="stochastic_pauli", p1=0.01)
        m_out = NoiseModel(kind="stochastic_pauli", p1=0.03)
        c_in = attach_noise(base, m_in, seed=1)
        c_out = reversed_circuit(attach_noise(base, m_out, seed=2))
        rho = run(c_in)
        bar = dual_state(attach_noise(base, m_out, seed=2))
        obs = PauliTerm("ZX")
        res = dsp_expectation(c_in, obs, out_circuit=c_out)
        want_num = float(np.real(np.trace(sym_product(rho, bar) @ obs.matrix())))
        want_p0 = float(np.real(np.trace(bar @ rho)))
        assert res.numerator == pytest.approx(want_num, abs=1e-10)
        assert res.p0 == pytest.approx(want_p0, abs=1e-10)


class TestEsd:
    def test_noiseless_two_copies(self):
        rng = np.random.default_rng(11)
        c = random_circuit(rng, 2, 8)
        psi = run(c)
        obs = PauliTerm("ZI")
        got = esd_expectation(c, 2, obs)
        want = float(np.real(np.trace(psi @ obs.matrix())))
        assert got == pytest.approx(want, abs=1e-10)

    def test_depolarized_two_copies_matches_oracle(self):
        rng = np.random.default_rng(12)
        c = random_circuit(rng, 2, 8, DEPOL)
        rho = run(c)
        obs = PauliTerm("XZ")
        got = esd_expectation(c, 2, obs)
        want = float(np.real(np.trace(rho @ rho @ obs.matrix()) / np.trace(rho @ rho)))
        assert got == pytest.approx(want, abs=1e-10)

    def test_three_copies_matches_oracle(self):
        rng = np.random.default_rng(13)
        c = random_circuit(rng, 2, 6, PAULI_NOISE)
        rho = run(c)
        obs = PauliTerm("ZZ")
        got = esd_expectation(c, 3, obs)
        r3 = rho @ rho @ rho
        want = float(np.real(np.trace(r3 @ obs.matrix()) / np.trace(r3)))
        assert got == pytest.approx(want, abs=1e-10)

    def test_purity_estimate(self):
        rng = np.random.default_rng(14)
        c = random_circuit(rng, 2, 8, DEPOL)
        rho = run(c)
        got = EsdEvaluator(c, 2).numerator(None)
        assert got == pytest.approx(float(np.real(np.trace(rho @ rho))), abs=1e-10)

    def test_register_cap(self):
        rng = np.random.default_rng(15)
        c = random_circuit(rng, 4, 4)
        with pytest.raises(RegisterCapError):
            esd_expectation(c, 3, PauliTerm("ZIII"))

    def test_noiseless_esd_equals_dsp(self):
        rng = np.random.default_rng(16)
        c = random_circuit(rng, 2, 8)
        obs = PauliTerm("XI")
        e = esd_expectation(c, 2, obs)
        d = dsp_expectation(c, obs).value
        assert e == pytest.approx(d, abs=1e-12)

    def test_coherent_drift_stays_on_each_copy(self):
        c = drifted_circuit()
        rho = run(c)
        obs = PauliTerm("ZI")
        want = float(np.real(np.trace(rho @ rho @ obs.matrix()) / np.trace(rho @ rho)))
        assert want == pytest.approx(0.6317, abs=1e-4)
        assert esd_expectation(c, 2, obs) == pytest.approx(want, abs=1e-10)

    def test_numerator_carries_the_coefficient_as_dsp_does(self):
        # both numerators are Re(coeff) times the unit reading, identity included
        n, edges = 2, [(0, 1)]
        params = np.random.default_rng(31).uniform(-np.pi, np.pi, 2 * n * 3)
        c = attach_noise(build_ansatz(n, 2, params, edges), PAULI_NOISE, seed=31)
        rho = run(c)
        esd, dsp = EsdEvaluator(c, 2), DspEvaluator(c)
        purity = float(np.real(np.trace(rho @ rho)))
        for axes in ("ZI", "XY", "II"):
            unit_esd, unit_dsp = esd.numerator(PauliTerm(axes)), dsp.numerator(PauliTerm(axes))
            want = float(np.real(np.trace(rho @ rho @ PauliTerm(axes).matrix())))
            assert abs(unit_esd - want) <= 1e-12
            for coeff in (2.0, -3.0, 0.5 + 0.7j):
                obs = PauliTerm(axes, coeff)
                assert esd.numerator(obs) == pytest.approx(coeff.real * unit_esd, abs=1e-15)
                assert dsp.numerator(obs) == pytest.approx(coeff.real * unit_dsp, abs=1e-15)
                assert esd.expectation(obs) == pytest.approx(
                    coeff.real * want / purity, abs=1e-12)
        assert esd.numerator(None) == pytest.approx(purity, abs=1e-12)

    def test_unpinned_register_wide_channel_acts_on_its_copy(self):
        rng = np.random.default_rng(26)
        c = random_circuit(rng, 2, 6, PAULI_NOISE, seed=26)
        c.ops.insert(3, ch.global_depolarizing(0.2))  # no qubits: the whole register
        rho = run(c)
        for n_copies in (2, 3):
            ev = EsdEvaluator(c, n_copies)
            rn = np.linalg.matrix_power(rho, n_copies)
            assert ev.numerator(None) == pytest.approx(float(np.real(np.trace(rn))), abs=1e-12)
            for axes in ("ZI", "XY", "IZ"):
                want = float(np.real(np.trace(rn @ PauliTerm(axes).matrix())))
                assert ev.numerator(PauliTerm(axes)) == pytest.approx(want, abs=1e-12)

    def test_registers_shrink_to_what_the_readout_needs(self, monkeypatch):
        rng = np.random.default_rng(27)
        c = random_circuit(rng, 4, 10, PAULI_NOISE, seed=27)
        oracles = {m: FullRegisterEsd(c, 2, gadget_noise=m, gadget_seed=1)
                   for m in (PAULI_NOISE, DEPOL)}
        sizes = []
        monkeypatch.setattr(pur, "_evolve",
                            lambda circ, *a: sizes.append(circ.n) or _evolve(circ, *a))
        ev = EsdEvaluator(c, 2, gadget_noise=PAULI_NOISE, gadget_seed=1)
        assert sizes == [9, 8, 7, 6]  # a copy-1 qubit leaves after its controlled swap
        for axes, n in (("ZZII", 3), ("IXII", 2), ("IIZZ", 3), ("XIIY", 3)):
            sizes.clear()
            got = ev.numerator(PauliTerm(axes))
            assert sizes == [n]  # the ancilla and the copy-0 qubits the tail touches
            assert got == pytest.approx(oracles[PAULI_NOISE].numerator(PauliTerm(axes)),
                                        abs=1e-12)
        # a register-wide gadget channel touches every qubit: nothing leaves early,
        # and a tail keeps the ancilla and all of copy 0
        sizes.clear()
        ev = EsdEvaluator(c, 2, gadget_noise=DEPOL, gadget_seed=1)
        assert sizes == [9]
        sizes.clear()
        got = ev.numerator(PauliTerm("ZIII"))
        assert sizes == [5]
        assert got == pytest.approx(oracles[DEPOL].numerator(PauliTerm("ZIII")), abs=1e-12)


    def test_start_state_is_the_kron_chain_bit_for_bit(self):
        # no ops and every qubit kept: the copy register hands back its start state
        rng = np.random.default_rng(31)
        states = [run(random_circuit(rng, w, 6, PAULI_NOISE, seed=w)) for w in (2, 1, 3)]
        states[1] = -states[1]  # negative entries: products with |0><0|'s zeros give -0.0
        want = zero_state(1)
        for state in reversed(states):
            want = np.kron(want, state)
        got = pur._copy_register(states, [], range(7))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_engine_is_the_kron_path_bit_for_bit(self, monkeypatch):
        # every register the estimators hand the engine, against the copying path
        engine, registers = pur._copy_register, []

        def checked(states, ops, keep):
            want = kron_copy_register(states, ops, keep)
            got = engine(states, ops, keep)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
            registers.append(sum(s.shape[0].bit_length() - 1 for s in states) + 1)
            return got

        monkeypatch.setattr(pur, "_copy_register", checked)
        rng = np.random.default_rng(41)
        c4 = random_circuit(rng, 4, 8, PAULI_NOISE, seed=41)
        c3 = random_circuit(rng, 3, 8, PAULI_NOISE, seed=42)
        EsdEvaluator(c4, 2, gadget_noise=PAULI_NOISE, gadget_seed=2)  # the ESD register
        EsdEvaluator(c3, 2, gadget_noise=DEPOL, gadget_seed=2)  # a register-wide gadget fence
        f = GeneralFactor(c3, v=PauliTerm("XIZ"), w=PauliTerm("IYI", -1.0))
        execute_plan(plan_general(2, 1), [f, GeneralFactor(c3)], [f], PauliTerm("ZZI"),
                     gadget_noise=GADGET_NOISE[1], gadget_seed=3)
        assert registers == [9, 7, 7]

    def test_nine_qubit_register_holds_two_d2_arrays(self):
        # the start state is one of _evolve's two buffers, and no other name
        # keeps it alive into the first partial trace
        nm = NoiseModel(kind="thermal_relaxation", p1=1e-3)
        params = np.random.default_rng(1).uniform(-1.0, 1.0, 16)
        circ = attach_noise(build_ansatz(4, 1, params, [(0, 1), (1, 2), (2, 3)]), nm, seed=3)
        b = _Builder(9, nm, 5)
        b.hadamard(8)
        b.controlled_shift(8, 2, 4)
        states, keep = [pur._prepare(circ)] * 2, list(range(4)) + [8]
        pur._copy_register(states, b.circ.ops, keep)  # fill the superoperator caches
        tracemalloc.start()
        try:
            pur._copy_register(states, b.circ.ops, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        d2 = (1 << 18) * np.dtype(complex).itemsize  # one 9-qubit density matrix
        assert peak < 2.5 * d2, peak / d2


class TestRePurification:
    def test_noiseless_single_copy(self):
        rng = np.random.default_rng(17)
        c = random_circuit(rng, 2, 8)
        psi = run(c)
        obs = PauliTerm("ZI")
        got = re_purification(c, 1, obs)
        want = np.trace(psi @ obs.matrix())
        assert got == pytest.approx(complex(np.real(want)), abs=1e-10)

    def test_two_copies_symmetrized_degree_four(self):
        rng = np.random.default_rng(18)
        c = random_circuit(rng, 2, 6, PAULI_NOISE)
        rho, bar = run(c), dual_state(c)
        obs = PauliTerm("XZ")
        got = re_purification(c, 2, obs)
        br = bar @ rho
        rb = rho @ bar
        want = 0.5 * np.trace((br @ br + rb @ rb) @ obs.matrix())
        assert got == pytest.approx(complex(np.real(want)), abs=1e-10)

    def test_drop_last_gives_degree_three(self):
        # with two copies and one uncompute dropped the reading is
        # Tr[rho dual rho obs]; under global depolarizing that is Tr[rho^3 obs]
        rng = np.random.default_rng(19)
        c = random_circuit(rng, 2, 6, DEPOL)
        rho = run(c)
        obs = PauliTerm("ZZ")
        got = re_purification(c, 2, obs, drop_last_uncompute=True)
        want = np.trace(rho @ rho @ rho @ obs.matrix())
        assert got == pytest.approx(complex(want), abs=1e-10)

    def test_drop_last_general_noise(self):
        rng = np.random.default_rng(20)
        c = random_circuit(rng, 2, 6, PAULI_NOISE)
        rho, bar = run(c), dual_state(c)
        obs = PauliTerm("XI")
        got = re_purification(c, 2, obs, drop_last_uncompute=True)
        want = np.trace(rho @ bar @ rho @ obs.matrix())
        assert got == pytest.approx(complex(want), abs=1e-10)

    def test_coherent_drift_stays_on_each_copy(self):
        c = drifted_circuit()
        rho, bar = run(c), dual_state(c)
        obs = PauliTerm("XZ")
        br, rb = bar @ rho, rho @ bar
        want = 0.5 * np.real(np.trace((br @ br + rb @ rb) @ obs.matrix()))
        assert want == pytest.approx(-0.3857, abs=1e-4)
        assert re_purification(c, 2, obs) == pytest.approx(complex(want), abs=1e-10)


class TestEvaluatorsAgainstWholeCircuits:
    """The shared-prefix evaluators against every circuit run whole."""

    # derandomized, so the suite's time does not hang on how many 10-qubit
    # draws (w = 3, 3 copies) come up; the example runs that case every time
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(w=st.integers(1, 3), n_copies=st.sampled_from([2, 3]),
           circ_noise=st.sampled_from(GADGET_NOISE), gadget_noise=st.sampled_from(GADGET_NOISE),
           seed=st.integers(0, 2**31 - 1))
    @example(w=3, n_copies=3, circ_noise=GADGET_NOISE[0], gadget_noise=GADGET_NOISE[2], seed=11)
    def test_esd_numerators(self, w, n_copies, circ_noise, gadget_noise, seed):
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, w, 2 * w + 2, circ_noise, seed=seed % 1000)
        ev = EsdEvaluator(c, n_copies, gadget_noise=gadget_noise, gadget_seed=seed % 7)
        oracle = FullRegisterEsd(c, n_copies, gadget_noise=gadget_noise, gadget_seed=seed % 7)
        for obs in (None, random_pauli(rng, w), random_pauli(rng, w)):
            assert abs(ev.numerator(obs) - oracle.numerator(obs)) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(w=st.integers(1, 3), circ_noise=st.sampled_from(GADGET_NOISE),
           gadget_noise=st.sampled_from(GADGET_NOISE), own_out=st.booleans(),
           seed=st.integers(0, 2**31 - 1))
    def test_dsp_numerators_and_p0(self, w, circ_noise, gadget_noise, own_out, seed):
        from qemlab.circuits import attach_noise, reversed_circuit
        rng = np.random.default_rng(seed)
        base = random_circuit(rng, w, 3 * w + 2)
        c = attach_noise(base, circ_noise, seed=seed % 1000)
        out = reversed_circuit(attach_noise(base, circ_noise.amplified(2.0), seed=1)) \
            if own_out else None
        ev = DspEvaluator(c, gadget_noise, out, seed % 7)
        for obs in (PauliTerm("I" * w, -0.5), random_pauli(rng, w), random_pauli(rng, w)):
            want_num, want_p0 = dsp_whole_circuit(c, obs, gadget_noise, out, seed % 7)
            assert ev.p0 == want_p0
            assert abs(ev.numerator(obs) - want_num) <= 1e-12
            res = dsp_expectation(c, obs, gadget_noise=gadget_noise, out_circuit=out,
                                  gadget_seed=seed % 7)
            assert (res.numerator, res.p0) == (ev.numerator(obs), ev.p0)


class TestCopyRegisterEngine:
    """The copy-register engine against the frozen full-register estimators,
    and every estimator against its dense value when a copy carries an
    unpinned register-wide channel."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 4), n_prime=st.integers(1, 4),
           circ_noise=st.sampled_from(GADGET_NOISE),
           gadget_noise=st.sampled_from([None] + GADGET_NOISE),
           seed=st.integers(0, 2**31 - 1), data=st.data())
    def test_plans_match_full_register(self, n, n_prime, circ_noise, gadget_noise, seed, data):
        plan = plan_general(n, n_prime)
        w = data.draw(st.integers(1, 8 // plan.copies), label="w")
        rng = np.random.default_rng(seed)
        bra, ket = random_plan_factors(rng, plan, w, circ_noise, seed % 1000)
        obs = random_phase_pauli(rng, w)
        got = execute_plan(plan, bra, ket, obs, gadget_noise, seed % 7)
        want = full_register_execute_plan(plan, bra, ket, obs, gadget_noise, seed % 7)
        assert abs(got - want) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 4), drop=st.booleans(), circ_noise=st.sampled_from(GADGET_NOISE),
           gadget_noise=st.sampled_from([None] + GADGET_NOISE),
           seed=st.integers(0, 2**31 - 1), data=st.data())
    def test_re_purification_matches_full_register(self, n, drop, circ_noise, gadget_noise,
                                                   seed, data):
        w = data.draw(st.integers(1, 8 // n), label="w")
        rng = np.random.default_rng(seed)
        c = random_circuit(rng, w, 2 * w + 2, circ_noise, seed=seed % 1000)
        obs = random_phase_pauli(rng, w)
        got = re_purification(c, n, obs, drop, gadget_noise, seed % 7)
        want = full_register_re_purification(c, n, obs, drop, gadget_noise, seed % 7)
        assert abs(got - want) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(w=st.integers(1, 2), n=st.integers(1, 4), n_prime=st.integers(0, 4),
           seed=st.integers(0, 2**31 - 1))
    def test_unpinned_channel_stays_on_its_copy(self, w, n, n_prime, seed):
        rng = np.random.default_rng(seed)
        c = unpinned_circuit(rng, w, seed % 1000)
        rho, bar = run(c), dual_state(c)
        obs = random_pauli(rng, w)
        om = obs.matrix()
        br = np.linalg.matrix_power(bar @ rho, n - 1)
        # uncompute-based: the ancilla and direct readouts of Re Tr[bar rho O]
        want = float(np.real(np.trace(bar @ rho @ om)))
        assert abs(DspEvaluator(c).numerator(obs) - want) <= 1e-12
        assert abs(dsp_expectation(c, obs, mode="direct").numerator - want) <= 1e-12
        # copy-and-uncompute: Re Tr[(bar rho)^n O], or Tr[rho (bar rho)^(n-1) O] with a drop
        assert abs(re_purification(c, n, obs) - np.real(np.trace(br @ bar @ rho @ om))) <= 1e-12
        assert abs(re_purification(c, n, obs, True) - np.trace(rho @ br @ om)) <= 1e-12
        # copy-based: Tr[rho^n O]
        if n >= 2 and n * w + 1 <= 9:
            rn = np.linalg.matrix_power(rho, n)
            ev = EsdEvaluator(c, n)
            assert abs(ev.numerator(obs) - np.real(np.trace(rn @ om))) <= 1e-12
        # general plans: the dense sandwich product
        plan = plan_general(n, n_prime)
        if plan.copies * w + 1 <= 9:
            bra, ket = random_plan_factors(rng, plan, w, None, seed % 1000)
            got = execute_plan(plan, bra, ket, obs)
            assert abs(got - planned_oracle(plan, bra, ket, obs)) <= 1e-12


class TestPlanner:
    def test_copy_counts(self):
        assert plan_general(1, 1).copies == 1
        assert plan_general(2, 3).copies == 3
        assert plan_general(3, 3).copies == 3
        assert plan_general(2, 2).copies == 2

    def test_postselect_counts(self):
        # even total factors: all copies postselected; odd: exactly one free
        p = plan_general(1, 1)
        assert all(p.postselect)
        p = plan_general(1, 2)
        assert sum(p.postselect) == p.copies - 1
        p = plan_general(2, 3)
        assert sum(p.postselect) == p.copies - 1
        p = plan_general(2, 2)
        assert all(p.postselect)

    def test_sequence_layout(self):
        p = plan_general(1, 2)
        seq = [(s.side, s.index, s.dagger, s.bar) for s in factor_sequence(p)]
        assert seq == [("bra", 1, True, False), ("ket", 1, False, True),
                       ("ket", 2, False, False)]

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            plan_general(0, 1)
        with pytest.raises(ValueError):
            plan_general(1, -1)

    def test_bra_side_alone(self):
        # Tr[rho O] from one copy whose only slot is an in slot
        p = plan_general(1, 0)
        assert (p.copies, p.postselect) == (1, (False,))
        assert p.slots[0].in_slot == pur.FactorSlot("bra", 1, True, False)


class TestExecutePlan:
    def _factors(self, rng, w, count, noise, with_gadgets=True, seed0=0):
        out = []
        for i in range(count):
            circ = random_circuit(rng, w, 5, noise, seed=seed0 + i)
            if with_gadgets:
                v = random_pauli(rng, w, nontrivial=False)
                wt = random_pauli(rng, w, nontrivial=False)
                phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
                v = PauliTerm(v.axes, phase)
                wt = PauliTerm(wt.axes, 1.0)
            else:
                v = wt = None
            out.append(GeneralFactor(circ, v, wt))
        return out

    def test_single_copy_reduces_to_dsp(self):
        rng = np.random.default_rng(21)
        c = random_circuit(rng, 2, 6, PAULI_NOISE)
        f = GeneralFactor(c)
        obs = PauliTerm("ZX")
        plan = plan_general(1, 1)
        got = execute_plan(plan, [f], [f], obs)
        d = dsp_expectation(c, obs)
        assert got.real == pytest.approx(d.numerator, abs=1e-10)

    def test_identity_gadgets_against_oracle(self):
        rng = np.random.default_rng(22)
        for (n, npr) in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3)]:
            plan = plan_general(n, npr)
            if plan.copies * 2 + 1 > 9:
                continue
            bra = self._factors(rng, 2, n, PAULI_NOISE, with_gadgets=False, seed0=n)
            ket = self._factors(rng, 2, npr, PAULI_NOISE, with_gadgets=False, seed0=10 + npr)
            obs = random_pauli(rng, 2)
            got = execute_plan(plan, bra, ket, obs)
            want = planned_oracle(plan, bra, ket, obs)
            assert got == pytest.approx(want, abs=1e-8)

    def test_pauli_gadgets_against_oracle(self):
        rng = np.random.default_rng(23)
        for trial, (n, npr) in enumerate([(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]):
            plan = plan_general(n, npr)
            bra = self._factors(rng, 2, n, PAULI_NOISE, seed0=trial)
            ket = self._factors(rng, 2, npr, PAULI_NOISE, seed0=40 + trial)
            obs = random_pauli(rng, 2)
            got = execute_plan(plan, bra, ket, obs)
            want = planned_oracle(plan, bra, ket, obs)
            assert got == pytest.approx(want, abs=1e-8)

    def test_factor_count_mismatch(self):
        rng = np.random.default_rng(25)
        plan = plan_general(2, 1)
        f = GeneralFactor(random_circuit(rng, 2, 4))
        with pytest.raises(ValueError):
            execute_plan(plan, [f], [f], PauliTerm("ZI"))


class TestRegisterWidths:
    """A register of another width than the circuits' raises
    ``SizeMismatchError`` naming both widths, rather than reading a wrong
    value or failing inside numpy."""

    @pytest.mark.parametrize("width", [1, 3])
    def test_dsp_out_circuit(self, width):
        rng = np.random.default_rng(51)
        c = random_circuit(rng, 2, 6, PAULI_NOISE, seed=1)
        out = random_circuit(rng, width, 4)
        with pytest.raises(SizeMismatchError, match=f"on {width} qubits.* on 2"):
            dsp_expectation(c, PauliTerm("ZX"), out_circuit=out)
        with pytest.raises(SizeMismatchError, match=f"on {width} qubits.* on 2"):
            DspEvaluator(c, out_circuit=out)

    @pytest.mark.parametrize("widths", [(2, 1), (1, 2)])
    def test_plan_factors(self, widths):
        rng = np.random.default_rng(52)
        bra, ket = (GeneralFactor(random_circuit(rng, w, 4, PAULI_NOISE, seed=w))
                    for w in widths)
        with pytest.raises(SizeMismatchError, match="on 1 and 2 qubits"):
            execute_plan(plan_general(1, 1), [bra], [ket], PauliTerm("Z" * widths[0]))

    READERS = {
        "dsp": lambda c, obs: DspEvaluator(c).numerator(obs),
        "dsp-direct": lambda c, obs: dsp_expectation(c, obs, mode="direct"),
        "esd": lambda c, obs: EsdEvaluator(c, 2).numerator(obs),
        "plan": lambda c, obs: execute_plan(plan_general(1, 1), [GeneralFactor(c)],
                                            [GeneralFactor(c)], obs),
    }

    @pytest.mark.parametrize("reader", sorted(READERS))
    @pytest.mark.parametrize("axes", ["Z", "ZXY", "I", "III"])
    def test_observable(self, axes, reader):
        rng = np.random.default_rng(53)
        c = random_circuit(rng, 2, 6, PAULI_NOISE, seed=2)
        with pytest.raises(SizeMismatchError,
                           match=f"observable on {len(axes)} qubits, register on 2"):
            self.READERS[reader](c, PauliTerm(axes, 0.5))
