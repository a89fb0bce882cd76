import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qemlab import models, vqe
from qemlab.circuits import build_ansatz, zero_vector
from qemlab.pauli import PauliSum, PauliTerm, build_ising
from qemlab.vqe import AnsatzCircuit, adjoint_gradient, exact_ground, optimize

from oracles import (
    ansatz_state,
    apply_state,
    apply_unitary_state,
    energy,
    parameter_shift_gradient,
)


def path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def free_fermion_ground(n):
    """Independent oracle: open-chain ground energy from an n x n bidiagonal."""
    c = np.eye(n) + np.diag(np.ones(n - 1), 1)
    return -float(np.linalg.svd(c, compute_uv=False).sum())


class TestExactGround:
    def test_single_qubit(self):
        h = PauliSum(1, [PauliTerm("X", -1.0)])
        e, vec = exact_ground(h)
        assert e == pytest.approx(-1.0)
        want = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert abs(abs(np.vdot(vec, want)) - 1.0) < 1e-10

    def test_two_qubit_path(self):
        h = build_ising(path_edges(2), 2)
        e, _ = exact_ground(h)
        assert e == pytest.approx(-math.sqrt(5.0), abs=1e-12)

    def test_eight_qubit_path_free_fermion(self):
        h = build_ising(path_edges(8), 8)
        e, _ = exact_ground(h)
        assert e == pytest.approx(free_fermion_ground(8), abs=1e-10)
        assert e < 0

    def test_vector_owns_its_data(self):
        # a column view would keep the whole eigenvector matrix alive
        h = build_ising(path_edges(4), 4)
        e, vec = exact_ground(h)
        vals, vecs = np.linalg.eigh(h.matrix())
        assert vec.flags.owndata and vec.base is None
        assert e == float(vals[0])
        assert vec.shape == (16,) and vec.tobytes() == vecs[:, 0].tobytes()


def oracle_state(ansatz, params):
    """The ansatz state gate by gate through np.tensordot, as before ``_contract``."""
    n = ansatz.n
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for g in build_ansatz(ansatz.n, ansatz.layers, params, ansatz.edges).gates():
        k = len(g.qubits)
        axes = [n - 1 - q for q in g.qubits]
        t = np.tensordot(g.matrix().reshape((2,) * (2 * k)), psi.reshape((2,) * n),
                         axes=(list(range(k, 2 * k)), axes))
        psi = np.moveaxis(t, list(range(k)), axes).reshape(psi.shape)
    return psi


class TestState:
    def test_bit_equal_to_gate_loop_oracle(self):
        rng = np.random.default_rng(2)
        for n, layers in ((1, 0), (3, 2), (8, 2), (10, 1)):
            ansatz = AnsatzCircuit(n, layers, tuple(path_edges(n)))
            x = rng.uniform(-np.pi, np.pi, size=ansatz.num_params)
            circ = build_ansatz(n, layers, x, ansatz.edges)
            assert np.array_equal(apply_state(circ, zero_vector(n)), oracle_state(ansatz, x))

    @pytest.mark.parametrize("graph, layers", [
        ("path-8", 8), ("cluster-2d-8", 8), ("path-4", 8), ("path-4", 1)])
    def test_sweep_plan_state_equals_gate_loop(self, graph, layers):
        # experiments.Problem prepares its baseline and block states on the
        # sweep plan; they are the gate loop's, bit for bit
        n, edges = models.graph(graph)
        for seed in range(5):
            x = np.random.default_rng(seed).uniform(-np.pi, np.pi, 2 * n * (layers + 1))
            want = apply_state(build_ansatz(n, layers, x, edges), zero_vector(n))
            assert np.array_equal(vqe.ansatz_state(n, layers, edges, x), want)


class TestGradients:
    def test_parameter_shift_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        checked = 0
        for n in (2, 3, 4):
            h = build_ising(path_edges(n), n)
            h_mat = h.matrix()
            ansatz = AnsatzCircuit(n, 2, tuple(path_edges(n)))
            for _ in range(7):
                x = rng.uniform(-1.0, 1.0, size=ansatz.num_params)
                ps = parameter_shift_gradient(ansatz, h_mat, x)
                step = 1e-5
                fd = np.empty_like(ps)
                for i in range(len(x)):
                    xp = x.copy(); xp[i] += step
                    xm = x.copy(); xm[i] -= step
                    fd[i] = (energy(h_mat, ansatz_state(ansatz, xp))
                             - energy(h_mat, ansatz_state(ansatz, xm))) / (2.0 * step)
                scale = max(1.0, float(np.linalg.norm(ps)))
                assert np.linalg.norm(ps - fd) / scale < 1e-6
                checked += 1
        assert checked >= 20

    def test_adjoint_equals_parameter_shift(self):
        rng = np.random.default_rng(1)
        n = 3
        h = build_ising(path_edges(n), n)
        h_mat = h.matrix()
        ansatz = AnsatzCircuit(n, 3, tuple(path_edges(n)))
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, size=ansatz.num_params)
            e, ad = adjoint_gradient(ansatz, h_mat, x)
            ps = parameter_shift_gradient(ansatz, h_mat, x)
            np.testing.assert_allclose(ad, ps, atol=1e-10)
            assert e == pytest.approx(energy(h_mat, ansatz_state(ansatz, x)), abs=1e-12)


class TestOptimize:
    def test_single_rotation_reaches_ground(self):
        h = PauliSum(1, [PauliTerm("X", -1.0)])
        res = optimize(1, 0, h, iters=200, seed=3, edges=[])
        assert res.energy == pytest.approx(-1.0, abs=1e-6)

    def test_four_qubit_baseline(self):
        h = build_ising(path_edges(4), 4)
        e_true, _ = exact_ground(h)
        res = optimize(4, 8, h, iters=300, seed=7)
        assert res.energy - e_true <= 1e-2
        assert res.energy >= e_true - 1e-9

    def test_monotone_history_and_determinism(self):
        h = build_ising(path_edges(3), 3)
        res1 = optimize(3, 2, h, iters=60, seed=11)
        # the uncached solve: a second optimize call would hand back res1's result
        res2 = vqe._minimize(AnsatzCircuit(3, 2, tuple(path_edges(3))), h, 60, 11)
        np.testing.assert_array_equal(res1.params, res2.params)
        hist = np.array(res1.history)
        assert np.all(np.diff(hist) <= 1e-15)

    def test_memo_hands_back_the_solve_without_a_sweep(self, monkeypatch):
        h = build_ising(path_edges(3), 3)
        first = optimize(3, 1, h, iters=30, seed=23)
        sweeps = []
        forward = vqe._forward
        monkeypatch.setattr(vqe, "_forward", lambda *a: sweeps.append(1) or forward(*a))
        # the explicit path is the default's key
        again = optimize(3, 1, h, iters=30, seed=23, edges=path_edges(3))
        assert not sweeps
        fresh = vqe._minimize(AnsatzCircuit(3, 1, tuple(path_edges(3))), h, 30, 23)
        for res in (first, again):
            assert res.params.tobytes() == fresh.params.tobytes()
            assert (res.energy, res.history, res.iterations) == \
                (fresh.energy, fresh.history, fresh.iterations)
            assert not res.params.flags.writeable
        assert again.history is not first.history
        again.history.append(0.0)
        assert optimize(3, 1, h, iters=30, seed=23).history == fresh.history
        with pytest.raises(ValueError):
            again.params[0] = 1.0
        # a change of seed, iters or Hamiltonian is a new problem
        scaled = PauliSum(3, [PauliTerm(t.axes, 1.5 * t.coeff) for t in h])
        for hh, iters, seed in ((h, 30, 24), (h, 31, 23), (scaled, 30, 23)):
            sweeps.clear()
            optimize(3, 1, hh, iters=iters, seed=seed)
            assert sweeps

    def test_variational_lower_bound(self):
        h = build_ising(path_edges(3), 3)
        e_true, _ = exact_ground(h)
        for seed in range(4):
            res = optimize(3, 1, h, iters=40, seed=seed)
            assert res.energy >= e_true - 1e-9


# ---------------------------------------------------------------------------
# The per-gate adjoint sweep and the BFGS loop on top of it, frozen as oracles
# for the sweep plan: every Gate rebuilt per call, psi flattened after every
# gate, psi and lambda undone separately, a full gradient per candidate.

ORACLE_PAULI = {
    "rx": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "rz": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def oracle_gate_sequence(ansatz, params):
    """Gates paired with the index of the parameter they consume."""
    seq = []
    k = 0
    for g in build_ansatz(ansatz.n, ansatz.layers, params, ansatz.edges).gates():
        if g.name in ("rx", "rz"):
            seq.append((g, k))
            k += 1
        else:
            seq.append((g, None))
    assert k == ansatz.num_params
    return seq


def oracle_adjoint_gradient(ansatz, h_mat, params):
    params = np.asarray(params, dtype=float)
    seq = oracle_gate_sequence(ansatz, params)
    psi = zero_vector(ansatz.n)
    for g, _ in seq:
        psi = apply_unitary_state(psi, g.matrix(), g.qubits, ansatz.n)
    e = energy(h_mat, psi)
    lam = h_mat @ psi
    grad = np.zeros_like(params)
    for g, idx in reversed(seq):
        if idx is not None:
            ppsi = apply_unitary_state(psi, ORACLE_PAULI[g.name], g.qubits, ansatz.n)
            grad[idx] = float(np.imag(np.vdot(lam, ppsi)))
        u_dag = g.matrix().conj().T
        psi = apply_unitary_state(psi, u_dag, g.qubits, ansatz.n)
        lam = apply_unitary_state(lam, u_dag, g.qubits, ansatz.n)
    return e, grad


def oracle_optimize(n, layers, h, iters, seed, edges=None, grad_tol=1e-9):
    if edges is None:
        edges = path_edges(n)
    ansatz = AnsatzCircuit(n, layers, tuple(edges))
    h_mat = h.matrix()
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.1, 0.1, size=ansatz.num_params)
    f, g = oracle_adjoint_gradient(ansatz, h_mat, x)
    m = len(x)
    b_inv = np.eye(m)
    best_f, best_x = f, x.copy()
    history = [f]
    stalled = 0
    it = 0
    for it in range(1, iters + 1):
        if np.linalg.norm(g) < grad_tol or stalled >= 20:
            break
        p = -b_inv @ g
        slope = float(g @ p)
        if slope >= 0.0:
            p = -g
            slope = float(g @ p)
        t = 1.0
        f_new = None
        for _ in range(40):
            cand = x + t * p
            f_cand, g_cand = oracle_adjoint_gradient(ansatz, h_mat, cand)
            if f_cand <= f + 1e-4 * t * slope:
                f_new, g_new, x_new = f_cand, g_cand, cand
                break
            t *= 0.5
        if f_new is None:
            break
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12:
            rho_k = 1.0 / sy
            v = np.eye(m) - rho_k * np.outer(s, y)
            b_inv = v @ b_inv @ v.T + rho_k * np.outer(s, s)
        x, f, g = x_new, f_new, g_new
        if f < best_f - 1e-13:
            best_f, best_x, stalled = f, x.copy(), 0
        else:
            stalled += 1
            if f < best_f:
                best_f, best_x = f, x.copy()
        history.append(best_f)
    return best_x, best_f, history, it


@st.composite
def ansatz_cases(draw):
    n = draw(st.integers(1, 6))
    layers = draw(st.integers(0, 3))
    if n > 1 and draw(st.booleans()):
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    else:
        edges = path_edges(n)
    ansatz = AnsatzCircuit(n, layers, tuple(edges))
    angle = st.floats(-2.0 * np.pi, 2.0 * np.pi, allow_nan=False)
    x = np.array(draw(st.lists(angle, min_size=ansatz.num_params,
                               max_size=ansatz.num_params)), dtype=float)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = 1 << n
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return ansatz, a + a.conj().T, x


class TestSweepPlan:
    @settings(max_examples=80, deadline=None)
    @given(ansatz_cases())
    def test_bit_equal_to_per_gate_sweep(self, case):
        ansatz, h_mat, x = case
        e, grad = adjoint_gradient(ansatz, h_mat, x)
        e_want, grad_want = oracle_adjoint_gradient(ansatz, h_mat, x)
        assert np.array_equal(np.array(e), np.array(e_want))
        assert np.array_equal(grad, grad_want)
        assert np.array_equal(np.signbit(grad), np.signbit(grad_want))

    def test_bit_equal_on_path8(self):
        rng = np.random.default_rng(4)
        h_mat = build_ising(path_edges(8), 8).matrix()
        for layers in (2, 8):
            ansatz = AnsatzCircuit(8, layers, tuple(path_edges(8)))
            x = rng.uniform(-np.pi, np.pi, size=ansatz.num_params)
            e, grad = adjoint_gradient(ansatz, h_mat, x)
            e_want, grad_want = oracle_adjoint_gradient(ansatz, h_mat, x)
            assert e == e_want
            assert np.array_equal(grad, grad_want)

    def test_wrong_parameter_count(self):
        ansatz = AnsatzCircuit(3, 1, tuple(path_edges(3)))
        with pytest.raises(ValueError):
            adjoint_gradient(ansatz, np.eye(8), np.zeros(ansatz.num_params - 1))

    @pytest.mark.parametrize("n, layers, iters, seed, edges", [
        (8, 2, 60, 7, None),
        (4, 8, 500, 7, None),
        (3, 2, 60, 11, None),
        (4, 2, 80, 3, [(0, 2), (1, 3), (0, 3)]),
    ])
    def test_optimize_equals_per_gate_loop(self, monkeypatch, n, layers, iters, seed, edges):
        calls = {"forward": 0, "backward": 0}

        def counted(name):
            fn = getattr(vqe, name)

            def wrapper(*a, **k):
                calls[name.strip("_")] += 1
                return fn(*a, **k)
            return wrapper

        monkeypatch.setattr(vqe, "_forward", counted("_forward"))
        monkeypatch.setattr(vqe, "_backward", counted("_backward"))
        h = build_ising(edges or path_edges(n), n)
        # the uncached solve, so the counts do not depend on which test ran first
        res = vqe._minimize(AnsatzCircuit(n, layers, tuple(edges or path_edges(n))), h,
                            iters, seed)
        params, e, history, iterations = oracle_optimize(n, layers, h, iters, seed, edges)
        assert np.array_equal(res.params, params)
        assert res.energy == e
        assert res.history == history
        assert res.iterations == iterations
        # one gradient per accepted step, plus the starting point
        assert calls["backward"] == len(history)
        if (n, layers) == (4, 8):
            # the stalled case: most line-search candidates are rejected
            assert calls["forward"] > 2 * calls["backward"]
