import math

import numpy as np
import pytest

from qemlab.pauli import PauliSum, PauliTerm, build_ising
from qemlab.vqe import (
    AnsatzCircuit,
    adjoint_gradient,
    energy,
    exact_ground,
    optimize,
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


def oracle_state(ansatz, params):
    """The ansatz state gate by gate through np.tensordot, as before apply_state."""
    n = ansatz.n
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for g in ansatz.circuit(params).gates():
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
            assert np.array_equal(ansatz.state(x), oracle_state(ansatz, x))


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
                    fd[i] = (energy(h_mat, ansatz.state(xp))
                             - energy(h_mat, ansatz.state(xm))) / (2.0 * step)
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
            assert e == pytest.approx(energy(h_mat, ansatz.state(x)), abs=1e-12)


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
        res2 = optimize(3, 2, h, iters=60, seed=11)
        np.testing.assert_array_equal(res1.params, res2.params)
        hist = np.array(res1.history)
        assert np.all(np.diff(hist) <= 1e-15)

    def test_variational_lower_bound(self):
        h = build_ising(path_edges(3), 3)
        e_true, _ = exact_ground(h)
        for seed in range(4):
            res = optimize(3, 1, h, iters=40, seed=seed)
            assert res.energy >= e_true - 1e-9
