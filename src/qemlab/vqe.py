"""Noise-free variational optimization of the layered ansatz.

The optimizer fixes the circuit parameters before any mitigation runs; its
residual bias is the baseline every experiment is judged against.  Gradients
are analytic: the parameter-shift rule is the reference implementation and a
two-sweep adjoint pass computes the identical vector at a fraction of the
cost, which is what the quasi-Newton loop consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Gate, _apply_unitary_state, apply_state, build_ansatz, zero_vector
from .errors import RegisterCapError
from .pauli import PauliSum

_GEN = {"rx": "x", "rz": "z"}
_PAULI_VEC = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def exact_ground(h: PauliSum) -> tuple[float, np.ndarray]:
    """Dense diagonalization: minimal eigenvalue and its eigenvector."""
    if h.n > 10:
        raise RegisterCapError("dense diagonalization capped at 10 qubits")
    vals, vecs = np.linalg.eigh(h.matrix())
    return float(vals[0]), vecs[:, 0]


@dataclass
class AnsatzCircuit:
    """Parameter binding helper for the layered ansatz."""

    n: int
    layers: int
    edges: tuple[tuple[int, int], ...]

    @property
    def num_params(self) -> int:
        return 2 * self.n * (self.layers + 1)

    def circuit(self, params):
        return build_ansatz(self.n, self.layers, params, self.edges)

    def state(self, params) -> np.ndarray:
        return apply_state(self.circuit(params), zero_vector(self.n))


def energy(h_mat: np.ndarray, psi: np.ndarray) -> float:
    return float(np.real(np.vdot(psi, h_mat @ psi)))


def _gate_sequence(ansatz: AnsatzCircuit, params) -> list[tuple[Gate, int | None]]:
    """Gates paired with the index of the parameter they consume."""
    seq = []
    k = 0
    c = ansatz.circuit(params)
    for g in c.gates():
        if g.name in ("rx", "rz"):
            seq.append((g, k))
            k += 1
        else:
            seq.append((g, None))
    assert k == ansatz.num_params
    return seq


def parameter_shift_gradient(ansatz: AnsatzCircuit, h_mat: np.ndarray, params) -> np.ndarray:
    """dE/dtheta by the exact +-pi/2 shift rule, one pair of runs per angle."""
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(len(params)):
        shifted = params.copy()
        shifted[i] += np.pi / 2.0
        plus = energy(h_mat, ansatz.state(shifted))
        shifted[i] -= np.pi
        minus = energy(h_mat, ansatz.state(shifted))
        grad[i] = 0.5 * (plus - minus)
    return grad


def adjoint_gradient(ansatz: AnsatzCircuit, h_mat: np.ndarray, params) -> tuple[float, np.ndarray]:
    """Energy and full gradient from one forward and one backward sweep.

    Produces the same vector as the shift rule to machine precision.
    """
    params = np.asarray(params, dtype=float)
    seq = _gate_sequence(ansatz, params)
    psi = zero_vector(ansatz.n)
    for g, _ in seq:
        psi = _apply_unitary_state(psi, g.matrix(), g.qubits, ansatz.n)
    e = energy(h_mat, psi)
    lam = h_mat @ psi
    grad = np.zeros_like(params)
    for g, idx in reversed(seq):
        if idx is not None:
            p = _PAULI_VEC[_GEN[g.name]]
            # dU/dtheta = -(i/2) P U, so dE/dtheta = Im <lam|P|psi>
            ppsi = _apply_unitary_state(psi, p, g.qubits, ansatz.n)
            grad[idx] = float(np.imag(np.vdot(lam, ppsi)))
        u_dag = g.matrix().conj().T
        psi = _apply_unitary_state(psi, u_dag, g.qubits, ansatz.n)
        lam = _apply_unitary_state(lam, u_dag, g.qubits, ansatz.n)
    return e, grad


@dataclass
class OptimizeResult:
    params: np.ndarray
    energy: float
    history: list[float]
    iterations: int


def optimize(n: int, layers: int, h: PauliSum, iters: int = 500, seed: int = 0,
             edges=None, grad_tol: float = 1e-9) -> OptimizeResult:
    """Minimize the ansatz energy with BFGS plus Armijo backtracking.

    Initial angles are uniform in [-0.1, 0.1] under the seed.  The loop is
    capped at ``iters`` quasi-Newton steps; non-convergence just leaves a
    larger residual bias, which the experiments treat as the baseline.
    """
    if edges is None:
        edges = [(i, i + 1) for i in range(n - 1)]
    ansatz = AnsatzCircuit(n, layers, tuple(edges))
    h_mat = h.matrix()
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.1, 0.1, size=ansatz.num_params)

    f, g = adjoint_gradient(ansatz, h_mat, x)
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
            f_cand, g_cand = adjoint_gradient(ansatz, h_mat, cand)
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
    return OptimizeResult(best_x, best_f, history, it)
