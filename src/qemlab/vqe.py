"""Noise-free variational optimization of the layered ansatz.

The optimizer fixes the circuit parameters before any mitigation runs; its
residual bias is the baseline every experiment is judged against.  Gradients
are analytic: a two-sweep adjoint pass computes the full vector, which is
what the quasi-Newton loop consumes.  The parameter-shift rule, one pair of
runs per angle, is its reference and lives in ``tests/oracles.py``.

The sweep plan is the package's one statevector simulator: ``ansatz_state``
is its forward sweep alone, and it prepares the baseline and block states of
``experiments.Problem`` as well.  ``_plan`` compiles (n, layers, edges)
once into read-only steps, cached in a bounded ``lru_cache``, each holding
the gate's tensor axes, the index of the parameter it consumes, and for cz
the fixed matrix and its adjoint.  A gradient builds each rx/rz matrix once
through ``circuits.rotation`` (the formula ``gate_matrix`` uses) and reuses
its adjoint on the way back.  psi stays a tensor between ``_contract`` steps,
and the backward sweep carries psi and lambda as one (2, 2^n) tensor, so one
call undoes a gate on both.  ``optimize`` runs only the forward sweep for a
line-search candidate and the backward sweep for the one Armijo accepts.
Each step makes the floating-point operations of the gate-by-gate sweep, so
energies, gradients and optimizer results are bit-equal to it.

``optimize`` solves each problem once per process: a bounded memo keyed on
everything the solve reads (n, layers, edges, the Hamiltonian's masks and
coefficient bits, iters, seed) hands a repeat call the first call's result.
Its parameters are read-only and every call gets its own history list, so a
caller cannot change what a later one receives.  ``_minimize`` is the solve.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import MAX_QUBITS, _contract, build_ansatz, rotation, zero_vector
from .errors import ConfigError, RegisterCapError
from .pauli import PAULI_MATRICES, PauliSum

#: Gradient norm at which ``optimize`` stops.
GRAD_TOL = 1e-9

_PAULI_VEC = {"rx": PAULI_MATRICES["X"], "rz": PAULI_MATRICES["Z"]}


def check_count(key: str, v) -> None:
    """ConfigError naming key unless v is a non-negative int (a bool is not)."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 0:
        raise ConfigError(f"{key} must be a non-negative integer, got {v!r}")


def check_sizes(layers, iters, seed) -> None:
    """``check_count`` on the VQE sizes and seed."""
    for key, v in (("layers", layers), ("iters", iters), ("seed", seed)):
        check_count(f"vqe.{key}", v)


def exact_ground(h: PauliSum) -> tuple[float, np.ndarray]:
    """Dense diagonalization: minimal eigenvalue and its eigenvector."""
    if h.n > MAX_QUBITS:
        raise RegisterCapError(f"dense diagonalization capped at {MAX_QUBITS} qubits")
    vals, vecs = np.linalg.eigh(h.matrix())
    return float(vals[0]), vecs[:, 0].copy()  # a copy, so vecs is not kept alive


@dataclass
class AnsatzCircuit:
    """Parameter binding helper for the layered ansatz."""

    n: int
    layers: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        self.edges = tuple(map(tuple, self.edges))  # hashable: it keys the sweep plan

    @property
    def num_params(self) -> int:
        return 2 * self.n * (self.layers + 1)


@lru_cache(maxsize=32)
def _plan(n: int, layers: int, edges: tuple) -> tuple:
    """The ansatz as read-only sweep steps (name, axes, stacked axes, param, u, u_dag).

    A rotation carries its parameter index and no matrix; a cz carries None
    and its fixed matrix with the adjoint.  Parameters are consumed in gate
    order.  Stacked axes address the same qubits behind a leading stack axis.
    """
    steps = []
    k = 0
    for g in build_ansatz(n, layers, np.zeros(2 * n * (layers + 1)), edges).gates():
        axes = tuple(n - 1 - q for q in g.qubits)
        stacked = tuple(a + 1 for a in axes)
        if g.name in _PAULI_VEC:
            steps.append((g.name, axes, stacked, k, None, None))
            k += 1
        else:
            u = g.matrix()
            u_dag = u.conj().T
            u.flags.writeable = u_dag.flags.writeable = False
            steps.append((g.name, axes, stacked, None, u, u_dag))
    return tuple(steps)


@dataclass
class _Sweep:
    """A forward sweep: the energy, psi, H psi and the rotation matrices in parameter order."""

    energy: float
    psi: np.ndarray
    hpsi: np.ndarray
    rots: list


def _state(ansatz: AnsatzCircuit, params) -> tuple[np.ndarray, list]:
    """psi at params from |0..0>, and the rotation matrices in parameter order."""
    params = np.asarray(params, dtype=float)
    if len(params) != ansatz.num_params:
        raise ValueError(f"need {ansatz.num_params} parameters, got {len(params)}")
    n = ansatz.n
    rots = []
    t = zero_vector(n).reshape((2,) * n)
    for name, axes, _, k, u, _ in _plan(n, ansatz.layers, ansatz.edges):
        if u is None:
            u = rotation(name, params[k])
            rots.append(u)
        t = _contract(t, u, axes)
    return t.reshape(-1), rots


def ansatz_state(n: int, layers: int, edges, params) -> np.ndarray:
    """The statevector of the layered ansatz (``build_ansatz``) at params."""
    return _state(AnsatzCircuit(n, layers, edges), params)[0]


def _forward(ansatz: AnsatzCircuit, h_mat: np.ndarray, params) -> _Sweep:
    psi, rots = _state(ansatz, params)
    hpsi = h_mat @ psi
    return _Sweep(float(np.real(np.vdot(psi, hpsi))), psi, hpsi, rots)


def _backward(ansatz: AnsatzCircuit, sweep: _Sweep) -> np.ndarray:
    """dE/dtheta from psi and lambda = H psi, undone gate by gate as one stack."""
    n = ansatz.n
    grad = np.zeros(ansatz.num_params)
    t = np.stack((sweep.psi, sweep.hpsi)).reshape((2,) * (n + 1))
    for name, axes, stacked, k, _, u_dag in reversed(_plan(n, ansatz.layers, ansatz.edges)):
        if k is not None:
            # dU/dtheta = -(i/2) P U, so dE/dtheta = Im <lam|P|psi>
            ppsi = _contract(t[0], _PAULI_VEC[name], axes)
            grad[k] = float(np.imag(np.vdot(t[1], ppsi)))
            u_dag = sweep.rots[k].conj().T
        t = _contract(t, u_dag, stacked, stack=True)
    return grad


def adjoint_gradient(ansatz: AnsatzCircuit, h_mat: np.ndarray, params) -> tuple[float, np.ndarray]:
    """Energy and full gradient from one forward and one backward sweep.

    Produces the same vector as the shift rule to machine precision.
    """
    sweep = _forward(ansatz, h_mat, params)
    return sweep.energy, _backward(ansatz, sweep)


@dataclass
class OptimizeResult:
    params: np.ndarray
    energy: float
    history: list[float]
    iterations: int


#: Solved problems, least recently used first: key -> (params, energy, history, iterations).
_SOLVED: OrderedDict = OrderedDict()
_SOLVED_SIZE = 16


def optimize(n: int, layers: int, h: PauliSum, iters: int = 500, seed: int = 0,
             edges=None) -> OptimizeResult:
    """Minimize the ansatz energy with BFGS plus Armijo backtracking.

    Initial angles are uniform in [-0.1, 0.1] under the seed.  The loop is
    capped at ``iters`` quasi-Newton steps; non-convergence just leaves a
    larger residual bias, which the experiments treat as the baseline.
    Edges default to the path; a problem already solved in this process
    returns the memoized result, bit for bit what a new solve would give.
    """
    check_sizes(layers, iters, seed)
    if edges is None:
        edges = [(i, i + 1) for i in range(n - 1)]
    ansatz = AnsatzCircuit(n, layers, tuple((int(a), int(b)) for a, b in edges))
    items = h.mask_items()
    key = (ansatz.n, ansatz.layers, ansatz.edges, h.n, tuple((x, z) for x, z, _ in items),
           np.array([c for _, _, c in items], dtype=complex).tobytes(), iters, seed)
    hit = _SOLVED.pop(key, None)
    if hit is None:
        res = _minimize(ansatz, h, iters, seed)
        res.params.flags.writeable = False
        hit = (res.params, res.energy, tuple(res.history), res.iterations)
    _SOLVED[key] = hit
    if len(_SOLVED) > _SOLVED_SIZE:
        _SOLVED.popitem(last=False)
    params, energy, history, iterations = hit
    return OptimizeResult(params, energy, list(history), iterations)


def _minimize(ansatz: AnsatzCircuit, h: PauliSum, iters: int, seed: int) -> OptimizeResult:
    """The BFGS solve behind ``optimize``, run afresh on every call."""
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
        if np.linalg.norm(g) < GRAD_TOL or stalled >= 20:
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
            sweep = _forward(ansatz, h_mat, cand)
            if sweep.energy <= f + 1e-4 * t * slope:
                f_new, g_new, x_new = sweep.energy, _backward(ansatz, sweep), cand
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
