"""Dense references the benchmark computes without calling qemlab.

Everything here is plain numpy on full 2^n matrices built with ``np.kron``,
little-endian like qemlab (qubit 0 is the least significant bit of a basis
index).  The checks in ``workloads.py`` compare the scenario CSVs against
these values.
"""

from __future__ import annotations

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# X/Y/Z shares of a stochastic Pauli error, and the two-qubit/one-qubit rate
# ratio, as the scenarios configure them (qemlab's defaults).
PAULI_SPLIT = (0.2, 0.2, 0.6)
TWO_QUBIT_RATIO = 10.0


def embed(ops: dict[int, np.ndarray], n: int) -> np.ndarray:
    """Kron of one 2x2 factor per qubit, identity where none is given."""
    out = np.array([[1.0 + 0j]])
    for q in reversed(range(n)):
        out = np.kron(out, ops.get(q, I2))
    return out


def path_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def tfim(n: int, edges) -> np.ndarray:
    """H = -sum_edges Z_a Z_b - sum_q X_q."""
    d = 1 << n
    h = np.zeros((d, d), dtype=complex)
    for a, b in edges:
        h -= embed({a: Z, b: Z}, n)
    for q in range(n):
        h -= embed({q: X}, n)
    return h


def ground_energy(n: int, edges) -> float:
    return float(np.linalg.eigvalsh(tfim(n, edges))[0])


def _rx(t: float) -> np.ndarray:
    c, s = np.cos(t / 2), np.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _rz(t: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * t), np.exp(0.5j * t)])


def _cz(n: int, a: int, b: int) -> np.ndarray:
    idx = np.arange(1 << n)
    both = ((idx >> a) & 1) & ((idx >> b) & 1)
    return np.diag(np.where(both == 1, -1.0, 1.0)).astype(complex)


def ansatz_gates(n: int, layers: int, params, edges):
    """(full unitary, qubits) for the layered rx/rz + cz ansatz.

    Each layer is rx then rz on every qubit, then cz on the even-indexed
    edges and then on the odd-indexed ones (brickwork); a final rx/rz rank
    closes it.  The cz order matters only once noise follows each gate.
    """
    params = np.asarray(params, dtype=float)
    if len(params) != 2 * n * (layers + 1):
        raise ValueError("parameter vector has the wrong length")
    edges = list(edges)
    edges = edges[0::2] + edges[1::2]
    k = 0
    for rank in range(layers + 1):
        for q in range(n):
            yield embed({q: _rx(params[k + q])}, n), (q,)
        for q in range(n):
            yield embed({q: _rz(params[k + n + q])}, n), (q,)
        k += 2 * n
        if rank < layers:
            for a, b in edges:
                yield _cz(n, a, b), (a, b)


def ansatz_state(n: int, layers: int, params, edges) -> np.ndarray:
    psi = np.zeros(1 << n, dtype=complex)
    psi[0] = 1.0
    for u, _ in ansatz_gates(n, layers, params, edges):
        psi = u @ psi
    return psi


def _pauli_noise(rho: np.ndarray, q: int, p: float, n: int) -> np.ndarray:
    px, py, pz = PAULI_SPLIT
    out = (1.0 - p) * rho
    for share, pauli in ((px, X), (py, Y), (pz, Z)):
        e = embed({q: pauli}, n)
        out = out + (p * share) * (e @ rho @ e)
    return out


def _noise_after(rho: np.ndarray, qubits, p1: float, n: int) -> np.ndarray:
    p = p1 * (TWO_QUBIT_RATIO if len(qubits) == 2 else 1.0)
    for q in qubits:
        rho = _pauli_noise(rho, q, p, n)
    return rho


def noisy_ansatz_states(n: int, layers: int, params, edges, p1: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """State and dual state of the ansatz under stochastic Pauli noise.

    The state applies each gate, then its noise.  The dual state is the
    adjoint of the noisy uncomputation applied to |0..0>: each gate is
    preceded by its noise (a Pauli channel is its own adjoint).
    """
    d = 1 << n
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    bar = rho.copy()
    for u, qubits in ansatz_gates(n, layers, params, edges):
        rho = _noise_after(u @ rho @ u.conj().T, qubits, p1, n)
        bar = _noise_after(bar, qubits, p1, n)
        bar = u @ bar @ u.conj().T
    return rho, bar


def esd_gadget_error_budget(p1: float, width: int) -> float:
    """Expected error events in a two-copy swap test gadget.

    The gadget is a Hadamard on the ancilla plus one controlled swap per
    qubit of the register, each controlled swap made of seven two-qubit
    gates; every gate carries stochastic Pauli noise on each of its qubits.
    """
    return p1 + width * 7 * 2 * TWO_QUBIT_RATIO * p1


def krylov_pencil(psi: np.ndarray, h: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free power-basis pencil of a pure state, read only at the boundary.

    Element 0 is the identity (S_00 = Tr I, H_00 = Tr H); element i >= 1 is
    the state times H^(i-1), so S_ij = <H^(i+j-2)> and H_ij = <H^(i+j-1)>,
    with the first row and column reading <H^(j-1)> and <H^j>.
    """
    d = h.shape[0]
    moments = []
    v = psi.copy()
    for _ in range(2 * m):
        moments.append(complex(np.vdot(psi, v)))
        v = h @ v
    s = np.zeros((m, m), dtype=complex)
    hm = np.zeros((m, m), dtype=complex)
    s[0, 0] = d
    hm[0, 0] = np.trace(h)
    for j in range(1, m):
        s[0, j] = s[j, 0] = moments[j - 1]
        hm[0, j] = hm[j, 0] = moments[j]
    for i in range(1, m):
        for j in range(1, m):
            s[i, j] = moments[i + j - 2]
            hm[i, j] = moments[i + j - 1]
    return s, hm


def pencil_energy(s: np.ndarray, h: np.ndarray, window: tuple[float, float],
                  threshold: float = 1e-10) -> float:
    """Lowest in-window eigenvalue of (H, S) on the well-conditioned span.

    S is scaled to a unit diagonal and truncated to eigenvalues above
    threshold times the largest, as generalized subspace expansion does.
    """
    dscale = 1.0 / np.sqrt(np.real(np.diag(s)))
    st = dscale[:, None] * s * dscale[None, :]
    ht = dscale[:, None] * h * dscale[None, :]
    st = 0.5 * (st + st.conj().T)
    ht = 0.5 * (ht + ht.conj().T)
    vals, vecs = np.linalg.eigh(st)
    keep = vals > threshold * vals[-1]
    b = vecs[:, keep] / np.sqrt(vals[keep])[None, :]
    hr = b.conj().T @ ht @ b
    e = np.linalg.eigvalsh(0.5 * (hr + hr.conj().T))
    lo, hi = window
    inside = e[(e >= lo) & (e <= hi)]
    if inside.size == 0:
        raise ValueError("no pencil eigenvalue inside the window")
    return float(inside.min())


def window(e_true: float, frac: float = 0.1) -> tuple[float, float]:
    return ((1.0 + frac) * e_true, (1.0 - frac) * e_true)
