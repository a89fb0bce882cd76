"""Dense reference helpers shared by more than one test module."""

import numpy as np

from qemlab.errors import SizeMismatchError
from qemlab.pauli import _axes_to_masks, parity_signs


def sandwich_pauli(a: np.ndarray, axes: str) -> np.ndarray:
    """P a P for a unit-coefficient string, by index gathers."""
    n = len(axes)
    d = 1 << n
    if a.shape != (d, d):
        raise SizeMismatchError(f"operator dim {a.shape} vs {n} qubits")
    x, z = _axes_to_masks(axes)
    idx = np.arange(d)
    signs = parity_signs(n)[idx & z].astype(complex)
    perm = idx ^ x
    # (P A P)_{ij} = i^{2#Y} (-1)^{|(i^x)&z| + |j&z|} A[i^x, j^x]
    out = a[np.ix_(perm, perm)] * np.outer(signs[perm], signs)
    if (x & z).bit_count() % 2:
        out = -out
    return out


class FullRegisterEsd:
    """The copy-based estimator run whole on the full register.

    Every copy is prepared on its own qubits of the (n w + 1)-qubit register,
    the gadget follows, and each observable's tail runs on the full state.
    The reference for ``EsdEvaluator``, which tensors one copy's state and
    runs each tail on a reduced register.
    """

    def __init__(self, circ, n_copies, gadget_noise=None, gadget_seed=0):
        from qemlab.circuits import run
        from qemlab.purification import _Builder, _offset_ops

        self.w, self.noise, self.seed = circ.n, gadget_noise, gadget_seed
        self.total = n_copies * self.w + 1
        self.anc = self.total - 1
        b = _Builder(self.total, gadget_noise, gadget_seed)
        for k in range(n_copies):
            b.raw(_offset_ops(circ, k * self.w))
        b.hadamard(self.anc)
        b.controlled_shift(self.anc, n_copies, self.w)
        self.mid = run(b.circ)

    def numerator(self, obs):
        from qemlab.circuits import apply
        from qemlab.pauli import PauliTerm
        from qemlab.purification import _anc_xy, _Builder

        rho = self.mid
        if obs is not None and not obs.is_identity:
            b = _Builder(self.total, self.noise, self.seed + 1)
            b.controlled_pauli(self.anc, PauliTerm(obs.axes, 1.0), 0, polarity=1)
            rho = apply(b.circ, rho)
        return float(np.real(_anc_xy(rho, self.total, range(self.total - 1))))


def dsp_whole_circuit(circ, obs, gadget_noise=None, out_circuit=None, gadget_seed=0):
    """(numerator, p0) with the observable's whole ancilla circuit run from |0..0>.

    The reference for ``DspEvaluator``, which runs the shared prefix once.
    """
    from qemlab.circuits import Circuit, reversed_circuit, run
    from qemlab.purification import _anc_xy, dsp_circuit

    out = reversed_circuit(circ) if out_circuit is None else out_circuit
    p0 = float(np.real(run(Circuit(circ.n, list(circ.ops) + list(out.ops)))[0, 0]))
    if obs.is_identity:
        return float(np.real(complex(obs.coeff))) * p0, p0
    full = dsp_circuit(circ, obs, out, gadget_noise, gadget_seed)
    rho = run(full)
    return float((complex(obs.coeff) * np.real(_anc_xy(rho, full.n, ()))).real), p0
