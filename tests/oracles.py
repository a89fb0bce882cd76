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
