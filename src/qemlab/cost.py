"""Analytic sampling-overhead metrics for the mitigation pipeline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def dc_overhead(alpha_prime: np.ndarray) -> float:
    """Quartic two-norm of the diagonal-frame coefficients.

    This is the block-recombination overhead factor: the shot budget needed
    to hold a target bias grows with it.
    """
    return float(np.linalg.norm(alpha_prime) ** 4)


def cost_metric(m: int, q: int, alpha_prime: np.ndarray) -> float:
    """Sampling-cost comparator M^2 Q ||alpha'||_2^4.

    The Hamiltonian-weight and target-bias factors are common across
    constructions on the same problem and are left out.
    """
    return float(m * m * q * dc_overhead(alpha_prime))


@dataclass(frozen=True)
class PostselectBound:
    lambda_min: float
    hadamard_bound: float
    ns_scaling: float


def postselect_bound(s: np.ndarray, gamma: float, m: int) -> PostselectBound:
    """Spectral floor of the overlap and the shot-cost proxy it implies.

    hadamard_bound is the geometric mean of the diagonal, an upper bound on
    the smallest eigenvalue; ns_scaling = 16 gamma^2 M^2 / lambda_min^2 with
    the target bias factored out.
    """
    s = np.asarray(s, dtype=complex)
    lam_min = float(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[0])
    diag = np.real(np.diag(s))
    bound = float(np.prod(diag) ** (1.0 / m)) if np.all(diag > 0) else float("nan")
    scaling = 16.0 * gamma * gamma * m * m / (lam_min * lam_min) if lam_min > 0 else float("inf")
    return PostselectBound(lam_min, bound, scaling)

