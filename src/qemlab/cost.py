"""Analytic sampling-overhead metrics for the mitigation pipeline.

The cost scenarios report the comparator M^2 Q ||alpha'||^4.  The spectral
floor of the overlap and the shot-cost proxy it implies are test references
only, in ``tests/oracles.py`` (``postselect_bound``).
"""

from __future__ import annotations

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
