"""Regularized generalized eigenvalue solving with energy-window selection.

The overlap matrix is first rescaled to a unit diagonal, then truncated to
the eigenvectors whose eigenvalues clear a relative threshold; the pencil is
solved on that span and the minimal eigenvalue inside the physical window is
reported.  Near-singular pencils therefore never reach the dense solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import EmptySubspaceError, NonFinitePencilError, NonHermitianOverlapError, \
    SelectionFailureError


@dataclass
class ReducedPencil:
    """Output of ``regularize``: the pencil on the retained span."""

    s_eigvals: np.ndarray      # retained eigenvalues of the scaled overlap
    h_reduced: np.ndarray      # projected Hamiltonian matrix
    basis: np.ndarray          # columns: retained eigenvectors (scaled frame)
    dscale: np.ndarray         # per-index 1/sqrt(S_ii) factors
    retained_dim: int
    lambda_min_raw: float      # smallest eigenvalue of the raw overlap
    lambda_min_scaled: float   # smallest eigenvalue of the unit-diagonal overlap


@dataclass
class GevpSolution:
    energy: float
    alpha: np.ndarray          # original-basis coefficients, alpha^dag S alpha = 1
    alpha_prime: np.ndarray    # coefficients in the unit-diagonal frame
    retained_dim: int
    lambda_min_raw: float      # smallest eigenvalue of the raw overlap
    lambda_min_scaled: float   # smallest eigenvalue of the unit-diagonal overlap


def energy_window(e_true: float, frac: float = 0.1) -> tuple[float, float]:
    """Validity band (1+frac) e < E < (1-frac) e around a negative energy."""
    if e_true >= 0:
        raise ValueError("window construction expects a negative reference energy")
    return ((1.0 + frac) * e_true, (1.0 - frac) * e_true)


def regularize(s: np.ndarray, h: np.ndarray, threshold: float) -> ReducedPencil:
    """Project the pencil onto the well-conditioned span of the overlap.

    The overlap is scaled to a unit diagonal first; eigenvalues of the scaled
    matrix above threshold * lambda_max are retained.  Indices whose diagonal
    entry is not positive are discarded outright.  A NaN or infinite entry
    raises NonFinitePencilError, a non-hermitian overlap
    NonHermitianOverlapError.
    """
    s = np.asarray(s, dtype=complex)
    h = np.asarray(h, dtype=complex)
    m = s.shape[0]
    if s.shape != (m, m) or h.shape != (m, m):
        raise ValueError("pencil matrices must be square and equally sized")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(h))):
        raise NonFinitePencilError("pencil has a NaN or infinite entry")
    herm = np.max(np.abs(s - s.conj().T))
    if herm > 1e-8 * max(1.0, float(np.max(np.abs(s)))):
        raise NonHermitianOverlapError(f"overlap not hermitian (deviation {herm:.3e})")
    lambda_min_raw = float(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[0])

    diag = np.real(np.diag(s)).copy()
    alive = diag > 0.0
    if not np.any(alive):
        raise EmptySubspaceError("all overlap diagonal entries non-positive")
    dscale = np.zeros(m)
    dscale[alive] = 1.0 / np.sqrt(diag[alive])
    d = np.diag(dscale)
    s_t = d @ s @ d
    h_t = d @ h @ d
    s_t = 0.5 * (s_t + s_t.conj().T)
    h_t = 0.5 * (h_t + h_t.conj().T)

    vals, vecs = np.linalg.eigh(s_t)
    cutoff = threshold * float(vals[-1])
    keep = vals > max(cutoff, 0.0)
    # dead diagonal indices only support spurious null directions; eigh of the
    # scaled matrix already sends them to zero eigenvalues, dropped here
    if not np.any(keep):
        raise EmptySubspaceError(
            f"no overlap eigenvalue above threshold {threshold:.3e}")
    basis = vecs[:, keep]
    s_vals = vals[keep]
    h_red = basis.conj().T @ h_t @ basis
    h_red = 0.5 * (h_red + h_red.conj().T)
    return ReducedPencil(s_vals, h_red, basis, dscale, int(np.sum(keep)),
                         lambda_min_raw, float(vals[0]))


def solve(reduced: ReducedPencil, window: tuple[float, float]) -> GevpSolution:
    """Minimal in-window eigenvalue of the reduced pencil.

    Eigenvalues outside the window are discarded; ties within 1e-12 go to the
    candidate whose coefficient vector leans hardest on the first basis
    element.  Raises SelectionFailureError when nothing lands in the window.
    """
    lo, hi = window
    s_red = np.diag(reduced.s_eigvals.astype(complex))
    vals, vecs = scipy.linalg.eigh(reduced.h_reduced, s_red)
    candidates = [(float(v), vecs[:, i]) for i, v in enumerate(vals)
                  if np.isfinite(v) and lo <= float(v) <= hi]
    if not candidates:
        raise SelectionFailureError(
            f"no eigenvalue in window [{lo:.6g}, {hi:.6g}]")
    candidates.sort(key=lambda t: t[0])
    best = [c for c in candidates if c[0] <= candidates[0][0] + 1e-12]
    if len(best) > 1:
        best.sort(key=lambda t: -abs((reduced.basis @ t[1])[0]))
    e, beta = best[0]

    alpha_prime = reduced.basis @ beta
    alpha = reduced.dscale * alpha_prime
    # scipy normalizes beta^dag S_red beta = 1 already; renormalize defensively
    norm = np.real(np.vdot(beta, s_red @ beta))
    if norm > 0:
        alpha = alpha / np.sqrt(norm)
        alpha_prime = alpha_prime / np.sqrt(norm)
    # deterministic global phase
    k = int(np.argmax(np.abs(alpha))) if np.any(np.abs(alpha) > 0) else 0
    if abs(alpha[k]) > 0:
        phase = alpha[k] / abs(alpha[k])
        alpha = alpha / phase
        alpha_prime = alpha_prime / phase
    return GevpSolution(float(e), alpha, alpha_prime, reduced.retained_dim,
                        reduced.lambda_min_raw, reduced.lambda_min_scaled)


def solve_pencil(s: np.ndarray, h: np.ndarray, window: tuple[float, float],
                 threshold: float) -> GevpSolution:
    """Convenience wrapper: regularize then solve."""
    return solve(regularize(s, h, threshold), window)
