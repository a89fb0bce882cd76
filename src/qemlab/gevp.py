"""Regularized generalized eigenvalue solving with energy-window selection.

The overlap matrix is first rescaled to a unit diagonal, then truncated to
the eigenvectors whose eigenvalues clear a relative threshold; the pencil is
solved on that span and the minimal eigenvalue inside the physical window is
reported.  Near-singular pencils therefore never reach the dense solver.

A stack of sampled pencils (``stack_energies``) is validated, scaled and
diagonalized in one batched ``eigh``; the threshold cut, the reduced solve
and the window selection stay per pencil.  Batched ``matmul`` and ``eigh``
call the same routine per matrix, so the rounding is that of one pencil
solved alone, and ``regularize`` is the one-pencil case of the same code.
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


def _unit_diagonal(s: np.ndarray, h: np.ndarray):
    """Validate (n, m, m) stacks and rescale each overlap to a unit diagonal.

    Returns per-sample (alive, dscale, eigenvalues, eigenvectors, scaled H):
    alive says that some diagonal entry of S is positive.  The earliest
    sample with a NaN or infinite entry, or with an overlap that is not
    hermitian at its own scale, raises.  Every step is elementwise or one
    matrix at a time (stacked matmul and ``eigh`` call the same routine per
    matrix), so each sample rounds as it would alone.
    """
    finite = np.isfinite(s).all(axis=(1, 2)) & np.isfinite(h).all(axis=(1, 2))
    with np.errstate(invalid="ignore"):  # inf - inf in samples that raise anyway
        herm = np.abs(s - s.conj().swapaxes(1, 2)).max(axis=(1, 2))
    bad_herm = herm > 1e-8 * np.maximum(1.0, np.abs(s).max(axis=(1, 2)))
    bad = ~finite | bad_herm
    if np.any(bad):
        k = int(np.argmax(bad))
        if not finite[k]:
            raise NonFinitePencilError(f"pencil {k} of {len(s)} has a NaN or infinite entry")
        raise NonHermitianOverlapError(
            f"overlap {k} of {len(s)} not hermitian (deviation {herm[k]:.3e})")

    n, m, _ = s.shape
    idx = np.arange(m)
    diag = s.real[:, idx, idx]
    alive = diag > 0.0
    dscale = np.zeros((n, m))
    dscale[alive] = 1.0 / np.sqrt(diag[alive])
    d = np.zeros((n, m, m))
    d[:, idx, idx] = dscale
    s_t = d @ s @ d
    h_t = d @ h @ d
    s_t = 0.5 * (s_t + s_t.conj().swapaxes(1, 2))
    h_t = 0.5 * (h_t + h_t.conj().swapaxes(1, 2))
    vals, vecs = np.linalg.eigh(s_t)
    return alive.any(axis=1), dscale, vals, vecs, h_t


def _retain(vals: np.ndarray, vecs: np.ndarray, h_t: np.ndarray, threshold: float):
    """The eigenvectors of one scaled overlap above threshold * lambda_max,
    and H projected on them: (retained eigenvalues, reduced H, basis)."""
    cutoff = threshold * float(vals[-1])
    keep = vals > max(cutoff, 0.0)
    # dead diagonal indices only support spurious null directions; eigh of the
    # scaled matrix already sends them to zero eigenvalues, dropped here
    if not np.any(keep):
        raise EmptySubspaceError(
            f"no overlap eigenvalue above threshold {threshold:.3e}")
    basis = vecs[:, keep]
    h_red = basis.conj().T @ h_t @ basis
    return vals[keep], 0.5 * (h_red + h_red.conj().T), basis


def _lowest_in_window(s_red: np.ndarray, h_red: np.ndarray, basis: np.ndarray,
                      window: tuple[float, float]) -> tuple[float, np.ndarray]:
    """Minimal in-window eigenpair of the reduced pencil (h_red, s_red).

    Ties within 1e-12 go to the candidate whose coefficient vector leans
    hardest on the first basis element.  Raises SelectionFailureError when
    nothing lands in the window.
    """
    lo, hi = window
    vals, vecs = scipy.linalg.eigh(h_red, s_red)
    candidates = [(float(v), vecs[:, i]) for i, v in enumerate(vals)
                  if np.isfinite(v) and lo <= float(v) <= hi]
    if not candidates:
        raise SelectionFailureError(
            f"no eigenvalue in window [{lo:.6g}, {hi:.6g}]")
    candidates.sort(key=lambda t: t[0])
    best = [c for c in candidates if c[0] <= candidates[0][0] + 1e-12]
    if len(best) > 1:
        best.sort(key=lambda t: -abs((basis @ t[1])[0]))
    return best[0]


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
    alive, dscale, vals, vecs, h_t = _unit_diagonal(s[None], h[None])
    lambda_min_raw = float(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[0])
    if not alive[0]:
        raise EmptySubspaceError("all overlap diagonal entries non-positive")
    s_vals, h_red, basis = _retain(vals[0], vecs[0], h_t[0], threshold)
    return ReducedPencil(s_vals, h_red, basis, dscale[0], len(s_vals),
                         lambda_min_raw, float(vals[0][0]))


def solve(reduced: ReducedPencil, window: tuple[float, float]) -> GevpSolution:
    """Minimal in-window eigenvalue of the reduced pencil.

    Eigenvalues outside the window are discarded; ties within 1e-12 go to the
    candidate whose coefficient vector leans hardest on the first basis
    element.  Raises SelectionFailureError when nothing lands in the window.
    """
    s_red = np.diag(reduced.s_eigvals.astype(complex))
    e, beta = _lowest_in_window(s_red, reduced.h_reduced, reduced.basis, window)

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


def stack_energies(s: np.ndarray, h: np.ndarray, window: tuple[float, float],
                   threshold: float) -> np.ndarray:
    """``solve_pencil(s[k], h[k], ...).energy`` for every pencil of (n, m, m) stacks.

    NaN marks a pencil whose truncation came out empty or whose window held
    no eigenvalue (a solved energy is always finite).  Validation, scaling
    and the overlap ``eigh`` run once over the stack; the threshold cut, the
    reduced solve and the selection run per pencil.  Each result is bit-equal
    to the one-pencil solve, and the earliest malformed pencil raises its
    typed error.
    """
    alive, _, vals, vecs, h_t = _unit_diagonal(s, h)
    out = np.full(len(s), np.nan)
    for k in np.flatnonzero(alive):
        try:
            s_vals, h_red, basis = _retain(vals[k], vecs[k], h_t[k], threshold)
            e, _ = _lowest_in_window(np.diag(s_vals.astype(complex)), h_red, basis, window)
        except (SelectionFailureError, EmptySubspaceError):
            continue
        out[k] = e
    return out
