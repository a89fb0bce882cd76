"""Regularized generalized eigenvalue solving with energy-window selection.

The overlap matrix is first rescaled to a unit diagonal, then truncated to
the eigenvectors whose eigenvalues clear a relative threshold; the pencil is
solved on that span and the minimal eigenvalue inside the physical window is
reported.  Near-singular pencils therefore never reach the dense solver.

The reduced overlap is diagonal, diag(s), so the reduced pencil is solved as
the standard problem of w h w with w = 1/sqrt(s), and its eigenvectors y map
back as beta = w y, which keeps beta^dag S_red beta = 1.

A stack of sampled pencils (``stack_energies``) is validated, scaled and
diagonalized in one batched ``eigh``.  The retained set is the top-r suffix
of the ascending overlap eigenvalues, so the samples are grouped by r and
each group is projected and solved with one stacked ``matmul`` and one
``eigh``; the window selection is an array operation, and only a tie falls
back to a loop.  Batched ``matmul`` and ``eigh`` call the same routine per
matrix, so the rounding is that of one pencil solved alone.  The one-pencil
``solve_pencil`` runs the same steps on a stack of one, then normalizes the
selected coefficient vector and fixes its global phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptySubspaceError, NonFinitePencilError, NonHermitianOverlapError, \
    SelectionFailureError


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


def _retained_dims(vals: np.ndarray, threshold: float) -> np.ndarray:
    """How many eigenvalues of each scaled overlap clear threshold * lambda_max.

    ``eigh`` returns them ascending, so the retained ones are the top-r suffix.
    Dead diagonal indices only support spurious null directions; the scaling
    already sends them to zero eigenvalues, which never clear the cut.
    """
    cutoff = np.maximum(threshold * vals[:, -1], 0.0)
    return np.sum(vals > cutoff[:, None], axis=1)


def _retain(vals: np.ndarray, vecs: np.ndarray, h_t: np.ndarray, r: int):
    """Stacks of the top-r eigenvectors of each scaled overlap and H projected
    on them: (retained eigenvalues, reduced H, basis)."""
    # each basis column-major, the layout that masking vecs[:, keep] gives:
    # basis @ beta rounds differently on a row-major copy, which would move
    # the last digits of alpha
    basis = np.ascontiguousarray(vecs[:, :, -r:].swapaxes(1, 2)).swapaxes(1, 2)
    h_red = basis.conj().swapaxes(1, 2) @ h_t @ basis
    return vals[:, -r:], 0.5 * (h_red + h_red.conj().swapaxes(1, 2)), basis


def _lowest_in_window(s_vals: np.ndarray, h_red: np.ndarray, basis: np.ndarray,
                      window: tuple[float, float]):
    """Minimal in-window eigenpair of each reduced pencil (h_red, diag(s_vals)).

    Takes stacks of one retained dimension r and returns (pick, vals, beta):
    the eigenvalues and eigenvectors of every pencil, and per pencil the
    index of the selected one, or -1 when nothing lands in the window.  Ties
    within 1e-12 go to the candidate whose coefficient vector leans hardest
    on the first basis element.
    """
    lo, hi = window
    w = 1.0 / np.sqrt(s_vals)
    vals, y = np.linalg.eigh(w[:, :, None] * h_red * w[:, None, :])
    beta = w[:, :, None] * y
    inside = np.isfinite(vals) & (lo <= vals) & (vals <= hi)
    pick = np.where(inside.any(axis=1), np.argmax(inside, axis=1), -1)
    lowest = vals[np.arange(len(vals)), pick]
    near = inside & (vals <= lowest[:, None] + 1e-12)
    for k in np.flatnonzero(near.sum(axis=1) > 1):
        cand = np.flatnonzero(near[k])
        lean = [abs((basis[k] @ beta[k][:, i])[0]) for i in cand]
        pick[k] = cand[int(np.argmax(lean))]
    return pick, vals, beta


def solve_pencil(s: np.ndarray, h: np.ndarray, window: tuple[float, float],
                 threshold: float) -> GevpSolution:
    """Minimal in-window eigenvalue of the pencil on the well-conditioned span
    of its overlap.

    The overlap is scaled to a unit diagonal first; eigenvalues of the scaled
    matrix above threshold * lambda_max are retained, and indices whose
    diagonal entry is not positive are discarded outright.  Eigenvalues
    outside the window are discarded; ties within 1e-12 go to the candidate
    whose coefficient vector leans hardest on the first basis element.  A
    NaN or infinite entry raises NonFinitePencilError, a non-hermitian
    overlap NonHermitianOverlapError, an empty truncation EmptySubspaceError
    and an empty window SelectionFailureError.
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
    r = int(_retained_dims(vals, threshold)[0])
    if r == 0:
        raise EmptySubspaceError(
            f"no overlap eigenvalue above threshold {threshold:.3e}")
    s_vals, h_red, basis = _retain(vals, vecs, h_t, r)
    pick, energies, betas = _lowest_in_window(s_vals, h_red, basis, window)
    i = int(pick[0])
    if i < 0:
        lo, hi = window
        raise SelectionFailureError(f"no eigenvalue in window [{lo:.6g}, {hi:.6g}] of the "
                                    f"size-{m} pencil at retained dimension {r}")
    beta = betas[0, :, i]

    alpha_prime = basis[0] @ beta
    alpha = dscale[0] * alpha_prime
    # beta = w y has beta^dag S_red beta = 1 only up to rounding; dropping the
    # renormalization would move alpha's last digits
    norm = np.real(np.vdot(beta, np.diag(s_vals[0].astype(complex)) @ beta))
    if norm > 0:
        alpha = alpha / np.sqrt(norm)
        alpha_prime = alpha_prime / np.sqrt(norm)
    # deterministic global phase
    k = int(np.argmax(np.abs(alpha))) if np.any(np.abs(alpha) > 0) else 0
    if abs(alpha[k]) > 0:
        phase = alpha[k] / abs(alpha[k])
        alpha = alpha / phase
        alpha_prime = alpha_prime / phase
    return GevpSolution(float(energies[0, i]), alpha, alpha_prime, r, lambda_min_raw,
                        float(vals[0, 0]))


def stack_energies(s: np.ndarray, h: np.ndarray, window: tuple[float, float],
                   threshold: float) -> np.ndarray:
    """``solve_pencil(s[k], h[k], ...).energy`` for every pencil of (n, m, m) stacks.

    NaN marks a pencil whose truncation came out empty or whose window held
    no eigenvalue (a solved energy is always finite).  Validation, scaling
    and the overlap ``eigh`` run once over the stack; the pencils are then
    grouped by retained dimension, and each group is projected, solved and
    selected as one stack.  Each result is bit-equal to the one-pencil
    solve, and the earliest malformed pencil raises its typed error.
    """
    alive, _, vals, vecs, h_t = _unit_diagonal(s, h)
    dims = np.where(alive, _retained_dims(vals, threshold), 0)
    out = np.full(len(s), np.nan)
    # np.unique would import numpy.ma (about 15 ms) on its first call
    for r in sorted(set(dims[dims > 0].tolist())):
        rows = np.flatnonzero(dims == r)
        pick, e, _ = _lowest_in_window(*_retain(vals[rows], vecs[rows], h_t[rows], r), window)
        hit = np.flatnonzero(pick >= 0)
        out[rows[hit]] = e[hit, pick[hit]]
    return out
