"""Finite-shot modeling: single-shot variances and Gaussian query noise.

Shot statistics never enter the circuit simulations themselves.  Every
measurement query carries an exact single-shot variance and is perturbed by
a Gaussian of width sqrt(var / shots-per-query), the budget split equally
over the unique queries.  Sampling reads the slots, values and term lists
that ``SubspaceMatrices`` lowers once per build.  Sample k draws every query
the pencil reads, in slot order, with one ``normal`` call from
``default_rng([seed, k])``, which consumes the stream as one scalar draw per
query would, so every matrix element that reuses a query moves with it.  A
stack of samples is assembled in one pass over the terms and solved by
``gevp.stack_energies``: scaling and the overlap ``eigh`` run over the stack,
and the reduced solve over each group of samples that keep the same retained
dimension, each sample rounding as it would alone.  The arithmetic runs
across samples, never across terms: a sum over terms rounds in another order,
and the ill-conditioned pencils (unit-diagonal lambda_min 1.76e-5 at M = 3 on
path-8) carry that into the 12 digits the CSVs print.  The exact pencil is
the same assembly over the exact values.

The DSP variances of one state pair are computed in one pass
(``var_dsp_many``): the trace product behind each is formed once per X mask
and only re-signed per string, which leaves every summand and the order of
the sum, and so the rounding, as in the dense sandwich.  Their means are
read in one ``expect_paulis`` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyDistributionError
from .gevp import stack_energies
from .pauli import _axes_to_masks, expect_paulis, parity_signs


def var_dsp(rho: np.ndarray, bar: np.ndarray, axes: str,
            rb: np.ndarray | None = None) -> float:
    """Single-shot variance of one Pauli reading through the uncompute test.

    Var = Tr[(rho bar + rho P bar P)/2] - Tr[(bar rho + rho bar)/2 P]^2.
    The one-string case of ``var_dsp_many``; rb is the product rho @ bar.
    """
    return var_dsp_many(rho, bar, [axes], rb)[0]


def var_dsp_many(rho: np.ndarray, bar: np.ndarray, axes_list: Sequence[str],
                 rb: np.ndarray | None = None) -> list[float]:
    """``var_dsp`` of every string in axes_list against one (rho, bar) pair.

    Tr[rho P bar P] sums rho[i, j] bar[j^x, i^x] s_i s_j over (i, j), with
    s_i = (-1)^{|i & z|}: the Y phases of P bar P cancel against s_{j^x}.  So
    the product is formed once per X mask, and each string sums a copy of it
    with its signs flipped.  Flipping a sign is exact, so every summand and
    the pairwise order of ``np.sum`` are those of the dense sandwich.
    """
    if rb is None:
        rb = rho @ bar
    means = expect_paulis(rb, axes_list)
    trace = np.real(np.trace(rb))
    d = rho.shape[0]
    n = d.bit_length() - 1
    idx = np.arange(d)
    sign = parity_signs(n).astype(float)  # (-1)^{|i & z|} is sign[i & z]
    by_mask: dict[int, list[tuple[int, int]]] = {}
    for k, axes in enumerate(axes_list):
        x, z = _axes_to_masks(axes)
        by_mask.setdefault(x, []).append((k, z))
    # as tensors with one axis per bit (qubit n-1 first), XOR by x reverses
    # the axes of x's bits and the transpose swaps row and column bits, so
    # bar[j^x, i^x] is a view and the two buffers are the only d x d arrays
    shape, swap = (2,) * (2 * n), [*range(n, 2 * n), *range(n)]
    prod, signed = np.empty((d, d), dtype=complex), np.empty((d, d), dtype=complex)
    out = [0.0] * len(axes_list)
    for x, group in by_mask.items():
        flip = tuple(slice(None, None, -1) if x >> (n - 1 - a) & 1 else slice(None)
                     for a in range(n))
        # rho stays the left factor, as in the dense form: numpy's complex
        # product is not bitwise commutative
        np.multiply(rho.reshape(shape), bar.reshape(shape)[flip + flip].transpose(swap),
                    out=prod.reshape(shape))
        for k, z in group:
            s = sign[idx & z]
            np.multiply(prod, s[:, None], out=signed)
            signed *= s
            mean = float(np.real(means[k]))
            second = 0.5 * float(trace + np.real(complex(np.sum(signed))))
            out[k] = float(max(second - mean * mean, 0.0))
    return out


def var_pauli_state(value: float) -> float:
    """Single-shot variance of a plain +-1 Pauli measurement with this mean."""
    return float(max(1.0 - value * value, 0.0))


def var_product(mean_a: float, var_a: float, mean_b: float, var_b: float) -> float:
    """Variance of a product of two independent estimators."""
    if var_a < 0 or var_b < 0:
        raise ValueError("variances must be non-negative")
    return float(var_a * var_b + var_a * mean_b * mean_b + var_b * mean_a * mean_a)


def var_product_chain(means_vars) -> float:
    """Fold var_product over a sequence of (mean, var) pairs."""
    mean, var = 1.0, 0.0
    for m, v in means_vars:
        var = var_product(mean, var, m, v)
        mean = mean * m
    return var


_STACK = 1024  # samples per assembled stack, which bounds memory by slots x _STACK


@dataclass(frozen=True)
class ShotConfig:
    """Total shot budget and sampling controls."""

    ns: float
    n_samples: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        n = self.n_samples
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ConfigError(f"n_samples must be a positive integer, got {n!r}")
        ns = self.ns
        if (isinstance(ns, bool) or not isinstance(ns, (int, float, np.integer, np.floating))
                or not ns > 0):
            raise ConfigError(f"shot budget ns must be a positive number, got {ns!r}")


@dataclass
class EnergyDistribution:
    samples: np.ndarray
    mean: float
    stddev: float
    rejections: int


def _widths(matrices, cfg: ShotConfig) -> np.ndarray:
    """The noise width of each query the pencil reads, in slot order."""
    if not matrices.with_variances:
        raise ConfigError("pencil was built without variances, which shot noise needs")
    q = len(matrices.queries)
    if q == 0:
        return np.zeros(0)
    if cfg.ns < q:
        raise ConfigError(f"shot budget {cfg.ns} below one shot per query ({q})")
    return np.sqrt(matrices.var[list(matrices.queries.values())] / (cfg.ns / q))


def _draw(matrices, sd: np.ndarray, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of perturbed S and H, one sample per generator."""
    slots = list(matrices.queries.values())
    re = np.stack([rng.normal(0.0, sd) for rng in rngs], axis=1)
    re += matrices.value.real[slots, None]
    im = (matrices.value.imag + 0.0).tolist()  # as complex + float
    n = re.shape[1]  # one sample reads plain floats, sparing numpy's call overhead
    rows = [None] * len(im)  # a slot the pencil does not read stays None
    for k, row in zip(slots, list(re) if n > 1 else re[:, 0].tolist()):
        rows[k] = row
    return matrices.assemble(rows, im, n)


def perturb(matrices, cfg: ShotConfig, rng: np.random.Generator):
    """One Gaussian-perturbed (S, H) sample drawn from rng.

    The one-sample case of ``sample_distribution``: shots are split equally
    over the unique queries, and one draw per query is shared by every matrix
    element that reuses it.
    """
    s, h = _draw(matrices, _widths(matrices, cfg), [rng])
    return s[0], h[0]


def sample_distribution(matrices, cfg: ShotConfig, window: tuple[float, float],
                        threshold: float | None = None) -> EnergyDistribution:
    """Sample the mitigated-energy distribution under finite shots.

    Sample k draws from ``default_rng([seed, k])`` and is solved as
    ``solve_pencil`` would solve it alone; failed window selections and empty
    truncations are counted as rejections and excluded from the moments.
    """
    if threshold is None:
        threshold = 10.0 / np.sqrt(cfg.ns)
    sd = _widths(matrices, cfg)
    energies = []
    for start in range(0, cfg.n_samples, _STACK):
        rngs = [np.random.default_rng([cfg.seed, k])
                for k in range(start, min(start + _STACK, cfg.n_samples))]
        energies.append(stack_energies(*_draw(matrices, sd, rngs), window, threshold))
    arr = np.concatenate(energies)
    solved = ~np.isnan(arr)
    if not np.any(solved):
        raise EmptyDistributionError(f"every sample was rejected at M {matrices.m}, "
                                     f"ns {cfg.ns:g}, n_samples {cfg.n_samples}")
    arr = arr[solved]
    return EnergyDistribution(arr, float(arr.mean()), float(arr.std()), int(np.sum(~solved)))
