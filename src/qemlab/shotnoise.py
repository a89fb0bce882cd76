"""Finite-shot modeling: single-shot variances and Gaussian query noise.

Shot statistics never enter the circuit simulations themselves.  Every
measurement query carries an exact single-shot variance and is perturbed by
a Gaussian of width sqrt(var / shots-per-query), the budget split equally
over the unique queries.  Sampling compiles the pencil's ledger once per call
(``SubspaceMatrices.compile``).  Sample k then draws every slot with one
``normal`` call from ``default_rng([seed, k])``, which consumes the stream as
one scalar draw per slot would; a slot is a query, so reused queries move
together, or in the per-element mode one use.  A stack of samples is
assembled in one pass over the terms and each sample is solved on its own.
The arithmetic runs across samples, never across terms: a sum over terms
rounds in another order, and the ill-conditioned pencils (unit-diagonal
lambda_min 1.76e-5 at M = 3 on path-8) carry that into the 12 digits the CSVs
print.  The exact pencil is the same assembly over the exact values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, EmptyDistributionError, EmptySubspaceError, \
    SelectionFailureError
from .gevp import solve_pencil
from .pauli import expect_pauli, sandwich_pauli


def _tr_prod(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.sum(a * b.T))


def var_dsp(rho: np.ndarray, bar: np.ndarray, axes: str,
            rb: np.ndarray | None = None) -> float:
    """Single-shot variance of one Pauli reading through the uncompute test.

    Var = Tr[(rho bar + rho P bar P)/2] - Tr[(bar rho + rho bar)/2 P]^2.
    Callers evaluating many observables against one state pair can pass the
    product rho @ bar to avoid recomputing it.
    """
    if rb is None:
        rb = rho @ bar
    mean = float(np.real(expect_pauli(rb, axes)))
    second = 0.5 * float(np.real(np.trace(rb))
                         + np.real(_tr_prod(rho, sandwich_pauli(bar, axes))))
    return float(max(second - mean * mean, 0.0))


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
    per_element: bool = False

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


def _compile(matrices, cfg: ShotConfig):
    """The ledger in cfg's sampling mode, with each slot's noise width."""
    if not matrices.with_variances:
        raise ConfigError("pencil was built without variances, which shot noise needs")
    ledger = matrices.compile(per_use=cfg.per_element)
    q = len(ledger.keys)
    if q == 0:
        return ledger, np.zeros(0)
    if cfg.ns < q:
        raise ConfigError(f"shot budget {cfg.ns} below one shot per query ({q})")
    return ledger, np.sqrt(ledger.var[ledger.slot_query] / (cfg.ns / q))


def _draw(ledger, sd: np.ndarray, rngs) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of perturbed S and H, one sample per generator."""
    re = np.stack([rng.normal(0.0, sd) for rng in rngs], axis=1)
    re += ledger.value.real[ledger.slot_query][:, None]
    im = (ledger.value.imag[ledger.slot_query] + 0.0).tolist()  # as complex + float
    n = re.shape[1]  # one sample reads plain floats, sparing numpy's call overhead
    return ledger.assemble(list(re) if n > 1 else re[:, 0].tolist(), im, n)


def perturb(matrices, cfg: ShotConfig, rng: np.random.Generator):
    """One Gaussian-perturbed (S, H) sample drawn from rng.

    The one-sample case of ``sample_distribution``: shots are split equally
    over the unique queries, and by default one draw per query is shared by
    every matrix element that reuses it; the per-element switch draws
    independently at each use instead.
    """
    ledger, sd = _compile(matrices, cfg)
    s, h = _draw(ledger, sd, [rng])
    return s[0], h[0]


def sample_distribution(matrices, cfg: ShotConfig, window: tuple[float, float],
                        threshold: float | None = None) -> EnergyDistribution:
    """Sample the mitigated-energy distribution under finite shots.

    Sample k draws from ``default_rng([seed, k])`` and is solved on its own;
    failed window selections and empty truncations are counted as rejections
    and excluded from the moments.
    """
    if threshold is None:
        threshold = 10.0 / np.sqrt(cfg.ns)
    ledger, sd = _compile(matrices, cfg)
    energies = []
    rejections = 0
    for start in range(0, cfg.n_samples, _STACK):
        rngs = [np.random.default_rng([cfg.seed, k])
                for k in range(start, min(start + _STACK, cfg.n_samples))]
        for s, h in zip(*_draw(ledger, sd, rngs)):
            try:
                sol = solve_pencil(s, h, window, threshold)
            except (SelectionFailureError, EmptySubspaceError):
                rejections += 1
                continue
            energies.append(sol.energy)
    if not energies:
        raise EmptyDistributionError("every sample was rejected")
    arr = np.array(energies)
    return EnergyDistribution(arr, float(arr.mean()), float(arr.std()), rejections)
