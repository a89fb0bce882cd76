"""Finite-shot modeling: single-shot variances and Gaussian query noise.

Shot statistics never enter the circuit simulations themselves.  Every
measurement query carries an exact single-shot variance and is perturbed by
a Gaussian of width sqrt(var / shots-per-query), the budget split equally
over the unique queries.  Sampling reads the slots, values and term lists
that ``SubspaceMatrices`` lowers once per build.  Sample k moves the q
queries the pencil reads, in slot order, by sd * z[:q], where z is the
stream of standard normals of ``default_rng([seed, k])``, so every matrix
element that reuses a query moves with it.  The normals depend on (seed, k)
alone, so they are drawn once per build, Q of them per sample (the full
build's ledger size), kept in ``SubspaceMatrices.normals`` and shared by
every budget and every ``leading`` block.  The result is bit-equal to one
``normal(0.0, sd)`` call per sample and call: numpy forms that entry by
entry as 0.0 + sd * z from the same sequential stream, and so does the
sampler.  A stack of samples is assembled in one pass over the terms and
solved by ``gevp.stack_energies``: scaling and the overlap ``eigh`` run over
the stack, and the reduced solve over each group of samples that keep the
same retained dimension, each sample rounding as it would alone.  The
arithmetic runs across samples, never across terms: a sum over terms rounds
in another order, and the ill-conditioned pencils (unit-diagonal lambda_min
1.76e-5 at M = 3 on path-8) carry that into the 12 digits the CSVs print.
The exact pencil is the same assembly over the exact values.

The DSP variances of one state pair come from one Walsh-Hadamard
transform (``var_dsp_many``), which gives Tr[rho P bar P] for any set of
strings in O(d^2 log d); their means are read with the same parsed masks
as ``expect_paulis`` reads them.  The transform sums in another order than
the dense sandwich, so a variance may differ from it in the last bit (by at
most 2.2e-16, one ulp near 1, in the tests' measurements); the CSVs are
unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, EmptyDistributionError, SizeMismatchError
from .gevp import stack_energies
from .pauli import _expect_masks, _string_masks


def var_dsp(rho: np.ndarray, bar: np.ndarray, axes: str,
            rb: np.ndarray | None = None) -> float:
    """Single-shot variance of one Pauli reading through the uncompute test.

    Var = Tr[(rho bar + rho P bar P)/2] - Tr[(bar rho + rho bar)/2 P]^2.
    The one-string case of ``var_dsp_many``; rb is the product rho @ bar.
    """
    return var_dsp_many(rho, bar, [axes], rb)[0]


#: Complex entries in one block of columns of ``var_dsp_many``'s R and Q.
_BLOCK = 1 << 13


def var_dsp_many(rho: np.ndarray, bar: np.ndarray, axes_list: Sequence[str],
                 rb: np.ndarray | None = None) -> list[float]:
    """``var_dsp`` of every string in axes_list against one (rho, bar) pair.

    Tr[rho P bar P] sums rho[i, j] bar[j^x, i^x] s_i s_j over (i, j), with
    s_i = (-1)^{|i & z|}: the Y phases of P bar P cancel against s_{j^x}.
    With k = i^j it is sum_k (-1)^{|k & z|} c_x[k], where c_x[k] =
    sum_i R[i, k] Q[i^x, k], R[i, k] = rho[i, i^k] and Q[m, k] = bar[m^k, m].
    An XOR correlation along axis 0 and a sign sum along axis 1 are both
    unnormalized Walsh-Hadamard transforms H, so C = H((H R) * (H Q)) / d and
    each string reads T = C H at [x, z]: O(d^2 log d) for the pair, whatever
    the number of strings.  C's column k needs only column k of R and Q, so
    they are built and transformed a block of columns at a time, and only
    C's rows at the strings' X masks are kept: the transform holds no d x d
    array.  The means are read from rb (rho @ bar) as ``expect_paulis``
    reads them, from the masks parsed once for both.  The transform sums in
    another order than the dense sandwich, so a variance may differ from it
    in the last bit (at most 2.2e-16 measured).  Raises ``SizeMismatchError``
    when rho, bar, rb and the strings disagree in size.
    """
    if not axes_list:
        return []
    n = len(axes_list[0])
    d = 1 << n
    shapes = {"rho": rho.shape, "bar": bar.shape}
    if rb is not None:
        shapes["rb"] = rb.shape
    if any(s != (d, d) for s in shapes.values()) or any(len(a) != n for a in axes_list):
        raise SizeMismatchError(
            ", ".join(f"{k} {v}" for k, v in shapes.items())
            + f" against strings of lengths {sorted({len(a) for a in axes_list})}")
    if rb is None:
        rb = rho @ bar
    x, z = _string_masks(axes_list)
    means = _expect_masks(rb, x, z).real
    trace = np.real(np.trace(rb))
    masks, row = np.unique(x, return_inverse=True)
    cols = min(d, max(1, _BLOCK // d))
    # flat indices of R's and Q's first block; the block at column k0 (a
    # multiple of cols) XORs them with k0 and k0 d, as i ^ k0 ^ b = (i ^ b) ^ k0
    i, b = np.arange(d)[:, None], np.arange(cols)
    at_r, at_q = (i * d) ^ i ^ b, ((i ^ b) * d) ^ i
    flat_rho = np.ascontiguousarray(rho).reshape(-1)
    flat_bar = np.ascontiguousarray(bar).reshape(-1)
    r, q, spare = (np.empty((d, cols), dtype=complex) for _ in range(3))
    at = np.empty_like(at_r)
    t = np.empty((d, len(masks)), dtype=complex)  # C's rows at the masks, transposed
    for k0 in range(0, d, cols):
        np.take(flat_rho, np.bitwise_xor(at_r, k0, out=at), out=r, mode="wrap")
        np.take(flat_bar, np.bitwise_xor(at_q, k0 * d, out=at), out=q, mode="wrap")
        _wht(r, spare)
        _wht(q, spare)
        r *= q
        _wht(r, spare)
        t[k0:k0 + cols] = r[masks].T
    for j in range(0, len(masks), cols):
        block = t[:, j:j + cols]
        _wht(block, spare[:, :block.shape[1]])
    second = 0.5 * (trace + t.real[z, row] / d)
    return np.maximum(second - means * means, 0.0).tolist()


def _wht(a: np.ndarray, spare: np.ndarray) -> None:
    """Unnormalized Walsh-Hadamard transform of a (d, w) view along axis 0, in place.

    Each stage writes its sums and differences into the other of a and
    spare, an array of a's shape, so no operand overlaps its output.
    """
    d, w = a.shape
    src, dst = a, spare
    h = 1
    while h < d:
        u, v = src.reshape(d // (2 * h), 2, h, w), dst.reshape(d // (2 * h), 2, h, w)
        np.add(u[:, 0], u[:, 1], out=v[:, 0])
        np.subtract(u[:, 0], u[:, 1], out=v[:, 1])
        src, dst = dst, src
        h *= 2
    if src is not a:
        a[...] = src


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


#: Samples per assembled stack, which bounds the assembly's memory by slots x
#: _STACK; the kept normals take Q x n_samples floats per seed.
_STACK = 1024


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
    """The noise width of each query the pencil reads, in slot order.

    Raises ConfigError for a budget below one shot per query.  ``check_config``
    rejects a budget below the planned Q before any work; this check catches
    a budget between that and a larger built Q, read where equal-size blocks
    that ``plan_queries`` counts as one prepared state are not bit-identical.
    """
    if not matrices.with_variances:
        raise ConfigError("pencil was built without variances, which shot noise needs")
    q = len(matrices.queries)
    if q == 0:
        return np.zeros(0)
    if cfg.ns < q:
        raise ConfigError(f"shot budget {cfg.ns} below one shot per query of the built "
                          f"pencil ({q}); a checked config's budgets clear its planned Q, "
                          f"which a build exceeds where equal-size blocks differ")
    return np.sqrt(matrices.var[list(matrices.queries.values())] / (cfg.ns / q))


def _draw(matrices, sd: np.ndarray, normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of perturbed S and H, one sample per column of normals.

    Query i of sample k moves by sd[i] * normals[i, k], formed as
    ``Generator.normal(0.0, sd)`` forms it: 0.0 + sd * z, entry by entry."""
    slots = list(matrices.queries.values())
    re = 0.0 + sd[:, None] * normals[:len(sd)]
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
    sd = _widths(matrices, cfg)
    s, h = _draw(matrices, sd, rng.standard_normal(len(sd))[:, None])
    return s[0], h[0]


def _normals(matrices, seed: int, start: int, stop: int) -> np.ndarray:
    """(Q, stop - start) standard normals, column k - start drawn from
    ``default_rng([seed, k])``; Q is the full build's ledger size.

    Drawn once per pencil family: kept in ``matrices.normals``, which every
    ``leading`` block of one build shares, so each budget and each M reads
    the same columns.  A pencil that reads q queries uses the first q rows,
    as its q draws from the same stream would be.
    """
    key = (seed, start, stop)
    z = matrices.normals.get(key)
    if z is None:
        z = np.stack([np.random.default_rng([seed, k]).standard_normal(len(matrices.value))
                      for k in range(start, stop)], axis=1)
        z.flags.writeable = False
        matrices.normals[key] = z
    return z


def sample_distribution(matrices, cfg: ShotConfig, window: tuple[float, float],
                        threshold: float | None = None) -> EnergyDistribution:
    """Sample the mitigated-energy distribution under finite shots.

    Sample k scales the normals of ``default_rng([seed, k])``, drawn once
    per build (``_normals``), and is solved as ``solve_pencil`` would solve
    it alone; failed window selections and empty truncations are counted as
    rejections and excluded from the moments.
    """
    if threshold is None:
        threshold = 10.0 / np.sqrt(cfg.ns)
    sd = _widths(matrices, cfg)
    energies = []
    for start in range(0, cfg.n_samples, _STACK):
        z = _normals(matrices, cfg.seed, start, min(start + _STACK, cfg.n_samples))
        energies.append(stack_energies(*_draw(matrices, sd, z), window, threshold))
    arr = np.concatenate(energies)
    solved = ~np.isnan(arr)
    if not np.any(solved):
        raise EmptyDistributionError(f"every sample was rejected at M {matrices.m}, "
                                     f"ns {cfg.ns:g}, n_samples {cfg.n_samples}")
    arr = arr[solved]
    return EnergyDistribution(arr, float(arr.mean()), float(arr.std()), int(np.sum(~solved)))
