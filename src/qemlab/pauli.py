"""Exact symbolic algebra over n-qubit Pauli strings.

A string is spelled with one letter per qubit, qubit 0 first: "XZI" puts X
on qubit 0 and Z on qubit 1.  Matrix representations are little-endian, so
qubit 0 is the least significant bit of a computational-basis index.

Internally a string is a pair of bit masks (x, z) with the hermitian
convention P = i^{|x & z|} X^x Z^z, which makes every stored string its own
adjoint and keeps products down to integer xors plus a phase exponent.

``sum_mul`` forms the product of two sums on mask arrays, and rounds every
coefficient as a dict update per pair of strings would.  It takes the pairs
a-major, as nested loops over the two sums would.  The phase exponent
comes from table popcounts, and c1 c2 i^t is the textbook complex product
on separate real and imaginary arrays, the form Python's complex product
takes.  ``np.add.at`` adds each pair's value to its string in pair order,
onto a zero start, so every sum sees the same additions in the same order.
The strings keep the order of their first occurrence, the insertion order
of the dict, because the next product's pair order reads it.  The pairs are
formed a block of rows of ``a`` at a time, and a string first seen in a later
block goes after every earlier one.

``expect_paulis`` reads Tr[rho P] for a list of strings in one pass: one
gather of rho[i, i ^ x] per distinct X mask, a signed row per string, and a
sum along each row, which rounds as the one-string ``expect_pauli`` does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import PartitionError, RegisterCapError, SizeMismatchError

DROP_TOL = 1e-12

#: The one-qubit Pauli matrices by letter; read-only.
PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
for _m in PAULI_MATRICES.values():
    _m.flags.writeable = False

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def _axes_to_masks(axes: str) -> tuple[int, int]:
    x = z = 0
    for q, ch in enumerate(axes):
        if ch == "X":
            x |= 1 << q
        elif ch == "Y":
            x |= 1 << q
            z |= 1 << q
        elif ch == "Z":
            z |= 1 << q
        elif ch != "I":
            raise ValueError(f"bad Pauli letter {ch!r} in {axes!r}")
    return x, z


def _masks_to_axes(x: int, z: int, n: int) -> str:
    out = []
    for q in range(n):
        bx = (x >> q) & 1
        bz = (z >> q) & 1
        out.append("IXZY"[bx + 2 * bz])
    return "".join(out)


@dataclass(frozen=True)
class PauliTerm:
    """A single Pauli string with a complex coefficient."""

    axes: str
    coeff: complex = 1.0

    def __post_init__(self) -> None:
        if any(ch not in "IXYZ" for ch in self.axes):
            raise ValueError(f"bad axes string {self.axes!r}")
        c = complex(self.coeff)
        if not (np.isfinite(c.real) and np.isfinite(c.imag)):
            raise ValueError("coefficient must be finite")
        object.__setattr__(self, "coeff", c)

    @property
    def n(self) -> int:
        return len(self.axes)

    @property
    def is_identity(self) -> bool:
        return set(self.axes) <= {"I"}

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(q for q, ch in enumerate(self.axes) if ch != "I")

    def matrix(self) -> np.ndarray:
        """Dense matrix, little-endian (qubit 0 is the LSB)."""
        return self.coeff * term_matrix(self.axes)

    def __repr__(self) -> str:
        return f"PauliTerm({self.axes!r}, {self.coeff!r})"


class PauliSum:
    """Canonical merged sum of Pauli strings, keyed on the axes pattern."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Iterable[PauliTerm] = ()):
        self.n = n
        self._terms: dict[tuple[int, int], complex] = {}
        for t in terms:
            if t.n != n:
                raise SizeMismatchError(f"term on {t.n} qubits added to {n}-qubit sum")
            k = _axes_to_masks(t.axes)
            self._terms[k] = self._terms.get(k, 0.0) + t.coeff
        self._drop()

    def _drop(self) -> None:
        dead = [k for k, c in self._terms.items() if abs(c) < DROP_TOL]
        for k in dead:
            del self._terms[k]

    @classmethod
    def _from_arrays(cls, n: int, keys: np.ndarray, re: np.ndarray, im: np.ndarray
                     ) -> "PauliSum":
        """The sum of strings keys (x << n | z) with coefficients re + i im, in
        that order; drops as ``_drop`` does, since np.hypot is abs's hypot."""
        live = np.hypot(re, im) >= DROP_TOL
        keys, re, im = keys[live], re[live], im[live]
        s = cls.__new__(cls)
        s.n = n
        s._terms = dict(zip(zip((keys >> n).tolist(), (keys & ((1 << n) - 1)).tolist()),
                            map(complex, re.tolist(), im.tolist())))
        return s

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[PauliTerm]:
        for (x, z) in sorted(self._terms):
            yield PauliTerm(_masks_to_axes(x, z, self.n), self._terms[(x, z)])

    def mask_items(self) -> list[tuple[int, int, complex]]:
        """(x, z, coeff) of every string, in iteration order."""
        return [(x, z, self._terms[(x, z)]) for (x, z) in sorted(self._terms)]

    @property
    def identity_coefficient(self) -> complex:
        return self._terms.get((0, 0), 0.0)

    def weight(self) -> float:
        """Sum of coefficient magnitudes."""
        return float(sum(abs(c) for c in self._terms.values()))

    def matrix(self) -> np.ndarray:
        """Dense matrix: per string one scatter of c i^{#Y} (-1)^{|j & z|} to [j ^ x, j]."""
        d = 1 << self.n
        m = np.zeros((d, d), dtype=complex)
        idx = np.arange(d)
        signs = parity_signs(self.n)
        for x, z, c in self.mask_items():
            m[idx ^ x, idx] += c * (_I_POW[(x & z).bit_count() % 4] * signs[idx & z])
        return m

    def __repr__(self) -> str:
        return f"PauliSum(n={self.n}, terms={len(self)})"


#: Pair products formed at once; bounds sum_mul's scratch arrays.
_PAIR_CHUNK = 1 << 15

_PHASE_RE, _PHASE_IM = np.array(_I_POW).real.copy(), np.array(_I_POW).imag.copy()


def _mask_arrays(s: PauliSum) -> tuple[np.ndarray, ...]:
    """x, z, re and im of every string, in insertion order."""
    xz = np.array(list(s._terms), dtype=np.int64)
    c = np.array(list(s._terms.values()), dtype=complex)
    return xz[:, 0], xz[:, 1], c.real, c.imag


def _popcount(v: np.ndarray, n: int) -> np.ndarray:
    """popcount of every n-bit entry of v, 16 bits per table lookup."""
    table = popcounts(min(n, 16))
    out = table[v & 0xFFFF]
    for shift in range(16, n, 16):
        out = out + table[(v >> shift) & 0xFFFF]
    return out


def _first_seen_groups(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """What np.unique(keys, return_index=True, return_inverse=True) gives,
    from a quicksort: a group's first index is its least, in any sorted order."""
    perm = keys.argsort()
    ordered = keys[perm]
    head = np.ones(len(keys), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[perm] = np.cumsum(head) - 1
    return ordered[starts], np.minimum.reduceat(perm, starts), inverse


def sum_mul(a: PauliSum, b: PauliSum) -> PauliSum:
    """Merged product of two sums (see the module docstring for its rounding)."""
    if a.n != b.n:
        raise SizeMismatchError("cannot multiply sums on different registers")
    n = a.n
    if n > 31:
        raise RegisterCapError(f"sum_mul keys strings of at most 31 qubits, not {n}")
    if not (a._terms and b._terms):
        return PauliSum(n)
    ax, az, ar, ai = _mask_arrays(a)
    bx, bz, br, bi = _mask_arrays(b)
    b_y = _popcount(bx & bz, n)
    order = np.empty(0, dtype=np.int64)  # x << n | z of each output string, first seen first
    re, im = np.empty(0), np.empty(0)
    rows = max(1, _PAIR_CHUNK // len(bx))
    for lo in range(0, len(ax), rows):
        x1, z1 = ax[lo:lo + rows, None], az[lo:lo + rows, None]
        r1, i1 = ar[lo:lo + rows, None], ai[lo:lo + rows, None]
        x3, z3 = x1 ^ bx, z1 ^ bz
        t = (_popcount(x1 & z1, n) + b_y - _popcount(x3 & z3, n)
             + 2 * _popcount(z1 & bx, n)) & 3
        pr, pi = r1 * br - i1 * bi, r1 * bi + i1 * br
        fr, fi = _PHASE_RE[t], _PHASE_IM[t]
        # the strings seen so far go first, so they keep their slots
        uniq, first, inverse = _first_seen_groups(
            np.concatenate([order, ((x3 << n) | z3).ravel()]))
        by_first = np.argsort(first)
        slot = np.empty(len(uniq), dtype=np.int64)
        slot[by_first] = np.arange(len(uniq))
        slots = slot[inverse[len(order):]]
        order = uniq[by_first]
        re = np.concatenate([re, np.zeros(len(order) - len(re))])
        im = np.concatenate([im, np.zeros(len(order) - len(im))])
        np.add.at(re, slots, (pr * fr - pi * fi).ravel())
        np.add.at(im, slots, (pr * fi + pi * fr).ravel())
    return PauliSum._from_arrays(n, order, re, im)


class PowerTable:
    """Caches successive powers of one Hamiltonian."""

    def __init__(self, h: PauliSum):
        self.h = h
        self._powers: list[PauliSum] = [PauliSum(h.n, [PauliTerm("I" * h.n, 1.0)])]

    def power(self, k: int) -> PauliSum:
        while len(self._powers) <= k:
            self._powers.append(sum_mul(self._powers[-1], self.h))
        return self._powers[k]


@dataclass(frozen=True)
class SystemPartition:
    """Ordered disjoint qubit blocks covering the whole register."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        flat = [q for b in self.blocks for q in b]
        if not self.blocks or any(len(b) == 0 for b in self.blocks):
            raise PartitionError("blocks must be non-empty")
        if len(set(flat)) != len(flat):
            raise PartitionError("blocks overlap")
        if set(flat) != set(range(len(flat))):
            raise PartitionError("blocks must cover qubits 0..n-1")

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)


def factorize(p: PauliTerm, part: SystemPartition) -> list[PauliTerm]:
    """Split a string into per-block substrings.

    The coefficient rides on the first factor; tensoring the factors back
    together (respecting the block qubit order) reproduces the input.
    """
    if part.n != p.n:
        raise PartitionError(f"partition covers {part.n} qubits, term has {p.n}")
    out = []
    for i, block in enumerate(part.blocks):
        sub = "".join(p.axes[q] for q in block)
        out.append(PauliTerm(sub, p.coeff if i == 0 else 1.0))
    return out


def build_ising(edges: Iterable[tuple[int, int]], n: int) -> PauliSum:
    """Transverse-field Ising Hamiltonian: -ZZ on each edge, -X on each site."""
    terms = []
    for (a, b) in edges:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            raise ValueError(f"edge ({a}, {b}) out of range for n={n}")
        axes = "".join("Z" if q in (a, b) else "I" for q in range(n))
        terms.append(PauliTerm(axes, -1.0))
    for q in range(n):
        axes = "".join("X" if j == q else "I" for j in range(n))
        terms.append(PauliTerm(axes, -1.0))
    return PauliSum(n, terms)


def term_matrix(axes: str) -> np.ndarray:
    """Unit-coefficient dense matrix for an axes pattern (little-endian)."""
    m = np.array([[1.0 + 0.0j]])
    for q in range(len(axes) - 1, -1, -1):
        m = np.kron(m, PAULI_MATRICES[axes[q]])
    return m


@lru_cache(maxsize=16)
def popcounts(n: int) -> np.ndarray:
    """popcount(i) for every n-bit index i; read-only."""
    table = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        table = np.concatenate([table, table + 1])
    table.flags.writeable = False
    return table


@lru_cache(maxsize=16)
def parity_signs(n: int) -> np.ndarray:
    """(-1)^{popcount(i)} as integers for every n-qubit index i; read-only.

    Indexed by ``i & z`` it gives the Z signs of a Pauli string.
    """
    signs = 1 - 2 * (popcounts(n) & 1)
    signs.flags.writeable = False
    return signs


#: Complex entries in one scratch array of ``expect_paulis``.
_READ_CHUNK = 1 << 14


def expect_paulis(rho: np.ndarray, strings: Sequence[str]) -> list[complex]:
    """Tr[rho P] for every unit-coefficient string, in O(dim) time each.

    P|i> = phase * (-1)^{|i & z|} |i ^ x| with phase = i^{#Y}, so each trace
    collapses to a single gather along the matched off-diagonal.  The strings
    are read in chunks of at most ``_READ_CHUNK`` entries, ordered by X mask,
    and each chunk gathers rho[i, i ^ x] once per distinct mask.  Each row is
    signed and summed along the last axis, which is numpy's pairwise sum of a
    1-D array, so a string reads the same bits in any batch.
    """
    if not strings:
        return []
    n = len(strings[0])
    d = 1 << n
    if rho.shape != (d, d):
        raise SizeMismatchError(f"operator dim {rho.shape} vs {n} qubits")
    if any(len(axes) != n for axes in strings):
        raise SizeMismatchError("strings differ in length")
    return _expect_masks(rho, *_string_masks(strings)).tolist()


def _string_masks(strings: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The X and Z masks of every string, as two int64 arrays."""
    return np.array([_axes_to_masks(axes) for axes in strings], dtype=np.int64).T


def _expect_masks(rho: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``expect_paulis`` of the strings with these X and Z masks, as an array;
    the caller has checked that they fit rho."""
    d = rho.shape[0]
    n = d.bit_length() - 1
    phase = np.array(_I_POW)[_popcount(x & z, n) & 3]
    idx = np.arange(d)
    signs = parity_signs(n)
    order = np.argsort(x, kind="stable")
    out = np.empty(len(x), dtype=complex)
    rows = max(1, _READ_CHUNK // d)
    for lo in range(0, len(order), rows):
        part = order[lo:lo + rows]
        masks, inverse = np.unique(x[part], return_inverse=True)
        diagonals = rho[idx, idx ^ masks[:, None]]
        sums = np.sum(signs[idx & z[part, None]] * diagonals[inverse], axis=-1)
        out[part] = phase[part] * sums
    return out


def expect_pauli(rho: np.ndarray, axes: str) -> complex:
    """Tr[rho P] for one unit-coefficient string: ``expect_paulis`` of one."""
    return expect_paulis(rho, [axes])[0]

