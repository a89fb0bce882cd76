"""Assembly of the generalized-eigenvalue pair (S, H) for the three bases.

Every matrix element is a constant plus a sum of coefficient-weighted
products of *query values*, a query being one (prepared state, Pauli
observable) pair.  The ledger of unique queries is what shot-noise
perturbation and measurement-cost counting operate on: a built pencil's Q
is its ledger size.  A builder emits the pencil as its elements, one per
distinct term list with every matrix element that holds it, and the
(value, var) reading of each query key.  ``SubspaceMatrices`` keeps the
ledger in one form: ``queries`` maps each key to its slot, ``value`` and
``var`` hold the readings by slot, and the elements are lowered once to term
lists over slots.  Its one ``assemble`` builds the exact pencil and every stack of noisy samples,
so the infinite-shot limit reproduces the exact matrices by construction.

Fault basis:   the state at software-amplified noise rates lambda_k = k.
Divided basis: per-block states tensored, powers of the Hamiltonian
               reintroducing the cross-block entanglement classically.
Power basis:   identity plus the state times Hamiltonian powers, which is
               the divided basis over a one-block partition.

So there are two builders, ``build_fault`` and ``build_divided``.  The
latter reads the Hamiltonian powers from a ``TermExpansion``, expanded once
per (Hamiltonian, partition) and shared by every build and by
``plan_queries``, which counts Q from the very elements the builder
assembles without preparing any state.  Every expansion of one Hamiltonian
reads one ``PowerTable``, so each power is formed once.  Element (i, j) of
either basis does not depend on M, so one build at the largest M serves
every smaller one through ``leading``, which shares the build's term lists
and reading arrays.

A builder first collects its query keys, then reads them with one
``expect_paulis`` call per prepared state.  A circuit without channels is
its own dual circuit, so its state serves as its dual state.  Elements with
equal i + j share one term list, which lowering, assembly and variances
each walk once.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .channels import NoiseModel
from .circuits import Circuit, attach_noise, dual_state, run
from .errors import ConfigError
from .pauli import PauliSum, PowerTable, SystemPartition, expect_paulis
from .shotnoise import var_dsp_many, var_pauli_state, var_product_chain

QueryKey = tuple
Term = tuple  # (coeff, (key, key, ...))
Element = tuple  # (const, [Term, ...], [(which, i, j), ...])

#: Basis families: power, fault-amplified and divided.
KINDS = ("power", "fault", "dc")


@dataclass(frozen=True)
class SubspaceSpec:
    """What to build: basis family, size, and generator data."""

    kind: str
    m: int
    hamiltonian: PauliSum
    partition: SystemPartition | None = None
    boundary_state_only: bool = False

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(f"unknown subspace kind {self.kind!r}")
        if self.m < 1:
            raise ConfigError("subspace count must be at least 1")
        if self.kind == "dc":
            if self.partition is None:
                raise ConfigError("divided construction needs a partition")
            if self.partition.n != self.hamiltonian.n:
                raise ConfigError("partition does not cover the Hamiltonian register")

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """The partition of the power and divided bases; power has one block."""
        if self.kind == "dc":
            return self.partition.blocks
        return (tuple(range(self.hamiltonian.n)),)


@dataclass
class SubspaceMatrices:
    """The pencil and the query ledger it reads.

    ``elements`` holds one (const, [(coeff, keys)], [(which, i, j), ...]) per
    distinct term list, with every stored element i <= j that holds it, which
    0 for S and 1 for H.  A builder hands over ``queries`` as each key's
    (value, var) reading, var None where not computed.  The constructor keeps
    one form of the ledger: ``queries`` maps each key to its slot, in slot
    order (the ``repr`` order of the keys), ``value`` and ``var`` (NaN where
    a query carries no variance) are the readings indexed by slot, and each
    term's keys are lowered to slots.  The per-element variances are read
    from the ledger only where ``matrix_rows`` prints them, on a build with
    variances.  ``normals`` holds the shot-noise draws of this build, which
    ``shotnoise`` makes once per (seed, first sample, last sample) and every
    ``leading`` block reads."""

    m: int
    queries: dict[QueryKey, int]
    elements: list[Element]
    with_variances: bool = True
    s: np.ndarray = field(init=False)
    h: np.ndarray = field(init=False)
    value: np.ndarray = field(init=False)
    var: np.ndarray = field(init=False)
    normals: dict = field(init=False, default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        readings = self.queries
        self.queries = slot = {k: q for q, k in enumerate(sorted(readings, key=repr))}
        # lowered in place, so each key-form list goes as its slot form comes
        for n, (const, terms, targets) in enumerate(self.elements):
            self.elements[n] = (complex(const), [(complex(c), tuple(map(slot.__getitem__, ks)))
                                                 for c, ks in terms], targets)
        self.value = np.array([readings[k][0] for k in slot], dtype=complex)
        self.var = np.array([readings[k][1] for k in slot], dtype=float)
        s, h = self.assemble(self.value.real.tolist(), self.value.imag.tolist())
        self.s, self.h = s[0], h[0]

    def assemble(self, re: Sequence, im: Sequence, n: int = 1
                 ) -> tuple[np.ndarray, np.ndarray]:
        """(n, m, m) stacks of S and H from slot readings re[k] + i im[k].

        A reading is a float, or an array over n samples: the arithmetic runs
        across samples, never across terms.  Terms add in list order and
        multiply left to right in the textbook complex form, so each sample
        rounds as a scalar assembly would (numpy's complex product may fuse)."""
        out = np.zeros((2, n, self.m, self.m), dtype=complex)
        for const, terms, targets in self.elements:
            vr, vi = const.real, const.imag
            for coeff, slots in terms:
                pr, pi = coeff.real, coeff.imag
                for k in slots:
                    pr, pi = pr * re[k] - pi * im[k], pr * im[k] + pi * re[k]
                vr, vi = vr + pr, vi + pi
            for which, i, j in targets:
                mat = out[which]
                mat.real[:, i, j], mat.imag[:, i, j] = vr, vi
                if i != j:
                    mat.real[:, j, i], mat.imag[:, j, i] = vr, -vi
        return out[0], out[1]

    def leading(self, m: int) -> "SubspaceMatrices":
        """The leading m x m pencil, reading only the queries it needs.

        Equal to a fresh build at m: the same matrices, variances and ledger,
        so shot-noise samples and query counts stay per-m.  It shares this
        pencil's term lists, its ``value``/``var`` arrays and its ``normals``,
        and keeps the elements with a target inside the block and the
        ``queries`` entries of the slots they read.
        """
        if not 1 <= m <= self.m:
            raise ConfigError(f"leading block {m} outside 1..{self.m}")
        out = copy.copy(self)
        out.m = m
        out.elements = [(const, terms, inside) for const, terms, targets in self.elements
                        if (inside := [t for t in targets if t[2] < m])]
        read = {k for _, terms, _ in out.elements for _, slots in terms for k in slots}
        out.queries = {key: k for key, k in self.queries.items() if k in read}
        out.s, out.h = self.s[:m, :m].copy(), self.h[:m, :m].copy()
        return out

    def _variances(self) -> tuple[np.ndarray, np.ndarray]:
        """Element variances of S and H; each term list is summed once, for
        all its targets."""
        re, var = self.value.real.tolist(), self.var.tolist()
        out = np.zeros((2, self.m, self.m))
        for _, terms, targets in self.elements:
            v = 0.0
            for coeff, slots in terms:
                if slots:
                    v += abs(coeff) ** 2 * var_product_chain([(re[k], var[k]) for k in slots])
            for which, i, j in targets:
                out[which, i, j] = out[which, j, i] = v
        return out[0], out[1]

    def matrix_rows(self) -> list[tuple]:
        """CSV rows: which, i, j, re, im, var (empty on a build without variances)."""
        variances = self._variances() if self.with_variances else (None, None)
        rows = []
        for name, mat, var in zip("SH", (self.s, self.h), variances):
            for i in range(self.m):
                for j in range(self.m):
                    rows.append((name, i + 1, j + 1, mat[i, j].real, mat[i, j].imag,
                                 "" if var is None else var[i, j]))
        return rows

    def ledger_rows(self) -> list[tuple]:
        """CSV rows: state, axes, value, var (empty where not computed)."""
        re, var = self.value.real.tolist(), self.var.tolist()
        return [(repr(key[:-1]), key[-1], re[k], "" if math.isnan(var[k]) else var[k])
                for key, k in self.queries.items()]


_LETTERS = np.array(list("IXZY"))


class Split(NamedTuple):
    """One block's letters of every string of a power: the distinct
    sub-strings, each string's index into them, and the index of the identity
    sub-string (-1 if no string is the identity there)."""

    spelled: list[str]
    ids: list[int]
    identity: int


class TermExpansion:
    """Powers of one Hamiltonian, each string split across one partition.

    ``power(k)`` gives the coefficients of H^k in the Hamiltonian's iteration
    order and one ``Split`` per block.
    """

    def __init__(self, table: PowerTable, blocks: tuple[tuple[int, ...], ...]):
        self._table = table
        self._blocks = blocks
        self._powers: list[tuple[list[complex], list[Split]]] = []

    @staticmethod
    def _split(x: np.ndarray, z: np.ndarray, block: tuple[int, ...]) -> Split:
        """The block's letters of every string (x, z).  A sub-string's code
        holds letter i's code (I, X, Z, Y: 0..3) at bit 2i, and the distinct
        ones go in code order, so the identity, code 0, comes first."""
        codes = np.zeros(len(x), dtype=np.int64)
        for i, q in enumerate(block):
            codes |= (((x >> q) & 1) | ((z >> q) & 1) << 1) << 2 * i
        distinct, inverse = np.unique(codes, return_inverse=True)
        letters = (distinct[:, None] >> 2 * np.arange(len(block))) & 3
        spelled = _LETTERS[letters].view(f"<U{len(block)}").ravel().tolist()
        return Split(spelled, inverse.tolist(), 0 if distinct[0] == 0 else -1)

    def power(self, k: int) -> tuple[list[complex], list[Split]]:
        while len(self._powers) <= k:
            items = self._table.power(len(self._powers)).mask_items()
            x = np.array([it[0] for it in items], dtype=np.int64)
            z = np.array([it[1] for it in items], dtype=np.int64)
            self._powers.append(([it[2] for it in items],
                                 [self._split(x, z, b) for b in self._blocks]))
        return self._powers[k]


_TABLES: OrderedDict = OrderedDict()
_EXPANSIONS: OrderedDict = OrderedDict()


def _recent(memo: OrderedDict, key, make: Callable[[], object]):
    """memo[key], made on a miss; the last four keys used stay."""
    value = memo.pop(key, None)
    memo[key] = value = make() if value is None else value
    if len(memo) > 4:
        memo.popitem(last=False)
    return value


def term_expansion(h: PauliSum, blocks: tuple[tuple[int, ...], ...]) -> TermExpansion:
    """The shared expansion for (h, blocks).  Every expansion of one
    Hamiltonian reads one shared ``PowerTable``, so each power is formed once."""
    hkey = (h.n, tuple(h.mask_items()))
    table = _recent(_TABLES, hkey, lambda: PowerTable(h))
    return _recent(_EXPANSIONS, (hkey, tuple(blocks)), lambda: TermExpansion(table, blocks))


def _fault_terms(m: int, h: PauliSum, key: Callable[[int, int, str], QueryKey]
                 ) -> list[Element]:
    """Every ordered pair (input amplification, output amplification) is its
    own prepared state; hermiticity comes from averaging the two orders."""
    ident = "I" * h.n
    elements = []
    for i in range(m):
        for j in range(i, m):
            pairs = ((1.0, i, i),) if i == j else ((0.5, i, j), (0.5, j, i))
            elements.append((0j, [(w, (key(a, b, ident),)) for w, a, b in pairs], [(0, i, j)]))
            elements.append((0j, [(w * t.coeff, (key(a, b, t.axes),))
                                  for t in h for w, a, b in pairs], [(1, i, j)]))
    return elements


def _divided_terms(spec: SubspaceSpec, key: Callable[[str, int, str], QueryKey],
                   tr_r: Sequence[complex], tr_b: Sequence[complex]) -> list[Element]:
    """The elements of the power and divided bases.

    Bulk elements S_ij = Tr[sym * H^{i+j-2}] (0-based i, j >= 1), H_ij with
    one more power, sym being each block's symmetrized product of dual and
    state; the first row and column read the plain and dual states against
    lower powers and the corner is free: S_11 = Tr[I], H_11 = Tr[H].  So
    boundary power p serves S(0, p+1) and H(0, p), and bulk power p every
    S(i, j) with i + j - 2 = p and every H(i, j) with i + j - 1 = p.  Each
    string becomes a product of one query per block, key(which, block, sub)
    with which in ("dsp", "rho", "dual"); an identity factor on the boundary
    folds into the coefficient as that block's trace (tr_r, tr_b).  key runs
    once per distinct (which, block, sub), and each term's keys are read off
    its sub-string ids.
    """
    h, m = spec.hamiltonian, spec.m
    exp = term_expansion(h, spec.blocks)
    bso = spec.boundary_state_only
    nb = len(tr_r)
    dsp, rho, dual = ([functools.cache(functools.partial(key, which, l)) for l in range(nb)]
                      for which in ("dsp", "rho", "dual"))
    folds: dict[tuple[int, ...], tuple[complex, complex]] = {}

    def columns(keys, splits: list[Split], boundary: bool) -> list[list]:
        """Each block's key per sub-string id; on the boundary an identity
        factor is no query."""
        return [[None if boundary and i == sp.identity else memo(sub)
                 for i, sub in enumerate(sp.spelled)] for memo, sp in zip(keys, splits)]

    def fold(live: tuple[int, ...]) -> tuple[complex, complex]:
        """The traces of the blocks not in live, multiplied, of state and dual."""
        if live not in folds:
            folds[live] = tuple(np.prod([tr[l] for l in range(nb) if l not in live] or [1.0])
                                for tr in (tr_r, tr_b))
        return folds[live]

    d = 1 << h.n
    elements = [(complex(d), [], [(0, 0, 0)]), (h.identity_coefficient * d, [], [(1, 0, 0)])]
    for power in range(m) if m > 1 else ():  # at M = 1 no boundary power serves
        coeffs, splits = exp.power(power)
        idents = [sp.identity for sp in splits]
        col_r = columns(rho, splits, True)
        col_b = None if bso else columns(dual, splits, True)
        const = 0.0 + 0.0j
        entry: list[Term] = []
        for c, *ids in zip(coeffs, *(sp.ids for sp in splits)):
            live = tuple(l for l in range(nb) if ids[l] != idents[l])
            if not live:
                prod_r, prod_b = np.prod(tr_r), np.prod(tr_b)
                const += c * (prod_r if bso else 0.5 * (prod_r + prod_b))
                continue
            fold_r, fold_b = fold(live)
            keys_r = tuple(col_r[l][ids[l]] for l in live)
            if bso:
                entry.append((c * fold_r, keys_r))
            else:
                keys_b = tuple(col_b[l][ids[l]] for l in live)
                entry.append((0.5 * c * fold_r, keys_r))
                entry.append((0.5 * c * fold_b, keys_b))
        targets = [(0, 0, power + 1)] if power + 1 < m else []
        if power:
            targets.append((1, 0, power))
        elements.append((const, entry, targets))
    for power in range(2 * m - 2):
        coeffs, splits = exp.power(power)
        cols = columns(dsp, splits, False)
        entry = list(zip(coeffs, zip(*(map(col.__getitem__, sp.ids)
                                       for col, sp in zip(cols, splits)))))
        elements.append((0j, entry, [(which, i, power + 2 - which - i)
                                     for which in (0, 1) for i in range(1, m)
                                     if i <= power + 2 - which - i < m]))
    return elements


def build_fault(spec: SubspaceSpec, ansatz: Circuit, noise: NoiseModel, seed: int = 0,
                with_variances: bool = True) -> SubspaceMatrices:
    """Pencil for the noise-amplified-state basis, state k amplified by k."""
    if spec.kind != "fault":
        raise ConfigError("spec kind must be fault")
    circs = [attach_noise(ansatz, noise.amplified(float(k)), seed=seed)
             for k in range(1, spec.m + 1)]
    rhos = [run(c) for c in circs]
    bars = [_dual(c, rho) for c, rho in zip(circs, rhos)]
    reads: dict[tuple[int, int], dict[QueryKey, None]] = {}

    def pair_key(i: int, j: int, axes: str) -> QueryKey:
        key = ("fault", i, j, axes)
        reads.setdefault((i, j), {})[key] = None
        return key

    elements = _fault_terms(spec.m, spec.hamiltonian, pair_key)
    readings: dict[QueryKey, tuple] = {}
    for (i, j), keys in reads.items():
        axes = [k[3] for k in keys]
        br = bars[j] @ rhos[i]
        values = expect_paulis(0.5 * (br + br.conj().T), axes)
        var = var_dsp_many(rhos[i], bars[j], axes) if with_variances else [None] * len(axes)
        readings.update(zip(keys, zip(values, var)))
    return SubspaceMatrices(spec.m, readings, elements, with_variances)


def _dual(circ: Circuit, rho: np.ndarray) -> np.ndarray:
    """The dual state of circ, whose state is rho.  With no channel, the dual
    circuit is the circuit itself, so its dual state is rho."""
    return rho if next(circ.channels(), None) is None else dual_state(circ)


def _block_fingerprint(circ: Circuit) -> str:
    return hashlib.sha256(circ.dump().encode()).hexdigest()[:12]


def _state_id(kind: str, which: str, block_key: str) -> tuple:
    return ("power", which) if kind == "power" else ("dc", which, block_key)


def build_divided(spec: SubspaceSpec, ansatz, noise: NoiseModel, seed: int = 0,
                  with_variances: bool = True) -> SubspaceMatrices:
    """Pencil for the power basis (one circuit) or the divided basis (one per block).

    Two blocks that prepare bit-identical noisy circuits share their query
    ledger entries.
    """
    if spec.kind not in ("power", "dc"):
        raise ConfigError("spec kind must be power or dc")
    if spec.kind == "power":
        ansatzes = [ansatz]
    else:
        ansatzes = list(ansatz)
        if len(ansatzes) != len(spec.blocks):
            raise ConfigError("need one sub-ansatz per partition block")
    for circ, block in zip(ansatzes, spec.blocks):
        if circ.n != len(block):
            raise ConfigError("sub-ansatz register does not match its block")

    circs = [attach_noise(c, noise, seed=seed) for c in ansatzes]
    rhos = [run(c) for c in circs]
    bars = [_dual(c, rho) for c, rho in zip(circs, rhos)]
    rbs = [r @ b for r, b in zip(rhos, bars)]
    states = {"rho": rhos, "dual": bars,  # with no channel b is r, so b @ r is rb
              "dsp": [0.5 * ((rb if b is r else b @ r) + rb)
                      for r, b, rb in zip(rhos, bars, rbs)]}
    bkeys = [_block_fingerprint(c) for c in circs] if spec.kind == "dc" else [""]
    seen: set[QueryKey] = set()
    reads: dict[tuple[str, int], list[QueryKey]] = {}  # by the block that first read them

    def key(which: str, l: int, axes: str) -> QueryKey:
        k = _state_id(spec.kind, which, bkeys[l]) + (axes,)
        if k not in seen:
            seen.add(k)
            reads.setdefault((which, l), []).append(k)
        return k

    elements = _divided_terms(spec, key, [complex(np.trace(r)) for r in rhos],
                           [complex(np.trace(b)) for b in bars])
    readings: dict[QueryKey, tuple] = {}
    for (which, l), keys in reads.items():
        axes = [k[-1] for k in keys]
        values = expect_paulis(states[which][l], axes)
        if which != "dsp":
            var = [var_pauli_state(float(np.real(v))) for v in values]
        elif with_variances:
            var = var_dsp_many(rhos[l], bars[l], axes, rbs[l])
        else:
            var = [None] * len(axes)
        readings.update(zip(keys, zip(values, var)))
    return SubspaceMatrices(spec.m, readings, elements, with_variances)


def build(spec: SubspaceSpec, ansatz, noise: NoiseModel, seed: int = 0,
          with_variances: bool = True) -> SubspaceMatrices:
    """Dispatch on the basis family (ansatz: one circuit, or one per block)."""
    builder = build_fault if spec.kind == "fault" else build_divided
    return builder(spec, ansatz, noise, seed, with_variances)


@dataclass(frozen=True)
class QueryPlan:
    """Measurement bookkeeping for one subspace construction."""

    queries: tuple[QueryKey, ...]
    q: int


def plan_queries(spec: SubspaceSpec, reuse: bool) -> QueryPlan:
    """Count the (state, observable) pairs the builder's term lists consume,
    without preparing any state.

    Without reuse every occurrence across every ordered matrix element is
    tallied; with reuse duplicates collapse.  Constants (the corner, identity
    readings of plain states) are never queries.  Each ordered fault pair is
    its own prepared state, so no fault query repeats.  Equal-size blocks
    count as one prepared state, whereas the builder merges only
    bit-identical block circuits, which have equal sizes; so a built pencil's
    Q, its ledger size, is never below the planned Q with reuse.
    """
    if spec.kind == "fault":
        elements = _fault_terms(spec.m, spec.hamiltonian, lambda i, j, axes: ("fault", i, j, axes))
    else:
        nb = len(spec.blocks)
        sizes = [str(len(b)) for b in spec.blocks]  # equal-size blocks: one prepared state
        elements = _divided_terms(
            spec, lambda which, l, axes: _state_id(spec.kind, which, sizes[l]) + (axes,),
            [1.0] * nb, [1.0] * nb)
    unique: set[QueryKey] = set()
    occurrences = 0
    for _, terms, targets in elements:
        uses = sum(1 if i == j else 2 for _, i, j in targets)
        for _, keys in terms:
            unique.update(keys)
            occurrences += len(keys) * uses
    ordered = tuple(sorted(unique, key=repr))
    q = len(ordered) if reuse or spec.kind == "fault" else occurrences
    return QueryPlan(ordered, q)
