"""Circuit-level purification estimators.

Everything here evaluates traces of products of noisy states and their dual
states by register-level simulation of the measurement circuits (ancilla
Hadamard tests, mid-circuit branching, controlled derangements built from
explicit gate decompositions).  The exact dense-matrix values of the same
traces (``oracle_trace``, ``planned_oracle``) live in ``tests/oracles.py``,
and the two routes agreeing is the correctness contract for this module.

Register layout for multi-copy circuits: copy k occupies qubits
[k*w, (k+1)*w) and the single ancilla is always the top qubit.

One rule places every copy, in every estimator: ``_place`` puts a copy's
ops, compute and uncompute blocks alike, on its own w qubits and pins a
register-wide channel to them, as ``attach_noise`` does.  A copy's noise
therefore means the same whatever register it sits in.

One engine runs every copy register (``execute_plan``, ``re_purification``
through it, and ``EsdEvaluator``): each copy is prepared by ``run`` on its
own w qubits, the start state is the Kronecker product of the ancilla's
|0><0| and the copies, formed by broadcast multiplies, and only the gadget
and the uncompute blocks run on the register, each qubit the readout leaves
free traced out after the last op on it.  The start state is handed to
``_evolve``, which overwrites it and, when the segment ends in a trace,
reads the reduced state from its last step's view, with no row-major copy.
Each later segment's state is the fresh output of that partial trace, so at
the largest register (9 qubits for two path-4 copies) two d^2 arrays are
alive at once: the start state and one scratch buffer.  There, and down to 7
qubits, ``_evolve`` runs each noisy controlled swap as one merged three-qubit
step.  ``EsdEvaluator`` stops before the
observable and runs each observable's controlled-Pauli tail on the ancilla
and the copy-0 qubits it touches.  ``DspEvaluator`` computes p0 from the gadget-free pass once and
runs the ancilla prefix (Hadamard, its noise, the compute block) once; each
observable appends only its own conjugator, cz and uncompute tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Sequence

import numpy as np

from .channels import NoiseModel
from .circuits import (
    Circuit,
    Gate,
    _evolve,
    _partial_trace,
    apply,
    gate_noise,
    reversed_circuit,
    run,
    zero_state,
)
from .errors import DegenerateNormalizationError
from .pauli import PauliTerm


# ---------------------------------------------------------------------------
# gadget emission


def _remap_ops(ops, qmap) -> list:
    """The ops with every qubit index q replaced by qmap(q).

    An op names its qubits in ``qubits`` alone: coherent drift is rotation
    gates, attached by ``circuits.gate_noise``.  A register-wide channel (no
    qubits) stays register-wide.
    """
    out = []
    for op in ops:
        qubits = tuple(qmap(q) for q in op.qubits)
        if isinstance(op, Gate):
            out.append(Gate(op.name, qubits, op.angle, op.payload))
        else:
            out.append(replace(op, qubits=qubits))
    return out


def _place(circuit: Circuit, offset: int) -> list:
    """A copy's ops on qubits [offset, offset + w), register-wide channels pinned there."""
    scope = tuple(range(circuit.n))
    ops = [op if op.qubits else replace(op, qubits=scope) for op in circuit.ops]
    return _remap_ops(ops, lambda q: q + offset) if offset else ops


def _prepare(circuit: Circuit) -> np.ndarray:
    """One copy's state, run on its own w qubits."""
    return run(Circuit(circuit.n, _place(circuit, 0)))


def _run_traced(ops, rho: np.ndarray, live: Sequence[int], keep) -> np.ndarray:
    """The ops on rho, each qubit outside keep traced out after the last op on it.

    rho is owned and overwritten, as by ``_evolve``, which runs each segment
    and traces it where it ends.

    live lists the qubit labels rho holds, ascending (live[i] is its qubit
    i); the ops address those labels, and a register-wide channel acts on
    all of them.  Returns the reduced state on keep (ascending).  No later op
    acts on a traced qubit, so this is exact, and a qubit no op touches is
    traced out before the first.
    """
    live = list(live)
    last = dict.fromkeys(live, -1)
    for i, op in enumerate(ops):
        for q in op.qubits or live:
            last[q] = i
    start = 0
    for cut in sorted({last[q] for q in live if q not in keep} | {len(ops) - 1}):
        index = {q: i for i, q in enumerate(live)}
        seg = _remap_ops(ops[start:cut + 1], index.__getitem__)
        start = cut + 1
        kept = [i for i, q in enumerate(live) if q in keep or last[q] > cut]
        if len(kept) < len(live):
            rho = (_evolve(Circuit(len(live), seg), rho, kept) if seg
                   else _partial_trace(rho, kept, len(live)))
            live = [live[i] for i in kept]
        elif seg:
            rho = _evolve(Circuit(len(live), seg), rho)
    return rho


def _copy_register(states: Sequence[np.ndarray], ops, keep) -> np.ndarray:
    """The ops on |0><0|_anc (x) states[-1] (x) ... (x) states[0], reduced to keep.

    states[k] is copy k's state; qubit 0 is the least significant bit, so
    the ancilla comes first in the product and copy 0 last.  The product is
    taken by broadcast multiplies, left to right, so every entry rounds as
    in the chained ``np.kron``, without its per-call reshaping.  The product
    is passed on unnamed: a name here would keep it alive past its first
    segment, into the first partial trace, as a third d^2 array.
    """
    factors = [zero_state(1), *reversed(states)]
    m = len(factors)
    d = math.prod(f.shape[0] for f in factors)
    return _run_traced(ops, reduce(np.multiply, (
        f.reshape([f.shape[0] if a % m == i else 1 for a in range(2 * m)])
        for i, f in enumerate(factors))).reshape(d, d), range(d.bit_length() - 1), keep)


class _Builder:
    """Accumulates the full-register instruction stream for one estimator."""

    def __init__(self, total: int, gadget_noise: NoiseModel | None, seed: int = 0):
        self.circ = Circuit(total)
        self.noise = gadget_noise
        self.rng = np.random.default_rng(seed)

    def raw(self, ops) -> None:
        for op in ops:
            self.circ.ops.append(op)

    def gate(self, g: Gate) -> None:
        """A gadget gate, followed by the ops ``gate_noise`` gives under the
        gadget noise when configured: its channels, or drift's rotation gates."""
        self.circ.add(g)
        if self.noise is not None:
            self.circ.ops.extend(gate_noise(self.noise, g, self.rng))

    def hadamard(self, q: int) -> None:
        self.gate(Gate("h", (q,)))

    def x(self, q: int) -> None:
        self.gate(Gate("x", (q,)))

    def controlled_letter(self, anc: int, q: int, letter: str, polarity: int) -> None:
        if letter == "I":
            return
        if polarity == 0:
            self.x(anc)
        self.gate(Gate("cpauli", (anc, q), payload=letter))
        if polarity == 0:
            self.x(anc)

    def controlled_pauli(self, anc: int, term: PauliTerm, offset: int, polarity: int = 1) -> None:
        """Controlled n-qubit Pauli, one 2q gate per support letter."""
        coeff = complex(term.coeff)
        mag = abs(coeff)
        if abs(mag - 1.0) > 1e-12:
            raise ValueError("controlled Pauli requires a unit-modulus coefficient")
        phi = float(np.angle(coeff))
        for q in term.support:
            self.controlled_letter(anc, q + offset, term.axes[q], polarity)
        if abs(phi) > 1e-15:
            # branch phase; the opposite polarity only shifts a global phase
            self.gate(Gate("phase", (anc,), phi if polarity == 1 else -phi))

    def basis_change(self, q: int, letter: str, inverse: bool) -> None:
        if letter == "X":
            self.gate(Gate("h", (q,)))
        elif letter == "Y":
            if inverse:
                self.gate(Gate("sdg", (q,)))
                self.gate(Gate("h", (q,)))
            else:
                self.gate(Gate("h", (q,)))
                self.gate(Gate("s", (q,)))

    def u_obs(self, term: PauliTerm, offset: int, inverse: bool) -> int:
        """Clifford conjugator: U Z_root U^dag equals the observable pattern.

        Emits cnot fan-in from each support qubit into the root plus local
        basis changes; returns the absolute root index.
        """
        support = term.support
        if not support:
            raise ValueError("identity observable needs no conjugator")
        root = support[0] + offset
        fanin = [Gate("cx", (q + offset, root)) for q in support[1:]]
        if inverse:
            for q in support:
                self.basis_change(q + offset, term.axes[q], inverse=True)
            for g in reversed(fanin):
                self.gate(g)
        else:
            for g in fanin:
                self.gate(g)
            for q in support:
                self.basis_change(q + offset, term.axes[q], inverse=False)
        return root

    def cswap(self, anc: int, a: int, b: int) -> None:
        """Exact controlled swap from seven two-qubit gates."""
        self.gate(Gate("cx", (b, a)))
        self.gate(Gate("cv", (anc, b)))
        self.gate(Gate("cx", (anc, a)))
        self.gate(Gate("cvdg", (a, b)))
        self.gate(Gate("cx", (anc, a)))
        self.gate(Gate("cv", (a, b)))
        self.gate(Gate("cx", (b, a)))

    def controlled_shift(self, anc: int, copies: int, width: int) -> None:
        """Controlled cyclic shift moving copy k's contents to copy k+1."""
        for k in range(copies - 2, -1, -1):
            for q in range(width):
                self.cswap(anc, k * width + q, (k + 1) * width + q)


def _anc_xy(rho: np.ndarray, total: int, free_qubits: Sequence[int]) -> complex:
    """<X (x) Pi> + i <Y (x) Pi> with the ancilla on the top qubit.

    Pi projects every register qubit not listed in free_qubits onto |0>.
    """
    d_reg = 1 << (total - 1)
    idxs = np.zeros(1, dtype=int)
    for q in sorted(free_qubits):
        idxs = np.concatenate([idxs, idxs | (1 << q)])
    w = np.sum(rho[d_reg + idxs, idxs])
    return complex(2.0 * w)


def _zeros_probability(rho: np.ndarray) -> float:
    return float(np.real(rho[0, 0]))


@dataclass
class DspResult:
    numerator: float
    p0: float
    value: float


def _dsp_ops(w: int, compute: list, obs: PauliTerm, uncompute: list,
             gadget_noise: NoiseModel | None, gadget_seed: int) -> Circuit:
    """The indirect-measurement circuit on w + 1 qubits, ancilla on the top qubit.

    compute and uncompute are blocks already placed on qubits [0, w).
    Reading X on the ancilla jointly with all-zeros on the register gives
    the symmetrized numerator for the observable's axes pattern.
    """
    anc = w
    b = _Builder(w + 1, gadget_noise, gadget_seed)
    b.hadamard(anc)
    b.raw(compute)
    root = b.u_obs(obs, 0, inverse=True)
    b.gate(Gate("cz", (anc, root)))
    b.u_obs(obs, 0, inverse=False)
    b.raw(uncompute)
    return b.circ


def _checked_p0(p0: float) -> float:
    if p0 < 1e-12:
        raise DegenerateNormalizationError(f"p0 = {p0:.3e} too small to normalize")
    return p0


class DspEvaluator:
    """Uncompute-based estimator with p0 and the ancilla prefix evaluated once.

    The compute and uncompute blocks are placed once.  p0 is the all-zeros
    return probability of the gadget-free pass, Tr[dual * state].  The
    prefix (ancilla Hadamard, its gadget noise, the compute block) does not
    depend on the observable, so its state is simulated once, on first use;
    each observable's circuit is still assembled whole from the same seed,
    so its gadget-noise draws are the ones a separate run would make, and
    only the part after the prefix runs.
    """

    def __init__(self, circ: Circuit, gadget_noise: NoiseModel | None = None,
                 out_circuit: Circuit | None = None, gadget_seed: int = 0):
        self.circ = circ
        self.out = reversed_circuit(circ) if out_circuit is None else out_circuit
        self.noise = gadget_noise
        self.seed = gadget_seed
        self.compute, self.uncompute = _place(circ, 0), _place(self.out, 0)
        self.p0 = _zeros_probability(run(Circuit(circ.n, self.compute + self.uncompute)))
        self._pre: tuple[int, np.ndarray] | None = None

    def _prefix(self) -> tuple[int, np.ndarray]:
        if self._pre is None:
            b = _Builder(self.circ.n + 1, self.noise, self.seed)
            b.hadamard(self.circ.n)
            b.raw(self.compute)
            self._pre = (len(b.circ.ops), run(b.circ))
        return self._pre

    def numerator(self, obs: PauliTerm) -> float:
        """Tr[(dual*state + state*dual)/2 * obs], coefficient included."""
        coeff = complex(obs.coeff)
        if obs.is_identity:
            return float(np.real(coeff)) * self.p0
        full = _dsp_ops(self.circ.n, self.compute, obs, self.uncompute, self.noise, self.seed)
        cut, rho = self._prefix()
        rho = apply(Circuit(full.n, full.ops[cut:]), rho)
        return float((coeff * np.real(_anc_xy(rho, full.n, ()))).real)

    def result(self, obs: PauliTerm) -> DspResult:
        numerator = self.numerator(obs)
        return DspResult(numerator, self.p0, numerator / _checked_p0(self.p0))


def dsp_expectation(circ: Circuit, obs: PauliTerm, mode: str = "ancilla",
                    gadget_noise: NoiseModel | None = None,
                    out_circuit: Circuit | None = None,
                    gadget_seed: int = 0) -> DspResult:
    """Purified expectation from one compute/uncompute pass.

    numerator estimates Tr[(dual*state + state*dual)/2 * obs]; p0 is the
    all-zeros return probability of the gadget-free pass, Tr[dual * state];
    value is their ratio.  The ancilla mode is one ``DspEvaluator`` reading;
    the direct mode branches on a mid-circuit measurement of the root qubit.
    """
    if mode not in ("ancilla", "direct"):
        raise ValueError(f"unknown mode {mode!r}")
    ev = DspEvaluator(circ, gadget_noise, out_circuit, gadget_seed)
    if mode == "ancilla" or obs.is_identity:
        return ev.result(obs)
    w = circ.n
    b_pre = _Builder(w, gadget_noise, gadget_seed)
    b_pre.raw(ev.compute)
    root = b_pre.u_obs(obs, 0, inverse=True)
    sigma = run(b_pre.circ)
    nums = []
    for outcome in (0, 1):
        proj = _project_qubit(sigma, root, outcome, w)
        b_post = _Builder(w, gadget_noise, gadget_seed + 1)
        b_post.u_obs(obs, 0, inverse=False)
        b_post.raw(ev.uncompute)
        after = _evolve(b_post.circ, proj)
        nums.append(_zeros_probability(after))
    numerator = float(np.real(complex(obs.coeff))) * (nums[0] - nums[1])
    return DspResult(numerator, ev.p0, numerator / _checked_p0(ev.p0))


def _project_qubit(rho: np.ndarray, q: int, outcome: int, n: int) -> np.ndarray:
    d = 1 << n
    idx = np.arange(d)
    keep = ((idx >> q) & 1) == outcome
    out = rho.copy()
    out[~keep, :] = 0.0
    out[:, ~keep] = 0.0
    return out


class EsdEvaluator:
    """Copy-based estimator with the shared prefix evaluated once.

    The copies and the controlled derangement do not depend on the
    observable.  The copy circuit runs once on its own w qubits, and the
    copy-register engine runs the gadget from rho^(x)n (x) |0><0|_anc,
    tracing out each qubit of copies 1..n-1 after the last gadget op on it,
    since every readout leaves those qubits free.  Each observable then pays
    for its own controlled-Pauli tail on the reduced state of the ancilla
    and the copy-0 qubits that tail touches.
    """

    def __init__(self, circ: Circuit, n_copies: int,
                 gadget_noise: NoiseModel | None = None, gadget_seed: int = 0):
        self.w = circ.n
        self.n_copies = n_copies
        self.total = n_copies * self.w + 1
        self.anc = self.total - 1
        self.noise = gadget_noise
        self.seed = gadget_seed
        b = _Builder(self.total, gadget_noise, gadget_seed)
        b.hadamard(self.anc)
        b.controlled_shift(self.anc, n_copies, self.w)
        self._live = list(range(self.w)) + [self.anc]
        self._mid = _copy_register([_prepare(circ)] * n_copies, b.circ.ops, self._live)

    def numerator(self, obs: PauliTerm | None) -> float:
        """Re(coeff) <X on the ancilla> with the controlled observable appended,
        coefficient included as in ``DspEvaluator``; None reads Tr[rho^n]."""
        rho = self._mid
        if obs is not None and not obs.is_identity:
            b = _Builder(self.total, self.noise, self.seed + 1)
            b.controlled_pauli(self.anc, PauliTerm(obs.axes, 1.0), 0, polarity=1)
            keep = {self.anc}.union(*(op.qubits or self._live for op in b.circ.ops))
            rho = _run_traced(b.circ.ops, rho.copy(), self._live, keep)
        n = rho.shape[0].bit_length() - 1
        xy = float(np.real(_anc_xy(rho, n, range(n - 1))))
        return xy if obs is None else float(np.real(obs.coeff)) * xy

    def expectation(self, obs: PauliTerm) -> float:
        den = self.numerator(None)
        if abs(den) < 1e-12:
            raise DegenerateNormalizationError(f"Tr[rho^n] estimate {den:.3e} too small")
        return self.numerator(obs) / den


def esd_expectation(circ: Circuit, n_copies: int, obs: PauliTerm,
                    gadget_noise: NoiseModel | None = None,
                    gadget_seed: int = 0) -> float:
    """Copy-based purified expectation Tr[rho^n obs] / Tr[rho^n].

    Simulates the ancilla-controlled cyclic derangement over n_copies noisy
    preparations, with each controlled swap expanded into two-qubit gates.
    """
    return EsdEvaluator(circ, n_copies, gadget_noise, gadget_seed).expectation(obs)


def re_purification(circ: Circuit, n: int, obs: PauliTerm,
                    drop_last_uncompute: bool = False,
                    gadget_noise: NoiseModel | None = None,
                    gadget_seed: int = 0) -> complex:
    """Copy-and-uncompute estimator for higher purification degrees.

    With every copy uncomputed the X reading gives the symmetrized degree-2n
    product; dropping one uncompute and combining X - iY lowers the degree
    to 2n - 1 with the state itself on the outside.  Either is the planned
    circuit of n copies of the one factor, with n or n - 1 ket factors.
    """
    f = GeneralFactor(circ)
    plan = plan_general(n, n - 1 if drop_last_uncompute else n)
    xy = execute_plan(plan, [f] * n, [f] * plan.n_prime, PauliTerm(obs.axes, 1.0),
                      gadget_noise=gadget_noise, gadget_seed=gadget_seed)
    coeff = complex(obs.coeff)
    if drop_last_uncompute:
        # <X (x) Pi> - i <Y (x) Pi>
        return coeff * complex(np.conj(xy))
    return coeff * complex(xy.real)


# ---------------------------------------------------------------------------
# generalized sandwich-factor circuits


@dataclass(frozen=True)
class GeneralFactor:
    """One sandwich factor: V rho W^dag with rho prepared by a circuit.

    v and w are unit-modulus Pauli terms (None means identity).  The dual
    flavour of the factor is produced by the uncompute block of the same
    circuit, never stored directly.
    """

    circuit: Circuit
    v: PauliTerm | None = None
    w: PauliTerm | None = None


@dataclass(frozen=True)
class FactorSlot:
    side: str      # "bra" or "ket"
    index: int     # 1-based position within its side
    dagger: bool
    bar: bool


@dataclass(frozen=True)
class CopyPlan:
    in_slot: FactorSlot | None
    out_slot: FactorSlot | None


@dataclass(frozen=True)
class CircuitPlan:
    """Copy layout for one generalized trace evaluation."""

    n: int
    n_prime: int
    copies: int
    slots: tuple[CopyPlan, ...]
    postselect: tuple[bool, ...]


def _bra_bar(n: int, i: int) -> bool:
    return (i % 2 == 0) if n % 2 == 1 else (i % 2 == 1)


def _ket_bar(n: int, i: int) -> bool:
    return (i % 2 == 1) if n % 2 == 1 else (i % 2 == 0)


def plan_general(n: int, n_prime: int) -> CircuitPlan:
    """Copy count, slot assignment, and postselection mask for Tr[bra ket O].

    The bra side holds n >= 1 daggered factors, the ket side n_prime >= 0
    plain ones; bars (dual-state factors) land on out slots and plain states
    on in slots.  Copies = ceil((n + n') / 2).
    """
    if n < 1 or n_prime < 0:
        raise ValueError("need at least one bra factor and no negative ket count")
    seq: list[FactorSlot] = []
    for i in range(n, 0, -1):
        seq.append(FactorSlot("bra", i, True, _bra_bar(n, i)))
    for i in range(1, n_prime + 1):
        seq.append(FactorSlot("ket", i, False, _ket_bar(n, i)))

    copies = (n + n_prime + 1) // 2
    # chain slot order: T0, R0, T_{m-1}, R_{m-1}, ..., T1, R1
    copy_order = [0] + list(range(copies - 1, 0, -1))
    ins: dict[int, FactorSlot] = {}
    outs: dict[int, FactorSlot] = {}
    pos = 0
    for c in copy_order:
        if pos >= len(seq):
            raise AssertionError("ran out of factors while filling in-slots")
        f = seq[pos]
        if f.bar:
            raise AssertionError("dual-type factor landed on an in slot")
        ins[c] = f
        pos += 1
        if pos < len(seq):
            f = seq[pos]
            if f.bar:
                outs[c] = f
                pos += 1
            # otherwise leave this out slot empty (unpostselected copy)
    if pos != len(seq):
        raise AssertionError("factor sequence not fully consumed")
    slots = tuple(CopyPlan(ins.get(c), outs.get(c)) for c in range(copies))
    postselect = tuple(slots[c].out_slot is not None for c in range(copies))
    return CircuitPlan(n, n_prime, copies, slots, postselect)


def _resolve(slot: FactorSlot, bra: Sequence[GeneralFactor],
             ket: Sequence[GeneralFactor]) -> GeneralFactor:
    return (bra if slot.side == "bra" else ket)[slot.index - 1]


def _pre_gadget(b: _Builder, anc: int, f: GeneralFactor, offset: int, dagger: bool) -> None:
    w_pol, v_pol = (1, 0) if dagger else (0, 1)
    if f.w is not None:
        b.controlled_pauli(anc, f.w, offset, polarity=w_pol)
    if f.v is not None:
        b.controlled_pauli(anc, f.v, offset, polarity=v_pol)


def _post_gadget(b: _Builder, anc: int, f: GeneralFactor, offset: int, dagger: bool) -> None:
    w_pol, v_pol = (0, 1) if dagger else (1, 0)
    if f.w is not None:
        b.controlled_pauli(anc, _dagger_term(f.w), offset, polarity=w_pol)
    if f.v is not None:
        b.controlled_pauli(anc, _dagger_term(f.v), offset, polarity=v_pol)


def _dagger_term(t: PauliTerm) -> PauliTerm:
    return PauliTerm(t.axes, np.conj(t.coeff))


def execute_plan(plan: CircuitPlan, bra_factors: Sequence[GeneralFactor],
                 ket_factors: Sequence[GeneralFactor], obs: PauliTerm,
                 gadget_noise: NoiseModel | None = None,
                 gadget_seed: int = 0) -> complex:
    """Run the planned copies on the copy-register engine; <X+iY> over the mask."""
    if len(bra_factors) != plan.n or len(ket_factors) != plan.n_prime:
        raise ValueError("factor list lengths do not match the plan")
    w = bra_factors[0].circuit.n
    anc = plan.copies * w
    b = _Builder(anc + 1, gadget_noise, gadget_seed)
    ins = [None if cp.in_slot is None
           else _resolve(cp.in_slot, bra_factors, ket_factors) for cp in plan.slots]
    b.hadamard(anc)
    for c, cp in enumerate(plan.slots):
        if cp.in_slot is not None:
            _pre_gadget(b, anc, ins[c], c * w, cp.in_slot.dagger)
    if not obs.is_identity:
        b.controlled_pauli(anc, PauliTerm(obs.axes, 1.0), 0, polarity=1)
    b.controlled_shift(anc, plan.copies, w)
    keep = [anc]
    for c, cp in enumerate(plan.slots):
        if cp.out_slot is None:
            continue
        f = _resolve(cp.out_slot, bra_factors, ket_factors)
        _post_gadget(b, anc, f, c * w, cp.out_slot.dagger)
        b.raw(_place(reversed_circuit(f.circuit), c * w))
        keep.extend(range(c * w, (c + 1) * w))
    states = [zero_state(w) if f is None else _prepare(f.circuit) for f in ins]
    rho = _copy_register(states, b.circ.ops, keep)
    return complex(obs.coeff) * _anc_xy(rho, len(keep), ())
