"""Dense references the tests check qemlab's fast paths against.

Each one is the slow, plain form of an operation the package runs another
way: dense traces of sandwich products for the purification circuits, the
parameter-shift rule for the adjoint gradient, a gate-by-gate statevector
loop for the sweep plan, per-string loops for the batched Pauli algebra,
fresh arrays per step for the two-buffer density-matrix kernel, the fuse
and fold passes alone for the compile that also merges three-qubit runs, a kron start
state run segment by segment through that copying kernel for the
copy-register engine's owned states, full-register runs for the
copy-register engine, fresh generators on every call for the shared
shot-noise draws, coherent drift attached as the one channel it was
for the rule that now attaches it as rotation gates, and the two pencil
builders, fault and divided, that ``subspace.build`` replaced.  It also
holds ``random_circuit``, the one random-circuit draw the tests share.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from qemlab.channels import Channel
from qemlab.circuits import (
    Circuit,
    Gate,
    _compile,
    _contract,
    _fold,
    _rho_axes,
    _superop,
    apply,
    attach_noise,
    build_ansatz,
    dual_state,
    reversed_circuit,
    run,
    zero_state,
    zero_vector,
)
from qemlab.errors import EmptyDistributionError, SizeMismatchError
from qemlab.gevp import stack_energies
from qemlab.pauli import (
    DROP_TOL,
    PauliSum,
    PauliTerm,
    _axes_to_masks,
    expect_paulis,
    parity_signs,
)
from qemlab.purification import (
    _anc_xy,
    _Builder,
    _dsp_ops,
    _place,
    _post_gadget,
    _pre_gadget,
    _remap_ops,
    _resolve,
)
from qemlab.shotnoise import EnergyDistribution, _widths, var_dsp_many, var_pauli_state
from qemlab.subspace import (
    SubspaceMatrices,
    _block_fingerprint,
    _divided_terms,
    _dual,
    _fault_terms,
)

_I_POW = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)


def from_masks(n: int, masks: dict) -> PauliSum:
    """The sum of the strings (x, z) -> coeff in masks, in the dict's insertion
    order, which ``sum_mul`` reads as its pair order; sums below ``DROP_TOL`` dropped."""
    s = PauliSum.__new__(PauliSum)
    s.n = n
    s._terms = dict(masks)
    s._drop()
    return s


def dict_sum_mul(a: PauliSum, b: PauliSum) -> PauliSum:
    """The merged product a b by one dict update per pair of strings, a-major.

    The reference for ``pauli.sum_mul``: every coefficient is c1 * c2 * phase
    in Python complex arithmetic, added to its key in pair order, the keys in
    order of first occurrence, and the sums below ``DROP_TOL`` dropped.
    """
    if a.n != b.n:
        raise SizeMismatchError("cannot multiply sums on different registers")
    out: dict[tuple[int, int], complex] = {}
    for (x1, z1), c1 in a._terms.items():
        for (x2, z2), c2 in b._terms.items():
            x3, z3 = x1 ^ x2, z1 ^ z2
            t = ((x1 & z1).bit_count() + (x2 & z2).bit_count() - (x3 & z3).bit_count()
                 + 2 * (z1 & x2).bit_count()) % 4
            out[(x3, z3)] = out.get((x3, z3), 0.0) + c1 * c2 * _I_POW[t]
    return from_masks(a.n, {k: c for k, c in out.items() if abs(c) >= DROP_TOL})


def loop_expect_pauli(rho: np.ndarray, axes: str) -> complex:
    """Tr[rho P] for one unit-coefficient string by one gather of its own.

    The reference for ``pauli.expect_paulis``: P|i> = i^{#Y} (-1)^{|i & z|}
    |i ^ x>, so the trace is a signed sum along the matched off-diagonal.
    """
    n = len(axes)
    d = 1 << n
    if rho.shape != (d, d):
        raise SizeMismatchError(f"operator dim {rho.shape} vs {n} qubits")
    x, z = _axes_to_masks(axes)
    ny = (x & z).bit_count()
    idx = np.arange(d)
    signs = parity_signs(n)[idx & z]
    phase = _I_POW[ny % 4]
    return complex(phase * np.sum(signs * rho[idx, idx ^ x]))


def sandwich_pauli(a: np.ndarray, axes: str) -> np.ndarray:
    """P a P for a unit-coefficient string, by index gathers."""
    n = len(axes)
    d = 1 << n
    if a.shape != (d, d):
        raise SizeMismatchError(f"operator dim {a.shape} vs {n} qubits")
    x, z = _axes_to_masks(axes)
    idx = np.arange(d)
    signs = parity_signs(n)[idx & z].astype(complex)
    perm = idx ^ x
    # (P A P)_{ij} = i^{2#Y} (-1)^{|(i^x)&z| + |j&z|} A[i^x, j^x]
    out = a[np.ix_(perm, perm)] * np.outer(signs[perm], signs)
    if (x & z).bit_count() % 2:
        out = -out
    return out


def replace_with_mixed(rho: np.ndarray, qubits, n: int) -> np.ndarray:
    """Tensor I/2^k on the listed qubits against the partial trace of the rest.

    The index-offset loop that once applied scoped global depolarizing.
    """
    k = len(qubits)
    d = 1 << n
    mask = 0
    for q in qubits:
        mask |= 1 << q
    idx = np.arange(d)
    # partial trace: sum rho over matched bits of the traced qubits
    keep = idx[(idx & mask) == 0]
    rest = np.zeros((len(keep), len(keep)), dtype=complex)
    offsets = [o for o in range(d) if (o & ~mask) == 0]
    for o in offsets:
        rest += rho[np.ix_(keep | o, keep | o)]
    out = np.zeros_like(rho)
    w = 1.0 / (1 << k)
    for o in offsets:
        out[np.ix_(keep | o, keep | o)] = w * rest
    return out


def copying_partial_trace(rho: np.ndarray, keep, n: int) -> np.ndarray:
    """Reduced state on keep (ascending) by ``np.trace`` of a transposed (d, d) copy.

    The reference for ``circuits._partial_trace``, which sums the same
    entries through a strided view and must round exactly like this.
    """
    rows = [n - 1 - q for q in reversed(keep)]
    gone = [a for a in range(n) if a not in rows]
    perm = rows + gone + [n + a for a in rows] + [n + a for a in gone]
    dk, dt = 1 << len(keep), 1 << (n - len(keep))
    t = rho.reshape((2,) * (2 * n)).transpose(perm).reshape(dk, dt, dk, dt)
    return np.trace(t, axis1=1, axis2=3)


def copying_fence(rho: np.ndarray, ch, n: int) -> np.ndarray:
    """The global-depolarizing step on a (d, d) matrix, partial trace by copy."""
    p = ch.params[0]
    scope = ch.qubits or tuple(range(n))
    rest = [q for q in reversed(range(n)) if q not in scope]
    out = (1.0 - p) * rho
    s0, s1 = out.strides
    view = as_strided(out, (2,) * (2 * len(rest) + len(scope)),
                      [s0 << q for q in rest] + [s1 << q for q in rest]
                      + [(s0 + s1) << q for q in scope])
    mixed = copying_partial_trace(rho, rest[::-1], n) * (p / (1 << len(scope)))
    view += mixed.reshape((2,) * (2 * len(rest)) + (1,) * len(scope))
    return out


def unmerged_compile(circuit) -> list[tuple]:
    """``circuits._compile`` as it was before runs on three qubits were merged:
    the fuse and fold passes alone, each surviving block one step.

    The reference for the merge pass, which must leave every step of a circuit
    it does not merge bit for bit as this makes it, and must agree with these
    steps to rounding where it merges.
    """
    n = circuit.n
    steps: list = []             # [qubits, s], [None, channel] or None once folded away
    last: dict[int, int] = {}    # qubit -> its latest step
    before: dict[int, int] = {}  # qubit -> the step before its 1q block

    def pending(q: int) -> int:
        i = last.get(q, -1)
        return i if i >= 0 and steps[i][0] == (q,) else -1

    def settle(q: int) -> None:
        i, j = pending(q), before.get(q, -1)
        if i >= 0 and j >= 0 and steps[j][0] is not None:
            steps[j][1] = _fold(steps[j][1], steps[i][1], steps[j][0].index(q), left=True)
            steps[i], last[q] = None, j

    for op in circuit.ops:
        if isinstance(op, Channel) and op.kind == "global_depolarizing":
            for q in op.qubits or range(n):
                settle(q)
                last[q] = len(steps)
            steps.append([None, op])
            continue
        qubits, s = op.qubits, _superop(op)
        if len(qubits) == 1:
            i = pending(qubits[0])
            if i >= 0:
                steps[i][1] = s @ steps[i][1]
                continue
            before[qubits[0]] = last.get(qubits[0], -1)
        else:
            base = []
            for p, q in enumerate(qubits):
                i = pending(q)
                if i >= 0:
                    s = _fold(s, steps[i][1], p, left=False)
                    steps[i] = None
                    base.append(before[q])
                else:
                    base.append(last.get(q, -1))
            i = base[0]
            if i >= 0 and steps[i][0] == qubits and all(b == i for b in base):
                steps[i][1] = s @ steps[i][1]
                for q in qubits:
                    last[q] = i
                continue
        for q in qubits:
            last[q] = len(steps)
        steps.append([qubits, s])
    for q in range(n):
        settle(q)
    return [(None, st[1]) if st[0] is None else (_rho_axes(st[0], n), st[1])
            for st in steps if st is not None]


def copying_apply(circuit, rho: np.ndarray, compile=_compile) -> np.ndarray:
    """``circuits.apply`` with fresh arrays at every step.

    The reference for the two-buffer ``apply``: an up-front complex copy, a
    fresh ``_contract`` output per step, and each fence on a (d, d) copy of
    the transposed tensor.  Both must agree bit for bit.  With
    ``unmerged_compile`` it runs the steps of the fuse and fold passes alone.
    """
    n = circuit.n
    d = 1 << n
    t = rho.astype(complex, copy=True).reshape((2,) * (2 * n))
    for axes, step in compile(circuit):
        if axes is None:
            t = copying_fence(t.reshape(d, d), step, n).reshape((2,) * (2 * n))
        else:
            t = _contract(t, step, axes)
    return t.reshape(d, d)


def drift_channel_for_gate(model, gate, rng) -> list:
    """The channels that followed a gate while coherent drift was a channel.

    The reference for ``circuits.gate_noise``.  Every other kind gives
    ``NoiseModel.channels_for_gate``; drift gave one
    ``Channel("coherent_drift")`` on the gate's qubits, sorted, whose params
    list (generator, qubit, angle) per gate qubit in qubit order: x after an
    rx, z otherwise, each angle uniform in [0, p], none when p is 0.
    """
    if model.kind != "coherent_drift":
        return model.channels_for_gate(gate.qubits, rng)
    p = model.p2 if len(gate.qubits) >= 2 else model.p1
    if p == 0.0:
        return []
    gen = "x" if gate.name == "rx" else "z"
    rots = tuple((gen, q, float(rng.uniform(0.0, p))) for q in gate.qubits)
    return [Channel("coherent_drift", tuple(sorted(gate.qubits)), rots)]


def drift_channel_attach_noise(circuit, model, seed=0) -> tuple[Circuit, np.random.Generator]:
    """``circuits.attach_noise`` as it was while coherent drift was a channel,
    and its generator after the last draw: the channel's rotations expanded
    into rx and rz gates, a register-wide channel pinned to the circuit."""
    rng = np.random.default_rng(seed)
    scope = tuple(range(circuit.n))
    out = Circuit(circuit.n)
    for op in circuit.ops:
        out.ops.append(op)
        if isinstance(op, Gate):
            for chan in drift_channel_for_gate(model, op, rng):
                if chan.kind == "coherent_drift":
                    for gen, q, ang in chan.params:
                        out.ops.append(Gate("rx" if gen == "x" else "rz", (q,), ang))
                elif chan.kind == "global_depolarizing" and not chan.qubits:
                    out.ops.append(Channel(chan.kind, scope, chan.params, chan.dualized))
                else:
                    out.ops.append(chan)
    return out, rng


def drift_channel_gadget(n, model, gates, seed=0) -> tuple[Circuit, np.random.Generator]:
    """The gates as ``purification._Builder.gate`` appended them while coherent
    drift was a channel, each followed by its channels unpinned, and the
    generator after the last draw."""
    rng = np.random.default_rng(seed)
    out = Circuit(n)
    for g in gates:
        out.add(g)
        out.ops.extend(drift_channel_for_gate(model, g, rng))
    return out, rng


def drift_channel_compile(circuit) -> list[tuple]:
    """``circuits._compile`` of a circuit that may hold drift channels, each
    run as the compiler ran it: one rotation gate per (generator, qubit,
    angle), in that order, its angle negated when the channel is dualized."""
    ops = []
    for op in circuit.ops:
        if isinstance(op, Channel) and op.kind == "coherent_drift":
            ops.extend(Gate("rx" if gen == "x" else "rz", (q,), -ang if op.dualized else ang)
                       for gen, q, ang in op.params)
        else:
            ops.append(op)
    return _compile(Circuit(circuit.n, ops))


def kron_copy_register(states, ops, keep) -> np.ndarray:
    """The copy-register engine with a kron start state and a non-owning apply.

    The reference for ``purification._copy_register``, which hands its start
    state, and each segment's state after it, to ``_evolve`` to overwrite:
    the same segments, each run by ``copying_apply`` on a state it leaves as
    it is and reduced by ``copying_partial_trace``, must give the same bits.
    """
    rho = zero_state(1)
    for state in reversed(states):
        rho = np.kron(rho, state)
    live = list(range(rho.shape[0].bit_length() - 1))
    last = dict.fromkeys(live, -1)
    for i, op in enumerate(ops):
        for q in op.qubits or live:
            last[q] = i
    start = 0
    for cut in sorted({last[q] for q in live if q not in keep} | {len(ops) - 1}):
        index = {q: i for i, q in enumerate(live)}
        seg = _remap_ops(ops[start:cut + 1], index.__getitem__)
        if seg:
            rho = copying_apply(Circuit(len(live), seg), rho)
        start = cut + 1
        kept = [i for i, q in enumerate(live) if q in keep or last[q] > cut]
        if len(kept) < len(live):
            rho = copying_partial_trace(rho, kept, len(live))
            live = [live[i] for i in kept]
    return rho


def _offset_ops(circuit, offset):
    """The circuit's ops shifted by offset; a register-wide channel stays register-wide."""
    return _remap_ops(circuit.ops, lambda q: q + offset)


class FullRegisterEsd:
    """The copy-based estimator run whole on the full register.

    Every copy is prepared on its own qubits of the (n w + 1)-qubit register,
    the gadget follows, and each observable's tail runs on the full state.
    The reference for ``EsdEvaluator``, which tensors one copy's state and
    runs each tail on a reduced register.
    """

    def __init__(self, circ, n_copies, gadget_noise=None, gadget_seed=0):
        self.w, self.noise, self.seed = circ.n, gadget_noise, gadget_seed
        self.total = n_copies * self.w + 1
        self.anc = self.total - 1
        b = _Builder(self.total, gadget_noise, gadget_seed)
        for k in range(n_copies):
            b.raw(_offset_ops(circ, k * self.w))
        b.hadamard(self.anc)
        b.controlled_shift(self.anc, n_copies, self.w)
        self.mid = run(b.circ)

    def numerator(self, obs):
        rho = self.mid
        if obs is not None and not obs.is_identity:
            b = _Builder(self.total, self.noise, self.seed + 1)
            b.controlled_pauli(self.anc, PauliTerm(obs.axes, 1.0), 0, polarity=1)
            rho = apply(b.circ, rho)
        xy = float(np.real(_anc_xy(rho, self.total, range(self.total - 1))))
        return xy if obs is None else float(np.real(obs.coeff)) * xy


def dsp_whole_circuit(circ, obs, gadget_noise=None, out_circuit=None, gadget_seed=0):
    """(numerator, p0) with the observable's whole ancilla circuit run from |0..0>.

    The reference for ``DspEvaluator``, which runs the shared prefix once.
    """
    out = reversed_circuit(circ) if out_circuit is None else out_circuit
    p0 = float(np.real(run(Circuit(circ.n, list(circ.ops) + list(out.ops)))[0, 0]))
    if obs.is_identity:
        return float(np.real(complex(obs.coeff))) * p0, p0
    full = dsp_circuit(circ, obs, out, gadget_noise, gadget_seed)
    rho = run(full)
    return float((complex(obs.coeff) * np.real(_anc_xy(rho, full.n, ()))).real), p0


def full_register_re_purification(circ, n, obs, drop_last_uncompute=False,
                                  gadget_noise=None, gadget_seed=0):
    """``re_purification`` with every copy and uncompute run on the full register.

    The reference for the copy-register engine on circuits whose channels
    are all pinned, as ``attach_noise`` leaves them.
    """
    w = circ.n
    total = n * w + 1
    anc = total - 1
    b = _Builder(total, gadget_noise, gadget_seed)
    for k in range(n):
        b.raw(_offset_ops(circ, k * w))
    b.hadamard(anc)
    if not obs.is_identity:
        b.controlled_pauli(anc, PauliTerm(obs.axes, 1.0), 0, polarity=1)
    b.controlled_shift(anc, n, w)
    rev = reversed_circuit(circ)
    drop = (1 % n) if drop_last_uncompute else None
    free = []
    for k in range(n):
        if k == drop:
            free.extend(range(k * w, (k + 1) * w))
        else:
            b.raw(_offset_ops(rev, k * w))
    xy = _anc_xy(run(b.circ), total, free)
    coeff = complex(obs.coeff)
    if drop_last_uncompute:
        return coeff * complex(np.conj(xy))
    return coeff * complex(xy.real)


def full_register_execute_plan(plan, bra_factors, ket_factors, obs,
                               gadget_noise=None, gadget_seed=0):
    """``execute_plan`` with every copy prepared and read on the full register."""
    w = bra_factors[0].circuit.n
    total = plan.copies * w + 1
    anc = total - 1
    b = _Builder(total, gadget_noise, gadget_seed)
    for c, cp in enumerate(plan.slots):
        if cp.in_slot is not None:
            f = _resolve(cp.in_slot, bra_factors, ket_factors)
            b.raw(_offset_ops(f.circuit, c * w))
    b.hadamard(anc)
    for c, cp in enumerate(plan.slots):
        if cp.in_slot is not None:
            f = _resolve(cp.in_slot, bra_factors, ket_factors)
            _pre_gadget(b, anc, f, c * w, cp.in_slot.dagger)
    if not obs.is_identity:
        b.controlled_pauli(anc, PauliTerm(obs.axes, 1.0), 0, polarity=1)
    b.controlled_shift(anc, plan.copies, w)
    free = []
    for c, cp in enumerate(plan.slots):
        if cp.out_slot is None:
            free.extend(range(c * w, (c + 1) * w))
            continue
        f = _resolve(cp.out_slot, bra_factors, ket_factors)
        _post_gadget(b, anc, f, c * w, cp.out_slot.dagger)
        b.raw(_offset_ops(reversed_circuit(f.circuit), c * w))
    return complex(obs.coeff) * _anc_xy(run(b.circ), total, free)


# ---------------------------------------------------------------------------
# dense traces of the products the purification circuits estimate


def oracle_trace(factors, obs=None) -> complex:
    """Tr[(prod factors) * obs] by dense multiplication.

    Each factor is a matrix or a (matrix, conj) pair; conj=True uses the
    conjugate transpose.  obs may be a PauliTerm, PauliSum, matrix, or None.
    """
    prod = None
    for f in factors:
        mat, conj = (f if isinstance(f, tuple) else (f, False))
        mat = np.asarray(mat, dtype=complex)
        if conj:
            mat = mat.conj().T
        if prod is None:
            prod = mat
        elif mat.shape[0] != prod.shape[0]:
            raise ValueError("factor dimensions differ")
        else:
            prod = prod @ mat
    if prod is None:
        raise ValueError("no factors")
    if obs is None:
        return complex(np.trace(prod))
    om = obs.matrix() if isinstance(obs, (PauliTerm, PauliSum)) else np.asarray(obs, dtype=complex)
    return complex(np.trace(prod @ om))


def factor_sequence(plan) -> list:
    """The plan's factor slots in the cyclic order whose trace (times obs) it computes."""
    order = [0] + list(range(plan.copies - 1, 0, -1))
    return [slot for c in order for slot in (plan.slots[c].in_slot, plan.slots[c].out_slot)
            if slot is not None]


def factor_matrix(f, bar: bool, dagger: bool) -> np.ndarray:
    """A ``GeneralFactor``'s V rho W^dag, rho its state or (bar) its dual, daggered on request."""
    rho = dual_state(f.circuit) if bar else run(f.circuit)
    d = rho.shape[0]
    vm = f.v.matrix() if f.v is not None else np.eye(d, dtype=complex)
    wm = f.w.matrix() if f.w is not None else np.eye(d, dtype=complex)
    tau = vm @ rho @ wm.conj().T
    return tau.conj().T if dagger else tau


def planned_oracle(plan, bra_factors, ket_factors, obs) -> complex:
    """Dense-matrix value of the trace ``execute_plan`` estimates for the same plan."""
    mats = [factor_matrix(_resolve(slot, bra_factors, ket_factors), slot.bar, slot.dagger)
            for slot in factor_sequence(plan)]
    return oracle_trace(mats, obs)


def dsp_circuit(circ, obs, out_circuit=None, gadget_noise=None, gadget_seed=0) -> Circuit:
    """The whole indirect-measurement circuit ``DspEvaluator`` runs for obs, ancilla on top."""
    if out_circuit is None:
        out_circuit = reversed_circuit(circ)
    return _dsp_ops(circ.n, _place(circ, 0), obs, _place(out_circuit, 0),
                    gadget_noise, gadget_seed)


# ---------------------------------------------------------------------------
# the variational baseline and the cost proxies


def energy(h_mat: np.ndarray, psi: np.ndarray) -> float:
    """<psi|H|psi>, the form ``vqe``'s forward sweep rounds."""
    return float(np.real(np.vdot(psi, h_mat @ psi)))


def apply_unitary_state(psi: np.ndarray, u: np.ndarray, qubits, n: int) -> np.ndarray:
    """U on the listed qubits of a flat statevector, through ``circuits._contract``."""
    axes = tuple(n - 1 - q for q in qubits)
    return _contract(psi.reshape((2,) * n), u, axes).reshape(psi.shape)


def apply_state(circuit, psi: np.ndarray) -> np.ndarray:
    """A channel-free circuit on a statevector, one gate matrix at a time.

    The reference for ``vqe.ansatz_state``, the forward sweep of the sweep plan.
    """
    out = psi.astype(complex, copy=True)
    for op in circuit.ops:
        out = apply_unitary_state(out, op.matrix(), op.qubits, circuit.n)
    return out


def ansatz_state(ansatz, params) -> np.ndarray:
    """The ``AnsatzCircuit``'s state at params, gate by gate."""
    circ = build_ansatz(ansatz.n, ansatz.layers, params, ansatz.edges)
    return apply_state(circ, zero_vector(ansatz.n))


def parameter_shift_gradient(ansatz, h_mat: np.ndarray, params) -> np.ndarray:
    """dE/dtheta by the exact +-pi/2 shift rule, one pair of runs per angle.

    The reference for ``vqe.adjoint_gradient``.
    """
    params = np.asarray(params, dtype=float)
    grad = np.empty_like(params)
    for i in range(len(params)):
        shifted = params.copy()
        shifted[i] += np.pi / 2.0
        plus = energy(h_mat, ansatz_state(ansatz, shifted))
        shifted[i] -= np.pi
        minus = energy(h_mat, ansatz_state(ansatz, shifted))
        grad[i] = 0.5 * (plus - minus)
    return grad


@dataclass(frozen=True)
class PostselectBound:
    lambda_min: float
    hadamard_bound: float
    ns_scaling: float


def postselect_bound(s: np.ndarray, gamma: float, m: int) -> PostselectBound:
    """Spectral floor of the overlap and the shot-cost proxy it implies.

    hadamard_bound is the geometric mean of the diagonal, an upper bound on
    the smallest eigenvalue; ns_scaling = 16 gamma^2 M^2 / lambda_min^2 with
    the target bias factored out.
    """
    s = np.asarray(s, dtype=complex)
    lam_min = float(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[0])
    diag = np.real(np.diag(s))
    bound = float(np.prod(diag) ** (1.0 / m)) if np.all(diag > 0) else float("nan")
    scaling = 16.0 * gamma * gamma * m * m / (lam_min * lam_min) if lam_min > 0 else float("inf")
    return PostselectBound(lam_min, bound, scaling)


def per_call_sample_distribution(matrices, cfg, window, threshold=None):
    """``shotnoise.sample_distribution`` with no draws shared between calls.

    Every call makes sample k's generator ``default_rng([seed, k])`` anew and
    draws the pencil's queries with one ``normal(0.0, sd)`` call, 1024
    samples to a stack; the rest is the package's own assembly and solve.
    """
    if threshold is None:
        threshold = 10.0 / np.sqrt(cfg.ns)
    sd = _widths(matrices, cfg)
    slots = list(matrices.queries.values())
    im = (matrices.value.imag + 0.0).tolist()
    energies = []
    for start in range(0, cfg.n_samples, 1024):
        rngs = [np.random.default_rng([cfg.seed, k])
                for k in range(start, min(start + 1024, cfg.n_samples))]
        re = np.stack([rng.normal(0.0, sd) for rng in rngs], axis=1)
        re += matrices.value.real[slots, None]
        n = re.shape[1]
        rows = [None] * len(im)
        for k, row in zip(slots, list(re) if n > 1 else re[:, 0].tolist()):
            rows[k] = row
        energies.append(stack_energies(*matrices.assemble(rows, im, n), window, threshold))
    arr = np.concatenate(energies)
    solved = ~np.isnan(arr)
    if not np.any(solved):
        raise EmptyDistributionError(f"every sample was rejected at M {matrices.m}, "
                                     f"ns {cfg.ns:g}, n_samples {cfg.n_samples}")
    arr = arr[solved]
    return EnergyDistribution(arr, float(arr.mean()), float(arr.std()), int(np.sum(~solved)))


def random_circuit(rng, n, depth, noise=None, seed=0):
    """depth gates drawn from rng (rx, rz, h, cz, cx), noise attached after."""
    c = Circuit(n)
    for _ in range(depth):
        kind = rng.choice(["rx", "rz", "h", "cz", "cx"])
        if kind in ("cz", "cx") and n >= 2:
            a, b = rng.choice(n, size=2, replace=False)
            c.add(Gate(kind, (int(a), int(b))))
        else:
            q = int(rng.integers(n))
            ang = float(rng.uniform(-np.pi, np.pi))
            c.add(Gate(kind if kind in ("rx", "rz") else "h", (q,),
                       ang if kind in ("rx", "rz") else None))
    if noise is not None:
        c = attach_noise(c, noise, seed=seed)
    return c


def two_builders(spec, ansatz, noise, seed=0, with_variances=True) -> SubspaceMatrices:
    """``subspace.build`` as the two builders it replaced made the pencil:
    the fault one and the divided one, each with its own key closure and
    reading loop, over the shared term enumerations."""
    if spec.kind == "fault":
        return _fault_builder(spec, ansatz, noise, seed, with_variances)
    return _divided_builder(spec, ansatz, noise, seed, with_variances)


def _fault_builder(spec, ansatz, noise, seed, with_variances):
    circs = [attach_noise(ansatz, noise.amplified(float(k)), seed=seed)
             for k in range(1, spec.m + 1)]
    rhos = [run(c) for c in circs]
    bars = [_dual(c, rho) for c, rho in zip(circs, rhos)]
    reads: dict = {}

    def pair_key(i, j, axes):
        key = ("fault", i, j, axes)
        reads.setdefault((i, j), {})[key] = None
        return key

    elements = _fault_terms(spec.m, spec.hamiltonian, pair_key)
    readings: dict = {}
    for (i, j), keys in reads.items():
        axes = [k[3] for k in keys]
        br = bars[j] @ rhos[i]
        values = expect_paulis(0.5 * (br + br.conj().T), axes)
        var = var_dsp_many(rhos[i], bars[j], axes) if with_variances else [None] * len(axes)
        readings.update(zip(keys, zip(values, var)))
    return SubspaceMatrices(spec.m, readings, elements, with_variances)


def _divided_builder(spec, ansatz, noise, seed, with_variances):
    ansatzes = [ansatz] if spec.kind == "power" else list(ansatz)
    circs = [attach_noise(c, noise, seed=seed) for c in ansatzes]
    rhos = [run(c) for c in circs]
    bars = [_dual(c, rho) for c, rho in zip(circs, rhos)]
    rbs = [r @ b for r, b in zip(rhos, bars)]
    states = {"rho": rhos, "dual": bars,
              "dsp": [0.5 * ((rb if b is r else b @ r) + rb)
                      for r, b, rb in zip(rhos, bars, rbs)]}
    bkeys = [_block_fingerprint(c) for c in circs] if spec.kind == "dc" else [""]
    seen: set = set()
    reads: dict = {}

    def key(which, l, axes):
        state = ("power", which) if spec.kind == "power" else ("dc", which, bkeys[l])
        k = state + (axes,)
        if k not in seen:
            seen.add(k)
            reads.setdefault((which, l), []).append(k)
        return k

    elements = _divided_terms(spec, key, [complex(np.trace(r)) for r in rhos],
                              [complex(np.trace(b)) for b in bars])
    readings: dict = {}
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
