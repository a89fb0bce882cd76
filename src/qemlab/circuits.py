"""Gates, circuits, and dense density-matrix evolution.

Qubit 0 is the least significant bit of a basis index.  A circuit is a flat
instruction stream mixing gates and channels; a channel always acts right
where it sits in the stream.  The register is capped at 10 qubits because
everything here is dense.

``_evolve`` runs a circuit on a density matrix in four stages:

* compile: every gate becomes its superoperator kron(U, conj(U)) and every
  local channel the sum of K (x) conj(K) over its Kraus set, on the op's own
  qubit tuple (first listed qubit = local MSB), each cached by value;
* fuse: an op is multiplied into the latest block on its qubits when that
  block acts on the same tuple and nothing has touched those qubits since,
  so a gate absorbs the noise that follows it and a run of one-qubit ops
  collapses into one 4x4;
* fold 1q into 2q: a one-qubit block is folded into the next multi-qubit
  block on its qubit, or, when a fence or the end comes first, into the
  multi-qubit block before it.  A noisy 2q gate with per-qubit noise is then
  one step, and an rx/rz rank rides inside the cz blocks around it;
* merge runs on three qubits: each maximal run of consecutive blocks whose
  qubits together span three, up to a fence, becomes one block where the
  products it saves on the state outweigh those of composing it
  (``_merge``).  A noisy controlled swap, seven 2q blocks, is then one step
  on a register of 7 or more qubits; no run merges at n <= 6, and the path-8
  brickwork has no run to merge;
* contract: rho is held as a tensor with 2n axes (row bits, then column
  bits) and each block is one ``_contract`` over its 2k axes.  A run
  holds two d^2 buffers and allocates nothing per step: the start state it
  owns and overwrites, and one scratch buffer.  Each step copies the state,
  permuted, into the scratch buffer and multiplies back into the first, and
  the result is copied in row-major order into the scratch buffer, or, when
  only a reduced state is wanted, read by a partial trace where it lies.

``run`` and ``dual_state`` hand their fresh |0..0> to ``_evolve``, as do the
copy-register engine and the estimators of ``purification`` with each state
they have just made.  ``apply`` leaves its input as it is: it copies it once
and evolves the copy.

``_contract`` is the one kernel: the folds and the sweep plan of ``vqe``,
the one statevector simulator, go through it too.  It makes the transpose
-> reshape -> ``np.dot`` call that ``np.tensordot`` makes and returns the
view ``np.moveaxis`` would, so it rounds bit for bit like that pair and only
skips their per-call bookkeeping.  Fusing, folding and merging reorder
products, so ``_evolve`` agrees with op-by-op application to rounding, not
bit for bit.

Global depolarizing, register-wide or scoped, is no local superoperator: it
stays one affine step through ``apply_channel``, (1 - p) rho plus p times
the partial trace over its scope tensored with I/2^k, and fences its qubits.
The step acts in place on the transposed tensor view the last contraction
left: ``_partial_trace`` sums the entries it needs through one strided view,
and the mixed term is added through another, with no (d, d) copy.

Two derived circuits matter for purification work:

* ``reversed_circuit``: the physical uncomputation.  Gates reversed and
  inverted, each still followed by its own noise.
* ``dual_circuit``: adjoint-Kraus dual of the uncomputation.  Gates return
  to the original order and sense, but each gate is now preceded by the
  duals of its noise, last channel first.  Running it on |0..0> produces
  the dual state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .channels import Channel, NoiseModel, single_qubit_kraus
from .errors import RegisterCapError, SizeMismatchError
from .pauli import PAULI_MATRICES, term_matrix

MAX_QUBITS = 10

_H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
_X, _Y, _Z = (PAULI_MATRICES[c] for c in "XYZ")
_S = np.diag([1.0, 1.0j]).astype(complex)
_V = 0.5 * np.array([[1.0 + 1.0j, 1.0 - 1.0j], [1.0 - 1.0j, 1.0 + 1.0j]], dtype=complex)

_FIXED_1Q = {"h": _H, "x": _X, "y": _Y, "z": _Z, "s": _S, "sdg": _S.conj().T,
             "v": _V, "vdg": _V.conj().T}
_INVERSE_1Q = {"h": "h", "x": "x", "y": "y", "z": "z", "s": "sdg", "sdg": "s",
               "v": "vdg", "vdg": "v"}


@dataclass(eq=False)
class Gate:
    """One unitary operation.

    name: rx, rz, h, x, y, z, s, sdg, v, vdg, phase, cx, cy, cz, cv, cvdg,
          swap, cswap, cpauli, or u (explicit matrix).
    qubits: acted qubits; the first listed qubit is the most significant
            bit of the local matrix (controls come first).
    angle: rotation angle for rx/rz/phase.
    payload: letters for cpauli, or the explicit matrix for u.
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None
    payload: object = None

    def __post_init__(self) -> None:
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in gate {self.name}")

    def matrix(self) -> np.ndarray:
        return gate_matrix(self)

    def inverse(self) -> "Gate":
        if self.name in _INVERSE_1Q:
            return Gate(_INVERSE_1Q[self.name], self.qubits)
        if self.name in ("rx", "rz", "phase"):
            return Gate(self.name, self.qubits, -self.angle)
        if self.name in ("cx", "cy", "cz", "swap", "cswap"):
            return Gate(self.name, self.qubits)
        if self.name == "cv":
            return Gate("cvdg", self.qubits)
        if self.name == "cvdg":
            return Gate("cv", self.qubits)
        if self.name == "cpauli":
            return Gate("cpauli", self.qubits, payload=self.payload)
        if self.name == "u":
            return Gate("u", self.qubits, payload=np.asarray(self.payload).conj().T)
        raise ValueError(f"cannot invert gate {self.name}")


def rotation(name: str, angle: float) -> np.ndarray:
    """The rx or rz matrix exp(-i angle P / 2), P = X or Z."""
    if name == "rx":
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        return np.array([[c, -1.0j * s], [-1.0j * s, c]], dtype=complex)
    return np.array([[np.exp(-0.5j * angle), 0.0], [0.0, np.exp(0.5j * angle)]], dtype=complex)


def gate_matrix(g: Gate) -> np.ndarray:
    if g.name in _FIXED_1Q:
        return _FIXED_1Q[g.name]
    if g.name in ("rx", "rz"):
        return rotation(g.name, g.angle)
    if g.name == "phase":
        return np.diag([1.0, np.exp(1.0j * g.angle)]).astype(complex)
    if g.name == "cz":
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    if g.name == "cx":
        return _controlled(_X)
    if g.name == "cy":
        return _controlled(_Y)
    if g.name == "cv":
        return _controlled(_V)
    if g.name == "cvdg":
        return _controlled(_V.conj().T)
    if g.name == "swap":
        m = np.eye(4, dtype=complex)
        m[[1, 2]] = m[[2, 1]]
        return m
    if g.name == "cswap":
        # control is the local MSB: swap |101> and |110>
        m = np.eye(8, dtype=complex)
        m[[5, 6]] = m[[6, 5]]
        return m
    if g.name == "cpauli":
        sub = term_matrix(str(g.payload)[::-1])  # payload letters listed MSB-first
        return _controlled(sub)
    if g.name == "u":
        return np.asarray(g.payload, dtype=complex)
    raise ValueError(f"unknown gate {g.name}")


def _controlled(u: np.ndarray) -> np.ndarray:
    k = u.shape[0]
    m = np.eye(2 * k, dtype=complex)
    m[k:, k:] = u
    return m


@dataclass
class Circuit:
    """A register size plus a flat stream of gates and channels."""

    n: int
    ops: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n > MAX_QUBITS:
            raise RegisterCapError(f"{self.n} qubits exceeds the dense cap of {MAX_QUBITS}")

    def add(self, op) -> "Circuit":
        qs = op.qubits
        if any(q < 0 or q >= self.n for q in qs):
            raise ValueError(f"{op} addresses qubits outside 0..{self.n - 1}")
        self.ops.append(op)
        return self

    def gates(self) -> Iterator[Gate]:
        return (op for op in self.ops if isinstance(op, Gate))

    def channels(self) -> Iterator[Channel]:
        return (op for op in self.ops if isinstance(op, Channel))

    def dump(self) -> str:
        """One op per line, exact: an angle prints by ``repr`` and a u matrix
        by its bytes, so equal dumps mean bit-identical circuits."""
        lines = []
        for op in self.ops:
            if isinstance(op, Gate):
                extra = f" angle={float(op.angle)!r}" if op.angle is not None else ""
                if op.name == "cpauli":
                    extra += f" letters={op.payload}"
                elif op.name == "u":
                    extra += f" matrix={op.matrix().tobytes().hex()}"
                lines.append(f"gate {op.name} {list(op.qubits)}{extra}")
            else:
                tag = " dual" if op.dualized else ""
                lines.append(f"channel {op.kind} {list(op.qubits)} {op.params}{tag}")
        return "\n".join(lines)


def zero_state(n: int) -> np.ndarray:
    """|0..0><0..0| on n qubits."""
    d = 1 << n
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def zero_vector(n: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = 1.0
    return v


@lru_cache(maxsize=4096)
def _perms(ndim: int, axes: tuple[int, ...], stack: bool = False) -> tuple[tuple[int, ...], ...]:
    """Stack axis, listed axes, the rest; its inverse; the all-2 shape of an ndim tensor."""
    first = ((0,) if stack else ()) + axes
    perm = first + tuple(a for a in range(ndim) if a not in first)
    return perm, tuple(int(a) for a in np.argsort(perm)), (2,) * ndim


def _contract(t: np.ndarray, m: np.ndarray, axes: tuple[int, ...], stack: bool = False,
              into: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """A 2^j x 2^j matrix m on the j listed size-2 axes of t (first = local MSB).

    The one simulation kernel.  It makes the transpose -> reshape -> ``np.dot``
    call that ``np.tensordot(m.reshape((2,) * 2j), t, (range(j, 2j), axes))``
    makes, and hands back the transposed view that ``np.moveaxis`` would, so
    it rounds exactly like that pair; only the bookkeeping is cached.

    With ``into`` = (scratch, out), two flat arrays of t's size, the permuted
    copy is written to scratch and the product to out, and the result is a
    view of out.  t is read in full before out is written, so out may be the
    array t views: ``_evolve`` runs a whole circuit in those two buffers, the
    state it owns and one scratch buffer.

    With ``stack`` the first axis of t (size 2) holds two tensors, and one
    ``np.matmul`` makes for each the gemm call that ``np.dot`` makes on its
    own, so each rounds as in a call of its own.
    """
    perm, inverse, shape = _perms(t.ndim, axes, stack)
    t = t.transpose(perm)
    if into is not None:
        scratch, out = into
        np.copyto(scratch.reshape(shape), t)
        out = np.dot(m, scratch.reshape(m.shape[1], -1), out=out.reshape(m.shape[0], -1))
    elif stack:
        out = np.matmul(m, t.reshape(2, m.shape[1], -1))
    else:
        out = np.dot(m, t.reshape(m.shape[1], -1))
    return out.reshape(shape).transpose(inverse)


def _rho_axes(qubits: Sequence[int], n: int) -> tuple[int, ...]:
    """Row then column axes of the listed qubits in rho's 2n-axis tensor."""
    return tuple(n - 1 - q for q in qubits) + tuple(2 * n - 1 - q for q in qubits)


def _partial_trace(rho: np.ndarray, keep: Sequence[int], n: int) -> np.ndarray:
    """Reduced state on the listed qubits (ascending; keep[i] becomes qubit i).

    rho is a density matrix or its 2n-axis tensor, in any strides.  One
    strided view reads the entries whose row and column agree on the traced
    qubits: traced bits, kept row bits, kept column bits, each most
    significant first.  Only those entries are copied, in that order, and
    they are summed over the traced index, first to last (pairwise when
    nothing is kept), which is the order ``np.trace`` of the transposed
    (d, d) copy sums in.  The copy must be row-major: on a view whose traced
    axes merge into one of the smallest stride, numpy sums pairwise instead.
    """
    t = rho.reshape((2,) * (2 * n))
    rows = [n - 1 - q for q in reversed(keep)]
    gone = [a for a in range(n) if a not in rows]
    s = t.strides
    diag = as_strided(t, (2,) * (n + len(rows)),
                      [s[a] + s[n + a] for a in gone] + [s[a] for a in rows]
                      + [s[n + a] for a in rows], writeable=False)
    dk = 1 << len(rows)
    return np.add.reduce(np.ascontiguousarray(diag).reshape(-1, dk, dk))


def _unitary_superop(u: np.ndarray) -> np.ndarray:
    """kron(U, conj(U)), built as a broadcast outer product (np.kron is slower)."""
    d = u.shape[0]
    return (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(d * d, d * d)


@lru_cache(maxsize=4096)
def _channel_superop(kind: str, k: int, params: tuple, dualized: bool) -> np.ndarray:
    """Superoperator of a local channel on k qubits; read-only, as it is shared.

    Keyed by value without the qubit labels, so every placement of one
    channel reuses it.  Local depolarizing replaces the k qubits with I/2^k;
    the other kinds act on each qubit with ``single_qubit_kraus``, which
    already adjoints a dualized set.
    """
    if kind == "local_depolarizing":
        d = 1 << k
        flat_eye = np.eye(d, dtype=complex).reshape(-1)
        s = (1.0 - params[0]) * np.eye(d * d, dtype=complex) \
            + (params[0] / d) * np.outer(flat_eye, flat_eye)
    else:
        one = single_qubit_kraus(Channel(kind, (0,), params, dualized))
        kraus = one
        for _ in range(k - 1):
            kraus = [np.kron(a, b) for a in kraus for b in one]
        s = sum(_unitary_superop(kmat) for kmat in kraus)
    s.flags.writeable = False
    return s


@lru_cache(maxsize=1 << 14)
def _cached_gate_superop(name: str, angle, negative: bool, payload) -> np.ndarray:
    """kron(U, conj(U)) of a gate by value; read-only, as it is shared.

    ``negative`` is the angle's sign bit: 0.0 == -0.0 as a key, but rx(-0.0)
    has zeros of the other sign, so it must not reuse rx(0.0).  The size lets
    ``run`` and ``dual_state`` of one depth-1000 path-4 ansatz (8008 distinct
    rotations) share entries; a full cache holds about 14 MiB.
    """
    s = _unitary_superop(gate_matrix(Gate(name, (), angle, payload)))
    s.flags.writeable = False
    return s


def _gate_superop(g: Gate) -> np.ndarray:
    """The gate's superoperator, cached unless its payload is a matrix (u)."""
    if g.name == "u":
        return _unitary_superop(g.matrix())
    negative = g.angle is not None and math.copysign(1.0, g.angle) < 0.0
    return _cached_gate_superop(g.name, g.angle, negative, g.payload)


def _superop(op) -> np.ndarray:
    """The superoperator of a gate or a local channel, on its qubits."""
    if isinstance(op, Gate):
        return _gate_superop(op)
    return _channel_superop(op.kind, len(op.qubits), op.params, op.dualized)


def _fold(block: np.ndarray, s1: np.ndarray, p: int, left: bool) -> np.ndarray:
    """s1 @ block (left) or block @ s1, with s1 a 1q superop on local qubit p.

    As a tensor with 4k axes (output row bits, output column bits, input row
    bits, input column bits), the block takes s1 on its two output axes of
    qubit p, or s1's transpose on the two input axes.
    """
    k = (block.shape[0].bit_length() - 1) // 2
    axes = (p, k + p) if left else (2 * k + p, 3 * k + p)
    t = block.reshape((2,) * (4 * k))
    return _contract(t, s1 if left else s1.T, axes).reshape(block.shape)


def _compile(circuit: Circuit) -> list[tuple]:
    """Fuse, fold and merge the op stream into (rho axes, superoperator) steps, in order.

    A 1q op joins the 1q block on its qubit when that block is the latest
    step there, and opens one otherwise.  A multi-qubit op first folds in the
    1q blocks waiting on its qubits (from the right: they act first).  It is
    then multiplied into the step before them when that step acts on the same
    qubit tuple and is the latest on each of its qubits.  A 1q block that
    meets a fence or the end instead folds from the left into the
    multi-qubit block before it.  Whatever a fold or a fusion moves past acts
    on other qubits and commutes with it.  Global depolarizing stays one
    (None, channel) step that fences its qubits.  ``_merge`` then joins runs
    of blocks on three qubits.
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
    return _merge([st for st in steps if st is not None], n)


def _merge(steps: list, n: int) -> list[tuple]:
    """The [qubits, s] and [None, channel] steps as (rho axes, superoperator)
    steps, each maximal run that spans three qubits merged into one where
    that pays.

    Runs are taken greedily in order, each as long as its qubits together
    span at most three, and a fence ends one.  A run's qubits are listed in
    order of first appearance.  Its 64 x 64 block starts as the identity and
    takes each member on its output axes, by the ``_contract`` that ``_fold``
    makes, so a member on k qubits costs 4^k 4^6 products.  Applying a step
    on k qubits costs 4^k 4^n, so the run is merged only when the products
    it saves on the n-qubit state outweigh those of composing it:
    4^n (sum 4^k - 4^3) > 4^6 sum 4^k.  A run of seven two-qubit steps pays
    from n = 7 on, and no run pays at n <= 6.  A run on fewer qubits is left
    as it is.
    """
    out: list[tuple] = []
    run: list = []
    span: list[int] = []

    def close() -> None:
        cost = sum(s.shape[0] for _, s in run)
        if len(span) == 3 and 4 ** n * (cost - 64) > 4096 * cost:
            t = np.eye(64, dtype=complex).reshape((2,) * 12)
            for qubits, s in run:
                p = tuple(span.index(q) for q in qubits)
                t = _contract(t, s, p + tuple(3 + i for i in p))
            run[:] = [(tuple(span), t.reshape(64, 64))]
        out.extend((_rho_axes(qubits, n), s) for qubits, s in run)
        run.clear()
        span.clear()

    for qubits, s in steps:
        if qubits is None:
            close()
            out.append((None, s))
            continue
        new = [q for q in qubits if q not in span]
        if len(span) + len(new) > 3:
            close()
            new = list(qubits)
        run.append((qubits, s))
        span.extend(new)
    close()
    return out


def apply_channel(rho: np.ndarray, ch: Channel, n: int) -> np.ndarray:
    """The global-depolarizing step ``_evolve`` runs, in place on rho, which it returns.

    (1 - p) rho + p Tr_S(rho) (x) I/2^k on its scope S of k qubits (an empty
    tuple means the whole register).  rho is a density matrix or its 2n-axis
    tensor, in any strides, such as the transposed view a contraction leaves.
    The partial trace is read first; rho is then scaled where it lies, and
    the second term is added through a strided view of the entries whose row
    and column agree on S: its axes are the bits of the other qubits, most
    significant first as in the reduced state (rows, then columns), and
    those of S.  Every other kind is a local superoperator that ``_evolve``
    compiles, so it raises ValueError.
    """
    if ch.kind != "global_depolarizing":
        raise ValueError(f"{ch.kind} is compiled by apply, not applied as a step")
    p = ch.params[0]
    scope = ch.qubits or tuple(range(n))
    rest = [q for q in reversed(range(n)) if q not in scope]
    mixed = _partial_trace(rho, rest[::-1], n) * (p / (1 << len(scope)))
    np.multiply(1.0 - p, rho, out=rho)
    s = rho.reshape((2,) * (2 * n)).strides
    view = as_strided(rho, (2,) * (2 * len(rest) + len(scope)),
                      [s[n - 1 - q] for q in rest] + [s[2 * n - 1 - q] for q in rest]
                      + [s[n - 1 - q] + s[2 * n - 1 - q] for q in scope])
    view += mixed.reshape((2,) * (2 * len(rest)) + (1,) * len(scope))
    return rho


def _evolve(circuit: Circuit, rho: np.ndarray,
            keep: Sequence[int] | None = None) -> np.ndarray:
    """Run the instruction stream on rho, a state this call owns and overwrites.

    rho must be a C-contiguous complex (d, d) array that nothing else reads:
    it is one of the two buffers, so only the scratch buffer is allocated.
    Each contract step copies the state, permuted, into the scratch buffer
    and multiplies back into rho's, and a fence acts on it where it lies.
    The last result is copied in row-major order into the scratch buffer and
    returned; rho's contents are then spent.  With keep (ascending), the
    scratch buffer is dropped instead and the reduced state on those qubits
    is returned, which ``_partial_trace`` reads through the last step's
    view with the same bits as from the copy.
    """
    n = circuit.n
    d = 1 << n
    if rho.shape != (d, d):
        raise SizeMismatchError(f"state dim {rho.shape} vs {n}-qubit circuit")
    if rho.dtype != complex or not (rho.flags.c_contiguous and rho.flags.writeable):
        raise ValueError("an evolved state must be a writeable C-contiguous complex array")
    steps = _compile(circuit)  # its temporaries are gone before the scratch buffer comes
    shape = (2,) * (2 * n)
    t = rho.reshape(shape)
    state, scratch = rho.reshape(-1), np.empty(d * d, dtype=complex)
    for axes, step in steps:
        if axes is None:
            apply_channel(t, step, n)
        else:
            t = _contract(t, step, axes, into=(scratch, state))
    if keep is not None:
        del scratch
        return _partial_trace(t, keep, n)
    out = scratch.reshape(shape)
    np.copyto(out, t)
    return out.reshape(d, d)


def apply(circuit: Circuit, rho: np.ndarray) -> np.ndarray:
    """Run the instruction stream on a density matrix; rho is left as it is.

    rho is copied once, as a C-contiguous complex array, and ``_evolve``
    runs the circuit on the copy.
    """
    return _evolve(circuit, np.array(rho, dtype=complex, order="C"))


def run(circuit: Circuit) -> np.ndarray:
    """Density matrix produced from |0..0>."""
    return _evolve(circuit, zero_state(circuit.n))


def build_ansatz(n: int, layers: int, params: Sequence[float],
                 edges: Sequence[tuple[int, int]]) -> Circuit:
    """Layered rx/rz ansatz with brickwork cz entanglers.

    Each of ``layers`` blocks applies rx then rz on every qubit followed by
    cz on each edge (even-indexed edges first, then odd); one final rx/rz
    rank closes the circuit.  Expects len(params) == 2 n (layers + 1).
    """
    want = 2 * n * (layers + 1)
    if len(params) != want:
        raise ValueError(f"need {want} parameters, got {len(params)}")
    edges = list(edges)
    order = [e for i, e in enumerate(edges) if i % 2 == 0] + \
            [e for i, e in enumerate(edges) if i % 2 == 1]
    c = Circuit(n)
    k = 0
    for _ in range(layers):
        for q in range(n):
            c.add(Gate("rx", (q,), params[k + q]))
        for q in range(n):
            c.add(Gate("rz", (q,), params[k + n + q]))
        k += 2 * n
        for (a, b) in order:
            c.add(Gate("cz", (a, b)))
    for q in range(n):
        c.add(Gate("rx", (q,), params[k + q]))
    for q in range(n):
        c.add(Gate("rz", (q,), params[k + n + q]))
    return c


def gate_noise(model: NoiseModel, gate: Gate, rng: np.random.Generator) -> list:
    """The ops that follow one gate under the model: the one rule for gate noise.

    Coherent drift is a calibration error, not a Kraus process: one rotation
    gate per gate qubit, in qubit order, rx after an rx and rz otherwise, by
    an angle drawn uniformly from [0, p], p = p1 on a one-qubit gate and p2
    otherwise (none when p is 0).  As plain gates, the uncomputation block
    inverts them and the dual state stays equal to the state under purely
    coherent error.  Every other model gives its channels.
    """
    if model.kind != "coherent_drift":
        return model.channels_for_gate(gate.qubits, rng)
    p = model.p1 if len(gate.qubits) == 1 else model.p2
    if p == 0.0:
        return []
    name = "rx" if gate.name == "rx" else "rz"
    return [Gate(name, (q,), float(rng.uniform(0.0, p))) for q in gate.qubits]


def attach_noise(circuit: Circuit, model: NoiseModel, seed: int = 0) -> Circuit:
    """Insert the ops ``gate_noise`` gives after every gate.

    Register-wide channels are pinned to this circuit's qubits so that later
    embedding into a larger register (extra copies, an ancilla) leaves their
    scope unchanged.  Coherent drift rides the circuit as rotation gates.
    """
    rng = np.random.default_rng(seed)
    scope = tuple(range(circuit.n))
    out = Circuit(circuit.n)
    for op in circuit.ops:
        out.ops.append(op)
        if isinstance(op, Gate):
            out.ops.extend(o if o.qubits else replace(o, qubits=scope)
                           for o in gate_noise(model, op, rng))
    return out


def _paired(circuit: Circuit) -> list[tuple[Gate, list[Channel]]]:
    pairs: list[tuple[Gate, list[Channel]]] = []
    for op in circuit.ops:
        if isinstance(op, Gate):
            pairs.append((op, []))
        else:
            if not pairs:
                raise ValueError("channel before any gate cannot be paired")
            pairs[-1][1].append(op)
    return pairs


def reversed_circuit(circuit: Circuit) -> Circuit:
    """Physical uncomputation: inverted gates in reverse order, noise kept."""
    out = Circuit(circuit.n)
    for gate, chans in reversed(_paired(circuit)):
        out.ops.append(gate.inverse())
        out.ops.extend(chans)
    return out


def dual_circuit(circuit: Circuit) -> Circuit:
    """Adjoint-Kraus dual of the uncomputation of ``circuit``.

    Applying this to |0..0><0..0| yields the dual state: original gate order
    and sense, each gate preceded by the duals of its noise in reverse
    order, as the adjoint of a composition reverses it.
    """
    out = Circuit(circuit.n)
    for gate, chans in _paired(circuit):
        for ch in reversed(chans):
            out.ops.append(ch.dual())
        out.ops.append(gate)
    return out


def dual_state(circuit: Circuit) -> np.ndarray:
    return run(dual_circuit(circuit))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b."""
    if a.shape != b.shape:
        raise SizeMismatchError("operands differ in dimension")
    sv = np.linalg.svd(a - b, compute_uv=False)
    return float(0.5 * np.sum(sv))


def expected_errors(circuit: Circuit) -> float:
    """Sum of expected error events over all attached channels."""
    return float(sum(ch.expected_errors() for ch in circuit.channels()))
