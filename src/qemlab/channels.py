"""Noise channels and noise models for the density-matrix simulator.

A channel acts on one or two named qubits (or globally) and is applied as a
Kraus sum or, for the mixing channels, as its direct affine form.  Channels
know how to produce their adjoint-Kraus dual, which is what turns a physical
uncomputation block into the operator that prepares the dual state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import NoiseRateError
from .pauli import PAULI_MATRICES

#: X/Y/Z error split of the stochastic Pauli channel.
PAULI_SPLIT = (0.2, 0.2, 0.6)

#: Two-qubit to one-qubit error-rate ratio of every NoiseModel.
TWO_QUBIT_RATIO = 10.0

#: Means of the per-attachment T1 and T2 draws, and their relative width.
T1_MEAN, T2_MEAN, T_SIGMA_FRAC = 50e-6, 70e-6, 0.1

#: Channel families a NoiseModel can attach.
NOISE_KINDS = ("none", "stochastic_pauli", "global_depolarizing", "local_depolarizing",
               "amplitude_damping", "thermal_relaxation", "coherent_drift")


@dataclass(frozen=True)
class Channel:
    """One noise process attached to a circuit location.

    kind: one of stochastic_pauli, global_depolarizing, local_depolarizing,
          amplitude_damping, thermal_relaxation.  Each is a Kraus or affine
          process; coherent drift is no channel but rotation gates, which
          ``circuits.gate_noise`` attaches.
    qubits: acted-on qubits; empty tuple for a global channel.
    params: kind-specific tuple (kept hashable for reuse bookkeeping).
    dualized: apply the adjoint Kraus set instead of the channel itself.
    """

    kind: str
    qubits: tuple[int, ...]
    params: tuple
    dualized: bool = False

    def dual(self) -> "Channel":
        if self.kind in ("stochastic_pauli", "global_depolarizing", "local_depolarizing"):
            return self  # hermitian Kraus sets are self-dual
        return replace(self, dualized=not self.dualized)

    @property
    def rate(self) -> float:
        """Error probability per acted-on qubit."""
        if self.kind == "thermal_relaxation":
            t1, t2, tg = self.params
            return 1.0 - math.exp(-tg / t1)
        return float(self.params[0])

    def expected_errors(self) -> float:
        """Expected number of error events this channel injects."""
        if self.kind == "global_depolarizing":
            return self.rate
        if self.kind == "local_depolarizing" and len(self.qubits) == 2:
            return self.rate  # single joint event on the pair
        return self.rate * max(len(self.qubits), 1)


def stochastic_pauli(p: float, qubits: tuple[int, ...], split=PAULI_SPLIT) -> Channel:
    _check_rate(p)
    return Channel("stochastic_pauli", tuple(qubits), (p,) + tuple(split))


def global_depolarizing(p: float) -> Channel:
    _check_rate(p)
    return Channel("global_depolarizing", (), (p,))


def local_depolarizing(p: float, qubits: tuple[int, ...]) -> Channel:
    _check_rate(p)
    if len(qubits) not in (1, 2):
        raise ValueError("local depolarizing acts on one qubit or one pair")
    return Channel("local_depolarizing", tuple(qubits), (p,))


def amplitude_damping(p: float, qubits: tuple[int, ...]) -> Channel:
    _check_rate(p)
    return Channel("amplitude_damping", tuple(qubits), (p,))


def thermal_relaxation(t1: float, t2: float, gate_time: float, qubit: int) -> Channel:
    if t2 > 2.0 * t1:
        raise ValueError("thermal relaxation requires T2 <= 2 T1")
    return Channel("thermal_relaxation", (qubit,), (float(t1), float(t2), float(gate_time)))


def _check_rate(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise NoiseRateError(f"rate {p} outside [0, 1]")


def single_qubit_kraus(ch: Channel) -> list[np.ndarray]:
    """Local 2x2 Kraus set of a stochastic Pauli, damping or relaxation channel
    (``circuits`` builds local depolarizing from its affine form)."""
    if ch.kind == "stochastic_pauli":
        p, px, py, pz = ch.params
        ops = [
            math.sqrt(1.0 - p) * np.eye(2, dtype=complex),
            math.sqrt(p * px) * PAULI_MATRICES["X"],
            math.sqrt(p * py) * PAULI_MATRICES["Y"],
            math.sqrt(p * pz) * PAULI_MATRICES["Z"],
        ]
    elif ch.kind == "amplitude_damping":
        p = ch.params[0]
        ops = [
            np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - p)]], dtype=complex),
            np.array([[0.0, math.sqrt(p)], [0.0, 0.0]], dtype=complex),
        ]
    elif ch.kind == "thermal_relaxation":
        t1, t2, tg = ch.params
        gamma = 1.0 - math.exp(-tg / t1)
        # pure dephasing on top of the damping, valid for T2 <= 2 T1
        f = math.exp(-tg / t2) / math.exp(-tg / (2.0 * t1))
        lam = max(0.0, 1.0 - f * f)
        ad = [
            np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex),
            np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex),
        ]
        pd = [
            np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex),
            np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex),
        ]
        ops = [a @ b for a in ad for b in pd]
    else:
        raise ValueError(f"no single-qubit Kraus form for {ch.kind}")
    if ch.dualized:
        ops = [k.conj().T for k in ops]
    return ops


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate channel assignment.

    kind selects the channel family; p1 applies to single-qubit gates and
    p2 = TWO_QUBIT_RATIO * p1 to each qubit of a two-qubit gate (or to the
    pair jointly for the local_depolarizing family).  Thermal relaxation
    attaches to each qubit of a two-qubit gate, its T1/T2 drawn per
    attachment from normal distributions around T1_MEAN/T2_MEAN with relative
    width T_SIGMA_FRAC, clipped to T2 <= 2 T1; every gate then also gets the
    stochastic Pauli channel at its rate.  Coherent drift attaches no
    channel: ``circuits.gate_noise``, the one rule for the ops after a gate,
    follows each gate with one rotation gate per gate qubit, rx after an rx
    and rz otherwise, by an angle drawn uniformly from [0, p].
    """

    kind: str = "stochastic_pauli"
    p1: float = 0.0
    gate_time: float = 200e-9

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind not in ("none", "coherent_drift"):
            _check_rate(self.p1)
            _check_rate(self.p2)
        elif self.kind == "coherent_drift" and not 0.0 <= self.p1 < np.inf:
            raise NoiseRateError(f"drift angle bound {self.p1} is not a finite number >= 0")

    @property
    def p2(self) -> float:
        return TWO_QUBIT_RATIO * self.p1

    def amplified(self, lam: float) -> "NoiseModel":
        """Scale every channel rate by lam (software-level amplification)."""
        if lam < 0:
            raise NoiseRateError("amplification factor must be non-negative")
        scaled = replace(self, p1=lam * self.p1)
        if self.kind == "thermal_relaxation":
            scaled = replace(scaled, gate_time=lam * self.gate_time)
        return scaled

    def channels_for_gate(self, qubits: tuple[int, ...], rng: np.random.Generator) -> list[Channel]:
        """Channels to append after one gate acting on the given qubits.

        Coherent drift has none; ``circuits.gate_noise``, the one caller,
        attaches it as rotation gates.
        """
        if self.kind == "none":
            return []
        two = len(qubits) >= 2
        p = self.p2 if two else self.p1
        if self.kind == "thermal_relaxation":
            out = []
            if two:
                for q in qubits:
                    t1 = rng.normal(T1_MEAN, T_SIGMA_FRAC * T1_MEAN)
                    t2 = rng.normal(T2_MEAN, T_SIGMA_FRAC * T2_MEAN)
                    t1 = max(t1, 1e-9)
                    t2 = min(max(t2, 1e-9), 2.0 * t1)
                    out.append(thermal_relaxation(t1, t2, self.gate_time, q))
            if p > 0.0:
                out.append(stochastic_pauli(p, qubits))
            return out
        if p == 0.0:
            return []
        if self.kind == "stochastic_pauli":
            return [stochastic_pauli(p, qubits)]
        if self.kind == "global_depolarizing":
            return [global_depolarizing(p)]
        if self.kind == "local_depolarizing":
            return [local_depolarizing(p, qubits)]
        if self.kind == "amplitude_damping":
            return [amplitude_damping(p, qubits)]
        raise AssertionError(self.kind)


def noiseless() -> NoiseModel:
    return NoiseModel(kind="none", p1=0.0)
